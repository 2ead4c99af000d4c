"""The one arrival loop: ``SimulationResult.steps`` records every decision,
and the asap oracle replays its word through the player's loop.  The
oracle's former loop over the availability engine is kept here as the
reference for the word."""
import pytest
from bt_reference import available

from ncmatch import engine, generators, geometry
from ncmatch.adversaries import markov_instance
from ncmatch.codecs import DyckWord
from ncmatch.engine import _asap_word, make_engine, simulate
from ncmatch.errors import NotConvex
from ncmatch.geometry import BNM, MNM, Matching


def reference_asap_word(instance, tie_break):
    """Bit i says whether an opposite-parity point is available at arrival
    i; the oracle drives the engine itself and mirrors the tie-break."""
    chi = geometry.parity(instance)
    eng = make_engine(instance)
    bits = []
    for i in range(1, instance.size + 1):
        cnt = eng.on_arrival(i)
        matched = False
        if cnt:
            idxs = available(eng, i)
            if any(chi[j - 1] != chi[i - 1] for j in idxs):
                bits.append(1)
                j = min(idxs) if tie_break == "min" else max(idxs)
                eng.commit(j)
                matched = True
        if not matched:
            bits.append(0)
            eng.commit(None)
    return DyckWord(tuple(bits))


def _convex_instances(kind, n_max, seeds):
    for n in range(1, n_max + 1):
        for seed in range(seeds):
            yield generators.random_circle_instance(n, kind, seed)
            try:
                yield generators.random_convex_polygon_instance(n, kind, seed)
            except NotConvex:
                pass  # the polygon generator gives up on some (n, seed)


# ---------------------------------------------------------------------------
# the asap word against the reference loop


@pytest.mark.parametrize("tie_break", ["min", "max"])
def test_asap_word_matches_the_reference_on_circles_and_polygons(tie_break):
    compared = 0
    for inst in _convex_instances(MNM, 40, 3):
        assert _asap_word(inst, tie_break) == reference_asap_word(inst, tie_break)
        compared += 1
    assert compared >= 200


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tie_break", ["min", "max"])
def test_asap_word_matches_the_reference_on_markov_instances(tie_break, seed):
    inst = markov_instance(200, seed).instance
    assert _asap_word(inst, tie_break) == reference_asap_word(inst, tie_break)


# ---------------------------------------------------------------------------
# the steps record


@pytest.mark.parametrize("make", [engine.bt_matching, engine.greedy], ids=["bt", "greedy"])
def test_bnm_steps_hold_the_reds_only_and_build_the_matching(make):
    for inst in _convex_instances(BNM, 12, 2):
        n = inst.n
        sim = simulate(make(), inst)
        assert [step[0] for step in sim.steps] == list(range(n + 1, 2 * n + 1))
        partners = [(i, j) for i, _a, j, _l, _r in sim.steps if j is not None]
        assert sim.matching == Matching.from_pairs(partners)
        for _i, available, j, left, right in sim.steps:
            if j is None:
                assert left is None and right is None
            else:
                assert 1 <= j <= n and left + right == available - 1


def test_each_check_runs_once_per_simulate(monkeypatch):
    calls = []

    def counting(check):
        def counted(instance):
            calls.append(instance)
            check(instance)

        return counted

    real_convex = engine._check_convex
    monkeypatch.setattr(engine, "_check_convex", lambda kind: counting(real_convex(kind)))
    monkeypatch.setattr(engine, "_check_sorted", counting(engine._check_sorted))
    cases = [
        (engine.bt_matching, generators.random_circle_instance(5, BNM, 1)),
        (engine.asap_matching, generators.random_circle_instance(5, MNM, 1)),
        (engine.sorted_matching, generators.random_general_instance(5, 1)),
    ]
    for make, inst in cases:
        calls.clear()
        assert simulate(make(), inst).violations.perfect
        assert calls == [inst]
