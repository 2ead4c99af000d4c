"""The region-slot `bt` player against the tree-descent player it replaced,
the hull-order audit on polygons against the pairwise reference, the
bisect placement of nested reds against the re-sorting construction, and
`bt` and the region engine's relabel count at scale."""
import functools
import math
import random
import time
from fractions import Fraction

import pytest
from bt_reference import brute_simulate, descent_bt
from helpers import reds

from ncmatch import engine, generators, geometry, offline
from ncmatch.adversaries import bnm_red_instance, markov_instance
from ncmatch.codecs import (
    bits_for_universe,
    catalan,
    enumerate_231_avoiding,
    tree_to_perm,
    tree_unrank,
)
from ncmatch.engine import asap_matching, bt_matching, greedy, make_engine, simulate
from ncmatch.errors import NotConvex
from ncmatch.geometry import BNM, CONVEX, MNM, Matching


def _random_convex_instances(n_max, seeds):
    for n in range(1, n_max + 1):
        for seed in range(seeds):
            yield generators.random_circle_instance(n, BNM, seed)
            try:
                yield generators.random_convex_polygon_instance(n, BNM, seed)
            except NotConvex:
                pass  # the polygon generator gives up on some (n, seed)


def _nested(n, reverse):
    sigma = list(range(n, 0, -1)) if reverse else list(range(1, n + 1))
    return bnm_red_instance(sigma).instance


def _assert_same_as_descent(inst):
    new = simulate(bt_matching(), inst)
    ref = brute_simulate(descent_bt(), inst)
    assert new.matching == ref.matching
    assert new.steps == ref.steps
    assert (new.bits_written, new.bits_read) == (ref.bits_written, ref.bits_read)
    assert new.violations == ref.violations


# ---------------------------------------------------------------------------
# region slots against the descent


def test_bt_matches_the_descent_on_random_circles_and_polygons():
    compared = {geometry.CIRCLE: 0, CONVEX: 0}
    for inst in _random_convex_instances(40, 2):
        _assert_same_as_descent(inst)
        compared[inst.geometry] += 1
    assert compared[geometry.CIRCLE] == 80 and compared[CONVEX] >= 60


def test_bt_matches_the_descent_on_every_231_avoiding_sigma():
    for n in range(1, 7):
        for sigma in enumerate_231_avoiding(n):
            _assert_same_as_descent(bnm_red_instance(sigma).instance)


@pytest.mark.parametrize("n", [1, 2, 10, 50, 120])
@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reverse"])
def test_bt_matches_the_descent_on_nested_sigma(n, reverse):
    _assert_same_as_descent(_nested(n, reverse))


def test_bt_makes_no_half_plane_test(monkeypatch):
    calls = []
    real = geometry.half_plane_side
    monkeypatch.setattr(geometry, "half_plane_side", lambda *a: calls.append(a) or real(*a))
    for inst in _random_convex_instances(12, 1):
        assert simulate(bt_matching(), inst).violations.perfect
    assert calls == []


# ---------------------------------------------------------------------------
# polygon audit


def _pairwise_crossings(inst, edges):
    # segments on integer coordinates, independent of the hull ranks
    ends = inst.int_xy
    return [
        (e, f)
        for x, e in enumerate(edges)
        for f in edges[x + 1 :]
        if geometry.seg_cross_int((ends[e[0] - 1], ends[e[1] - 1]), (ends[f[0] - 1], ends[f[1] - 1]))
    ]


def test_polygon_audit_matches_the_pairwise_reference():
    rng = random.Random(5)
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 9)
        kind = rng.choice([BNM, MNM])
        try:
            inst = generators.random_convex_polygon_instance(n, kind, trial)
        except NotConvex:
            continue
        if trial % 3 == 0:
            edges = sorted(offline.convex_noncrossing_pm(inst).edges)
        else:
            ids = list(range(1, 2 * n + 1))
            rng.shuffle(ids)
            k = rng.randint(0, n)
            edges = sorted(tuple(sorted(ids[2 * t : 2 * t + 2])) for t in range(k))
        report = offline.validate_matching(inst, Matching.from_pairs(edges))
        assert report.crossings == _pairwise_crossings(inst, edges)
        seen.add(bool(report.crossings))
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# nested red placement


def reference_red_angles(sigma):
    """The construction that re-sorted the placed reds at every arrival."""
    values = tuple(sigma)
    reds = []
    for i, s in enumerate(values, start=1):
        j = 1 + sum(1 for t in values[: i - 1] if t < s)
        bounds = [Fraction(1, 2), *sorted(reds), Fraction(1)]
        reds.append((bounds[j - 1] + bounds[j]) / 2)
    return reds


def test_red_placement_matches_the_re_sorting_construction():
    rng = random.Random(31)
    sigmas = [list(range(1, 41)), list(range(40, 0, -1))]
    for _ in range(30):
        n = rng.randint(1, 40)
        sigmas.append(tree_to_perm(tree_unrank(n, rng.randrange(catalan(n)))).values)
    for sigma in sigmas:
        inst = bnm_red_instance(sigma).instance
        assert [p.angle for p in reds(inst)] == reference_red_angles(sigma)
    for _ in range(30):
        sigma = list(range(1, rng.randint(1, 40) + 1))
        rng.shuffle(sigma)
        inst = bnm_red_instance(sigma, allow_any=True).instance
        assert [p.angle for p in reds(inst)] == reference_red_angles(sigma)


# ---------------------------------------------------------------------------
# scale


def _bt_perfect_within(budget, build):
    """bt on build()'s instance, generation included, within budget seconds."""
    started = time.perf_counter()
    inst = build()
    sim = simulate(bt_matching(), inst)
    elapsed = time.perf_counter() - started
    assert sim.violations.perfect
    assert sim.bits_read == sim.bits_written == bits_for_universe(catalan(inst.n))
    assert elapsed < budget, f"bt took {elapsed:.1f}s, budget {budget:.0f}s"


def test_bt_at_ten_thousand_pairs_on_a_random_circle():
    # about 2.5 s on a 2-core box; the descent player took over 30 s
    _bt_perfect_within(20, lambda: generators.random_circle_instance(10**4, BNM, 0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bt_at_a_thousand_pairs_on_a_random_polygon(seed):
    # about 1 s each on a 2-core box, most of it generation
    _bt_perfect_within(15, lambda: generators.random_convex_polygon_instance(1000, BNM, seed))


@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reverse"])
@pytest.mark.parametrize("n, budget", [(2000, 25), (10**4, 30)], ids=["2000", "10000"])
def test_bt_on_nested_sigma_at_scale(n, budget, reverse):
    # on a 2-core box: under 0.5 s each at n = 2000 (the descent player and
    # the re-sorting red placement took over 40 s) and 2 to 3 s at n = 10^4,
    # most of it generation (about 18 s with the oracle's former descent)
    _bt_perfect_within(budget, lambda: _nested(n, reverse))


def _engine_phase_seconds(inst):
    """Drive the region engine with the oracle's matching; only this phase
    is timed."""
    m = offline.convex_noncrossing_pm(inst)
    partner = {}
    for a, b in m.edges:
        partner[a], partner[b] = b, a
    eng = make_engine(inst)
    started = time.perf_counter()
    for i in range(1, inst.size + 1):
        cnt = eng.on_arrival(i)
        j = partner[i]
        if j > i:
            eng.commit(None)
            continue
        assert eng.has(j)
        left, right = eng.commit(j)
        assert left + right == cnt - 1
    elapsed = time.perf_counter() - started
    assert all(not free for free in eng.free)
    return elapsed


@functools.lru_cache(maxsize=1)
def _nested_at_ten_thousand():
    """Shared by the tests that time or count only the engine; building it
    takes about 2 s on a 2-core box."""
    return _nested(10**4, False)


@pytest.mark.parametrize("family", ["nested", "random"])
def test_region_engine_at_ten_thousand_pairs(family):
    # the engine alone, fed the oracle's matching: about 0.15 s on a 2-core
    # box; the walk along the arrived points took 4.2 to 4.4 s on nested
    # sigma
    n = 10**4
    if family == "nested":
        inst = _nested_at_ten_thousand()
    else:
        inst = generators.random_circle_instance(n, BNM, 0)
    budget = 2
    elapsed = _engine_phase_seconds(inst)
    assert elapsed < budget, f"engine took {elapsed:.2f}s, budget {budget}s"


_RELABEL_CASES = {
    "bt-random": (bt_matching, lambda: generators.random_circle_instance(10**4, BNM, 0)),
    "bt-nested": (bt_matching, _nested_at_ten_thousand),
    "asap": (asap_matching, lambda: generators.random_circle_instance(10**4, MNM, 0)),
    "greedy-markov": (greedy, lambda: markov_instance(10**4, 1).instance),
}


@pytest.mark.parametrize("case", list(_RELABEL_CASES))
def test_region_relabels_stay_within_m_log_m_at_ten_thousand_pairs(case, monkeypatch):
    # the side of a cut region with fewer ranks takes the new id, so a rank
    # is relabelled at most log2 m times.  Measured per engine (the player's,
    # and under asap also the oracle's replay): 60 911 on the random circle,
    # 19 998 on nested sigma, 92 167 under asap and 19 996 under greedy on
    # the Markov instance, against the bound of 300 000.  The bt oracle
    # builds its tree offline and runs no engine.
    engines = []

    class Counted(engine._RegionEngine):
        def __init__(self, instance):
            super().__init__(instance)
            engines.append(self)

    monkeypatch.setattr(engine, "_RegionEngine", Counted)
    alg, build = _RELABEL_CASES[case]
    inst = build()
    if alg is bt_matching:
        engine._bt_oracle(inst)
        assert engines == []
    sim = simulate(alg(), inst)
    assert not sim.violations.crossings
    assert sim.violations.perfect or case == "greedy-markov"
    m = inst.size
    assert len(engines) == (2 if case == "asap" else 1)
    for eng in engines:
        assert 0 < eng.relabels <= m * math.ceil(math.log2(m)) == 300_000
