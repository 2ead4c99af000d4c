"""Circle instances built from integer ticks keep them as columns: size,
colours and ranks come from the columns, and ``points`` is a view built on
first read that drops the ticks.  Such an instance agrees with the one
``Instance.build`` makes from its points on everything it outputs, and a
greedy run on it builds no point at all."""
import json

import pytest

from ncmatch import adversaries, campaigns, engine, generators, geometry, serial
from ncmatch.engine import make_engine, simulate
from ncmatch.errors import IllegalMatch, InvalidInstance
from ncmatch.geometry import BLUE, BNM, CIRCLE, MNM, RED, Instance

SIZES = (1, 2, 3, 50, 200)
SEEDS = range(6)


def _markov(n, seed):
    return adversaries.markov_instance(n, seed).instance


def _circle(kind):
    return lambda n, seed: generators.random_circle_instance(n, kind, seed)


BUILDERS = {"markov": _markov, "circle-MNM": _circle(MNM), "circle-BNM": _circle(BNM)}


def _fields(res):
    return res.matching, res.bits_written, res.bits_read, res.steps, res.violations


def _runs(inst):
    yield simulate(engine.greedy(), inst)
    if inst.kind == BNM:
        yield simulate(engine.bt_matching(), inst)
    else:
        yield simulate(engine.asap_matching(), inst)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", BUILDERS)
def test_column_instances_match_point_instances(name, n):
    build = BUILDERS[name]
    for seed in SEEDS:
        col = build(n, seed)
        ref = Instance.build(build(n, seed).points, col.kind, CIRCLE)
        assert "points" not in vars(col) and "points" in vars(ref)
        assert (col.size, col.n, col.colors) == (ref.size, ref.n, ref.colors)
        assert col.ranks == ref.ranks
        assert col.crossing_view[0] == ref.crossing_view[0]
        for got, want in zip(_runs(col), _runs(ref), strict=True):
            assert _fields(got) == _fields(want)
        assert json.dumps(serial.instance_to_json(col)) == json.dumps(
            serial.instance_to_json(ref)
        )
        assert col == ref and hash(col) == hash(ref) and repr(col) == repr(ref)


def test_equal_ticks_raise_invalid_instance():
    with pytest.raises(InvalidInstance, match="duplicate circle points"):
        Instance.from_ticks([3, 5, 3, 7], 4, MNM)
    # the same check without validation, when the ranks are first read
    inst = Instance.from_ticks([3, 5, 3, 7], 4, MNM, validate=False)
    with pytest.raises(InvalidInstance, match="duplicate circle points"):
        inst.ranks
    # the angle path raises the same on the same points
    with pytest.raises(InvalidInstance, match="duplicate circle points"):
        Instance.build(inst.points, MNM, CIRCLE)


@pytest.mark.parametrize(
    "ticks, bits, kind, colors, message",
    [
        ([0, 16], 4, MNM, None, r"ticks must lie in \[0, 2\^4\)"),
        ([-1, 3], 4, MNM, None, r"ticks must lie in \[0, 2\^4\)"),
        ([1, 2, 3], 4, MNM, None, "positive even number"),
        ([], 4, MNM, None, "positive even number"),
        ([1, 2], 4, BNM, None, "n blue points then n red"),
        ([1, 2], 4, BNM, [RED, BLUE], "n blue points then n red"),
        ([1, 2], 4, MNM, [BLUE, RED], "MNM points must be uncolored"),
        ([1, 2], 4, "XNM", None, "unknown kind"),
    ],
)
def test_tick_instances_are_validated_on_their_columns(ticks, bits, kind, colors, message):
    with pytest.raises(InvalidInstance, match=message):
        Instance.from_ticks(ticks, bits, kind, colors)


def test_reading_the_points_drops_the_ticks():
    inst = generators.random_circle_instance(20, BNM, 3)
    ranks = inst.ranks
    assert inst._grid is not None and "points" not in vars(inst)
    pts = inst.points
    assert inst._grid is None and inst.points is pts
    assert [p.arrival_index for p in pts] == list(range(1, 41))
    assert [p.color for p in pts] == [BLUE] * 20 + [RED] * 20
    # ranks read after the drop come from the angles, and agree
    fresh = generators.random_circle_instance(20, BNM, 3)
    fresh.points
    assert fresh._grid is None and fresh.ranks == ranks


def test_a_greedy_coupling_trial_builds_no_points(monkeypatch):
    made = []

    def recording(n, seed):
        made.append(adversaries.markov_instance(n, seed))
        return made[-1]

    def no_points(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(campaigns, "markov_instance", recording)
    monkeypatch.setattr(geometry, "grid_points", no_points)
    for seed in range(3):
        campaigns._coupling_trial((200, seed))
    inst = adversaries.markov_instance(200, 7).instance
    sim = simulate(engine.greedy(), inst)
    assert sim.violations.valid
    for instance in [ai.instance for ai in made] + [inst]:
        assert "points" not in vars(instance)
        assert instance._grid is not None


@pytest.mark.parametrize("mode", ["region", "brute"])
def test_commit_rejects_an_unavailable_point_on_both_engines(mode):
    inst = generators.random_circle_instance(3, MNM, 0)
    eng = make_engine(inst, mode)
    eng.on_arrival(1)
    eng.commit(None)
    eng.on_arrival(2)
    assert eng.commit(1) == (0, 0)  # 1 is matched from here on
    eng.on_arrival(3)
    for j in (1, 3, 4, 0, -1):
        with pytest.raises(IllegalMatch, match=f"^arrival 3 tried to match unavailable point {j}$"):
            eng.commit(j)
    # a refused commit leaves the arrival pending
    assert eng.count() == 0 and eng.commit(None) == (None, None)
    eng.on_arrival(4)
    assert eng.indices() == [3] and eng.has(3) and not eng.has(1)
    assert sum(eng.commit(3)) == 0


@pytest.mark.parametrize("mode", ["region", "brute"])
def test_the_view_hands_the_arriving_point_on_both_engines(mode):
    inst = generators.random_circle_instance(4, MNM, 1)
    eng = make_engine(inst, mode)
    assert "points" not in vars(inst)
    for i in range(1, inst.size + 1):
        eng.on_arrival(i)
        assert eng.point() is inst.points[i - 1]
        eng.commit(None)
    by_engine = [simulate(engine.sorted_matching(), inst, m) for m in ("region", "brute")]
    assert _fields(by_engine[0]) == _fields(by_engine[1])
