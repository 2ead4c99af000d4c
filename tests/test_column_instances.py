"""Every instance is one integer grid plus a colour column: ticks over a
unit on circles, integer (x, y) pairs over a unit elsewhere.  Size,
colours, ranks, equality, hashing and ``repr`` come from the columns, and
``points`` is a view built from them on first read.  An instance built from
ticks is the one ``Instance.build`` makes from its points, and agrees with
it on everything it outputs; a greedy run on it builds no point at all."""
import json
import time

import pytest
from bt_reference import available, brute_simulate

from ncmatch import adversaries, campaigns, engine, generators, geometry, serial
from ncmatch.engine import simulate
from ncmatch.errors import IllegalMatch, InvalidInstance
from ncmatch.geometry import BLUE, BNM, CIRCLE, CONVEX, MNM, RED, Instance

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
        assert "points" not in vars(col) and "points" not in vars(ref)
        assert col.grid == ref.grid
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
        Instance.from_ticks([3, 5, 3, 7], 16, MNM)
    # the same check without validation, when the ranks are first read
    inst = Instance.from_ticks([3, 5, 3, 7], 16, MNM, validate=False)
    with pytest.raises(InvalidInstance, match="duplicate circle points"):
        inst.ranks
    # building from the points view raises the same
    with pytest.raises(InvalidInstance, match="duplicate circle points"):
        Instance.build(inst.points, MNM, CIRCLE)


@pytest.mark.parametrize(
    "ticks, bits, kind, colors, message",
    [
        ([0, 16], 4, MNM, None, r"ticks must lie in \[0, unit\)"),
        ([-1, 3], 4, MNM, None, r"ticks must lie in \[0, unit\)"),
        ([1, 2, 3], 4, MNM, None, "positive even number"),
        ([], 4, MNM, None, "positive even number"),
        ([1, 2], 4, BNM, None, "n blue points then n red"),
        ([1, 2], 4, BNM, [RED, BLUE], "n blue points then n red"),
        ([1, 2], 4, MNM, [BLUE, RED], "MNM points must be uncolored"),
        ([1, 2], 4, "XNM", None, "unknown kind"),
    ],
)
def test_tick_instances_are_validated_on_their_columns(ticks, bits, kind, colors, message):
    # ticks carry no colours, so the colour faults (and a BNM case, whose
    # colours come from arrival position on ticks) are reached through rows
    rows = [(None, None, (t, 1 << bits), c) for t, c in zip(ticks, colors or [None] * len(ticks))]
    with pytest.raises(InvalidInstance, match=message):
        Instance.from_rows(rows, kind, CIRCLE)
    if colors is None and kind != BNM:
        with pytest.raises(InvalidInstance, match=message):
            Instance.from_ticks(ticks, 1 << bits, kind)


@pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
def test_off_convention_colours_raise_whether_or_not_validated(validate):
    # colour is arrival position, so the one check of colours from outside,
    # in from_rows, runs with validation off as well
    xy = [(0, 0), (4, 1), (1, 5), (6, 7)]
    cases = [
        (BNM, [RED, BLUE, BLUE, RED], "n blue points then n red"),
        (BNM, [BLUE, BLUE, BLUE, RED], "n blue points then n red"),
        (BNM, [None] * 4, "n blue points then n red"),
        (MNM, [BLUE, BLUE, RED, RED], "MNM points must be uncolored"),
    ]
    for kind, colors, message in cases:
        pts = [geometry.plane_point(x, y, i, c) for i, ((x, y), c) in enumerate(zip(xy, colors), 1)]
        with pytest.raises(InvalidInstance, match=message):
            Instance.build(pts, kind, CONVEX, validate=validate)
        rows = [(None, None, (t, 16), c) for t, c in zip((1, 5, 9, 13), colors)]
        with pytest.raises(InvalidInstance, match=message):
            Instance.from_rows(rows, kind, CIRCLE, validate=validate)
    # the kind's own colours pass, and ticks take them from the kind
    assert Instance.from_ticks([1, 5, 9, 13], 16, BNM).colors == (BLUE, BLUE, RED, RED)
    assert Instance.from_ticks([1, 5, 9, 13], 16, MNM).colors == (None,) * 4


def test_reading_the_points_keeps_the_ticks():
    inst = generators.random_circle_instance(20, BNM, 3)
    ranks, grid = inst.ranks, inst.grid
    assert "points" not in vars(inst)
    pts = inst.points
    assert inst.grid is grid and inst.points is pts
    assert [p.arrival_index for p in pts] == list(range(1, 41))
    assert [p.color for p in pts] == [BLUE] * 20 + [RED] * 20
    # the view is built from the ticks; the writer's pass builds its own
    assert list(inst.iter_points()) == list(pts)
    assert all(a is not b for a, b in zip(inst.iter_points(), pts))
    fresh = generators.random_circle_instance(20, BNM, 3)
    fresh.points
    assert fresh.ranks == ranks


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
        assert instance.grid is not None


def test_a_bt_run_builds_no_points():
    # the bt player learns n up front, not the blue points
    inst = generators.random_circle_instance(50, BNM, 1)
    sim = simulate(engine.bt_matching(), inst)
    assert sim.violations.perfect
    assert "points" not in vars(inst)


@pytest.mark.parametrize("make", [engine._RegionEngine, engine._BruteEngine], ids=["region", "brute"])
def test_commit_rejects_an_unavailable_point_on_both_engines(make):
    inst = generators.random_circle_instance(3, MNM, 0)
    eng = make(inst)
    eng.on_arrival(1)
    eng.commit(None)
    eng.on_arrival(2)
    assert eng.commit(1) == (0, 0)  # 1 is matched from here on
    assert eng.on_arrival(3) == 0
    for j in (1, 3, 4, 0, -1):
        with pytest.raises(IllegalMatch, match=f"^arrival 3 tried to match unavailable point {j}$"):
            eng.commit(j)
    # a refused commit leaves the arrival pending
    assert available(eng, 3) == [] and eng.commit(None) == (None, None)
    assert eng.on_arrival(4) == 1 and available(eng, 4) == [3]
    assert sum(eng.commit(3)) == 0


@pytest.mark.parametrize("run", [simulate, brute_simulate], ids=["region", "brute"])
def test_the_view_hands_the_arriving_point_on_both_engines(run):
    # sorted reads each arrival's exact x-key, so a tick circle builds no points
    inst = generators.random_circle_instance(4, MNM, 1)
    res = run(engine.sorted_matching(), inst)
    assert "points" not in vars(inst)
    assert _fields(res) == _fields(simulate(engine.sorted_matching(), inst))


def test_equal_instances_compare_and_hash_without_building_points():
    # equality, hashing and repr read the columns: no view of 10^4 points
    a, b = (adversaries.markov_instance(5000, 1).instance for _ in range(2))
    start = time.perf_counter()
    assert a == b
    elapsed = time.perf_counter() - start
    assert hash(a) == hash(b)
    assert repr(a) == "Instance(kind='MNM', geometry='circle', size=10000)"
    assert a != adversaries.markov_instance(5000, 2).instance
    assert "points" not in vars(a) and "points" not in vars(b)
    assert elapsed < 0.05, f"{elapsed:.3f} s"


FAMILIES = {
    "markov": lambda s: adversaries.markov_instance(20, s).instance,
    "circle-MNM": lambda s: generators.random_circle_instance(10, MNM, s),
    "circle-BNM": lambda s: generators.random_circle_instance(10, BNM, s),
    "polygon-MNM": lambda s: generators.random_convex_polygon_instance(10, MNM, s),
    "polygon-BNM": lambda s: generators.random_convex_polygon_instance(10, BNM, s),
    "general": lambda s: generators.random_general_instance(10, s),
    "bnm-perm": lambda s: list(adversaries.bnm_family(3))[s].instance,
    "mnm-family": lambda s: list(adversaries.mnm_family(1))[s].instance,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_is_rebuilt_from_its_points_view(family):
    for seed in range(3):
        inst = FAMILIES[family](seed)
        assert "points" not in vars(inst)  # built from integers, not from points
        back = Instance.build(inst.points, inst.kind, inst.geometry)
        assert back == inst and hash(back) == hash(inst) and back.grid == inst.grid


def test_planar_generators_hand_integer_pairs_to_the_instance():
    for inst in (
        generators.random_convex_polygon_instance(8, BNM, 3),
        generators.random_general_instance(8, 3),
    ):
        xy, unit = inst.grid
        assert unit == 1 and all(type(v) is int for pair in xy for v in pair)
        assert inst.int_xy is xy and inst.x_keys == [x for x, _y in xy]
        assert "points" not in vars(inst)
        assert [(p.x, p.y) for p in inst.points] == xy
        assert [p.color for p in inst.points] == list(inst.colors)


def test_int_xy_exists_only_off_the_circle():
    circle = generators.random_circle_instance(3, MNM, 0)
    with pytest.raises(InvalidInstance, match="circle instances have ticks"):
        circle.int_xy  # noqa: B018
    polygon = generators.random_convex_polygon_instance(3, MNM, 0)
    assert polygon.geometry == CONVEX and polygon.int_xy == polygon.grid[0]
