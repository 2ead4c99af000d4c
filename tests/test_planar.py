"""The integer view of planar instances: the quadratic general-position
check, the integer segment predicate and the planar audit, checked against
the cubic loop and the Fraction predicates they replaced; the convex
polygon generator's wide-span fallback; planar runs at n = 1000."""
import functools
import hashlib
import json
import random
import re
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from ncmatch import engine, generators, geometry, offline, serial
from ncmatch.cli import main
from ncmatch.engine import greedy, make_engine, simulate, sorted_matching
from ncmatch.errors import InvalidInstance, NcmatchError, SharedEndpoint
from ncmatch.geometry import (
    BNM,
    CONVEX,
    GENERAL,
    MNM,
    Instance,
    collinear_triple,
    integer_grid,
    plane_point,
    seg_cross_int,
    segments_cross,
)


# ---------------------------------------------------------------------------
# references


def reference_has_collinear_triple(pts) -> bool:
    """The cubic loop over all triples; works on ints and Fractions."""
    m = len(pts)
    for i in range(m - 2):
        ax, ay = pts[i]
        for j in range(i + 1, m - 1):
            dx, dy = pts[j][0] - ax, pts[j][1] - ay
            for k in range(j + 1, m):
                if dx * (pts[k][1] - ay) == dy * (pts[k][0] - ax):
                    return True
    return False


def _reference_sign(a, b, c) -> int:
    """Sign of (b-a) x (c-a) in Fraction arithmetic."""
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (v > 0) - (v < 0)


def _reference_on_segment(a, b, x) -> bool:
    return min(a.x, b.x) <= x.x <= max(a.x, b.x) and min(a.y, b.y) <= x.y <= max(a.y, b.y)


def reference_segments_cross(e1, e2) -> bool:
    """The planar branch of segments_cross as four orientation tests and a
    bounding-box test, with its shared-endpoint guard."""
    p1, p2 = e1
    q1, q2 = e2
    for u in (p1, p2):
        for v in (q1, q2):
            if (u.x, u.y) == (v.x, v.y):
                raise SharedEndpoint("shared endpoint")
    s1 = _reference_sign(q1, q2, p1)
    s2 = _reference_sign(q1, q2, p2)
    s3 = _reference_sign(p1, p2, q1)
    s4 = _reference_sign(p1, p2, q2)
    if 0 not in (s1, s2, s3, s4):
        return s1 != s2 and s3 != s4
    return (
        (s1 == 0 and _reference_on_segment(q1, q2, p1))
        or (s2 == 0 and _reference_on_segment(q1, q2, p2))
        or (s3 == 0 and _reference_on_segment(p1, p2, q1))
        or (s4 == 0 and _reference_on_segment(p1, p2, q2))
    )


def reference_crossings(instance, edges):
    """validate_matching's pair loop with the reference predicate."""
    pts = instance.points
    usable = [(min(a, b), max(a, b)) for a, b in edges]
    out = []
    for x in range(len(usable)):
        for y in range(x + 1, len(usable)):
            a, b = usable[x]
            c, d = usable[y]
            if len({a, b, c, d}) < 4:
                continue
            if reference_segments_cross((pts[a - 1], pts[b - 1]), (pts[c - 1], pts[d - 1])):
                out.append((usable[x], usable[y]))
    return out


# ---------------------------------------------------------------------------
# point sets


def _coord(rng, rational: bool):
    v = rng.randrange(-6, 7)
    return Fraction(v, rng.choice((1, 2, 3, 5))) if rational else v


def random_point_set(rng, m: int, rational: bool) -> list[tuple]:
    """Small coordinates, so that collinear triples and duplicates occur by
    chance; some sets get a planted triple, duplicate or axis-parallel line."""
    pts = [(_coord(rng, rational), _coord(rng, rational)) for _ in range(m)]
    plant = rng.randrange(5)
    if plant == 1 and m >= 3:  # a planted triple on a random line
        i, j, k = rng.sample(range(m), 3)
        (ax, ay), (bx, by) = pts[i], pts[j]
        t = Fraction(rng.randrange(-3, 4), rng.choice((1, 2)))
        pts[k] = (ax + t * (bx - ax), ay + t * (by - ay))
    elif plant == 2 and m >= 2:  # a duplicate
        i, j = rng.sample(range(m), 2)
        pts[j] = pts[i]
    elif plant == 3 and m >= 3:  # three on a vertical or a horizontal line
        i, j, k = rng.sample(range(m), 3)
        c = _coord(rng, rational)
        if rng.random() < 0.5:
            for t in (i, j, k):
                pts[t] = (c, pts[t][1])
        else:
            for t in (i, j, k):
                pts[t] = (pts[t][0], c)
    return pts


def test_collinear_triple_agrees_with_the_cubic_loop():
    rng = random.Random(2024)
    hits = 0
    for trial in range(3000):
        rational = trial % 2 == 1
        m = rng.randrange(0, 9)
        pts = random_point_set(rng, m, rational)
        points = [plane_point(x, y, i + 1) for i, (x, y) in enumerate(pts)]
        expected = reference_has_collinear_triple(pts)
        triple = collinear_triple(integer_grid(points)[0])
        assert (triple is not None) == expected, pts
        if triple is not None:
            hits += 1
            i, j, k = triple
            assert len({i, j, k}) == 3
            assert reference_has_collinear_triple([pts[i], pts[j], pts[k]])
    assert 500 < hits < 2500  # both verdicts are well exercised


def test_collinear_triple_on_integer_sets_and_edge_cases():
    # the positions are pinned: the first repeat from the earliest point wins
    assert collinear_triple([]) is None
    assert collinear_triple([(0, 0), (0, 0)]) is None  # fewer than three points
    assert collinear_triple([(0, 0), (1, 5), (0, 0)]) == (0, 2, 1)
    assert collinear_triple([(3, 3), (1, 1), (2, 2), (0, 0)]) == (0, 1, 2)
    assert collinear_triple([(0, -4), (0, 7), (0, 1)]) == (0, 1, 2)  # vertical
    assert collinear_triple([(-4, 2), (9, 2), (5, 1), (3, 2)]) == (0, 1, 3)  # horizontal
    assert collinear_triple([(0, 0), (1, 0), (0, 1), (1, 1)]) is None
    assert collinear_triple([(0, 0), (5, 5), (5, 5), (1, 2)]) == (0, 1, 2)
    assert collinear_triple([(0, 0), (1, 2), (5, 5), (5, 5)]) == (0, 2, 3)
    rng = random.Random(7)
    for _ in range(300):
        pts = [(rng.randrange(-10**9, 10**9), rng.randrange(-10**9, 10**9)) for _ in range(12)]
        assert (collinear_triple(pts) is not None) == reference_has_collinear_triple(pts)


@pytest.mark.parametrize("span", [10**6, 10**12])
def test_collinear_triple_tells_the_tightest_slopes_apart(span):
    # slopes 1/(D - 1) and 1/D from the origin differ by 1/(D(D - 1)), the
    # least gap two distinct slopes can have at x-span D
    assert collinear_triple([(0, 0), (span - 1, 1), (span, 1)]) is None
    assert collinear_triple([(0, 0), (-span + 1, -1), (span, 1)]) is None
    assert collinear_triple([(0, 0), (span - 1, 1), (2 * span - 2, 2)]) == (0, 1, 2)


def test_collinear_triple_with_negative_coordinates_and_vertical_pairs():
    big = 10**12
    a, b, c = (-big, -big + 1), (big, big - 1), (0, 0)  # c is the midpoint
    near = (1, 1)  # slope big / (big + 1) from a, next to a-b's
    assert collinear_triple([a, near, b, c]) == (0, 2, 3)
    assert collinear_triple([a, near, b, (3, 2)]) is None
    assert collinear_triple([(big, -big), (7, 3), (-big, big - 1), (-5, -5)]) is None
    assert collinear_triple([(-3, 7), (-3, -2), (4, 1), (-3, 0)]) == (0, 1, 3)
    assert collinear_triple([(2, -1), (2, 5), (-6, -4), (10, 2)]) == (0, 2, 3)
    assert collinear_triple([(5, -big), (5, big), (4, 0), (6, 1)]) is None
    assert collinear_triple([(4, 0), (5, -big), (5, big), (5, 1)]) == (1, 2, 3)
    rng = random.Random(19)
    hits = 0
    for _ in range(400):
        pts = [(rng.randrange(-big, big), rng.randrange(-big, big)) for _ in range(8)]
        if rng.random() < 0.5:  # three points on one line through a lattice step
            (x, y), dx, dy = pts[0], rng.randrange(-9, 10), rng.randrange(1, 10)
            for t in rng.sample(range(1, 8), 2):
                k = rng.choice((-1, 1)) * rng.randrange(1, 10**9)
                pts[t] = (x + k * dx, y + k * dy)
        expected = reference_has_collinear_triple(pts)
        triple = collinear_triple(pts)
        assert (triple is not None) == expected, pts
        if triple is not None:
            hits += 1
            assert reference_has_collinear_triple([pts[t] for t in triple])
    assert hits > 150


def test_validate_instance_rejects_exactly_the_collinear_sets():
    rng = random.Random(99)
    rejected = 0
    for trial in range(1500):
        m = rng.choice((4, 6, 8))
        pts = random_point_set(rng, m, rational=trial % 2 == 1)
        points = [plane_point(x, y, i + 1) for i, (x, y) in enumerate(pts)]
        if reference_has_collinear_triple(pts):
            with pytest.raises(InvalidInstance) as info:
                Instance.build(points, MNM, GENERAL)
            assert type(info.value) is InvalidInstance
            rejected += 1
        else:
            Instance.build(points, MNM, GENERAL)
    assert 200 < rejected < 1300


def test_validate_instance_names_a_collinear_triple():
    pts = [plane_point(0, 0, 1), plane_point(5, 1, 2), plane_point(Fraction(1, 2), 0, 3),
           plane_point(2, 0, 4)]
    with pytest.raises(InvalidInstance, match="collinear triple 1, 3, 4"):
        Instance.build(pts, MNM, GENERAL)


def test_integer_view_clears_one_common_denominator():
    inst = Instance.build(
        [plane_point(Fraction(1, 2), Fraction(-2, 3), 1), plane_point(3, Fraction(1, 4), 2)],
        MNM,
        GENERAL,
    )
    assert inst.int_xy == [(6, -8), (36, 3)]
    assert inst.int_xy is inst.int_xy  # built once
    gen = generators.random_general_instance(5, 1)
    assert gen.int_xy == [(int(p.x), int(p.y)) for p in gen.points]


def test_rational_coordinates_are_one_grid_over_their_least_denominator(tmp_path):
    points = [plane_point(Fraction(1, 2), Fraction(-2, 3), 1), plane_point(3, Fraction(1, 4), 2)]
    inst = Instance.build(points, MNM, GENERAL)
    assert inst.grid == ([(6, -8), (36, 3)], 12)
    assert inst.points == tuple(points)
    path = tmp_path / "r.json"
    serial.dump_instance(path, inst)
    back = serial.load_instance(path).instance
    assert back.grid == ([(6, -8), (36, 3)], 12)
    assert back == inst and back.points == tuple(points)


def _random_segment_pair(rng, rational: bool):
    """Four distinct points, often collinear, touching or overlapping."""
    while True:
        coords = [(_coord(rng, rational), _coord(rng, rational)) for _ in range(4)]
        shape = rng.randrange(4)
        (ax, ay), (bx, by) = coords[0], coords[1]
        if shape == 1:  # both on one line: overlaps and disjoint collinear runs
            for k in (2, 3):
                t = Fraction(rng.randrange(-4, 5), 2)
                coords[k] = (ax + t * (bx - ax), ay + t * (by - ay))
        elif shape == 2:  # a T-junction: one endpoint on the other segment
            t = Fraction(rng.randrange(0, 5), 4)
            coords[2] = (ax + t * (bx - ax), ay + t * (by - ay))
        if len(set(coords)) == 4:
            return [plane_point(x, y, i + 1) for i, (x, y) in enumerate(coords)]


def test_integer_segment_predicate_agrees_with_the_fraction_reference():
    rng = random.Random(31)
    crossing = 0
    for trial in range(6000):
        p1, p2, q1, q2 = _random_segment_pair(rng, rational=trial % 2 == 1)
        expected = reference_segments_cross((p1, p2), (q1, q2))
        assert segments_cross((p1, p2), (q1, q2)) == expected
        a, b, c, d = integer_grid((p1, p2, q1, q2))[0]
        assert seg_cross_int((a, b), (c, d)) == expected
        crossing += expected
    assert 1500 < crossing < 4500


def _general_instance(rng, m: int, rational: bool) -> Instance:
    while True:
        pts = [(_coord(rng, rational), _coord(rng, rational)) for _ in range(m)]
        if not reference_has_collinear_triple(pts):
            return Instance.build(
                [plane_point(x, y, i + 1) for i, (x, y) in enumerate(pts)], MNM, GENERAL
            )


def _first_shared_pair(xy, edges):
    """The first pair of edges, in (x, y) index order, with four distinct
    indices and a position common to the two segments, as
    ``reference_segments_cross`` compares them."""
    for x in range(len(edges)):
        for y in range(x + 1, len(edges)):
            if len({*edges[x], *edges[y]}) < 4:
                continue
            if {xy[t - 1] for t in edges[x]} & {xy[t - 1] for t in edges[y]}:
                return x, y
    return None


def test_validate_matching_reports_equal_the_reference():
    rng = random.Random(5)
    for trial in range(400):
        m = rng.choice((4, 6, 8))
        inst = _general_instance(rng, m, rational=trial % 2 == 1)
        idx = list(range(1, m + 1))
        rng.shuffle(idx)
        edges = [(idx[2 * t], idx[2 * t + 1]) for t in range(rng.randrange(1, m // 2 + 1))]
        if rng.random() < 0.3:
            edges.append((idx[0], idx[-1]))  # reuses endpoints
        report = offline.validate_matching(inst, edges)
        assert report.crossings == reference_crossings(inst, edges)
    big = generators.random_general_instance(30, 3)
    for seed in range(5):
        order = list(range(1, 61))
        random.Random(seed).shuffle(order)
        edges = list(zip(order[::2], order[1::2]))
        report = offline.validate_matching(big, edges)
        assert report.crossings == reference_crossings(big, edges)
        assert report.crossings  # random pairings cross
    # x from three values only: vertical segments, equal and touching
    # closed x-ranges, and coincident positions, which raise on both sides
    # at the first such pair in index order
    vertical = touching = crossed = raised = 0
    for trial in range(600):
        m = rng.choice((4, 6, 8))
        xy = [(rng.randrange(3), rng.randrange(-4, 5)) for _ in range(m)]
        pts = [plane_point(x, y, i + 1) for i, (x, y) in enumerate(xy)]
        inst = Instance.build(pts, MNM, GENERAL, validate=False)
        idx = list(range(1, m + 1))
        rng.shuffle(idx)
        edges = [tuple(sorted(idx[2 * t : 2 * t + 2])) for t in range(m // 2)]
        spans = [sorted((xy[a - 1][0], xy[b - 1][0])) for a, b in edges]
        vertical += sum(lo == hi for lo, hi in spans)
        touching += sum(s[1] == t[0] for s in spans for t in spans)
        first = _first_shared_pair(xy, edges)
        if first is None:
            expected = reference_crossings(inst, edges)
            assert offline.validate_matching(inst, edges).crossings == expected
            crossed += bool(expected)
            continue
        segs = [str((xy[a - 1], xy[b - 1])) for a, b in edges]
        message = f"segments {segs[first[0]]} and {segs[first[1]]} share an endpoint position"
        with pytest.raises(SharedEndpoint, match=f"^{re.escape(message)}$"):
            offline.validate_matching(inst, edges)
        raised += 1
    assert min(vertical, touching, crossed, raised) > 50


def test_validate_matching_raises_on_coincident_positions():
    pts = [plane_point(0, 0, 1), plane_point(3, 1, 2), plane_point(0, 0, 3),
           plane_point(1, 4, 4)]
    inst = Instance.build(pts, MNM, GENERAL, validate=False)
    with pytest.raises(SharedEndpoint):
        offline.validate_matching(inst, [(1, 2), (3, 4)])
    with pytest.raises(SharedEndpoint):
        reference_crossings(inst, [(1, 2), (3, 4)])
    # a segment of length zero shares no position with a segment that does
    # not pass through its point, however it lies
    far = [plane_point(5, 1, 1), plane_point(0, 0, 2), plane_point(5, 1, 3),
           plane_point(1, 4, 4)]
    inst = Instance.build(far, MNM, GENERAL, validate=False)
    report = offline.validate_matching(inst, [(1, 3), (2, 4)])
    assert report.crossings == reference_crossings(inst, [(1, 3), (2, 4)]) == []
    # reused indices are reported, never tested for crossing
    report = offline.validate_matching(inst, [(1, 2), (2, 4)])
    assert report.duplicate_endpoints == [2] and report.crossings == []


def test_validate_matching_on_a_zero_length_segment_lying_on_another():
    # at an end of the other segment it shares that position and raises; in
    # its interior it touches the segment, a crossing, as in the reference
    for at, raises in (((4, 0), True), ((2, 0), False)):
        pts = [plane_point(0, 0, 1), plane_point(4, 0, 2), plane_point(*at, 3),
               plane_point(*at, 4)]
        inst = Instance.build(pts, MNM, GENERAL, validate=False)
        edges = [(1, 2), (3, 4)]
        if raises:
            message = f"segments ((0, 0), (4, 0)) and ({at}, {at}) share an endpoint position"
            with pytest.raises(SharedEndpoint, match=f"^{re.escape(message)}$"):
                offline.validate_matching(inst, edges)
            with pytest.raises(SharedEndpoint):
                reference_crossings(inst, edges)
        else:
            report = offline.validate_matching(inst, edges)
            assert report.crossings == reference_crossings(inst, edges) == [((1, 2), (3, 4))]


def test_validate_matching_sweeps_ten_thousand_disjoint_segments():
    # the audit tests only segments whose spans overlap in (x, y) order, so
    # segments with disjoint x-ranges cost a sort; about 0.06 s on a 2-core
    # box (1.8 to 2.0 s when every pair was visited)
    budget = 0.5
    k = 10**4
    pts = []
    for i in range(k):
        pts += [plane_point(2 * i, i % 7, 2 * i + 1), plane_point(2 * i + 1, 20 + i % 11, 2 * i + 2)]
    inst = Instance.build(pts, MNM, GENERAL, validate=False)
    edges = [(2 * i + 1, 2 * i + 2) for i in range(k)]
    started = time.perf_counter()
    report = offline.validate_matching(inst, edges)
    elapsed = time.perf_counter() - started
    assert report.perfect and report.crossings == []
    assert elapsed < budget, f"audit took {elapsed:.2f}s, budget {budget}s"


# ---------------------------------------------------------------------------
# convex polygons


def test_convex_polygons_build_at_large_n():
    for n in (50, 100, 200):
        for seed in range(4):
            inst = generators.random_convex_polygon_instance(n, MNM, seed)
            assert inst.geometry == CONVEX and inst.n == n


def test_small_polygons_are_unchanged():
    h = hashlib.sha256()
    for n in range(1, 21):
        for seed in range(6):
            for kind in ("MNM", "BNM"):
                try:
                    inst = generators.random_convex_polygon_instance(n, kind, seed)
                except NcmatchError:
                    h.update(f"{n},{seed},{kind},fail".encode())
                    continue
                h.update(repr([(p.x, p.y, p.color) for p in inst.points]).encode())
    assert h.hexdigest() == "7c26c500c960cc47e78322188703938c23c09f8eaa1d3fa168db551422f3612e"


def test_polygon_files_are_unchanged_up_to_n_1000():
    # draws sharing a direction are rejected before the direction sort, on
    # the same random calls as the adjacency scan that followed the sort
    h = hashlib.sha256()
    for n in (1, 2, 3, 5, 10, 50, 200, 1000):
        for seed in range(6):
            for kind in (MNM, BNM):
                inst = generators.random_convex_polygon_instance(n, kind, seed)
                h.update(json.dumps(serial.instance_to_json(inst)).encode())
    assert h.hexdigest() == "94663a341019e6b8e6d30622c799bd7f682cc9884bcfee67962dc74ef285fbd9"


def test_a_polygon_at_n_5000_sorts_only_the_draw_it_keeps(monkeypatch):
    # the 64 narrow draws before it all share a direction; about 2.5 s on a
    # 2-core box (about 6 s when every draw was sorted, then scanned)
    budget = 5.0
    sorts, cmp_to_key = [], functools.cmp_to_key
    monkeypatch.setattr(functools, "cmp_to_key", lambda cmp: sorts.append(cmp) or cmp_to_key(cmp))
    started = time.perf_counter()
    inst = generators.random_convex_polygon_instance(5000, MNM, 1)
    elapsed = time.perf_counter() - started
    assert inst.n == 5000 and len(sorts) == 1
    assert elapsed < budget, f"{elapsed:.2f} s, budget {budget} s"


def test_generate_random_convex_polygon_cli(tmp_path):
    out = tmp_path / "poly.json"
    res = CliRunner().invoke(
        main, ["generate", "random-convex", "--n", "100", "--seed", "1", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    inst = serial.load_instance(out).instance
    assert inst.geometry == CONVEX and inst.n == 100


# ---------------------------------------------------------------------------
# scale and CLI


def test_sorted_run_on_a_general_file_at_n_1000(tmp_path):
    inst = generators.random_general_instance(1000, 4)
    assert len({p.x for p in inst.points}) == 2000
    path = tmp_path / "general.json"
    serial.dump_instance(path, inst)
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["perfect"] and report["matched"] == 2000
    assert report["bits_written"] == report["bits_read"] == 3000
    assert not any(report["violations"].values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sorted_run_at_n_200_makes_few_crossing_tests(seed, monkeypatch):
    # the brute engine tests a candidate only against the edges whose line
    # separates it from the arrival, two turns each, the edge that last
    # blocked it first; the audit tests only pairs whose spans overlap.  The
    # engine counts its turns; the audit's crossing tests are counted through
    # the patch.  On these seeds `sorted` makes 39.8 k turns to fill in the
    # masks on commit and 88-113 k on arrival.  It joins x-consecutive
    # points, so its audit meets no overlapping spans and makes no crossing
    # test; the audit of `greedy` on the same instance, whose spans do
    # overlap, makes 4570, 3091 and 2850
    calls = 0
    engines = []

    def counting(e1, e2):
        nonlocal calls
        calls += 1
        return seg_cross_int(e1, e2)

    def recording(instance):
        engines.append(make_engine(instance))
        return engines[-1]

    monkeypatch.setattr(geometry, "seg_cross_int", counting)
    monkeypatch.setattr(engine, "make_engine", recording)
    inst = generators.random_general_instance(200, seed)
    assert inst.crossing_view[1] is counting
    sim = simulate(sorted_matching(), inst)
    assert sim.violations.perfect
    (eng,) = engines
    turns = eng.arrival_turns + eng.commit_turns
    assert eng.commit_turns > 0 and eng.arrival_turns > 0
    assert turns <= 250_000, f"{turns} turns"
    calls = 0
    assert not simulate(greedy(), inst).violations.crossings
    assert 0 < calls <= 10_000, f"{calls} crossing tests"


def test_sorted_and_greedy_at_n_1000_in_process():
    # about 6 s on a 2-core box, generation included
    budget = 30
    started = time.perf_counter()
    inst = generators.random_general_instance(1000, 4)
    by_sorted = simulate(sorted_matching(), inst)
    by_greedy = simulate(greedy(), inst)
    elapsed = time.perf_counter() - started
    assert by_sorted.violations.perfect
    assert by_greedy.violations.valid
    assert elapsed < budget, f"sorted and greedy took {elapsed:.1f}s, budget {budget}s"


def test_sorted_and_greedy_at_n_2000_in_process():
    # the planar scale gate: both runs take about 7.7 s on a 2-core box.
    # Generation stays outside the timed window: random_general_instance
    # redraws the whole batch on one collinear triple, which it finds at this
    # seed, so building the instance takes about 5 s more (still open)
    budget = 40
    inst = generators.random_general_instance(2000, 1)
    started = time.perf_counter()
    by_sorted = simulate(sorted_matching(), inst)
    by_greedy = simulate(greedy(), inst)
    elapsed = time.perf_counter() - started
    assert by_sorted.violations.perfect
    assert by_greedy.violations.valid
    assert elapsed < budget, f"sorted and greedy took {elapsed:.1f}s, budget {budget}s"


def test_run_rejects_a_rational_file_with_a_collinear_triple(tmp_path):
    doc = {
        "kind": MNM,
        "geometry": GENERAL,
        "points": [
            {"x": "1/3", "y": "1/2", "color": None},
            {"x": "7/5", "y": "9/4", "color": None},
            {"x": "2/3", "y": "1/1", "color": None},  # on the line of the first and fourth
            {"x": "1/1", "y": "3/2", "color": None},
        ],
    }
    pts = [(Fraction(p["x"]), Fraction(p["y"])) for p in doc["points"]]
    assert reference_has_collinear_triple(pts)
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "sorted", str(path)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and "collinear triple" in res.output
