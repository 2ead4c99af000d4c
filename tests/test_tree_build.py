"""The region-replay `matching_to_bt` and the comparison-only circle
predicates, checked against the half-plane recursion and the modular angle
rule they replaced."""
import random
from fractions import Fraction

import pytest

from ncmatch import generators, geometry, offline
from ncmatch.adversaries import bnm_red_instance
from ncmatch.codecs import BinaryTree, bits_for_universe, catalan, enumerate_231_avoiding
from ncmatch.engine import bt_matching, make_engine, simulate
from ncmatch.errors import CrossingDetected, Degenerate, NotConvex, NotPerfect
from ncmatch.geometry import (
    BLUE,
    BNM,
    CONVEX,
    LEFT,
    MNM,
    RED,
    RIGHT,
    Instance,
    Matching,
    circle_point,
    orientation,
    plane_point,
    segments_cross,
)
from ncmatch.offline import convex_noncrossing_pm, matching_to_bt


# ---------------------------------------------------------------------------
# references


def reference_matching_to_bt(blues, reds, matching):
    """The half-plane recursion: root is the first red's edge, subtrees are
    built from the points on either side of it."""
    if len(matching) != len(reds) or len(blues) != len(reds) or not reds:
        raise NotPerfect("matching_to_bt needs a perfect red-blue matching")
    blue_by_index = {p.arrival_index: p for p in blues}
    red_by_index = {p.arrival_index: p for p in reds}
    pairs = []
    for a, b in matching:
        if a in red_by_index and b in blue_by_index:
            pairs.append((red_by_index[a], blue_by_index[b]))
        elif b in red_by_index and a in blue_by_index:
            pairs.append((red_by_index[b], blue_by_index[a]))
        else:
            raise NotPerfect(f"edge {(a, b)} is not red-blue")

    def rec(bs, rs, m):
        r1 = rs[0]
        edge = next((e for e in m if e[0] is r1), None)
        if edge is None:
            raise NotPerfect(f"red point {r1.arrival_index} is unmatched")
        if len(rs) == 1:
            return BinaryTree()
        b_l, b_r, r_l, r_r, m_l, m_r = [], [], [], [], [], []
        for b in bs:
            if b is edge[1]:
                continue
            (b_l if geometry.half_plane_side(edge, b) == LEFT else b_r).append(b)
        for r in rs[1:]:
            (r_l if geometry.half_plane_side(edge, r) == LEFT else r_r).append(r)
        for e in m:
            if e is edge:
                continue
            side_r = geometry.half_plane_side(edge, e[0])
            side_b = geometry.half_plane_side(edge, e[1])
            if side_r != side_b:
                raise CrossingDetected("straddling edge")
            (m_l if side_r == LEFT else m_r).append(e)
        left = rec(b_l, r_l, m_l) if r_l else None
        right = rec(b_r, r_r, m_r) if r_r else None
        if len(b_l) != len(r_l) or len(b_r) != len(r_r):
            raise CrossingDetected("half-planes are not balanced")
        return BinaryTree(left, right)

    return rec(list(blues), list(reds), pairs)


def modular_orientation(a, b, c):
    """The former circle rule: compare ccw offsets from a, modulo one turn."""
    db = (b - a) % 1
    dc = (c - a) % 1
    if db == 0 or dc == 0 or db == dc:
        raise Degenerate("coincident")
    return LEFT if db < dc else RIGHT


def reference_convex_noncrossing_pm(instance):
    """The divide and conquer as one recursive call per nesting level."""
    pts = instance.points
    is_bnm = instance.kind == BNM
    edges = []

    def solve(segment):
        if not segment:
            return
        a = segment[0]
        bal = 0
        for t in range(1, len(segment)):
            q = segment[t]
            opposite = pts[q - 1].color != pts[a - 1].color if is_bnm else t % 2 == 1
            if opposite and bal == 0:
                edges.append((a, q))
                solve(segment[1:t])
                solve(segment[t + 1 :])
                return
            bal += (1 if pts[q - 1].color == BLUE else -1) if is_bnm else 1
        raise NotPerfect(f"no balanced partner for point {a}")

    solve(geometry.hull_order(instance))
    return Matching.from_pairs(edges)


def _outcome(build, *args):
    try:
        return build(*args)
    except (CrossingDetected, NotPerfect) as exc:
        return type(exc)


def parabola_instance(n, seed):
    """2n integer points on y = x^2 (strictly convex), random arrivals."""
    rng = random.Random(seed)
    xs = rng.sample(range(-10 * n, 10 * n), 2 * n)
    pts = [
        plane_point(x, x * x, i, BLUE if i <= n else RED)
        for i, x in enumerate(xs, start=1)
    ]
    return Instance.build(pts, BNM, CONVEX)


# ---------------------------------------------------------------------------
# tree build: differential


def test_tree_build_matches_recursion_on_random_circles_and_polygons():
    compared = {"circle": 0, "convex": 0}
    for n in range(1, 41):
        for seed in range(3):
            insts = [
                generators.random_circle_instance(n, BNM, seed),
                parabola_instance(n, seed),
            ]
            try:
                insts.append(generators.random_convex_polygon_instance(n, BNM, seed))
            except NotConvex:
                pass  # the polygon generator gives up on some (n, seed)
            for inst in insts:
                m = convex_noncrossing_pm(inst)
                tree = matching_to_bt(inst, m)
                assert tree == reference_matching_to_bt(inst.blues(), inst.reds(), m)
                compared[inst.geometry] += 1
    assert compared["circle"] == 120 and compared["convex"] >= 200


def test_tree_build_matches_recursion_on_every_231_avoiding_sigma():
    for n in range(1, 7):
        for sigma in enumerate_231_avoiding(n):
            inst = bnm_red_instance(sigma).instance
            for m in offline.enumerate_perfect_noncrossing(inst):
                tree = matching_to_bt(inst, m)
                assert tree == reference_matching_to_bt(inst.blues(), inst.reds(), m)


def test_tree_build_agrees_with_recursion_on_arbitrary_red_blue_matchings():
    # most random pairings cross; both builds must reject exactly those
    rng = random.Random(7)
    outcomes = set()
    for trial in range(400):
        n = rng.randint(1, 7)
        if trial % 2:
            inst = generators.random_circle_instance(n, BNM, trial)
        else:
            inst = parabola_instance(n, trial)
        reds = list(range(n + 1, 2 * n + 1))
        rng.shuffle(reds)
        m = Matching.from_pairs(zip(range(1, n + 1), reds))
        new = _outcome(matching_to_bt, inst, m)
        assert new == _outcome(reference_matching_to_bt, inst.blues(), inst.reds(), m)
        outcomes.add(new is CrossingDetected)
    assert outcomes == {True, False}


def test_tree_build_rejects_a_crossing_matching():
    # blues at 0 and 1/4, reds at 1/2 and 3/4: chords 0-1/2 and 1/4-3/4 cross
    pts = [
        circle_point(Fraction(0), 1, BLUE),
        circle_point(Fraction(1, 4), 2, BLUE),
        circle_point(Fraction(1, 2), 3, RED),
        circle_point(Fraction(3, 4), 4, RED),
    ]
    inst = Instance.build(pts, BNM, geometry.CIRCLE)
    m = Matching.from_pairs([(1, 3), (2, 4)])
    assert segments_cross((pts[0], pts[2]), (pts[1], pts[3]))
    with pytest.raises(CrossingDetected):
        matching_to_bt(inst, m)


def test_tree_build_rejects_points_not_in_convex_position():
    # red 3 lies inside the triangle of the other points
    blues = [plane_point(0, 0, 1, BLUE), plane_point(10, 0, 2, BLUE)]
    reds = [plane_point(4, 2, 3, RED), plane_point(5, 9, 4, RED)]
    inst = Instance.build([*blues, *reds], BNM, CONVEX, validate=False)
    m = Matching.from_pairs([(1, 3), (2, 4)])
    with pytest.raises(NotConvex):
        matching_to_bt(inst, m)


def test_tree_build_rejects_non_red_blue_edges():
    inst = generators.random_circle_instance(2, BNM, 0)
    with pytest.raises(NotPerfect):
        matching_to_bt(inst, Matching.from_pairs([(1, 2), (3, 4)]))


def test_tree_build_reads_the_cached_ranks(monkeypatch):
    # the hull ranks are computed once per instance; the build replays the
    # region engine over Instance.ranks and ranks nothing itself
    inst = generators.random_convex_polygon_instance(60, BNM, 0)
    inst.ranks
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapped

    for name in ("cyclic_ranks", "_convex_hull_ccw"):
        monkeypatch.setattr(geometry, name, counted(getattr(geometry, name)))
    matching_to_bt(inst, convex_noncrossing_pm(inst))
    assert calls == []


def test_convex_pm_matches_the_recursion_on_circles_and_polygons():
    compared = 0
    for n in range(1, 41):
        for seed in range(2):
            for kind in (BNM, MNM):
                for inst in (
                    generators.random_circle_instance(n, kind, seed),
                    generators.random_convex_polygon_instance(n, kind, seed),
                ):
                    assert convex_noncrossing_pm(inst) == reference_convex_noncrossing_pm(inst)
                    compared += 1
    assert compared == 320
    sigmas = [s for n in range(1, 7) for s in enumerate_231_avoiding(n)]
    for n in (10, 50, 300):
        sigmas += [list(range(1, n + 1)), list(range(n, 0, -1))]
    for sigma in sigmas:
        inst = bnm_red_instance(sigma).instance
        assert convex_noncrossing_pm(inst) == reference_convex_noncrossing_pm(inst)


def test_convex_pm_rejects_an_unbalanced_color_sequence():
    # three blues and one red: no perfect red-blue matching exists
    colors = [BLUE, BLUE, BLUE, RED]
    pts = [circle_point(Fraction(t, 4), t + 1, c) for t, c in enumerate(colors)]
    inst = Instance.build(pts, BNM, geometry.CIRCLE, validate=False)
    with pytest.raises(NotPerfect):
        convex_noncrossing_pm(inst)
    with pytest.raises(NotPerfect):
        reference_convex_noncrossing_pm(inst)


@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reverse"])
def test_bt_on_deeply_nested_red_sequences(reverse):
    # sigma the identity or its reverse nests every edge inside the last:
    # the tree is a path of n nodes
    n = 1100
    sigma = list(range(n, 0, -1)) if reverse else list(range(1, n + 1))
    sim = simulate(bt_matching(), bnm_red_instance(sigma).instance)
    assert sim.violations.perfect
    assert sim.bits_read == sim.bits_written == bits_for_universe(catalan(n))


# ---------------------------------------------------------------------------
# circle predicates: differential


def _random_angles(rng, dyadic):
    if dyadic:
        return [Fraction(rng.randrange(16), 16) for _ in range(3)]
    return [Fraction(rng.randrange(d), d) for d in (7, 12, 5)]


@pytest.mark.parametrize("dyadic", [True, False])
def test_circle_orientation_agrees_with_the_modular_rule(dyadic):
    rng = random.Random(11 if dyadic else 12)
    seen = set()
    for _ in range(3000):
        angles = _random_angles(rng, dyadic)
        rng.shuffle(angles)
        a, b, c = (circle_point(t, i) for i, t in enumerate(angles, start=1))
        try:
            expected = modular_orientation(*angles)
        except Degenerate:
            with pytest.raises(Degenerate):
                orientation(a, b, c)
            seen.add("degenerate")
            continue
        assert orientation(a, b, c) == expected
        seen.add(expected)
    assert seen == {LEFT, RIGHT, "degenerate"}


def test_circle_chord_crossing_agrees_with_the_modular_rule():
    def in_arc(a, b, x):
        dx = (x - a) % 1
        return 0 < dx < (b - a) % 1

    rng = random.Random(13)
    for _ in range(3000):
        pool = [Fraction(k, 24) for k in range(24)] + [Fraction(k, 7) for k in range(1, 7)]
        a, b, c, d = angles = rng.sample(pool, 4)
        p1, p2, q1, q2 = (circle_point(t, i) for i, t in enumerate(angles, start=1))
        expected = in_arc(a, b, c) != in_arc(a, b, d)
        assert segments_cross((p1, p2), (q1, q2)) == expected


def test_clockwise_from_matches_modular_sort():
    # the region engine's k-th available blue clockwise from each red, for
    # every k, while random matches split the regions
    rng = random.Random(17)
    for trial in range(200):
        inst = generators.random_circle_instance(rng.randint(1, 30), BNM, trial)
        moves = random.Random(trial)
        eng = make_engine(inst, "region")
        for i in range(1, 2 * inst.n + 1):
            cnt = eng.on_arrival(i)
            got = [eng.kth_clockwise(k) for k in range(1, cnt + 1)] if i > inst.n else []
            anchor = inst.point(i)
            pts = [inst.point(j) for j in eng.indices()]
            expected = sorted(pts, key=lambda p: (anchor.angle - p.angle) % 1)
            assert got == [p.arrival_index for p in expected]
            if got and moves.random() < 0.5:
                eng.commit(moves.choice(got))
            else:
                eng.commit(None)


# ---------------------------------------------------------------------------
# scale


def test_bt_scales_to_a_thousand_pairs():
    n = 1000
    sim = simulate(bt_matching(), generators.random_circle_instance(n, BNM, 0))
    assert sim.violations.perfect
    assert sim.bits_read == sim.bits_written == bits_for_universe(catalan(n))
