import random
from fractions import Fraction

import pytest
from helpers import available_set
from hypothesis import given
from hypothesis import strategies as st

from ncmatch import generators, geometry
from ncmatch.errors import (
    Degenerate,
    InvalidInstance,
    NotConvex,
    SharedEndpoint,
)
from ncmatch.geometry import (
    BLUE,
    BNM,
    CIRCLE,
    COLLINEAR,
    CONVEX,
    GENERAL,
    LEFT,
    MNM,
    RED,
    RIGHT,
    Instance,
    Matching,
    Point,
    circle_point,
    half_plane_side,
    hull_order,
    orientation,
    parity,
    plane_point,
    segments_cross,
)


def P(x, y, idx=1, color=None):
    return plane_point(x, y, idx, color)


# ---------------------------------------------------------------------------
# orientation


def test_orientation_basic_turns():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) == LEFT
    assert orientation(P(0, 0), P(1, 0), P(2, 0)) == COLLINEAR
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) == RIGHT


@given(st.tuples(*[st.integers(-50, 50) for _ in range(6)]))
def test_orientation_antisymmetric(coords):
    ax, ay, bx, by, cx, cy = coords
    a, b, c = P(ax, ay, 1), P(bx, by, 2), P(cx, cy, 3)
    s1 = orientation(a, b, c)
    s2 = orientation(a, c, b)
    if s1 == COLLINEAR:
        assert s2 == COLLINEAR
    else:
        assert {s1, s2} == {LEFT, RIGHT}


def test_orientation_circle_agrees_with_coordinates():
    # coarse dyadic angles: float placeholders cannot flip the sign
    rng = random.Random(5)
    for _ in range(300):
        t1, t2, t3 = rng.sample(range(1 << 10), 3)
        pts = [circle_point(Fraction(t, 1 << 10), i + 1) for i, t in enumerate((t1, t2, t3))]
        flat = [P(p.x, p.y, p.arrival_index) for p in pts]
        assert orientation(*pts) == orientation(*flat)


# ---------------------------------------------------------------------------
# segment crossing


def test_segments_cross_examples():
    assert segments_cross((P(0, 0), P(1, 1, 2)), (P(0, 1, 3), P(1, 0, 4)))
    assert not segments_cross((P(0, 0), P(1, 0, 2)), (P(0, 1, 3), P(1, 1, 4)))
    # collinear overlap counts: closed segments share a stretch
    assert segments_cross((P(0, 0), P(2, 0, 2)), (P(1, 0, 3), P(3, 0, 4)))


def test_segments_cross_shared_endpoint_rejected():
    with pytest.raises(SharedEndpoint):
        segments_cross((P(0, 0), P(1, 1, 2)), (P(0, 0, 3), P(2, 0, 4)))


def test_segments_cross_touching_counts_as_intersection():
    # q1 sits in the middle of the first segment
    assert segments_cross((P(0, 0), P(2, 2, 2)), (P(1, 1, 3), P(3, 0, 4)))


def _cross_parametric(e1, e2) -> bool:
    """Independent oracle: solve the two-segment intersection exactly.

    Straight rational linear algebra over the closed parameter box, with a
    projection fallback for parallel segments.
    """
    (p1, p2), (q1, q2) = e1, e2
    r = (p2.x - p1.x, p2.y - p1.y)
    s = (q2.x - q1.x, q2.y - q1.y)
    denom = r[0] * s[1] - r[1] * s[0]
    wx, wy = q1.x - p1.x, q1.y - p1.y
    if denom != 0:
        t = Fraction(wx * s[1] - wy * s[0], denom)
        u = Fraction(wx * r[1] - wy * r[0], denom)
        return 0 <= t <= 1 and 0 <= u <= 1
    if wx * r[1] - wy * r[0] != 0:
        return False  # parallel, not collinear
    # collinear: compare 1-d parameter intervals along r
    dot = lambda ax, ay, bx, by: ax * bx + ay * by
    rr = dot(r[0], r[1], r[0], r[1])
    t0 = Fraction(dot(wx, wy, r[0], r[1]), rr)
    t1 = t0 + Fraction(dot(s[0], s[1], r[0], r[1]), rr)
    lo, hi = min(t0, t1), max(t0, t1)
    return not (hi < 0 or lo > 1)


def test_segments_cross_matches_parametric_oracle():
    rng = random.Random(11)
    agree = 0
    while agree < 10_000:
        coords = [rng.randrange(-8, 9) for _ in range(8)]
        p1, p2 = P(coords[0], coords[1], 1), P(coords[2], coords[3], 2)
        q1, q2 = P(coords[4], coords[5], 3), P(coords[6], coords[7], 4)
        if len({(p.x, p.y) for p in (p1, p2, q1, q2)}) < 4:
            continue
        assert segments_cross((p1, p2), (q1, q2)) == _cross_parametric((p1, p2), (q1, q2))
        agree += 1


def test_circle_chords_cross_iff_interleaved():
    rng = random.Random(3)
    for _ in range(500):
        ticks = rng.sample(range(1 << 12), 4)
        a, b, c, d = [circle_point(Fraction(t, 1 << 12), i + 1) for i, t in enumerate(ticks)]
        flat = [P(p.x, p.y, p.arrival_index) for p in (a, b, c, d)]
        assert segments_cross((a, b), (c, d)) == segments_cross(
            (flat[0], flat[1]), (flat[2], flat[3])
        )


# ---------------------------------------------------------------------------
# half-plane side


def test_half_plane_side_quarter_turns():
    edge = (P(0, 0), P(0, 1, 2))
    assert half_plane_side(edge, P(-1, 0, 3)) == LEFT
    assert half_plane_side(edge, P(1, 0, 3)) == RIGHT
    with pytest.raises(Degenerate):
        half_plane_side(edge, P(0, 2, 3))


def test_half_plane_side_blue_one_left_of_first_edge():
    # four blues on the upper semicircle, first red at the bottom: blue 1
    # is left of the directed edge red -> blue 2
    blues = [circle_point(Fraction(5 - i, 10), i) for i in range(1, 5)]
    r1 = circle_point(Fraction(3, 4), 5)
    assert half_plane_side((r1, blues[1]), blues[0]) == LEFT


# ---------------------------------------------------------------------------
# instances, hull order, parity


def circle_instance(ticks, kind=MNM, denom=1 << 10):
    n = len(ticks) // 2
    pts = []
    for i, t in enumerate(ticks, start=1):
        color = (BLUE if i <= n else RED) if kind == BNM else None
        pts.append(circle_point(Fraction(t, denom), i, color))
    return Instance.build(pts, kind, CIRCLE)


def test_validate_rejects_duplicates_and_bad_colors():
    with pytest.raises(InvalidInstance):
        circle_instance([5, 5])
    with pytest.raises(InvalidInstance):
        Instance.build(
            [plane_point(0, 0, 1, BLUE), plane_point(1, 0, 2, BLUE)], BNM, GENERAL
        )
    with pytest.raises(InvalidInstance):
        Instance.build(
            [plane_point(0, 0, 1), plane_point(1, 1, 2), plane_point(2, 2, 3), plane_point(3, 1, 4)],
            MNM,
            GENERAL,
        )  # collinear triple


def _raw_circle(angles):
    """MNM circle points carrying the angles as given; circle_point would
    reduce them mod 1."""
    return [Point(None, None, i, None, a) for i, a in enumerate(angles, start=1)]


@pytest.mark.parametrize(
    "angles",
    [
        [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)],
        [Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), Fraction(1, 3)],
    ],
    ids=["dyadic", "non-dyadic"],
)
def test_validate_rejects_duplicate_circle_angles(angles):
    with pytest.raises(InvalidInstance, match="duplicate circle points"):
        Instance.build(_raw_circle(angles), MNM, CIRCLE)


@pytest.mark.parametrize("bad", [Fraction(1), Fraction(-1, 2)], ids=["one", "minus-half"])
def test_validate_rejects_circle_angles_outside_one_turn(bad):
    # the range is checked before duplicates
    with pytest.raises(InvalidInstance, match=r"turn fractions in \[0, 1\)"):
        Instance.build(_raw_circle([Fraction(1, 3), bad, bad, Fraction(1, 2)]), MNM, CIRCLE)


def test_validate_rejects_interior_point_for_convex():
    pts = [
        plane_point(0, 0, 1),
        plane_point(4, 0, 2),
        plane_point(4, 4, 3),
        plane_point(0, 4, 4),
        plane_point(2, 2, 5),
        plane_point(1, 2, 6),
    ]
    with pytest.raises(NotConvex):
        Instance.build(pts, MNM, CONVEX)


def test_hull_order_hexagon_already_sorted():
    # regular hexagon arriving in clockwise hull order
    pts = [
        plane_point(x, y, i + 1)
        for i, (x, y) in enumerate([(0, 4), (3, 2), (3, -2), (0, -4), (-3, -2), (-3, 2)])
    ]
    inst = Instance.build(pts, MNM, CONVEX)
    assert hull_order(inst) == [1, 2, 3, 4, 5, 6]


def test_hull_order_circle_matches_angular_sort():
    rng = random.Random(7)
    for _ in range(20):
        ticks = rng.sample(range(1 << 10), 8)
        inst = circle_instance(ticks)
        order = hull_order(inst)
        assert order[0] == 1
        start = inst.points[0].angle
        expected = sorted(
            inst.points, key=lambda p: (start - p.angle) % 1
        )
        assert order == [p.arrival_index for p in expected]


def test_hull_order_requires_convexity():
    inst = Instance.build(
        [plane_point(0, 0, 1), plane_point(3, 1, 2), plane_point(1, 3, 3), plane_point(5, 5, 4)],
        MNM,
        GENERAL,
    )
    with pytest.raises(NotConvex):
        hull_order(inst)


def test_parity_two_points_and_anchor():
    inst = circle_instance([0, 512])
    assert parity(inst) == [0, 1]


def test_parity_alternates_and_splits_evenly():
    rng = random.Random(13)
    circles = [circle_instance(rng.sample(range(1 << 10), 10)) for _ in range(20)]
    polygons = [generators.random_convex_polygon_instance(5, MNM, seed) for seed in range(20)]
    for inst in circles + polygons:
        chi = parity(inst)
        assert chi[0] == 0
        assert sum(chi) == 5
        order = hull_order(inst)
        for a, b in zip(order, order[1:]):
            assert chi[a - 1] != chi[b - 1]


# ---------------------------------------------------------------------------
# availability


def square_instance():
    pts = [
        plane_point(0, 0, 1),
        plane_point(1, 0, 2),
        plane_point(1, 1, 3),
        plane_point(0, 1, 4),
    ]
    return Instance.build(pts, MNM, CONVEX)


def test_available_set_basics():
    inst = square_instance()
    assert available_set(inst, Matching(), 1) == set()
    assert available_set(inst, Matching(), 2) == {1}
    # diagonal 1-3 blocks the other diagonal
    m = Matching.from_pairs([(1, 3)])
    assert available_set(inst, m, 4) == set()


def test_available_set_respects_bnm_colors():
    pts = [
        circle_point(Fraction(1, 8), 1, BLUE),
        circle_point(Fraction(2, 8), 2, BLUE),
        circle_point(Fraction(5, 8), 3, RED),
        circle_point(Fraction(6, 8), 4, RED),
    ]
    inst = Instance.build(pts, BNM, CIRCLE)
    assert available_set(inst, Matching(), 3) == {1, 2}
    m = Matching.from_pairs([(2, 3)])
    # red 4's chord to blue 1 must not cross (2,3)
    assert available_set(inst, m, 4) == {1}


def test_available_set_monotone_under_edge_insertion():
    rng = random.Random(23)
    for _ in range(30):
        ticks = rng.sample(range(1 << 10), 10)
        inst = circle_instance(ticks)
        m = Matching()
        avail_before = available_set(inst, m, 10)
        # commit a random legal edge among earlier points
        cands = [
            (i, j)
            for i in range(1, 9)
            for j in available_set(inst, m, i)
        ]
        if not cands:
            continue
        i, j = rng.choice(cands)
        m2 = Matching.from_pairs([(i, j)])
        avail_after = available_set(inst, m2, 10)
        assert avail_after <= avail_before - {i, j} or avail_after <= avail_before


def test_matching_rejects_reuse():
    with pytest.raises(InvalidInstance):
        Matching.from_pairs([(1, 2), (2, 3)])


@pytest.mark.parametrize(
    "edges, pattern",
    [
        ({(1, 2), (3, 3)}, r"self-loop edge"),
        ({(1, 2), (4, 3)}, r"edges must be stored as \(min, max\)"),
        # either edge may come second in the set's order
        ({(1, 2), (2, 3)}, r"index reused by edge \((1, 2|2, 3)\)"),
    ],
)
def test_matching_names_the_broken_invariant(edges, pattern):
    with pytest.raises(InvalidInstance, match=f"^{pattern}$"):
        Matching(frozenset(edges))
