import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from helpers import blues, partner, point

from ncmatch import generators, geometry, offline
from ncmatch.codecs import tree_size
from ncmatch.errors import CapExceeded, NotConvex
from ncmatch.geometry import (
    BNM,
    CIRCLE,
    CONVEX,
    GENERAL,
    MNM,
    Instance,
    Matching,
    plane_point,
)
from ncmatch.offline import (
    compare_length_sums,
    convex_noncrossing_pm,
    enumerate_perfect_noncrossing,
    matching_to_bt,
    min_length_pm,
    validate_matching,
)


def square_instance():
    pts = [
        plane_point(0, 0, 1),
        plane_point(1, 0, 2),
        plane_point(1, 1, 3),
        plane_point(0, 1, 4),
    ]
    return Instance.build(pts, MNM, CONVEX)


# ---------------------------------------------------------------------------
# length comparison


def test_compare_length_sums_orders_and_ties():
    assert compare_length_sums([Fraction(2)], [Fraction(3)]) == -1
    assert compare_length_sums([Fraction(8)], [Fraction(2)]) == 1
    # sqrt(2) + sqrt(8) == sqrt(18): a genuine tie across representations
    assert compare_length_sums([Fraction(2), Fraction(8)], [Fraction(18)]) == 0


# ---------------------------------------------------------------------------
# min-length matching


def test_min_length_two_points():
    inst = Instance.build([plane_point(0, 0, 1), plane_point(2, 1, 2)], MNM, GENERAL)
    assert sorted(min_length_pm(inst).edges) == [(1, 2)]


def test_min_length_square_prefers_sides_with_deterministic_tie():
    m = min_length_pm(square_instance())
    # both side pairings tie; lexicographic edge order breaks it
    assert sorted(m.edges) == [(1, 2), (3, 4)]
    assert (1, 3) not in m.edges and (2, 4) not in m.edges


def _min_length_float_oracle(inst):
    """Enumerate every pairing (crossing or not) with float lengths."""
    pts = inst.points
    idx = list(range(1, len(pts) + 1))
    best = [math.inf]

    def length(i, j):
        p, q = pts[i - 1], pts[j - 1]
        return math.hypot(float(p.x - q.x), float(p.y - q.y))

    def rec(unmatched, acc):
        if not unmatched:
            best[0] = min(best[0], acc)
            return
        i = unmatched[0]
        for pos, j in enumerate(unmatched[1:]):
            rec(unmatched[1 : pos + 1] + unmatched[pos + 2 :], acc + length(i, j))

    rec(idx, 0.0)
    return best[0]


def test_min_length_matches_unpruned_float_oracle():
    rng = random.Random(2)
    for seed in range(12):
        inst = generators.random_general_instance(4, seed)
        m = min_length_pm(inst)
        got = sum(
            math.hypot(
                float(inst.points[a - 1].x - inst.points[b - 1].x),
                float(inst.points[a - 1].y - inst.points[b - 1].y),
            )
            for a, b in m.edges
        )
        assert got <= _min_length_float_oracle(inst) + 1e-6
        report = validate_matching(inst, m)
        assert report.valid and report.perfect


def test_min_length_never_crosses_on_circles():
    for seed in range(20):
        inst = generators.random_circle_instance(5, MNM, seed)
        report = validate_matching(inst, min_length_pm(inst))
        assert report.valid and report.perfect


def test_min_length_cap():
    inst = generators.random_circle_instance(7, MNM, 1)
    with pytest.raises(CapExceeded):
        min_length_pm(inst)


# ---------------------------------------------------------------------------
# perfect non-crossing matchings on convex instances


def test_edges_of_perfect_noncrossing_join_opposite_parities():
    for seed in range(8):
        inst = generators.random_circle_instance(3, MNM, seed)
        chi = geometry.parity(inst)
        count = 0
        for m in enumerate_perfect_noncrossing(inst):
            count += 1
            for a, b in m.edges:
                assert chi[a - 1] != chi[b - 1]
        assert count >= 1


def test_convex_noncrossing_pm_two_points():
    inst = Instance.build([plane_point(0, 0, 1), plane_point(1, 2, 2)], MNM, CONVEX)
    assert sorted(convex_noncrossing_pm(inst).edges) == [(1, 2)]


def test_convex_noncrossing_pm_valid_on_random_instances():
    for seed in range(24):
        for kind in (MNM, BNM):
            inst = generators.random_convex_instance(6, kind, seed)
            m = convex_noncrossing_pm(inst)
            report = validate_matching(inst, m)
            assert report.valid and report.perfect, (seed, kind, report)


def test_convex_noncrossing_pm_agrees_with_brute_force_perfectness():
    for seed in range(6):
        inst = generators.random_convex_instance(6, MNM, seed)
        m1 = convex_noncrossing_pm(inst)
        assert len(m1) == 6
        assert any(True for _ in enumerate_perfect_noncrossing(inst))


def test_convex_noncrossing_pm_rejects_general_position():
    inst = generators.random_general_instance(3, 0)
    with pytest.raises(NotConvex):
        convex_noncrossing_pm(inst)


def test_convex_noncrossing_pm_deterministic():
    inst = generators.random_convex_instance(5, BNM, 4)
    assert convex_noncrossing_pm(inst).edges == convex_noncrossing_pm(inst).edges


def test_convex_noncrossing_pm_golden_on_the_unique_instance():
    # the permutation family admits a unique perfect non-crossing matching:
    # red i (arrival 4+i) pairs blue sigma_i
    from ncmatch.adversaries import bnm_red_instance

    inst = bnm_red_instance((2, 1, 4, 3)).instance
    assert sorted(convex_noncrossing_pm(inst).edges) == [(1, 6), (2, 5), (3, 8), (4, 7)]


def test_validate_report_separates_validity_from_perfection():
    inst = square_instance()
    half = validate_matching(inst, Matching.from_pairs([(1, 2)]))
    assert half.valid and not half.perfect
    full = validate_matching(inst, Matching.from_pairs([(1, 2), (3, 4)]))
    assert full.valid and full.perfect


# ---------------------------------------------------------------------------
# matching -> tree


def test_matching_to_bt_single_edge():
    from ncmatch.adversaries import bnm_red_instance

    ai = bnm_red_instance((1,))
    inst = ai.instance
    t = matching_to_bt(inst, Matching.from_pairs([(1, 2)]))
    assert tree_size(t) == 1
    assert t.left is None and t.right is None


def test_matching_to_bt_two_edges_nested_shape():
    from ncmatch.adversaries import bnm_red_instance

    # sigma (1,2): red1 pairs blue1 (leftmost), red2 pairs blue2; the
    # second edge lies right of the first directed edge
    ai = bnm_red_instance((1, 2))
    inst = ai.instance
    m = Matching.from_pairs([(1, 3), (2, 4)])
    assert validate_matching(inst, m).perfect
    t = matching_to_bt(inst, m)
    assert tree_size(t) == 2
    assert t.left is None and tree_size(t.right) == 1


def test_matching_to_bt_left_size_equals_clockwise_rank():
    # size(left(root)) + 1 equals the clockwise rank of red 1's partner
    # among all blues, counted from the red
    for seed in range(16):
        inst = generators.random_convex_instance(5, BNM, seed)
        m = convex_noncrossing_pm(inst)
        t = matching_to_bt(inst, m)
        r1 = point(inst, inst.n + 1)
        mate = partner(m, inst.n + 1)
        by_turn = list(blues(inst))
        if r1.angle is not None:
            by_turn.sort(key=lambda b: (r1.angle - b.angle) % 1)
            rank = next(i for i, b in enumerate(by_turn, 1) if b.arrival_index == mate)
            assert (tree_size(t.left) if t.left else 0) + 1 == rank


# ---------------------------------------------------------------------------
# validation reports


def test_validate_empty_matching():
    report = validate_matching(square_instance(), Matching())
    assert report.valid and report.matched_count == 0 and not report.perfect


def test_validate_square_diagonals_report_one_crossing():
    report = validate_matching(square_instance(), [(1, 3), (2, 4)])
    assert len(report.crossings) == 1
    assert not report.valid


def test_validate_color_and_duplicate_violations():
    from ncmatch.generators import random_circle_instance

    inst = random_circle_instance(2, BNM, 3)
    report = validate_matching(inst, [(1, 2)])
    assert report.color_violations == [(1, 2)]
    report = validate_matching(inst, [(1, 3), (1, 4)])
    assert 1 in report.duplicate_endpoints


@pytest.mark.parametrize("convex", [True, False], ids=["square", "plane"])
def test_validate_reports_out_of_range_edges_and_self_loops(convex):
    # no simulation builds such an edge, so the branch is reached directly
    inst = square_instance() if convex else generators.random_general_instance(2, 1)
    m = inst.size
    bad = [(0, 2), (3, m + 1), (2, 2)]
    report = validate_matching(inst, [(1, 4), (0, 2), (m + 1, 3), (2, 2)])
    assert sorted(report.out_of_range) == sorted(bad)
    assert not report.valid and not report.perfect
    assert report.matched_count == 2 and not report.crossings
    assert not report.duplicate_endpoints  # the self-loop is not reuse


def test_validate_circle_fast_path_agrees_with_pairwise():
    rng = random.Random(9)
    for _ in range(40):
        inst = generators.random_circle_instance(5, MNM, rng.randrange(10**6))
        edges = []
        used = set()
        order = list(range(1, 11))
        rng.shuffle(order)
        for a, b in zip(order[0::2], order[1::2]):
            if rng.random() < 0.7:
                edges.append((a, b))
        report = validate_matching(inst, edges)
        pairwise = any(
            geometry.segments_cross(
                (inst.points[a - 1], inst.points[b - 1]),
                (inst.points[c - 1], inst.points[d - 1]),
            )
            for (a, b), (c, d) in combinations(edges, 2)
        )
        assert bool(report.crossings) == pairwise
