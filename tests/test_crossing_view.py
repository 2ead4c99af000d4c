"""Differential tests for the crossing view (``Instance.crossing_view``), the
one availability scan and the one pairing enumerator.

The references below are the earlier, independent implementations: each
decides crossings with ``geometry.segments_cross`` on ``Point``s and runs
its own depth-first search.  Every output of the shared code must equal
theirs, in the same order.
"""
import random
from fractions import Fraction

import pytest
from helpers import available_set, with_edge

from ncmatch import adversaries, generators, geometry, offline
from ncmatch.adversaries import (
    AnnotatedInstance,
    ConsistencyResult,
    bnm_family,
    bnm_red_instance,
    consistent,
    min_strategy_cover,
    mnm_family,
    mnm_family_instance,
    noncrossing_priors,
)
from ncmatch.errors import CrossingDetected, NotConvex
from ncmatch.geometry import (
    BLUE,
    BNM,
    CIRCLE,
    MNM,
    RED,
    Instance,
    Matching,
    chords_cross,
    circle_point,
    segments_cross,
)
from ncmatch.offline import compare_length_sums, squared_length


# ---------------------------------------------------------------------------
# references


def reference_available(pts, edge_points, matched, i, kind):
    p = pts[i - 1]
    out = []
    for j in range(1, i):
        if j in matched:
            continue
        q = pts[j - 1]
        if kind == BNM and q.color == p.color:
            continue
        if all(not segments_cross((p, q), e) for e in edge_points):
            out.append(j)
    return out


def reference_available_set(instance, current, i):
    pts = instance.points
    edge_points = [(pts[a - 1], pts[b - 1]) for a, b in current.edges]
    return set(reference_available(pts, edge_points, current.matched_indices(), i, instance.kind))


def reference_pairings(instance):
    pts = instance.points
    is_bnm = instance.kind == BNM

    def rec(unmatched, chosen):
        if not unmatched:
            yield list(chosen)
            return
        i = unmatched[0]
        rest = unmatched[1:]
        for pos, j in enumerate(rest):
            if is_bnm and pts[i - 1].color == pts[j - 1].color:
                continue
            seg = (pts[i - 1], pts[j - 1])
            if any(segments_cross(seg, (pts[a - 1], pts[b - 1])) for a, b in chosen):
                continue
            chosen.append((i, j))
            yield from rec(rest[:pos] + rest[pos + 1 :], chosen)
            chosen.pop()

    yield from rec(list(range(1, len(pts) + 1)), [])


def reference_min_length_pm(instance):
    pts = instance.points
    best_edges = best_sq = None
    for edges in reference_pairings(instance):
        sq = [squared_length(pts[a - 1], pts[b - 1]) for a, b in edges]
        if best_edges is None:
            best_edges, best_sq = edges, sq
            continue
        cmp = compare_length_sums(sq, best_sq)
        if cmp < 0 or (cmp == 0 and sorted(edges) < sorted(best_edges)):
            best_edges, best_sq = edges, sq
    return None if best_edges is None else Matching.from_pairs(best_edges)


def reference_consistent(prior, ai):
    inst = ai.instance
    m = len(inst.points)
    k = m // 6
    prefix = 4 * k
    chi = geometry.parity(inst)
    size_ok = len(prior) >= k
    parity_ok = all(chi[a - 1] != chi[b - 1] for a, b in prior.edges)
    pts = inst.points
    matched = prior.matched_indices()

    def extend(unmatched, edges):
        if not unmatched:
            return True
        i = unmatched[0]
        rest = unmatched[1:]
        for pos, j in enumerate(rest):
            if j <= prefix and i <= prefix:
                continue
            seg = (pts[i - 1], pts[j - 1])
            if any(segments_cross(seg, e) for e in edges):
                continue
            edges.append(seg)
            if extend(rest[:pos] + rest[pos + 1 :], edges):
                return True
            edges.pop()
        return False

    free = [i for i in range(1, m + 1) if i not in matched]
    edge_points = [(pts[a - 1], pts[b - 1]) for a, b in prior.edges]
    return ConsistencyResult(extend(free, edge_points), size_ok, parity_ok)


def reference_priors(ai):
    inst = ai.instance
    prefix = 2 * len(inst.points) // 3
    pts = inst.points

    def rec(i, edges, matched):
        if i > prefix:
            yield list(edges)
            return
        yield from rec(i + 1, edges, matched)
        if i in matched:
            return
        for j in range(i + 1, prefix + 1):
            if j in matched:
                continue
            seg = (pts[i - 1], pts[j - 1])
            if any(segments_cross(seg, (pts[a - 1], pts[b - 1])) for a, b in edges):
                continue
            edges.append((i, j))
            matched.update((i, j))
            yield from rec(i + 1, edges, matched)
            edges.pop()
            matched.difference_update((i, j))

    seen = set()
    for edges in rec(1, [], set()):
        key = frozenset(edges)
        if key not in seen:
            seen.add(key)
            yield Matching.from_pairs(edges)


def reference_scan(instance, i, matched, edges):
    """``scan_available``'s signature over ``reference_available``: maps the
    view's ends back to points."""
    at = dict(zip(instance.crossing_view[0], instance.points))
    edge_points = [(at[a], at[b]) for a, b in edges]
    return reference_available(instance.points, edge_points, matched, i, instance.kind)


# ---------------------------------------------------------------------------
# inputs


def non_dyadic_circle_instance(n, kind, seed):
    rng = random.Random(seed)
    angles = set()
    while len(angles) < 2 * n:
        den = rng.choice([3, 5, 7, 9, 10, 12, 1000, 999])
        angles.add(Fraction(rng.randrange(den), den))
    angles = list(angles)
    rng.shuffle(angles)
    pts = [
        circle_point(a, idx, ((BLUE if idx <= n else RED) if kind == BNM else None))
        for idx, a in enumerate(angles, start=1)
    ]
    return Instance.build(pts, kind, CIRCLE)


RANDOM_GENERATORS = {
    "dyadic circle": generators.random_circle_instance,
    "non-dyadic circle": non_dyadic_circle_instance,
    "polygon": generators.random_convex_polygon_instance,
    "general": lambda n, kind, seed: generators.random_general_instance(n, seed),
}


def random_instances(count, kinds=(MNM, BNM), sizes=range(1, 6)):
    rng = random.Random(2024)
    out = []
    for name, gen in RANDOM_GENERATORS.items():
        for _ in range(count):
            kind = MNM if name == "general" else rng.choice(kinds)
            out.append(gen(rng.choice(list(sizes)), kind, rng.randrange(10**6)))
    return out


def mnm_members():
    return [ai for k in (1, 2) for ai in mnm_family(k)]


# ---------------------------------------------------------------------------
# tests


def test_chord_test_on_ranks_agrees_with_segments_cross():
    rng = random.Random(5)
    for trial in range(400):
        inst = (non_dyadic_circle_instance if trial % 2 else generators.random_circle_instance)(
            2, MNM, rng.randrange(10**6)
        )
        ends, crosses = inst.crossing_view
        assert ends is inst.ranks and crosses is chords_cross
        a, b, c, d = rng.sample(range(4), 4)
        pts = inst.points
        expected = segments_cross((pts[a], pts[b]), (pts[c], pts[d]))
        assert chords_cross((ends[a], ends[b]), (ends[c], ends[d])) == expected


def test_planar_view_is_the_integer_view():
    instances = random_instances(3)
    for inst in instances[-6:-3]:  # polygons
        assert inst.crossing_view == (inst.ranks, chords_cross)
    for inst in instances[-3:]:  # general position
        assert inst.crossing_view == (inst.int_xy, geometry.seg_cross_int)


def test_available_set_matches_reference():
    rng = random.Random(8)
    for inst in random_instances(15):
        m = Matching()
        for i in range(1, inst.size + 1):
            got = available_set(inst, m, i)
            assert got == reference_available_set(inst, m, i)
            options = sorted(j for j in got if inst.kind == MNM or i > inst.n)
            if options and rng.random() < 0.6:
                m = with_edge(m, i, rng.choice(options))


def test_pairing_search_matches_reference_on_families_and_random_instances():
    family = [ai.instance for ai in mnm_members()]
    family += [ai.instance for n in range(1, 5) for ai in bnm_family(n)]
    family += [bnm_red_instance(s, allow_any=True).instance for s in ((2, 3, 1), (2, 1, 3))]
    for inst in family + random_instances(15):
        expected = list(reference_pairings(inst))
        got = list(offline.noncrossing_pairings(inst, range(1, inst.size + 1)))
        assert got == expected
        assert list(offline.enumerate_perfect_noncrossing(inst)) == [
            Matching.from_pairs(e) for e in expected
        ]
    for inst in random_instances(15):
        assert offline.min_length_pm(inst) == reference_min_length_pm(inst)


def test_consistency_and_priors_match_reference():
    members = mnm_members()
    rng = random.Random(13)
    for _ in range(10):
        # 6 points: the smallest size with a 4-point prefix
        gen = rng.choice([generators.random_circle_instance, non_dyadic_circle_instance,
                          generators.random_convex_polygon_instance])
        members.append(AnnotatedInstance(gen(3, MNM, rng.randrange(10**6))))
    for _ in range(6):
        # 12 points: an 8-point prefix, as at k = 2
        gen = rng.choice([generators.random_circle_instance, non_dyadic_circle_instance,
                          generators.random_convex_polygon_instance])
        members.append(AnnotatedInstance(gen(6, MNM, rng.randrange(10**6))))
    general = AnnotatedInstance(generators.random_general_instance(3, 4))
    assert list(noncrossing_priors(general)) == list(reference_priors(general))
    for ai in members:
        priors = list(noncrossing_priors(ai))
        assert priors == list(reference_priors(ai))
        assert len(set(priors)) == len(priors)
        for prior in priors:
            assert consistent(prior, ai) == reference_consistent(prior, ai)


def random_noncrossing_pairs(order, rng):
    """A random non-crossing perfect matching of the points listed in
    convex order: pair the first with one an odd distance on, recurse on
    both sides."""
    pairs, todo = [], [list(order)]
    while todo:
        seg = todo.pop()
        if seg:
            j = rng.randrange(1, len(seg), 2)
            pairs.append((seg[0], seg[j]))
            todo += [seg[1:j], seg[j + 1 :]]
    return pairs


def reference_enclosing(rank, edges):
    """The chord scan by brute force on rank intervals: each chord's and
    each free rank's innermost enclosing chord, len(edges) for none."""
    spans = [tuple(sorted((rank[a - 1], rank[b - 1]))) for a, b in edges]

    def innermost(inside):
        around = [(hi - lo, x) for x, (lo, hi) in enumerate(spans) if inside(lo, hi)]
        return min(around)[1] if around else len(edges)

    outer = [innermost(lambda lo, hi, s=s: lo < s[0] and s[1] < hi) for s in spans]
    ends = {r for s in spans for r in s}
    face = {r: innermost(lambda lo, hi, r=r: lo < r < hi) for r in range(len(rank)) if r not in ends}
    return outer, face


def test_chord_scan_matches_brute_force_on_partial_matchings():
    rng = random.Random(34)
    gens = [generators.random_circle_instance, non_dyadic_circle_instance,
            generators.random_convex_polygon_instance]
    for trial in range(300):
        inst = gens[trial % 3](rng.randint(1, 7), MNM, rng.randrange(10**6))
        whole = random_noncrossing_pairs(inst.hull, rng)
        edges = [e for e in whole if rng.random() < 0.6]
        rank = inst.ranks
        assert offline._enclosing(rank, edges) == reference_enclosing(rank, edges)
        if len(inst.hull) >= 4:
            a, b, c, d = (inst.hull[r] for r in sorted(rng.sample(range(inst.size), 4)))
            assert offline._enclosing(rank, [(a, c), (b, d)]) is None
            assert offline._enclosing(rank, [(a, d), (b, c)]) == reference_enclosing(
                rank, [(a, d), (b, c)]
            )


def test_consistency_matches_reference_on_thirty_points():
    # priors of two kinds: the prefix-prefix edges of a non-crossing perfect
    # matching, which the rest of it completes, and a random non-crossing
    # partial matching of the prefix, which here never can be
    ai = mnm_family_instance(5, 3, (2, 7, 15))
    hull, prefix = ai.instance.hull, 20
    rng = random.Random(5)
    for _ in range(20):
        whole = random_noncrossing_pairs(hull, rng)
        prior = Matching.from_pairs((a, b) for a, b in whole if max(a, b) <= prefix)
        assert consistent(prior, ai) == reference_consistent(prior, ai)
        assert consistent(prior, ai).completable
        part = random_noncrossing_pairs([i for i in hull if i <= prefix], rng)
        prior = Matching.from_pairs(e for e in part if rng.random() < 0.7)
        assert consistent(prior, ai) == reference_consistent(prior, ai)
        assert not consistent(prior, ai).completable


def test_consistency_rejects_crossing_priors_and_general_position():
    ai = mnm_family_instance(1, 0, ())
    hull = ai.instance.hull
    a, b, c, d = (i for i in hull if i <= 4)  # the prefix in convex order
    apart = Matching.from_pairs([(a, b), (c, d)])
    assert consistent(apart, ai) == reference_consistent(apart, ai)
    with pytest.raises(CrossingDetected):
        consistent(Matching.from_pairs([(a, c), (b, d)]), ai)
    general = AnnotatedInstance(generators.random_general_instance(3, 4))
    with pytest.raises(NotConvex):
        consistent(Matching(), general)


@pytest.mark.parametrize(
    "family",
    [
        [ai.instance for ai in mnm_family(1)],
        list(bnm_family(2)),
        list(bnm_family(3)),
        list(bnm_family(4)),
        [
            bnm_red_instance((2, 3, 1), allow_any=True),
            bnm_red_instance((2, 1, 3), allow_any=True),
        ],
        [generators.random_circle_instance(2, MNM, s) for s in range(4)],
        [generators.random_convex_polygon_instance(2, MNM, s) for s in range(4)],
        [generators.random_general_instance(2, s) for s in range(4)],
    ],
    ids=["mnm k=1", "bnm n=2", "bnm n=3", "bnm n=4", "231/213", "circles", "polygons", "general"],
)
def test_strategy_cover_matches_reference_scan(family, monkeypatch):
    got = min_strategy_cover(family)
    monkeypatch.setattr(adversaries.geometry, "scan_available", reference_scan)
    assert got == min_strategy_cover(family)
