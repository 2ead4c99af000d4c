"""Offline matching oracles: brute-force minimum-length matching, the
convex stack-scan constructor, the matching-to-tree transform the
tree-advice algorithm ships over the tape, and matching validation.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Iterator, Sequence

from . import geometry
from .codecs import BinaryTree, _assemble
from .errors import (
    CapExceeded,
    CrossingDetected,
    NotConvex,
    NotPerfect,
    SharedEndpoint,
)
from .geometry import BNM, Instance, Matching, Point

BRUTE_FORCE_CAP = 12


# ---------------------------------------------------------------------------
# exact-enough length comparison
#
# Totals are sums of square roots of rationals.  We bracket each total in a
# decimal interval and refine until the intervals separate; persistent
# overlap at the precision cap is treated as a tie and broken by the
# lexicographic edge list, which is all the downstream checks need.

_PRECISIONS = (40, 80, 160, 320)


def _sqrt_interval(value: Fraction, digits: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= sqrt(value) * 10^digits < hi."""
    scaled = value.numerator * 10 ** (2 * digits) // value.denominator
    lo = isqrt(scaled)
    return lo, lo + 1

def _sum_interval(values: Sequence[Fraction], digits: int) -> tuple[int, int]:
    lo = hi = 0
    for v in values:
        a, b = _sqrt_interval(v, digits)
        lo += a
        hi += b
    return lo, hi


def compare_length_sums(sq_a: Sequence[Fraction], sq_b: Sequence[Fraction]) -> int:
    """-1, 0 or 1 comparing sum(sqrt(sq_a)) with sum(sqrt(sq_b)).

    0 means indistinguishable at the precision cap (an exact tie for every
    input this package produces, e.g. the symmetric square).
    """
    for digits in _PRECISIONS:
        alo, ahi = _sum_interval(sq_a, digits)
        blo, bhi = _sum_interval(sq_b, digits)
        if ahi <= blo:
            return -1
        if bhi <= alo:
            return 1
    return 0


def squared_length(p: Point, q: Point) -> Fraction:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


# ---------------------------------------------------------------------------
# brute-force oracles


def noncrossing_pairings(
    instance: Instance,
    free: Iterable[int],
    may_pair: Callable[[int, int], bool] | None = None,
    perfect: bool = True,
) -> Iterator[list[tuple[int, int]]]:
    """Depth-first search over non-crossing pairings of the free points.

    The first undecided free point i is paired with each later undecided
    point j in turn, in the order of ``free``, when ``may_pair(i, j)``
    allows it and the segment crosses no edge chosen before; unless
    ``perfect``, leaving i unmatched is tried first.  Crossings are decided
    on the instance's ``crossing_view``.  Yields each pairing as its (i, j)
    edges in the order chosen; (2n-1)!! leaves at worst, far fewer after
    pruning.  Completing a prior online needs no search:
    ``adversaries.consistent`` counts the free points of each face.
    """
    ends, crosses = instance.crossing_view
    segs: list[tuple] = []
    chosen: list[tuple[int, int]] = []

    def rec(unmatched: list[int]) -> Iterator[list[tuple[int, int]]]:
        if not unmatched:
            yield list(chosen)
            return
        i, rest = unmatched[0], unmatched[1:]
        if not perfect:
            yield from rec(rest)
        for pos, j in enumerate(rest):
            if may_pair is not None and not may_pair(i, j):
                continue
            seg = (ends[i - 1], ends[j - 1])
            if any(crosses(seg, e) for e in segs):
                continue
            segs.append(seg)
            chosen.append((i, j))
            yield from rec(rest[:pos] + rest[pos + 1 :])
            segs.pop()
            chosen.pop()

    yield from rec(list(free))


def enumerate_perfect_noncrossing(instance: Instance) -> Iterator[Matching]:
    """Every perfect non-crossing matching of a small instance; on BNM each
    edge joins a blue (arrival index <= n) to a red."""
    m, n = instance.size, instance.n
    if m > BRUTE_FORCE_CAP:
        raise CapExceeded(f"brute force capped at {BRUTE_FORCE_CAP} points, got {m}")

    def bichromatic(i: int, j: int) -> bool:
        return (i <= n) != (j <= n)

    may_pair = bichromatic if instance.kind == BNM else None
    for edges in noncrossing_pairings(instance, range(1, m + 1), may_pair=may_pair):
        yield Matching.from_pairs(edges)


def min_length_pm(instance: Instance) -> Matching:
    """A minimum-total-length perfect matching, found by brute force.

    Only non-crossing pairings are searched: a crossing pair of edges can
    always be exchanged for a strictly shorter non-crossing pair, so the
    global minimum is attained on a non-crossing matching and the output is
    non-crossing by construction.
    """
    pts = instance.points
    best: Matching | None = None
    for matching in enumerate_perfect_noncrossing(instance):
        edges = list(matching)
        sq = [squared_length(pts[a - 1], pts[b - 1]) for a, b in edges]
        if best is None:
            best, best_edges, best_sq = matching, edges, sq
            continue
        cmp = compare_length_sums(sq, best_sq)
        if cmp < 0 or (cmp == 0 and edges < best_edges):
            best, best_edges, best_sq = matching, edges, sq
    if best is None:
        raise NotPerfect("no perfect non-crossing matching exists")
    return best


# ---------------------------------------------------------------------------
# convex stack scan


def convex_noncrossing_pm(instance: Instance) -> Matching:
    """A perfect non-crossing matching on points in convex position.

    Walks the hull clockwise from p_1 with a stack and pairs each point with
    the top of the stack when the two may pair (on BNM iff exactly one is
    blue, arrival index <= n; always on MNM), else pushes it.  That pairs
    every point with its first balanced partner.  Deterministic, so golden
    tests can pin its output.  O(n) after the hull order.
    """
    if not instance.convex:
        raise NotConvex("convex matching construction needs convex position")
    is_bnm, n = instance.kind == BNM, instance.n
    edges: list[tuple[int, int]] = []
    stack: list[int] = []
    for q in geometry.hull_order(instance):
        if stack and (not is_bnm or (stack[-1] <= n) != (q <= n)):
            edges.append((stack.pop(), q))
        else:
            stack.append(q)
    if stack:
        raise NotPerfect(f"no balanced partner for point {stack[0]}")
    return Matching.from_pairs(edges)


# ---------------------------------------------------------------------------
# matching -> tree


def matching_to_bt(instance: Instance, matching: Matching) -> BinaryTree:
    """Tree of a perfect non-crossing red-blue matching (bt_children)."""
    return _assemble(*bt_children(instance, matching))


def bt_children(instance: Instance, matching: Matching) -> tuple[list[int], list[int]]:
    """Child arrays (as in codecs.tree_children) of the matching's tree:
    the root is the first red's edge, and the left/right subtrees are the
    trees of the edges in the left/right half-plane of that directed edge
    (red towards blue).  So node k, the k-th red's edge, has on each side
    the earliest later red in the face there of the chords of reds 0..k.
    A union-find over the faces of all chords (``_enclosing``), taking the
    reds in reverse arrival order, reads those reds and then merges the two
    faces.  CrossingDetected on a crossing.  O(n alpha(n)) after the ranks.
    """
    n = instance.n
    if not n or len(matching) != n:
        raise NotPerfect("matching_to_bt needs a perfect red-blue matching")
    chords = [(0, 0)] * n  # by red number
    for b, r in matching:  # blues arrive first and edges are (min, max)
        if not 0 < b <= n < r <= 2 * n:
            raise NotPerfect(f"edge {(b, r)} is not red-blue")
        chords[r - n - 1] = (b, r)
    rank = instance.ranks
    outer = _enclosing(rank, chords)
    if outer is None:
        raise CrossingDetected("two edges of the matching cross")
    lefts, rights = [-1] * n, [-1] * n
    root, weight, first = list(range(n + 1)), [1] * (n + 1), [-1] * (n + 1)
    for k in range(n - 1, -1, -1):
        b, r = chords[k]
        # the inside of a chord is its right side iff its red's rank is the lower
        left, right = (outer[k], k) if rank[r - 1] < rank[b - 1] else (k, outer[k])
        left, right = _find(root, left), _find(root, right)
        lefts[k], rights[k] = first[left], first[right]
        small, big = (left, right) if weight[left] <= weight[right] else (right, left)
        root[small] = big
        weight[big] += weight[small]
        first[big] = k
    return lefts, rights


def _find(root: list[int], f: int) -> int:
    """Union-find root of f, halving the path on the way."""
    while root[f] != f:
        root[f] = f = root[root[f]]
    return f


def _enclosing(rank: Sequence[int], edges: Sequence[tuple[int, int]]) -> list[int] | None:
    """For chords in convex position, the index of the chord directly
    enclosing each (len(edges) for none), or None if two cross: O(m), as
    non-crossing chords close like balanced parentheses along the hull."""
    at = [-1] * len(rank)
    for x, (a, b) in enumerate(edges):
        at[rank[a - 1]] = at[rank[b - 1]] = x
    outer, stack = [-1] * len(edges), []
    for x in at:
        if x < 0:
            continue
        if outer[x] < 0:
            outer[x] = stack[-1] if stack else len(edges)
            stack.append(x)
        elif stack.pop() != x:
            return None
    return outer


# ---------------------------------------------------------------------------
# validation


@dataclass
class MatchingReport:
    """Everything a caller needs to judge a matching; violations are data,
    not exceptions."""

    matched_count: int
    crossings: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)
    color_violations: list[tuple[int, int]] = field(default_factory=list)
    duplicate_endpoints: list[int] = field(default_factory=list)
    out_of_range: list[tuple[int, int]] = field(default_factory=list)
    perfect: bool = False

    @property
    def valid(self) -> bool:
        return not (
            self.crossings
            or self.color_violations
            or self.duplicate_endpoints
            or self.out_of_range
        )


def validate_matching(
    instance: Instance, matching: Matching | Sequence[tuple[int, int]]
) -> MatchingReport:
    """Report crossings, color violations (on BNM, an edge with both ends
    blue, arrival index <= n, or both red), endpoint reuse and coverage."""
    m, n = instance.size, instance.n
    bnm = instance.kind == BNM
    if isinstance(matching, Matching):
        edges = sorted(matching.edges)
    else:
        edges = [(min(a, b), max(a, b)) for a, b in matching]
    report = MatchingReport(matched_count=0)

    seen: set[int] = set()
    usable: list[tuple[int, int]] = []
    for e in edges:
        a, b = e
        if not (1 <= a <= m and 1 <= b <= m) or a == b:
            report.out_of_range.append(e)
            continue
        for idx in e:
            if idx in seen:
                report.duplicate_endpoints.append(idx)
            seen.add(idx)
        usable.append(e)
        if bnm and (a <= n) == (b <= n):
            report.color_violations.append(e)
    report.matched_count = len(seen)

    fast = instance.convex and not report.duplicate_endpoints
    if fast and _enclosing(instance.ranks, usable) is not None:
        segs = []  # fast path: provably no crossing pair
    else:
        ends, crosses = instance.crossing_view
        segs = [(ends[a - 1], ends[b - 1]) for a, b in usable]
    # Every point of a segment lies between its ends in the view's order
    # (hull ranks, or (x, y) pairs compared lexicographically), so segments
    # whose spans are disjoint neither touch nor share a position: sort the
    # spans by their smaller end and test each against the later ones it meets.
    spans = sorted((min(p, q), max(p, q), x) for x, (p, q) in enumerate(segs))
    starts = [lo for lo, _hi, _x in spans]
    shared, crossed = [], []
    for s, (_lo, hi, u) in enumerate(spans):
        (a, b), (p, q) = usable[u], segs[u]
        for *_, v in spans[s + 1 : bisect_right(starts, hi)]:
            c, d = usable[v]
            if a == c or a == d or b == c or b == d:
                continue  # endpoint reuse already reported
            x, y = (u, v) if u < v else (v, u)
            r, t = segs[v]
            if p == r or p == t or q == r or q == t:
                shared.append((x, y))
            elif crosses(segs[x], segs[y]):
                crossed.append((x, y))
    if shared:
        x, y = min(shared)
        raise SharedEndpoint(f"segments {segs[x]} and {segs[y]} share an endpoint position")
    report.crossings = [(usable[x], usable[y]) for x, y in sorted(crossed)]
    report.perfect = report.valid and report.matched_count == m
    return report
