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
    IllegalMatch,
    NotConvex,
    NotPerfect,
    SharedEndpoint,
)
from .geometry import BNM, CIRCLE, CONVEX, Instance, Matching, Point

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
    prior: Iterable[tuple[int, int]] = (),
    may_pair: Callable[[int, int], bool] | None = None,
    perfect: bool = True,
) -> Iterator[list[tuple[int, int]]]:
    """Depth-first search over non-crossing pairings of the free points.

    The first undecided free point i is paired with each later undecided
    point j in turn, in the order of ``free``, when ``may_pair(i, j)``
    allows it and the segment crosses neither a ``prior`` edge nor an edge
    chosen before; unless ``perfect``, leaving i unmatched is tried first.  Crossings are
    decided on the instance's ``crossing_view``.  Yields each pairing as its
    (i, j) edges in the order chosen; (2n-1)!! leaves at worst, far fewer
    after pruning.
    """
    ends, crosses, _turn = instance.crossing_view
    segs = [(ends[a - 1], ends[b - 1]) for a, b in prior]
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


def enumerate_perfect_noncrossing(
    instance: Instance, cap: int = BRUTE_FORCE_CAP
) -> Iterator[Matching]:
    """Every perfect non-crossing matching of a small instance."""
    colors = instance.colors
    m = len(colors)
    if m > cap:
        raise CapExceeded(f"brute force capped at {cap} points, got {m}")

    def bichromatic(i: int, j: int) -> bool:
        return colors[i - 1] != colors[j - 1]

    may_pair = bichromatic if instance.kind == BNM else None
    for edges in noncrossing_pairings(instance, range(1, m + 1), may_pair=may_pair):
        yield Matching.from_pairs(edges)


def min_length_pm(instance: Instance, cap: int = BRUTE_FORCE_CAP) -> Matching:
    """A minimum-total-length perfect matching, found by brute force.

    Only non-crossing pairings are searched: a crossing pair of edges can
    always be exchanged for a strictly shorter non-crossing pair, so the
    global minimum is attained on a non-crossing matching and the output is
    non-crossing by construction.
    """
    pts = instance.points
    best: Matching | None = None
    for matching in enumerate_perfect_noncrossing(instance, cap):
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
    the top of the stack when the two may pair (opposite colors on BNM,
    always on MNM), else pushes it.  That pairs every point with its first
    balanced partner.  Deterministic, so golden tests can pin its output.
    O(n) after the hull order.
    """
    if instance.geometry not in (CIRCLE, CONVEX):
        raise NotConvex("convex matching construction needs convex position")
    colors = instance.colors
    is_bnm = instance.kind == BNM
    edges: list[tuple[int, int]] = []
    stack: list[int] = []
    for q in geometry.hull_order(instance):
        if stack and (not is_bnm or colors[stack[-1] - 1] != colors[q - 1]):
            edges.append((stack.pop(), q))
        else:
            stack.append(q)
    if stack:
        raise NotPerfect(f"no balanced partner for point {stack[0]}")
    return Matching.from_pairs(edges)


# ---------------------------------------------------------------------------
# matching -> tree


def matching_to_bt(instance: Instance, matching: Matching) -> BinaryTree:
    """Tree of a perfect non-crossing red-blue matching in convex position.

    The root is the first red's edge; the left/right subtrees are the trees
    of the edges lying in the left/right half-plane of that directed edge
    (red towards blue).  Every face of the edges placed so far is one empty
    child slot of the tree, so the build replays the region engine the bt
    player runs on: node k is the k-th red's edge, it fills the slot of the
    region that red arrives in, and its children become the slots of the
    regions left and right of it.  A red whose partner lies in another
    region raises CrossingDetected.  O(n log n) on top of the hull ranks.
    """
    from .engine import _RegionEngine  # engine imports this module at load time

    n = instance.n
    if not n or len(matching) != n:
        raise NotPerfect("matching_to_bt needs a perfect red-blue matching")
    partner: dict[int, int] = {}
    for b, r in matching:  # blues arrive first and edges are (min, max)
        if not 0 < b <= n < r <= 2 * n:
            raise NotPerfect(f"edge {(b, r)} is not red-blue")
        partner[r] = b

    eng = _RegionEngine(instance)
    for i in range(1, n + 1):
        eng.on_arrival(i)
        eng.commit(None)
    lefts, rights = [-1] * n, [-1] * n
    # region id -> (child links, parent node); the root fills a dummy link
    slot = {0: ([-1], 0)}
    for k, i in enumerate(range(n + 1, 2 * n + 1)):
        eng.on_arrival(i)
        links, parent = slot.pop(eng.region())
        links[parent] = k
        j = partner[i]
        try:
            eng.commit(j)
        except IllegalMatch:
            raise CrossingDetected(f"edge {i}-{j} crosses the edge of an earlier red") from None
        left, right = eng.split
        slot[left], slot[right] = (lefts, k), (rights, k)
    return _assemble(lefts, rights)


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
    required_perfect: bool = False

    @property
    def valid(self) -> bool:
        return not (
            self.crossings
            or self.color_violations
            or self.duplicate_endpoints
            or self.out_of_range
        )

    @property
    def ok(self) -> bool:
        """Valid, and perfect too when perfection was demanded."""
        return self.valid and (self.perfect or not self.required_perfect)


def _hull_noncrossing_ok(instance: Instance, edges: list[tuple[int, int]]) -> bool:
    """O(m) stack check for convex position: chords are non-crossing iff,
    along the hull order, they close like balanced parentheses."""
    rank = instance.ranks
    partner = [-1] * len(rank)
    for a, b in edges:
        partner[rank[a - 1]] = rank[b - 1]
        partner[rank[b - 1]] = rank[a - 1]
    stack: list[int] = []
    for pos, other in enumerate(partner):
        if other > pos:
            stack.append(pos)
        elif other >= 0 and (not stack or stack.pop() != other):
            return False
    return True


def validate_matching(
    instance: Instance,
    matching: Matching | Sequence[tuple[int, int]],
    require_perfect: bool = False,
) -> MatchingReport:
    """Report crossings, color violations, endpoint reuse and coverage."""
    colors = instance.colors
    m = len(colors)
    if isinstance(matching, Matching):
        edges = sorted(matching.edges)
    else:
        edges = [(min(a, b), max(a, b)) for a, b in matching]
    report = MatchingReport(matched_count=0, required_perfect=require_perfect)

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
        if instance.kind == BNM and colors[a - 1] == colors[b - 1]:
            report.color_violations.append(e)
    report.matched_count = len(seen)

    if (
        instance.geometry in (CIRCLE, CONVEX)
        and not report.duplicate_endpoints
        and _hull_noncrossing_ok(instance, usable)
    ):
        segs = []  # fast path: provably no crossing pair
    else:
        ends, crosses, _turn = instance.crossing_view
        segs = [(ends[a - 1], ends[b - 1]) for a, b in usable]
    # Every point of a segment lies between its ends in the view's order
    # (hull ranks, or (x, y) pairs compared lexicographically), so segments
    # whose spans are disjoint neither touch nor share a position: sort the
    # spans by their smaller end and test each against the later ones it meets.
    spans = sorted((min(p, q), max(p, q), x) for x, (p, q) in enumerate(segs))
    starts = [lo for lo, _hi, _x in spans]
    shared, crossed = [], []
    for s, (_lo, hi, u) in enumerate(spans):
        for *_, v in spans[s + 1 : bisect_right(starts, hi)]:
            x, y = min(u, v), max(u, v)
            if len({*usable[x], *usable[y]}) < 4:
                continue  # endpoint reuse already reported
            if {*segs[x]} & {*segs[y]}:
                shared.append((x, y))
            elif crosses(segs[x], segs[y]):
                crossed.append((x, y))
    if shared:
        x, y = min(shared)
        raise SharedEndpoint(f"segments {segs[x]} and {segs[y]} share an endpoint position")
    report.crossings = [(usable[x], usable[y]) for x, y in sorted(crossed)]
    report.perfect = report.valid and report.matched_count == m
    return report
