"""Output checkers written apart from ncmatch.

Nothing here imports the package under test: every predicate is re-derived
from the definitions (chord interleaving on exact angles, integer
orientation signs, Catalan numbers from ``math.comb``), so a fault in the
program's own geometry cannot hide itself from the benchmark.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, lcm


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# advice-length bounds


def catalan_bits(n: int) -> int:
    """ceil(log2 C_n), with C_n = binom(2n, n) / (n + 1)."""
    c = comb(2 * n, n) // (n + 1)
    return (c - 1).bit_length()


def sorted_bits(n: int) -> int:
    """The x-sorted algorithm writes one code of 1 or 2 bits per point:
    n skips (0) and n matches (10 or 11), 3n bits in all."""
    return 3 * n


# ---------------------------------------------------------------------------
# matchings as arrival-index pairs


def check_perfect(m: int, edges) -> None:
    """Every arrival index 1..m is covered by exactly one edge."""
    seen = [0] * (m + 1)
    for a, b in edges:
        require(1 <= a <= m and 1 <= b <= m and a != b, f"bad edge {(a, b)}")
        seen[a] += 1
        seen[b] += 1
    require(all(c == 1 for c in seen[1:]), "matching is not perfect")


def check_red_blue(colors, edges) -> None:
    """colors[i - 1] is the color of arrival i; each edge joins blue to red."""
    for a, b in edges:
        require(
            {colors[a - 1], colors[b - 1]} == {"blue", "red"},
            f"edge {(a, b)} is not red-blue",
        )


def x_consecutive_pairs(xs) -> set[tuple[int, int]]:
    """Pair the points x-consecutively: 1st with 2nd, 3rd with 4th, ...
    in increasing x.  xs[i - 1] is the x of arrival i; all distinct."""
    order = sorted(range(1, len(xs) + 1), key=lambda i: xs[i - 1])
    require(len(set(xs)) == len(xs), "x-coordinates are not distinct")
    return {(min(a, b), max(a, b)) for a, b in zip(order[::2], order[1::2])}


# ---------------------------------------------------------------------------
# chords on a circle


def circle_ranks(angles) -> list[int]:
    """Position of each point in counterclockwise order of its exact turn
    fraction; rank[i - 1] belongs to arrival i.  Angles must be distinct."""
    angles = [Fraction(a) % 1 for a in angles]
    order = sorted(range(len(angles)), key=angles.__getitem__)
    require(len(set(angles)) == len(angles), "coincident circle points")
    rank = [0] * len(angles)
    for pos, i in enumerate(order):
        rank[i] = pos
    return rank


def chords_cross(rank, e, f) -> bool:
    """Two chords with four distinct endpoints cross iff exactly one
    endpoint of f lies strictly inside the arc spanned by e."""
    lo, hi = sorted((rank[e[0] - 1], rank[e[1] - 1]))
    return (lo < rank[f[0] - 1] < hi) != (lo < rank[f[1] - 1] < hi)


def check_noncrossing_chords(rank, edges) -> None:
    """No two chords interleave.  Walking the circle, the chords must open
    and close like balanced parentheses, which is the pairwise interleaving
    test of :func:`chords_cross` done in one O(m) pass."""
    closes = {}
    for e in edges:
        lo, hi = sorted((rank[e[0] - 1], rank[e[1] - 1]))
        closes[lo] = (hi, e)
        closes[hi] = None
    require(len(closes) == 2 * len(edges), "chords share an endpoint")
    stack = []
    for pos in sorted(closes):
        entry = closes[pos]
        if entry is not None:
            stack.append(entry)
            continue
        hi, e = stack.pop()
        if hi != pos:
            raise CheckFailed(f"chord {e} crosses another chord")


def check_greedy_circle(rank, edges) -> None:
    """Replay a monochromatic circle run and prove it greedy.

    The committed chords cut the disc into regions; two unmatched points
    can be joined without a crossing iff they lie in one region.  An
    arrival left unmatched must see no earlier unmatched point in its
    region, and a matched arrival must take the earliest one there (the
    greedy player matches the available point that arrived first).  Each
    new chord splits its region in two, relabelling the points inside its
    arc.  Matching only within a region also proves the chords never cross.
    """
    m = len(rank)
    earlier = {}
    for a, b in edges:
        earlier[max(a, b)] = min(a, b)
    region = [0] * (m + 1)
    unmatched: list[int] = []
    next_region = 1
    for t in range(1, m + 1):
        reachable = [q for q in unmatched if region[q] == region[t]]
        q = earlier.get(t)
        earliest = min(reachable, default=None)
        if q is None:
            require(
                earliest is None,
                f"arrival {t} left unmatched although {earliest} was reachable",
            )
            unmatched.append(t)
            continue
        require(
            q == earliest,
            f"arrival {t} matched {q}, but the earliest reachable point was {earliest}",
        )
        unmatched.remove(q)
        lo, hi = sorted((rank[q - 1], rank[t - 1]))
        old = region[t]
        for p in range(1, m + 1):
            if region[p] == old and lo < rank[p - 1] < hi:
                region[p] = next_region
        next_region += 1


# ---------------------------------------------------------------------------
# segments in the plane


def integer_points(coords) -> list[tuple[int, int]]:
    """Scale exact rational (x, y) pairs by one positive common denominator;
    orientation signs and intersections are unchanged."""
    coords = [(Fraction(x), Fraction(y)) for x, y in coords]
    den = lcm(*(c.denominator for xy in coords for c in xy))
    return [(int(x * den), int(y * den)) for x, y in coords]


def _orient(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def _within(p, q, r) -> bool:
    """r collinear with p-q: does it lie in the closed segment?"""
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(
        p[1], q[1]
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Closed segments p1p2 and q1q2 share a point (integer coordinates)."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _within(q1, q2, p1))
        or (d2 == 0 and _within(q1, q2, p2))
        or (d3 == 0 and _within(p1, p2, q1))
        or (d4 == 0 and _within(p1, p2, q2))
    )


def check_noncrossing_segments(pts, edges) -> None:
    """pts[i - 1] is the integer point of arrival i; test every edge pair."""
    edges = list(edges)
    for x in range(len(edges)):
        a, b = edges[x]
        for y in range(x + 1, len(edges)):
            c, d = edges[y]
            if segments_intersect(pts[a - 1], pts[b - 1], pts[c - 1], pts[d - 1]):
                raise CheckFailed(f"segments {edges[x]} and {edges[y]} intersect")
