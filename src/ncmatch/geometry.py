"""Exact planar geometry: points, instances, matchings, and the predicates
everything else is built on.

Coordinates are exact rationals.  A point on the unit circle additionally
carries an exact turn-fraction angle in [0, 1), measured counterclockwise
from the positive x axis.  The x/y of circle points are display
placeholders (nearest representable position) that ``Point`` derives from
the angle when they are first read; they never reach a predicate.
Clockwise means decreasing angle.

Circle instances built from integer ticks (``Instance.from_ticks``) keep
them instead of points: size, colours and ranks come from columns, and
``Instance.points`` is a view built on first read.

Each instance has one exact view, picked by ``Instance.crossing_view``:
``(ends, crosses, turn)``.  Convex position (circles and convex polygons)
runs on hull ranks (``Instance.ranks``): chords cross iff their ranks
interleave (``chords_cross``), and three points turn left iff their ranks
run counterclockwise (``cyclic_turn``).  Circles sort their ticks or angles
into ranks; polygons rank by one convex hull on integer coordinates.  General
position runs on integers: scaling all coordinates by their common
denominator preserves orientations and intersections, so instances build
that view once (``Instance.int_xy``) for the segment test
``seg_cross_int``, the cross product ``cross_int`` and the
general-position check ``collinear_triple``.  ``orientation``,
``segments_cross`` and ``half_plane_side`` decide the same questions on
``Point``s through these predicates and serve as references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    Degenerate,
    InvalidInstance,
    NotConvex,
    SharedEndpoint,
)

BLUE = "blue"
RED = "red"

LEFT = "left"
RIGHT = "right"
COLLINEAR = "collinear"

MNM = "MNM"
BNM = "BNM"

CIRCLE = "circle"
CONVEX = "convex"
GENERAL = "general"

KINDS = (MNM, BNM)
GEOMETRIES = (CIRCLE, CONVEX, GENERAL)


@dataclass(frozen=True, slots=True, init=False)
class Point:
    """A planar point with its arrival position in the online sequence.

    ``angle`` is present exactly when the point is declared to lie on the
    unit circle; in that case x/y are placeholders for rendering only.  A
    point built with an angle and x = y = None (as ``circle_point`` does)
    derives each of them when it is first read, as the exact rational value
    of the float cosine/sine at that angle, and keeps it.
    """

    x: Fraction
    y: Fraction
    arrival_index: int
    color: str | None = None
    angle: Fraction | None = None

    def __init__(
        self,
        x: Fraction | None,
        y: Fraction | None,
        arrival_index: int,
        color: str | None = None,
        angle: Fraction | None = None,
    ):
        set_ = object.__setattr__
        if x is not None or y is not None or angle is None:
            set_(self, "x", x)
            set_(self, "y", y)
        set_(self, "arrival_index", arrival_index)
        set_(self, "color", color)
        set_(self, "angle", angle)

    def __getattr__(self, name):
        # reached only for unset slots: the x/y that __init__ left to derive
        trig = _PLACEHOLDER_TRIG.get(name)
        if trig is None:
            raise AttributeError(name)
        turn = self.angle.numerator / self.angle.denominator
        value = _raw_fraction(*trig(2.0 * math.pi * turn).as_integer_ratio())
        object.__setattr__(self, name, value)
        return value

    def position(self) -> tuple:
        """Hashable exact position: the angle on circles, else coordinates."""
        if self.angle is not None:
            return ("angle", self.angle)
        return ("xy", self.x, self.y)


_PLACEHOLDER_TRIG = {"x": math.cos, "y": math.sin}


def _raw_fraction(num: int, den: int) -> Fraction:
    """Fraction from an already-coprime pair, skipping the gcd pass.

    Instance generators build millions of exact dyadics; the public
    constructor's normalization dominates their runtime otherwise.
    """
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def circle_point(angle: Fraction | int, arrival_index: int, color: str | None = None) -> Point:
    """Point on the unit circle at an exact turn fraction, reduced mod 1.

    Its rational x/y are derived from the float cosine/sine when first
    read (see ``Point``); only renderers, the x-sorted player and length
    surrogates read them.
    """
    if not isinstance(angle, Fraction):
        angle = Fraction(angle) % 1
    elif not 0 <= angle.numerator < angle.denominator:
        angle = angle % 1
    return Point(None, None, arrival_index, color, angle)


def grid_points(
    ticks: Iterable[int], bits: int, colors: Iterable[str | None] | None = None
) -> list[Point]:
    """Circle points at turn fractions t / 2^bits for ticks t in [0, 2^bits),
    arriving as 1, 2, ... and coloured by ``colors`` (none when omitted):
    ``circle_point(Fraction(t, 2**bits), ...)``, but each angle is reduced
    by shifting out the tick's trailing zero bits, so no gcd runs."""
    points = []
    for idx, (t, color) in enumerate(zip(ticks, colors or repeat(None)), start=1):
        shift = (t & -t).bit_length() - 1 if t else bits  # tick 0 is 0/1
        points.append(Point(None, None, idx, color, _raw_fraction(t >> shift, 1 << bits - shift)))
    return points


def plane_point(x, y, arrival_index: int, color: str | None = None) -> Point:
    return Point(Fraction(x), Fraction(y), arrival_index, color, None)


def angle_sort_keys(pts: Sequence[Point]) -> list:
    """Exact sort keys for circle points: plain ints when every angle
    denominator is a power of two (true of every file the at-scale
    generators write), else the Fractions themselves."""
    ratios = [p.angle.as_integer_ratio() for p in pts]
    if all(d & (d - 1) == 0 for _, d in ratios):
        width = max(d for _, d in ratios).bit_length()
        return [num << (width - d.bit_length()) for num, d in ratios]
    return [p.angle for p in pts]


# ---------------------------------------------------------------------------
# predicates


def integer_coords(pts: Sequence[Point]) -> list[tuple[int, int]]:
    """The points' x/y times the least common denominator of them all."""
    den = 1
    for p in pts:
        den = math.lcm(den, p.x.denominator, p.y.denominator)
    return [
        (p.x.numerator * (den // p.x.denominator), p.y.numerator * (den // p.y.denominator))
        for p in pts
    ]


def seg_cross_int(e1: tuple, e2: tuple) -> bool:
    """True iff the closed segments intersect; endpoints are (x, y) integer
    pairs, assumed distinct."""
    ((px, py), (qx, qy)), ((rx, ry), (sx, sy)) = e1, e2
    d1 = (sx - rx) * (py - ry) - (sy - ry) * (px - rx)
    d2 = (sx - rx) * (qy - ry) - (sy - ry) * (qx - rx)
    d3 = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    d4 = (qx - px) * (sy - py) - (qy - py) * (sx - px)
    if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
    # a zero sign puts that endpoint on the other segment's line; it touches
    # the segment iff it lies in its bounding box
    if d1 == 0 and min(rx, sx) <= px <= max(rx, sx) and min(ry, sy) <= py <= max(ry, sy):
        return True
    if d2 == 0 and min(rx, sx) <= qx <= max(rx, sx) and min(ry, sy) <= qy <= max(ry, sy):
        return True
    if d3 == 0 and min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy):
        return True
    if d4 == 0 and min(px, qx) <= sx <= max(px, qx) and min(py, qy) <= sy <= max(py, qy):
        return True
    return False


def chords_cross(e1: tuple, e2: tuple) -> bool:
    """True iff two chords of a convex polygon cross; endpoints are four
    distinct cyclic ranks (or circle angles).  They cross iff exactly one
    endpoint of the second lies strictly between those of the first."""
    (a, b), (c, d) = e1, e2
    if a > b:
        a, b = b, a
    return (a < c < b) != (a < d < b)


def cross_int(a: tuple, b: tuple, c: tuple) -> int:
    """The cross product (b-a) x (c-a) of integer (x, y) pairs: positive iff
    c is strictly counterclockwise of the ray a->b, zero iff collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def cyclic_turn(a, b, c) -> int:
    """1 if a, b, c run counterclockwise in cyclic order (ranks or angles),
    -1 if clockwise, 0 if two coincide.  They run counterclockwise iff
    exactly one step of the cycle a -> b -> c -> a wraps past 0; neither
    count reaches 2 when two of them coincide."""
    if (a < b) + (b < c) + (c < a) == 2:
        return 1
    if (b < a) + (c < b) + (a < c) == 2:
        return -1
    return 0


def collinear_triple(xy: Sequence[tuple[int, int]]) -> tuple[int, int, int] | None:
    """Positions of three collinear integer points, or None if there are none.

    Two coincident points count as collinear with any third.  For each
    point, the directions to all later points are reduced by their gcd,
    turned into one half-plane and hashed; a repeat is a collinear triple.
    O(m^2) dictionary operations (the problem is 3SUM-hard).
    """
    m = len(xy)
    for i in range(m - 2):
        ax, ay = xy[i]
        first: dict[tuple[int, int], int] = {}
        for j in range(i + 1, m):
            x, y = xy[j]
            dx, dy = x - ax, y - ay
            g = math.gcd(dx, dy)
            if not g:
                return i, j, (j + 1 if j + 1 < m else i + 1)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            k = first.setdefault((dx // g, dy // g), j)
            if k != j:
                return i, k, j
    return None


def orientation(a: Point, b: Point, c: Point) -> str:
    """Sign of the exact cross product (b-a) x (c-a).

    "left" means c is strictly counterclockwise of the ray a->b.  When all
    three points carry angles the answer comes from cyclic angle order
    (three distinct circle points are never collinear).
    """
    if a.angle is not None and b.angle is not None and c.angle is not None:
        sign = cyclic_turn(a.angle, b.angle, c.angle)
        if not sign:
            raise Degenerate("coincident circle points in orientation test")
    else:
        sign = cross_int(*integer_coords((a, b, c)))
    return LEFT if sign > 0 else RIGHT if sign < 0 else COLLINEAR


def segments_cross(e1: tuple[Point, Point], e2: tuple[Point, Point]) -> bool:
    """True iff the closed segments intersect.

    Endpoints must be four distinct points; a shared endpoint is an error
    because matched points are never reused.  Circle chords cross iff their
    angles interleave.
    """
    for u in e1:
        for v in e2:
            if u.position() == v.position():
                raise SharedEndpoint(
                    f"segments share endpoint at arrival {u.arrival_index}/{v.arrival_index}"
                )
    p1, p2, q1, q2 = pts = (*e1, *e2)
    if all(p.angle is not None for p in pts):
        return chords_cross((p1.angle, p2.angle), (q1.angle, q2.angle))
    a, b, c, d = integer_coords(pts)
    return seg_cross_int((a, b), (c, d))


def half_plane_side(edge: tuple[Point, Point], p: Point) -> str:
    """Which side of the directed edge (from, to) the point p lies on.

    "left" is the half-plane swept by counterclockwise angles in (0, pi)
    from the edge direction.
    """
    a, b = edge
    side = orientation(a, b, p)
    if side == COLLINEAR:
        raise Degenerate(
            f"point {p.arrival_index} is collinear with edge "
            f"({a.arrival_index}, {b.arrival_index})"
        )
    return side


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True, init=False)
class Instance:
    """An ordered point sequence for one online matching problem.

    For BNM the first n points are blue (offline batch) and the last n red.
    Construct through :meth:`build`, or :meth:`from_ticks` for circle points
    on an integer grid, so invariants are checked; internal generators that
    guarantee them may pass ``validate=False``.  An instance from ticks
    keeps them and its colours as columns, and builds ``points`` when it is
    first read, through ``grid_points``, dropping the ticks then.
    """

    points: tuple[Point, ...]
    kind: str
    geometry: str

    def __init__(self, points, kind: str, geometry: str, grid=None, colors=None):
        set_ = object.__setattr__
        if points is not None:
            set_(self, "points", tuple(points))
            colors = [p.color for p in self.points]
        set_(self, "kind", kind)
        set_(self, "geometry", geometry)
        set_(self, "colors", tuple(colors))  # each point's colour, by arrival
        set_(self, "_grid", grid)  # (ticks, bits) until the points are built

    def __getattr__(self, name):
        # reached only for unset attributes: the points of an instance from ticks
        if name != "points" or not self._grid:
            raise AttributeError(name)
        ticks, bits = self._grid
        object.__setattr__(self, "_grid", None)
        object.__setattr__(self, "points", tuple(grid_points(ticks, bits, self.colors)))
        return self.points

    @classmethod
    def build(
        cls,
        points: Sequence[Point],
        kind: str,
        geometry: str,
        validate: bool = True,
    ) -> "Instance":
        inst = cls(points, kind, geometry)
        return validate_instance(inst) if validate else inst

    @classmethod
    def from_ticks(cls, ticks: Sequence[int], bits: int, kind: str, colors=None, validate=True):
        """Circle points at turn fractions t / 2^bits for the ticks t, in
        arrival order, coloured by ``colors`` (none when omitted)."""
        inst = cls(None, kind, CIRCLE, (ticks, bits), colors or [None] * len(ticks))
        return validate_instance(inst) if validate else inst

    @property
    def n(self) -> int:
        return self.size // 2

    @property
    def size(self) -> int:
        return len(self.colors)

    def point(self, arrival_index: int) -> Point:
        return self.points[arrival_index - 1]

    @cached_property
    def int_xy(self) -> list[tuple[int, int]]:
        """The points' integer coordinates (``integer_coords``), in arrival
        order; every generator's planar points are integers already."""
        return integer_coords(self.points)

    @cached_property
    def crossing_view(self) -> tuple[list, Callable[[tuple, tuple], bool], Callable]:
        """``(ends, crosses, turn)``: each point's exact stand-in, in arrival
        order; the test that decides whether two segments given as pairs of
        stand-ins intersect; and the turn of three stand-ins, positive iff
        the third lies left of the directed line through the first two,
        zero iff collinear.  Convex position (circles and polygons) uses its
        hull ranks, ``chords_cross`` and ``cyclic_turn``; general position
        uses ``int_xy``, ``seg_cross_int`` and ``cross_int``."""
        if self.geometry in (CIRCLE, CONVEX):
            return self.ranks, chords_cross, cyclic_turn
        return self.int_xy, seg_cross_int, cross_int

    @cached_property
    def ranks(self) -> list[int]:
        """Counterclockwise hull position of each point (``cyclic_ranks``,
        or the sorted ticks while the instance has them), in arrival order;
        shared by validation, the crossing view, the region engine, the hull
        audit and ``hull_order``, so callers must not modify it."""
        if self._grid is not None:
            return _key_ranks(self._grid[0])
        return cyclic_ranks(self.points)

    def blues(self) -> tuple[Point, ...]:
        return self.points[: self.n]

    def reds(self) -> tuple[Point, ...]:
        return self.points[self.n :]


def validate_instance(inst: Instance) -> Instance:
    m = inst.size
    if m == 0 or m % 2 != 0:
        raise InvalidInstance("instances need a positive even number of points")
    if inst.kind not in KINDS:
        raise InvalidInstance(f"unknown kind {inst.kind!r}")
    if inst.geometry not in GEOMETRIES:
        raise InvalidInstance(f"unknown geometry {inst.geometry!r}")
    grid = inst._grid
    pts = inst.points if grid is None else ()  # ticks imply the arrival order
    for i, p in enumerate(pts):
        if p.arrival_index != i + 1:
            raise InvalidInstance(
                f"point at position {i} has arrival_index {p.arrival_index}"
            )
    n = m // 2
    colors = inst.colors
    if inst.kind == BNM:
        if any(c != BLUE for c in colors[:n]) or any(c != RED for c in colors[n:]):
            raise InvalidInstance("BNM requires n blue points then n red points")
    else:
        if any(c is not None for c in colors):
            raise InvalidInstance("MNM points must be uncolored")

    if inst.geometry == CIRCLE:
        if grid and not all(0 <= t < 1 << grid[1] for t in grid[0]):
            raise InvalidInstance(f"ticks must lie in [0, 2^{grid[1]})")
        for p in pts:
            if p.angle is None:
                raise InvalidInstance("circle instances need an angle on every point")
            num, den = p.angle.as_integer_ratio()
            if not 0 <= num < den:
                raise InvalidInstance("angles must be turn fractions in [0, 1)")
        inst.ranks  # raises InvalidInstance on duplicate angles or ticks
        return inst

    if any(p.angle is not None for p in pts):
        raise InvalidInstance("only circle instances may carry angles")
    if len({(p.x, p.y) for p in pts}) != m:
        raise InvalidInstance("duplicate points")
    if inst.geometry == CONVEX:
        inst.ranks  # raises NotConvex unless every point is a hull vertex
    else:
        triple = collinear_triple(inst.int_xy)
        if triple is not None:
            a, b, c = sorted(triple)
            raise InvalidInstance(f"collinear triple {a + 1}, {b + 1}, {c + 1}")
    return inst


def _convex_hull_ccw(xy: Sequence[tuple[int, int]]) -> list[int]:
    """Positions in ``xy`` of the convex hull's vertices, counterclockwise
    from the lowest leftmost point.  Monotone chain with strict turns:
    collinear points are not vertices."""
    ordered = sorted(range(len(xy)), key=xy.__getitem__)
    if len(ordered) <= 2:
        return ordered

    def build(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and cross_int(xy[out[-2]], xy[out[-1]], xy[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = build(ordered)
    upper = build(reversed(ordered))
    return lower[:-1] + upper[:-1]


def cyclic_ranks(pts: Sequence[Point]) -> list[int]:
    """Counterclockwise hull position of each point, in input order.

    Points that all carry angles are ranked by the exact angle sort keys
    (``_key_ranks``); anything else by the convex hull of their integer
    coordinates, which must contain every point.  In convex position the
    orientation of three points is the cyclic order of their ranks
    (``cyclic_turn``).
    """
    if all(p.angle is not None for p in pts):
        return _key_ranks(angle_sort_keys(pts))
    order = _convex_hull_ccw(integer_coords(pts))
    if len(order) != len(pts):
        raise NotConvex("convex instances require every point on the hull")
    return sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation


def _key_ranks(keys: Sequence) -> list[int]:
    """Position of each key in sorted order; two equal keys raise
    ``InvalidInstance``."""
    if len(set(keys)) < len(keys):
        raise InvalidInstance("duplicate circle points")
    ranks = [0] * len(keys)
    for pos, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        ranks[i] = pos
    return ranks


def hull_order(instance: Instance) -> list[int]:
    """Clockwise cyclic hull order of all points, starting at p_1.

    Returns arrival indices.
    """
    if instance.geometry not in (CIRCLE, CONVEX):
        raise NotConvex("hull order needs circle or convex geometry")
    ranks = instance.ranks
    m = len(ranks)
    ccw = [0] * m
    for i, r in enumerate(ranks):
        ccw[r] = i + 1
    start = ranks[0]
    return [ccw[(start - t) % m] for t in range(m)]


def parity(instance: Instance) -> list[int]:
    """Parity of each point's clockwise hull distance from p_1, in arrival
    order; with an even point count, that of its rank minus p_1's."""
    if instance.geometry not in (CIRCLE, CONVEX):
        raise NotConvex("hull parity needs circle or convex geometry")
    ranks = instance.ranks
    r0 = ranks[0]
    return [(r - r0) & 1 for r in ranks]


# ---------------------------------------------------------------------------
# matchings


@dataclass(frozen=True)
class Matching:
    """A partial matching as a set of unordered arrival-index pairs.

    Structural invariants (disjoint endpoints, i != j) are enforced here;
    geometric validity is the job of offline.validate_matching.
    """

    edges: frozenset = frozenset()

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise InvalidInstance("self-loop edge")
            if i > j:
                raise InvalidInstance("edges must be stored as (min, max)")
            if i in seen or j in seen:
                raise InvalidInstance(f"index reused by edge {e}")
            seen.add(i)
            seen.add(j)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(frozenset((min(i, j), max(i, j)) for i, j in pairs))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.edges))

    def matched_indices(self) -> set[int]:
        return {i for e in self.edges for i in e}

    def partner(self, i: int) -> int | None:
        for a, b in self.edges:
            if a == i:
                return b
            if b == i:
                return a
        return None

    def with_edge(self, i: int, j: int) -> "Matching":
        return Matching(self.edges | {(min(i, j), max(i, j))})


# ---------------------------------------------------------------------------
# availability


def available_set(instance: Instance, current: Matching, i: int) -> set[int]:
    """Arrival indices of earlier unmatched points that p_i can legally match.

    The brute-force definition (``scan_available``); the region engine
    answers the same queries for convex-position instances and is
    cross-checked against this one.
    """
    ends = instance.crossing_view[0]
    edges = [(ends[a - 1], ends[b - 1]) for a, b in current.edges]
    return set(scan_available(instance, i, current.matched_indices(), edges))


def scan_available(
    instance: Instance, i: int, matched: set[int], edges: list[tuple]
) -> list[int]:
    """Ascending arrival indices j < i that p_i can join: j is unmatched, of
    the other color on BNM, and the segment p_i p_j crosses none of the
    committed ``edges``, which are given as pairs of the instance's
    ``crossing_view`` ends."""
    ends, crosses, _turn = instance.crossing_view
    colors = instance.colors
    color = colors[i - 1] if instance.kind == BNM else None
    p = ends[i - 1]
    out = []
    for j in range(1, i):
        if j in matched or (color is not None and colors[j - 1] == color):
            continue
        seg = (p, ends[j - 1])
        if not any(crosses(seg, e) for e in edges):
            out.append(j)
    return out
