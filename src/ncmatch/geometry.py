"""Exact planar geometry: points, instances, matchings, and the predicates
everything else is built on.

Coordinates are exact rationals.  A point on the unit circle carries
instead an exact turn-fraction angle in [0, 1), measured counterclockwise
from the positive x axis; clockwise means decreasing angle.  Every
instance is one representation: its kind, its geometry and one integer
grid over a unit, the least common denominator of its angles (circle
ticks) or of its coordinates (integer (x, y) pairs; scaling every
coordinate by it preserves orientations and intersections).  One rule
makes the grid, ``rational_grid`` with its least-terms step
``reduce_grid``, which files, families and points reach through
``Instance.from_rows``.  Colour is arrival position: on BNM arrivals
1..n are the blue batch and n+1..2n the reds, and MNM points have none.
Size, colours, ranks, x-order, equality and hashing come from the grid,
and ``Instance.points`` is a view built from it; on circles its x/y are
placeholders (the float cosine and sine) that never reach a predicate.

Each instance has one exact view, picked by ``Instance.crossing_view``:
``(ends, crosses)``.  Convex position (circles and convex polygons)
runs on hull ranks (``Instance.ranks``): chords cross iff their ranks
interleave (``chords_cross``), and three points turn left iff their ranks
run counterclockwise (``cyclic_turn``).  The counterclockwise order is
decided once per instance, in ``Instance.hull``: circles sort their ticks,
polygons take one convex hull of their integer pairs.  ``ranks`` is its
inverse, and ``hull_order`` a slice of it.  General position runs on the
pairs (``Instance.int_xy``): the segment test ``seg_cross_int``, the cross
product ``cross_int`` and the general-position check ``collinear_triple``.
``orientation``, ``segments_cross`` and ``half_plane_side`` decide the
same questions on ``Point``s through these predicates and serve as
references.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    Degenerate,
    InvalidInstance,
    NotConvex,
    RationalTooLarge,
    SharedEndpoint,
    quoted,
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

_MAX_UNIT_BITS = 1 << 15  # the unit of a grid whose denominators are not all powers of two


@dataclass(frozen=True, slots=True)
class Point:
    """A planar point with its arrival position in the online sequence.

    ``angle`` is present exactly when the point lies on the unit circle; in
    that case x/y are placeholders for rendering only.  An instance keeps
    no point: it keeps the angle's tick, or the x/y's integer pair.
    """

    x: Fraction
    y: Fraction
    arrival_index: int
    color: str | None = None
    angle: Fraction | None = None

    def position(self) -> tuple:
        """Hashable exact position: the angle on circles, else coordinates."""
        if self.angle is not None:
            return ("angle", self.angle)
        return ("xy", self.x, self.y)


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

    Its x/y placeholders are the exact rationals of the float cosine and
    sine at that angle; only renderers, the JSON writer and length
    surrogates read them.
    """
    if not isinstance(angle, Fraction) or not 0 <= angle.numerator < angle.denominator:
        angle = Fraction(angle) % 1
    rad = 2.0 * math.pi * (angle.numerator / angle.denominator)
    return Point(
        _raw_fraction(*math.cos(rad).as_integer_ratio()),
        _raw_fraction(*math.sin(rad).as_integer_ratio()),
        arrival_index,
        color,
        angle,
    )


def grid_points(
    ticks: Iterable[int], unit: int, colors: Iterable[str | None] | None = None
) -> Iterator[Point]:
    """Circle points at turn fractions t / unit for ticks t in [0, unit),
    arriving as 1, 2, ... and coloured by ``colors`` (none when omitted),
    built one at a time through ``circle_point``.  On a power-of-two unit
    each angle is reduced by shifting out the tick's trailing zero bits, so
    no gcd runs, and an odd tick and the unit are the angle's own terms."""
    twos = unit.bit_length() - 1 if unit.bit_count() == 1 else 0
    for idx, (t, color) in enumerate(zip(ticks, colors or repeat(None)), start=1):
        if twos:
            shift = (t & -t).bit_length() - 1 if t else twos  # tick 0 is 0/1
            num, den = (t >> shift, unit >> shift) if shift else (t, unit)
        else:
            g = math.gcd(t, unit)
            num, den = t // g, unit // g
        yield circle_point(_raw_fraction(num, den), idx, color)


def plane_point(x, y, arrival_index: int, color: str | None = None) -> Point:
    return Point(Fraction(x), Fraction(y), arrival_index, color, None)


def rational_grid(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The rationals num / den of integer ``pairs`` (den > 0, in any terms) over
    their least common denominator, and that unit: the one rule for every grid.
    Power-of-two denominators scale by shifts, others by their lcm, which is capped."""
    dens = {d for _, d in pairs}
    if all(d.bit_count() == 1 for d in dens):
        width = max(dens, default=1).bit_length()
        # a shift by 0 would copy the numerator
        values = [num << k if (k := width - d.bit_length()) else num for num, d in pairs]
        return reduce_grid(values, 1 << width - 1)
    unit = 1
    for d in dens:
        unit = math.lcm(unit, d)
        if unit.bit_length() > _MAX_UNIT_BITS:  # unrelated denominators of a crafted file
            raise RationalTooLarge(
                f"the common denominator of the angles or coordinates exceeds {_MAX_UNIT_BITS} bits"
            )
    return reduce_grid([num * (unit // d) for num, d in pairs], unit)


def reduce_grid(values: list[int], unit: int) -> tuple[list[int], int]:
    """``values`` over ``unit`` in least terms, divided in place by what the unit
    shares with every value: by a shift on a power-of-two unit (no gcd), else the gcd."""
    if unit.bit_count() == 1:
        low = reduce(operator.or_, values, unit)
        if shift := (low & -low).bit_length() - 1:
            unit >>= shift
            for i, v in enumerate(values):
                values[i] = v >> shift
    elif (g := math.gcd(unit, *values)) > 1:
        unit //= g
        values[:] = [v // g for v in values]
    return values, unit


# ---------------------------------------------------------------------------
# predicates


def integer_grid(pts: Sequence[Point]) -> tuple[list[tuple[int, int]], int]:
    """The points' x/y as integer pairs over their least common denominator,
    and that unit: the grid of a general-position instance of them."""
    rows = [(p.x.as_integer_ratio(), p.y.as_integer_ratio(), None, None) for p in pts]
    return Instance.from_rows(rows, MNM, GENERAL, validate=False).grid


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
    point, the direction to every later point is keyed by its slope
    dy / dx scaled by s = D^2 + 1 and floored, (dy * s) // dx, where D is
    the span of the x coordinates; vertical directions share the key None.
    The key does not change when the direction is reversed, equal slopes
    give equal keys, and two distinct slopes, whose denominators are at
    most D, differ by at least 1 / D^2, so s times them differ by more
    than 1 and their floors differ: a repeated key is a collinear triple.
    O(m^2) dictionary operations (the problem is 3SUM-hard).
    """
    m = len(xy)
    if m < 3:
        return None
    xs = [x for x, _y in xy]
    scale = (max(xs) - min(xs)) ** 2 + 1
    for i in range(m - 2):
        ax, ay = xy[i]
        first: dict[int | None, int] = {}
        for j in range(i + 1, m):
            x, y = xy[j]
            dx = x - ax
            if dx:
                key = (y - ay) * scale // dx
            elif y == ay:
                return i, j, (j + 1 if j + 1 < m else i + 1)
            else:
                key = None
            k = first.setdefault(key, j)
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
        sign = cross_int(*integer_grid((a, b, c))[0])
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
    a, b, c, d = integer_grid(pts)[0]
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


@dataclass(frozen=True)
class Instance:
    """An ordered point sequence for one online matching problem: its kind,
    its geometry and one integer grid over the least common denominator of
    the angles or coordinates, ``(ticks, unit)`` on circles and ``(xy,
    unit)`` with integer (x, y) pairs elsewhere.  Colour is arrival
    position: for BNM the first n points are blue (offline batch) and the
    last n red.  Construct through :meth:`from_rows` (or its adapter
    :meth:`build` from points), or :meth:`from_ticks` for circle ticks, so
    invariants are checked; internal generators that guarantee them may
    skip validation.  Equality, hashing and ``repr`` read the grid;
    ``colors`` and ``points`` are views built on first read.
    """

    kind: str
    geometry: str
    grid: tuple

    def __hash__(self) -> int:
        values, unit = self.grid
        return hash((self.kind, self.geometry, unit, *values))

    def __repr__(self) -> str:
        return f"Instance(kind={self.kind!r}, geometry={self.geometry!r}, size={self.size})"

    @classmethod
    def build(cls, points: Sequence[Point], kind: str, geometry: str, validate: bool = True):
        """The instance of ``points``, arriving as 1, 2, ..., through :meth:`from_rows`."""
        rows = []
        for i, p in enumerate(points):
            if p.arrival_index != i + 1:
                raise InvalidInstance(f"point at position {i} has arrival_index {p.arrival_index}")
            x, y, angle = (None if q is None else q.as_integer_ratio() for q in (p.x, p.y, p.angle))
            rows.append((x, y, angle, p.color))
        return cls.from_rows(rows, kind, geometry, validate)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], kind: str, geometry: str, validate: bool = True):
        """The instance of ``rows`` ``(x, y, angle, colour)`` in arrival
        order, each rational an integer pair (num, den) in any terms, on
        one ``rational_grid``: on circles, of the angles alone (x/y are
        placeholders, unread); elsewhere, of x/y, and no row has an angle.
        The colours must be the kind's (see ``colors``), validated or not;
        when validating, a bad size, kind or geometry is reported first."""
        if geometry == CIRCLE:
            if any(r[2] is None for r in rows):
                raise InvalidInstance("circle instances need an angle on every point")
            grid = rational_grid([r[2] for r in rows])
        elif any(r[2] is not None for r in rows):
            raise InvalidInstance("only circle instances may carry angles")
        else:
            values, unit = rational_grid([v for r in rows for v in r[:2]])
            grid = list(zip(values[::2], values[1::2])), unit
        inst = cls(kind, geometry, grid)
        if [r[3] for r in rows] != list(inst.colors):
            if validate:
                _check_header(inst)
            if kind == BNM:
                raise InvalidInstance("BNM requires n blue points then n red points")
            raise InvalidInstance("MNM points must be uncolored")
        return validate_instance(inst) if validate else inst

    @classmethod
    def from_ticks(cls, ticks: list[int], unit: int, kind: str, validate=True):
        """Circle points at turn fractions t / unit for the ticks t, in arrival
        order.  Takes the list over, reduced in place."""
        inst = cls(kind, CIRCLE, reduce_grid(ticks, unit))
        return validate_instance(inst) if validate else inst

    @property
    def n(self) -> int:
        return self.size // 2

    @property
    def size(self) -> int:
        return len(self.grid[0])

    @cached_property
    def colors(self) -> tuple[str | None, ...]:
        """Each point's colour by arrival: n blue then n red on BNM, none on MNM."""
        n = self.n
        if self.kind == BNM:
            return (BLUE,) * n + (RED,) * (self.size - n)
        return (None,) * self.size

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(self.iter_points())

    def iter_points(self) -> Iterator[Point]:
        """The points in arrival order, each built from the grid when
        reached and kept by no one, unlike ``points``."""
        values, unit = self.grid
        if self.geometry == CIRCLE:
            return grid_points(values, unit, self.colors)
        return (
            Point(Fraction(x, unit), Fraction(y, unit), i, color)
            for i, ((x, y), color) in enumerate(zip(values, self.colors), start=1)
        )

    @property
    def int_xy(self) -> list[tuple[int, int]]:
        """The points' integer coordinates, in arrival order: the grid off
        the circle.  Circles have none, since their x/y are placeholders."""
        if self.geometry == CIRCLE:
            raise InvalidInstance("circle instances have ticks, not integer coordinates")
        return self.grid[0]

    @cached_property
    def x_keys(self) -> list:
        """An exact key per point, in arrival order, ordered as the points'
        x: the x of ``int_xy``, or on circles -min(t, u - t) for each tick
        t and unit u, since x = cos 2 pi theta falls as the folded turn
        min(theta, 1 - theta) rises."""
        values, unit = self.grid
        if self.geometry != CIRCLE:
            return [x for x, _y in values]
        return [-min(t, unit - t) for t in values]

    @property
    def convex(self) -> bool:
        """Whether the points are in convex position: circles and polygons."""
        return self.geometry != GENERAL

    @cached_property
    def crossing_view(self) -> tuple[list, Callable[[tuple, tuple], bool]]:
        """``(ends, crosses)``: each point's exact stand-in, in arrival
        order, and the test that decides whether two segments given as
        pairs of stand-ins intersect.  Convex position uses its hull ranks
        and ``chords_cross``; general position ``int_xy`` and
        ``seg_cross_int``."""
        return (self.ranks, chords_cross) if self.convex else (self.int_xy, seg_cross_int)

    @cached_property
    def hull(self) -> list[int]:
        """The arrival index at each counterclockwise hull rank: the one place
        convex position is decided.  Circles sort their ticks, and two equal
        neighbours raise ``InvalidInstance``; polygons take their convex hull,
        which must hold every point, else ``NotConvex``.  Shared by ``ranks``,
        the region engine and ``hull_order``, so callers must not modify it."""
        values = self.grid[0]
        if self.geometry == CIRCLE:
            order = sorted(range(len(values)), key=values.__getitem__)
            ticks = list(map(values.__getitem__, order))
            if any(map(operator.eq, ticks, ticks[1:])):
                raise InvalidInstance("duplicate circle points")
        else:
            order = _convex_hull_ccw(values)
            if len(order) != len(values):
                raise NotConvex("convex instances require every point on the hull")
        return [i + 1 for i in order]

    @cached_property
    def ranks(self) -> list[int]:
        """Counterclockwise hull rank of each point, in arrival order: the
        inverse of ``hull``.  Shared by validation, the crossing view, the
        region engine and the hull audit, so callers must not modify it."""
        hull = self.hull
        ranks = [0] * len(hull)
        for r, i in enumerate(hull):
            ranks[i - 1] = r
        return ranks


def _check_header(inst: Instance) -> None:
    if inst.size == 0 or inst.size % 2 != 0:
        raise InvalidInstance("instances need a positive even number of points")
    if inst.kind not in KINDS:
        raise InvalidInstance(f"unknown kind {quoted(inst.kind)}")
    if inst.geometry not in GEOMETRIES:
        raise InvalidInstance(f"unknown geometry {quoted(inst.geometry)}")


def validate_instance(inst: Instance) -> Instance:
    """The instance, once its size, kind, geometry and grid are checked;
    colours have none to check (``Instance.from_rows`` checks those it reads)."""
    _check_header(inst)
    m = inst.size
    values, unit = inst.grid
    if inst.geometry == CIRCLE:
        if not all(0 <= t < unit for t in values):
            raise InvalidInstance("ticks must lie in [0, unit): turn fractions in [0, 1)")
        inst.hull  # raises InvalidInstance on duplicate ticks
    elif len(set(values)) != m:
        raise InvalidInstance("duplicate points")
    elif inst.geometry == CONVEX:
        inst.hull  # raises NotConvex unless every point is a hull vertex
    elif (triple := collinear_triple(values)) is not None:
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


def hull_order(instance: Instance) -> list[int]:
    """Clockwise cyclic hull order of all points, starting at p_1.

    Returns arrival indices.
    """
    if not instance.convex:
        raise NotConvex("hull order needs circle or convex geometry")
    hull, r0 = instance.hull, instance.ranks[0]
    return hull[r0::-1] + hull[:r0:-1]


def parity(instance: Instance) -> list[int]:
    """Parity of each point's clockwise hull distance from p_1, in arrival
    order; with an even point count, that of its rank minus p_1's."""
    if not instance.convex:
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
        return cls(frozenset((i, j) if i < j else (j, i) for i, j in pairs))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.edges))

    def matched_indices(self) -> set[int]:
        return {i for e in self.edges for i in e}


# ---------------------------------------------------------------------------
# availability


def scan_available(
    instance: Instance, i: int, matched: set[int], edges: list[tuple]
) -> list[int]:
    """Ascending arrival indices j < i that p_i can join: j is unmatched, of
    the other color on BNM (blue is arrival index <= n), and the segment
    p_i p_j crosses none of the committed ``edges``, which are given as pairs
    of the instance's ``crossing_view`` ends."""
    ends, crosses = instance.crossing_view
    bnm, n = instance.kind == BNM, instance.n
    blue = i <= n
    p = ends[i - 1]
    out = []
    for j in range(1, i):
        if j in matched or (bnm and (j <= n) == blue):
            continue
        seg = (p, ends[j - 1])
        if not any(crosses(seg, e) for e in edges):
            out.append(j)
    return out
