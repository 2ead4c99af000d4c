"""Seeded random instance builders used by tests, campaigns and the CLI.

Everything is deterministic given (params, seed).  Every draw hands its
integers straight to the instance: circles draw ticks on a power-of-two
grid (``Instance.from_ticks``), polygons and general position draw
integer (x, y) pairs, the grid of an instance with unit 1.
"""
from __future__ import annotations

import functools
import math
import random

from .errors import InvalidInstance, NotConvex
from .geometry import CONVEX, GENERAL, MNM, Instance, collinear_triple, validate_instance

_ANGLE_BITS = 20
_GENERAL_SPAN = 10**6  # coordinates of random_general_instance lie below it


def random_circle_instance(n: int, kind: str, seed: int) -> Instance:
    """2n points at distinct dyadic angles, in random arrival order."""
    if n < 1:
        raise ValueError("need n >= 1")
    ticks = random.Random(seed).sample(range(1 << _ANGLE_BITS), 2 * n)
    return Instance.from_ticks(ticks, 1 << _ANGLE_BITS, kind)


def random_convex_polygon_instance(n: int, kind: str, seed: int) -> Instance:
    """2n integer points in strictly convex position, random arrival order.

    Edge vectors come from two shuffled coordinate chains (Valtr's
    construction) and are sorted exactly by direction; draws with two
    vectors of one direction would create collinear hull edges and are
    retried.  The first 64 draws use coordinates below 6m + 12, where large
    m nearly always meets two such vectors; later draws widen that to m^3,
    where they are rare.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    m = 2 * n
    if m == 2:
        x1, y1 = rng.randrange(100), rng.randrange(100)
        x2, y2 = x1 + 1 + rng.randrange(100), y1 + rng.randrange(100)
        return validate_instance(Instance(kind, CONVEX, ([(x1, y1), (x2, y2)], 1)))
    for span in [6 * m + 12] * 64 + [m**3] * 64:
        vecs = _polygon_vectors(rng, m, span)
        if vecs is None:
            continue
        verts = []
        x = y = 0
        for dx, dy in vecs:
            verts.append((x, y))
            x += dx
            y += dy
        order = list(range(m))
        rng.shuffle(order)
        # distinct directions sorted by angle and summing to zero: a strict
        # convex polygon, which validation ranks by its hull
        return validate_instance(Instance(kind, CONVEX, ([verts[t] for t in order], 1)))
    raise NotConvex(f"could not build a strict convex polygon for n={n}, seed={seed}")


def _polygon_vectors(
    rng: random.Random, m: int, span: int
) -> list[tuple[int, int]] | None:
    """m nonzero integer vectors summing to zero with coordinates drawn
    below span, sorted by direction, or None when two share a direction.

    Only vectors of one direction can make a collinear hull edge: for
    m >= 3, two anti-parallel vectors adjacent in the sorted order would
    leave every other vector strictly on one side of their line, so the
    sum could not be zero."""

    def deltas() -> list[int]:
        vals = sorted(rng.sample(range(span), m))
        lo, hi = vals[0], vals[-1]
        mask = [rng.getrandbits(1) for _ in range(m - 2)]
        chain_a = [lo] + [v for v, s in zip(vals[1:-1], mask) if s] + [hi]
        chain_b = [lo] + [v for v, s in zip(vals[1:-1], mask) if not s] + [hi]
        out = [b - a for a, b in zip(chain_a, chain_a[1:])]
        out += [a - b for a, b in zip(chain_b, chain_b[1:])]
        return out

    dxs = deltas()
    dys = deltas()
    rng.shuffle(dys)
    vecs = list(zip(dxs, dys))
    # two vectors of one primitive direction would make collinear edges
    if len({(dx // (g := math.gcd(dx, dy)), dy // g) for dx, dy in vecs}) < m:
        return None

    def half(v) -> int:
        dx, dy = v
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cross(a, b) -> int:
        return a[0] * b[1] - a[1] * b[0]

    def cmp(a, b) -> int:
        if half(a) != half(b):
            return half(a) - half(b)
        c = cross(a, b)
        return -1 if c > 0 else (1 if c < 0 else 0)

    vecs.sort(key=functools.cmp_to_key(cmp))
    return vecs


def random_convex_instance(n: int, kind: str, seed: int) -> Instance:
    """Alternate between circle and polygon realizations of convex position."""
    if seed % 2 == 0:
        return random_circle_instance(n, kind, seed)
    return random_convex_polygon_instance(n, kind, seed)


def random_general_instance(n: int, seed: int) -> Instance:
    """2n integer points in general position with pairwise distinct x.

    With coordinates below ``_GENERAL_SPAN`` a collinear triple among a
    random draw is rare, so the whole batch is drawn at once, checked in
    O(n^2) by ``geometry.collinear_triple`` and redrawn on the odd failure.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    m = 2 * n
    for _ in range(64):
        xs = rng.sample(range(_GENERAL_SPAN), m)
        ys = [rng.randrange(_GENERAL_SPAN) for _ in range(m)]
        xy = list(zip(xs, ys))
        if collinear_triple(xy) is None:
            return Instance(MNM, GENERAL, (xy, 1))
    raise InvalidInstance(f"no draw in general position in 64 tries for n={n}, seed={seed}")
