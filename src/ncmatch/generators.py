"""Seeded random instance builders used by tests, campaigns and the CLI.

Everything is deterministic given (params, seed).  Circle instances draw
integer ticks on a power-of-two grid and keep them as columns
(``Instance.from_ticks``); their points, built through
``geometry.grid_points`` when first read, need no gcd.
"""
from __future__ import annotations

import functools
import random

from .errors import InvalidInstance, NotConvex
from .geometry import (
    BLUE,
    BNM,
    CONVEX,
    GENERAL,
    MNM,
    RED,
    Instance,
    collinear_triple,
    plane_point,
)

_ANGLE_BITS = 20
_GENERAL_SPAN = 10**6  # coordinates of random_general_instance lie below it


def _arrival_colors(n: int, kind: str) -> list[str | None]:
    """Colours of 2n points by arrival: n blue then n red on BNM, none on MNM."""
    return [BLUE] * n + [RED] * n if kind == BNM else [None] * (2 * n)


def random_circle_instance(n: int, kind: str, seed: int) -> Instance:
    """2n points at distinct dyadic angles, in random arrival order."""
    if n < 1:
        raise ValueError("need n >= 1")
    ticks = random.Random(seed).sample(range(1 << _ANGLE_BITS), 2 * n)
    return Instance.from_ticks(ticks, _ANGLE_BITS, kind, _arrival_colors(n, kind))


def random_convex_polygon_instance(n: int, kind: str, seed: int) -> Instance:
    """2n integer points in strictly convex position, random arrival order.

    Edge vectors come from two shuffled coordinate chains (Valtr's
    construction) and are sorted exactly by direction; draws with parallel
    vectors would create collinear hull edges and are retried.  The first 64
    draws use coordinates below 6m + 12, where large m nearly always meets
    parallel vectors; later draws widen that to m^3, where they are rare.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    m = 2 * n
    colors = _arrival_colors(n, kind)
    if m == 2:
        x1, y1 = rng.randrange(100), rng.randrange(100)
        x2, y2 = x1 + 1 + rng.randrange(100), y1 + rng.randrange(100)
        pts = [plane_point(x1, y1, 1, colors[0]), plane_point(x2, y2, 2, colors[1])]
        return Instance.build(pts, kind, CONVEX)
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
        points = [
            plane_point(*verts[t], arrival, color)
            for arrival, (t, color) in enumerate(zip(order, colors), start=1)
        ]
        try:
            return Instance.build(points, kind, CONVEX)
        except (NotConvex, InvalidInstance):
            continue
    raise NotConvex(f"could not build a strict convex polygon for n={n}, seed={seed}")


def _polygon_vectors(
    rng: random.Random, m: int, span: int
) -> list[tuple[int, int]] | None:
    """m nonzero integer vectors summing to zero with coordinates drawn
    below span, sorted by direction."""

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
    for a, b in zip(vecs, vecs[1:]):
        if cross(a, b) == 0:
            return None  # parallel edges would be collinear
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
        pts = list(zip(xs, ys))
        if collinear_triple(pts) is not None:
            continue
        points = [plane_point(x, y, i + 1) for i, (x, y) in enumerate(pts)]
        return Instance.build(points, MNM, GENERAL, validate=False)
    raise InvalidInstance(f"no draw in general position in 64 tries for n={n}, seed={seed}")
