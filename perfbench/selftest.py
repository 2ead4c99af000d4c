"""Self-test of the benchmark's checkers: each must reject a known-bad case.

Run alone with ``python3 perfbench/selftest.py``; ``run.py`` also runs it
before every benchmark run, so a checker that stops catching faults stops
the benchmark.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations

import checks
from checks import CheckFailed


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def test_advice_bounds():
    # C_1..C_5 = 1, 2, 5, 14, 42
    assert [checks.catalan_bits(n) for n in range(1, 6)] == [0, 1, 3, 4, 6]
    assert checks.catalan_bits(100) == 190  # log2 C_100 = 189.6
    assert checks.sorted_bits(50) == 150
    assert checks.catalan_bits(200) != 3 * 200


def test_x_consecutive_pairs():
    xs = [Fraction(5), Fraction(1), Fraction(3), Fraction(2)]
    assert checks.x_consecutive_pairs(xs) == {(2, 4), (1, 3)}
    assert checks.x_consecutive_pairs(xs) != {(1, 2), (3, 4)}
    assert _rejects(checks.x_consecutive_pairs, [1, 2, 2, 3])


def test_chords():
    rank = checks.circle_ranks([Fraction(k, 8) for k in range(8)])
    assert checks.chords_cross(rank, (1, 5), (3, 7))
    assert not checks.chords_cross(rank, (1, 2), (3, 4))
    checks.check_noncrossing_chords(rank, [(1, 4), (2, 3), (5, 8), (6, 7)])
    assert _rejects(checks.check_noncrossing_chords, rank, [(1, 5), (3, 7)])
    assert _rejects(checks.check_noncrossing_chords, rank, [(1, 5), (5, 7)])
    assert _rejects(checks.circle_ranks, [Fraction(1, 4), Fraction(5, 4)])


def test_chord_pass_agrees_with_pairwise_definition():
    rng = random.Random(7)
    for _ in range(300):
        m = 2 * rng.randint(1, 5)
        rank = checks.circle_ranks(rng.sample([Fraction(k, 64) for k in range(64)], m))
        idx = list(range(1, m + 1))
        rng.shuffle(idx)
        edges = list(zip(idx[::2], idx[1::2]))[: rng.randint(1, m // 2)]
        crossing = any(checks.chords_cross(rank, e, f) for e, f in combinations(edges, 2))
        assert _rejects(checks.check_noncrossing_chords, rank, edges) == crossing


def test_greedy_circle():
    # arrivals 1..4 at angles 0, 1/2, 1/4, 3/4: chord (1, 2) separates 3
    # from 4, so greedy matches only (1, 2)
    rank = checks.circle_ranks([0, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)])
    checks.check_greedy_circle(rank, [(1, 2)])
    assert _rejects(checks.check_greedy_circle, rank, [(1, 2), (3, 4)])
    assert _rejects(checks.check_greedy_circle, rank, [])
    # arrivals 1..4 at angles 0, 1/4, 1/2, 3/4: greedy matches both pairs;
    # leaving 2 unmatched next to a reachable 1 is not greedy
    rank = checks.circle_ranks([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    checks.check_greedy_circle(rank, [(1, 2), (3, 4)])
    assert _rejects(checks.check_greedy_circle, rank, [(2, 3)])


def test_segments():
    pts = checks.integer_points(
        [(0, 0), (4, 4), (0, 4), (4, 0), (Fraction(1, 2), 0), (Fraction(7, 2), 0)]
    )
    checks.check_noncrossing_segments(pts, [(1, 3), (2, 4)])
    assert _rejects(checks.check_noncrossing_segments, pts, [(1, 2), (3, 4)])
    # collinear overlap on the x axis: (1, 4) contains (5, 6)
    assert _rejects(checks.check_noncrossing_segments, pts, [(1, 4), (5, 6)])
    # an endpoint touching the other segment's interior
    pts = [(0, 0), (4, 0), (2, 0), (2, 5)]
    assert checks.segments_intersect(pts[0], pts[1], pts[2], pts[3])
    assert not checks.segments_intersect((0, 0), (1, 1), (2, 2), (3, 3))


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except (AssertionError, CheckFailed) as exc:
                failed += 1
                print(f"selftest {name} failed: {exc!r}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
