"""Helpers that only tests call: ``with_edge`` grows a matching by one
pair, and ``bnm_blue_positions`` gives the blue points of the bichromatic
family as ``Point`` objects."""
from fractions import Fraction

from ncmatch.geometry import BLUE, Matching, Point, circle_point


def with_edge(matching: Matching, i: int, j: int) -> Matching:
    """The matching plus the pair {i, j}."""
    return Matching(matching.edges | {(min(i, j), max(i, j))})


def bnm_blue_positions(n: int) -> list[Point]:
    """Blue points spread over the upper semicircle, left to right.

    Blue i sits at turn fraction (1 - i/(n+1))/2, strictly between the west
    and east poles, with strictly decreasing angles (so increasing x).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return [
        circle_point(Fraction(n + 1 - i, 2 * (n + 1)), i, BLUE) for i in range(1, n + 1)
    ]

