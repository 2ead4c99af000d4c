"""Helpers that only tests call: ``with_edge`` grows a matching by one
pair, ``partner`` reads one point's partner, ``bnm_blue_positions`` gives the blue points of the bichromatic
family as ``Point`` objects, ``point``, ``blues`` and ``reds`` read an
instance's ``Point`` view, ``available_set`` is the brute-force
availability query the engines are checked against, and
``count_hull_computations`` counts the instances whose hull order is
computed."""
from fractions import Fraction

from ncmatch.geometry import BLUE, Instance, Matching, Point, circle_point, scan_available


def with_edge(matching: Matching, i: int, j: int) -> Matching:
    """The matching plus the pair {i, j}."""
    return Matching(matching.edges | {(min(i, j), max(i, j))})


def partner(matching: Matching, i: int) -> int | None:
    """The point matched to i, or None if i is unmatched."""
    for a, b in matching.edges:
        if a == i:
            return b
        if b == i:
            return a
    return None


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


def point(instance: Instance, arrival_index: int) -> Point:
    """The instance's point that arrives at ``arrival_index`` (1-based)."""
    return instance.points[arrival_index - 1]


def blues(instance: Instance) -> tuple[Point, ...]:
    """The first n points: the blue batch of a BNM instance."""
    return instance.points[: instance.n]


def reds(instance: Instance) -> tuple[Point, ...]:
    """The last n points: the reds of a BNM instance."""
    return instance.points[instance.n :]


def available_set(instance: Instance, current: Matching, i: int) -> set[int]:
    """Arrival indices of earlier unmatched points that p_i can legally match.

    The brute-force definition (``scan_available``); the region engine
    answers the same queries for convex-position instances and is
    cross-checked against this one.
    """
    ends = instance.crossing_view[0]
    edges = [(ends[a - 1], ends[b - 1]) for a, b in current.edges]
    return set(scan_available(instance, i, current.matched_indices(), edges))


def count_hull_computations(monkeypatch) -> list[int]:
    """A list that records the size of every instance whose ``Instance.hull``
    is computed (not read from its cache) while ``monkeypatch`` is live."""
    prop = Instance.__dict__["hull"]
    real = prop.func
    calls: list[int] = []
    monkeypatch.setattr(prop, "func", lambda inst: calls.append(inst.size) or real(inst))
    return calls
