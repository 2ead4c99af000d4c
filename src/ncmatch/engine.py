"""Online simulation harness and the advice algorithms that run in it.

The harness threads an advice tape from an oracle phase (full instance
visible) into a player phase (points revealed one at a time).  A player's
``decide(i, view, tape)`` sees the availability engine's queries
(``count``, ``indices``, ``min_arrival``, ``max_arrival``, ``has``) and,
through ``view.point()``, the arriving point, whose instance builds its
points view only then.  The harness hands each decision to the engine as
one ``commit(j)``, j None for a skip, which raises IllegalMatch unless
``has(j)`` admits j, so no simulation can commit a crossing edge.

Two interchangeable availability engines back the harness: a brute-force
one that runs direct crossing tests on the instance's exact view (hull
ranks in convex position, integer coordinates in general position), and a
laminar-region tracker for every convex-position instance (circles and
polygons).  The brute engine keeps, per point, bit masks of the committed
edges whose line has the point strictly on its left or passes through it,
and tests a candidate segment only against the edges whose line separates
its ends or passes through one; its answers equal
geometry.scan_available's, which stays the reference.

Two points in convex position can be joined without a crossing iff no
committed chord separates them, so region identity is availability.  Each
region keeps its boundary arcs and its free points as two rank-sorted
lists: an arrival costs bisects plus one list insert, a match costs
bisects plus the slices it moves, and arc relabels total O(m log m)
because the side with fewer arcs takes the new id.  The region engine also
names each arrival's region, which is the tree slot that the bt oracle
fills when it builds the tree and that the bt player replays, and the k-th
available blue clockwise from a red.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import geometry, offline
from .codecs import (
    AdviceTape,
    DyckWord,
    _preorder,
    catalan,
    dyck_rank,
    dyck_unrank,
    elias_delta_decode,
    elias_delta_encode,
    read_ranked,
    tree_unrank,
    tree_rank,
    write_ranked,
)
from .errors import Degenerate, DuplicateX, IllegalMatch, InvalidInstance, NotConvex
from .geometry import BLUE, BNM, CIRCLE, CONVEX, MNM, RED, Instance, Matching, Point
from .offline import MatchingReport


# ---------------------------------------------------------------------------
# availability engines


class _BruteEngine:
    """Availability by direct crossing tests; the reference engine.

    Committed edges are kept as pairs of the instance's ``crossing_view``
    ends (hull ranks in convex position, integer coordinates otherwise),
    numbered 0, 1, 2, ... in commit order.  Each unmatched point t keeps two
    bit masks over the edges: bit k of ``side[t]`` is set when t lies
    strictly left of edge k by the view's turn, bit k of ``on[t]`` when t
    lies on its line; a match fills in its bit for every unmatched point.
    A segment whose ends lie strictly on one side of an edge's line cannot
    touch that edge, so an arrival tests a candidate only against the edges
    in ``(side[i] ^ side[j]) | on[i] | on[j]``, each with the view's one
    crossing test.  The answers equal ``geometry.scan_available``'s.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.ends, self.crosses, self.turn = instance.crossing_view
        self.edges: list[tuple] = []  # committed edges as pairs of ends
        m = len(self.ends)
        self.side = [0] * (m + 1)  # by arrival index; slot 0 unused
        self.on = [0] * (m + 1)
        self.free: list[int] = []  # unmatched arrivals, ascending
        self.cur: tuple[int, list[int]] | None = None

    def on_arrival(self, i: int) -> int:
        ends, crosses, edges, side, on = self.ends, self.crosses, self.edges, self.side, self.on
        colors = self.instance.colors
        color = colors[i - 1] if self.instance.kind == BNM else None
        p, si, oi = ends[i - 1], side[i], on[i]
        av = []
        for j in self.free:
            if color is not None and colors[j - 1] == color:
                continue
            mask = (si ^ side[j]) | oi | on[j]
            seg = (p, ends[j - 1])
            while mask:
                low = mask & -mask
                if crosses(seg, edges[low.bit_length() - 1]):
                    break
                mask ^= low
            else:
                av.append(j)
        self.cur = (i, av)
        return len(av)

    def count(self) -> int:
        return len(self.cur[1])

    def indices(self) -> list[int]:
        return list(self.cur[1])

    def min_arrival(self) -> int | None:
        return min(self.cur[1], default=None)

    def max_arrival(self) -> int | None:
        return max(self.cur[1], default=None)

    def has(self, j: int) -> bool:
        return j in self.cur[1]

    def point(self) -> Point:
        return self.instance.points[self.cur[0] - 1]

    def commit(self, j: int | None) -> tuple[int, int] | tuple[None, None]:
        """Match the arrival to j, or skip it (j None); the counts left and
        right of the chord, or (None, None).  IllegalMatch unless has(j)."""
        if j is None:
            self.free.append(self.cur[0])
            self.cur = None
            return None, None
        i, av = self.cur
        if not self.has(j):
            raise IllegalMatch(f"arrival {i} tried to match unavailable point {j}")
        ends, turn = self.ends, self.turn
        p, q = ends[i - 1], ends[j - 1]
        rest = [t for t in self.free if t != j]
        rest += range(i + 1, len(ends) + 1)
        sign = {t: turn(p, q, ends[t - 1]) for t in rest}
        sides = [sign[t] for t in av if t != j]
        if 0 in sides:
            raise Degenerate(f"an available point is collinear with edge ({i}, {j})")
        left = sum(side > 0 for side in sides)
        bit = 1 << len(self.edges)
        for t, s in sign.items():
            if s > 0:
                self.side[t] |= bit
            elif s == 0:
                self.on[t] |= bit
        self.free.remove(j)
        self.edges.append((p, q))
        self.cur = None
        return left, len(sides) - left


class _RegionEngine:
    """Laminar-region availability tracker for convex-position instances.

    It reads only the instance's hull ranks.  Committed chords partition
    the polygon into regions (integer ids, 0 is the whole polygon).  Each
    region keeps two rank-sorted lists: ``arcs``, the ccw start rank of each
    boundary arc between circular neighbours (``arc_reg`` maps a start rank
    back to its region), and ``free``, the points a later arrival may join:
    every unmatched point on MNM, every unmatched blue on BNM.

    An arrival takes the region of the arc it lands on, found by one
    bisect, and splits that arc: bisects plus one list insert.  Counts are
    list lengths, ``has`` and ``kth_clockwise`` are one bisect each.  A
    match cuts both lists of its region at the two chord ranks, which costs
    bisects plus the slices it moves; the side with fewer arcs takes the new
    id, so arc relabels total O(m log m).  After a match, ``split`` holds
    the ids of the regions left and right of the directed chord (arrival to
    partner).
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.colors = instance.colors
        self.rank_of = instance.ranks  # ccw hull position
        self.arrival_at_rank = [0] * len(self.rank_of)
        for pi, pos in enumerate(self.rank_of):
            self.arrival_at_rank[pos] = pi + 1
        self.ranks_sorted: list[int] = []
        self.arc_reg = [0] * len(self.rank_of)
        self.arcs: dict[int, list[int]] = {0: []}
        self.free: dict[int, list[int]] = {0: []}
        self.split: tuple[int, int] | None = None
        # (arrival, rank, region, the free ranks it may join)
        self.cur: tuple[int, int, int, Sequence[int]] | None = None

    def on_arrival(self, i: int) -> int:
        r = self.rank_of[i - 1]
        rs = self.ranks_sorted
        pos = bisect_left(rs, r)
        # the predecessor's arc holds r; rs[-1] wraps round past rank 0
        g = self.arc_reg[rs[pos - 1]] if rs else 0
        rs.insert(pos, r)
        self.arc_reg[r] = g
        insort(self.arcs[g], r)
        # a blue is never available to a blue
        av = self.free[g] if self.colors[i - 1] != BLUE else ()
        self.cur = (i, r, g, av)
        return len(av)

    def count(self) -> int:
        return len(self.cur[3])

    def region(self) -> int:
        return self.cur[2]

    def indices(self) -> list[int]:
        return sorted(map(self.arrival_at_rank.__getitem__, self.cur[3]))

    def min_arrival(self) -> int | None:
        av = self.cur[3]
        return min(map(self.arrival_at_rank.__getitem__, av)) if av else None

    def max_arrival(self) -> int | None:
        av = self.cur[3]
        return max(map(self.arrival_at_rank.__getitem__, av)) if av else None

    def kth_clockwise(self, k: int) -> int:
        """BNM: the k-th available point clockwise from the arrival."""
        _i, r, _g, av = self.cur
        return self.arrival_at_rank[av[(bisect_left(av, r) - k) % len(av)]]

    def has(self, j: int) -> bool:
        i, _r, _g, av = self.cur
        if not 1 <= j < i:
            return False
        rq = self.rank_of[j - 1]
        pos = bisect_left(av, rq)
        return pos < len(av) and av[pos] == rq

    def point(self) -> Point:
        return self.instance.points[self.cur[0] - 1]

    def commit(self, j: int | None) -> tuple[int, int] | tuple[None, None]:
        """Match the arrival to j, or skip it (j None); the counts left and
        right of the chord, or (None, None).  IllegalMatch unless has(j)."""
        i, r, g, _av = self.cur
        if j is None:
            # reds arrive last on BNM, so no later arrival may join a red
            if self.colors[i - 1] != RED:
                insort(self.free[g], r)
            self.cur = None
            return None, None
        if not self.has(j):
            raise IllegalMatch(f"arrival {i} tried to match unavailable point {j}")
        self.cur = None
        rq = self.rank_of[j - 1]
        arcs, free = self.arcs[g], self.free[g]
        fq = bisect_left(free, rq)
        del free[fq]
        fr = bisect_left(free, r)
        ar, aq = bisect_left(arcs, r), bisect_left(arcs, rq)
        # the ccw side of the chord holds arcs[ar:aq] (the arcs starting in
        # [r, rq)) and free[fr:fq], cyclically; it is the right side of the
        # directed chord (arrival -> partner).  The side with fewer arcs
        # moves to the new region.
        g1 = len(self.arcs)  # ids run 0, 1, 2, ...
        if 2 * ((aq - ar) % len(arcs)) <= len(arcs):
            a, b, c, d, wrap, self.split = ar, aq, fr, fq, r > rq, (g, g1)
        else:
            a, b, c, d, wrap, self.split = aq, ar, fq, fr, r < rq, (g1, g)
        moved = self.arcs[g1] = _take(arcs, a, b, wrap)
        self.free[g1] = _take(free, c, d, wrap)
        for rk in moved:
            self.arc_reg[rk] = g1
        left, right = self.split
        return len(self.free[left]), len(self.free[right])


def _take(ranks: list[int], a: int, b: int, wrap: bool) -> list[int]:
    """Remove ranks[a:b] from a sorted list, or ranks[:b] and ranks[a:] if
    the slice wraps round, and return what was removed, sorted."""
    if wrap:
        out = ranks[:b] + ranks[a:]
        del ranks[a:]
        del ranks[:b]
    else:
        out = ranks[a:b]
        del ranks[a:b]
    return out


def make_engine(instance: Instance, mode: str = "auto"):
    convex = instance.geometry in (CIRCLE, CONVEX)
    if mode == "auto":
        mode = "region" if convex else "brute"
    if mode == "region":
        if not convex:
            raise InvalidInstance("region engine requires points in convex position")
        return _RegionEngine(instance)
    if mode == "brute":
        return _BruteEngine(instance)
    raise ValueError(f"unknown engine mode {mode!r}")


# ---------------------------------------------------------------------------
# harness


@dataclass
class BeginContext:
    """What a player is allowed to know before the first online arrival."""

    n: int | None = None
    blues: tuple[Point, ...] | None = None


@dataclass
class SimulationResult:
    """``steps`` holds ``(arrival, available, partner, left, right)`` per
    decision arrival: the available count, then the counts left and right of
    the chord arrival -> partner; the last three are None on a skip."""

    matching: Matching
    bits_written: int
    bits_read: int
    steps: list[tuple[int, int, int | None, int | None, int | None]]
    violations: MatchingReport


@dataclass
class OnlineAlgorithm:
    """An oracle writing advice plus a player consuming it online."""

    name: str
    oracle: Callable[[Instance], list[int]] | None
    make_player: Callable[[], Any]
    check: Callable[[Instance], None]
    needs_n: bool = False
    needs_regions: bool = False  # the player reads region ids


def _play(instance: Instance, eng, player, tape: AdviceTape | None) -> list[tuple]:
    """Reveal the points one at a time, commit the player's decisions and
    return the steps; on BNM the blues reach the engine first, unrecorded.
    Raises IllegalMatch the moment the player names an unavailable partner."""
    n = instance.n
    first = n + 1 if instance.kind == BNM else 1
    arrive, commit = eng.on_arrival, eng.commit
    for i in range(1, first):
        arrive(i)
        commit(None)
    decide = player.decide
    steps: list[tuple] = []
    for i in range(first, 2 * n + 1):
        available = arrive(i)
        j = decide(i, eng, tape)
        left, right = commit(j)
        steps.append((i, available, j, left, right))
    return steps


def simulate(alg: OnlineAlgorithm, instance: Instance, engine: str = "auto") -> SimulationResult:
    """Run oracle then player over an instance and audit every decision.

    The algorithm's precondition check runs once, before the oracle.
    Raises IllegalMatch the moment a player names an unavailable partner,
    so a committed crossing is impossible by construction.  For BNM the
    player learns the blue batch up front and ``steps`` covers the red
    (decision) arrivals only; the matching is built from ``steps``.
    """
    alg.check(instance)
    tape = AdviceTape(list(alg.oracle(instance)) if alg.oracle is not None else [])
    eng = make_engine(instance, engine)
    if alg.needs_regions and not isinstance(eng, _RegionEngine):
        raise InvalidInstance(f"{alg.name} reads region ids and needs the region engine")
    player = alg.make_player()
    if instance.kind == BNM:
        ctx = BeginContext(n=instance.n, blues=instance.blues())
    else:
        ctx = BeginContext(n=instance.n if alg.needs_n else None)
    player.begin(ctx, tape)
    steps = _play(instance, eng, player, tape)
    matching = Matching.from_pairs((j, i) for i, _a, j, _l, _r in steps if j is not None)
    return SimulationResult(
        matching=matching,
        bits_written=tape.bits_written,
        bits_read=tape.cursor,
        steps=steps,
        violations=offline.validate_matching(instance, matching),
    )


# ---------------------------------------------------------------------------
# players


class _BTPlayer:
    """Replays a perfect matching from its tree encoding.

    Every face of the committed chords is one empty child slot of the
    tree, so the player keeps a dict from the engine's region ids to tree
    nodes instead of descending the tree.  A red takes the node of its
    region; the left-subtree size k says that its partner is the k-th
    available blue clockwise from it, and the node's children become the
    slots of the regions left and right of the new chord.  A red costs
    O(log a) on top of the region engine's own work.
    """

    def begin(self, ctx: BeginContext, tape: AdviceTape) -> None:
        n = len(ctx.blues)
        root = tree_unrank(n, read_ranked(tape, catalan(n)))
        self.size = {id(None): 0}
        for node in reversed(_preorder(root) if root is not None else []):
            self.size[id(node)] = 1 + self.size[id(node.left)] + self.size[id(node.right)]
        self.slot = {0: root}
        self.last = None  # the node matched at the previous red

    def decide(self, i, view, tape):
        if self.last is not None:
            left, right = view.split
            self.slot[left], self.slot[right] = self.last.left, self.last.right
        node = self.last = self.slot.get(view.region())
        if node is None:
            raise IllegalMatch(f"red {i} arrives in an empty tree slot")
        k = self.size[id(node.left)] + 1
        if k > view.count():
            raise IllegalMatch(f"red {i} wants blue #{k} but only {view.count()} available")
        return view.kth_clockwise(k)


def _check_convex(kind: str) -> Callable[[Instance], None]:
    """The precondition of an algorithm for ``kind`` in convex position."""

    def check(instance: Instance) -> None:
        if instance.kind != kind:
            raise InvalidInstance(f"this algorithm runs on {kind} instances")
        if instance.geometry not in (CIRCLE, CONVEX):
            raise NotConvex("this algorithm needs points in convex position")

    return check


def _bt_oracle(instance: Instance) -> list[int]:
    m = offline.convex_noncrossing_pm(instance)
    tree = offline.matching_to_bt(instance, m)
    tape = AdviceTape()
    write_ranked(tape, tree_rank(tree), catalan(instance.n))
    return list(tape.bits)


def bt_matching() -> OnlineAlgorithm:
    """Tree-advice matching for BNM in convex position; ceil(log2 C_n) bits."""
    return OnlineAlgorithm(
        name="bt",
        oracle=_bt_oracle,
        make_player=_BTPlayer,
        check=_check_convex(BNM),
        needs_regions=True,
    )


class _SortedPlayer:
    """Decodes per-point codes 0 / 10 / 11: skip, match nearest unmatched x
    on the left, or on the right."""

    def begin(self, ctx, tape) -> None:
        self.unmatched: list[tuple] = []  # (x, arrival), sorted

    def decide(self, i, view, tape):
        x = view.point().x
        if tape.read_bit() == 0:
            insort(self.unmatched, (x, i))
            return None
        go_right = tape.read_bit()
        pos = bisect_left(self.unmatched, (x, i))
        if go_right:
            if pos >= len(self.unmatched):
                raise IllegalMatch(f"arrival {i}: advice points right of every unmatched x")
            entry = self.unmatched[pos]
        else:
            if pos == 0:
                raise IllegalMatch(f"arrival {i}: advice points left of every unmatched x")
            entry = self.unmatched[pos - 1]
        self.unmatched.remove(entry)
        return entry[1]


def _check_sorted(instance: Instance) -> None:
    if instance.kind != MNM:
        raise InvalidInstance("x-sorted matching runs on MNM instances")
    xs = [p.x for p in instance.points]
    if len(set(xs)) != len(xs):
        raise DuplicateX("x-sorted matching needs globally distinct x-coordinates")


def _sorted_oracle(instance: Instance) -> list[int]:
    pts = instance.points
    order = sorted(range(len(pts)), key=lambda t: pts[t].x)
    partner = {}
    for t in range(0, len(order), 2):
        a, b = order[t], order[t + 1]
        partner[a] = b
        partner[b] = a
    bits: list[int] = []
    for t in range(len(pts)):
        j = partner[t]
        if j > t:
            bits.append(0)
        elif pts[j].x < pts[t].x:
            bits.extend((1, 0))
        else:
            bits.extend((1, 1))
    return bits


def sorted_matching() -> OnlineAlgorithm:
    """Pair x-consecutive points; exactly 3n advice bits on any MNM input
    with pairwise distinct x-coordinates."""
    return OnlineAlgorithm(
        name="sorted",
        oracle=_sorted_oracle,
        make_player=_SortedPlayer,
        check=_check_sorted,
    )


class _ParityPlayer:
    """The asap oracle's player: it knows every hull parity and matches as
    soon as an opposite-parity point is available, by the asap player's
    tie-break, so both sides see identical available sets.  Under asap a
    region's free points share one parity (a skip adds one of that parity,
    a match removes one), so the tie-break's pick alone decides."""

    def __init__(self, chi: list[int], tie_break: str):
        self.chi = chi
        self.tie_break = tie_break

    def decide(self, i, view, tape):
        j = view.min_arrival() if self.tie_break == "min" else view.max_arrival()
        return j if j is not None and self.chi[j - 1] != self.chi[i - 1] else None


def _asap_word(instance: Instance, tie_break: str) -> DyckWord:
    """Bit i says whether an opposite-parity point is available at
    arrival i, replayed through the player's loop."""
    player = _ParityPlayer(geometry.parity(instance), tie_break)
    steps = _play(instance, make_engine(instance), player, None)
    return DyckWord(tuple(0 if j is None else 1 for _i, _a, j, _l, _r in steps))


class _ASAPPlayer:
    def __init__(self, known_n: bool, tie_break: str):
        self.known_n = known_n
        self.tie_break = tie_break

    def begin(self, ctx, tape) -> None:
        n = ctx.n if self.known_n else elias_delta_decode(tape)
        rank = read_ranked(tape, catalan(n))
        self.word = dyck_unrank(n, rank).bits
        self.step = 0

    def decide(self, i, view, tape):
        bit = self.word[self.step]
        self.step += 1
        if bit == 0:
            return None
        j = view.min_arrival() if self.tie_break == "min" else view.max_arrival()
        if j is None:
            raise IllegalMatch(f"advice says match at arrival {i} but nothing is available")
        return j


def asap_matching(known_n: bool = True, tie_break: str = "min") -> OnlineAlgorithm:
    """Match-as-soon-as-possible with a balanced-word advice string.

    known_n uses exactly ceil(log2 C_n) bits; otherwise an Elias delta
    prefix carries n.  tie_break in {"min", "max"} picks which available
    point gets matched; correctness is tie-break independent.
    """
    if tie_break not in ("min", "max"):
        raise ValueError("tie_break must be 'min' or 'max'")

    def oracle(instance: Instance) -> list[int]:
        word = _asap_word(instance, tie_break)
        tape = AdviceTape()
        if not known_n:
            tape.write_bits(elias_delta_encode(instance.n))
        write_ranked(tape, dyck_rank(word), catalan(instance.n))
        return list(tape.bits)

    return OnlineAlgorithm(
        name="asap",
        oracle=oracle,
        make_player=lambda: _ASAPPlayer(known_n, tie_break),
        check=_check_convex(MNM),
        needs_n=known_n,
    )


class _GreedyPlayer:
    def begin(self, ctx, tape) -> None:
        pass

    def decide(self, i, view, tape):
        return view.min_arrival()


def greedy() -> OnlineAlgorithm:
    """No advice: match each arrival to the available point that arrived
    first, whenever anything is available."""
    return OnlineAlgorithm(
        name="greedy",
        oracle=None,
        make_player=_GreedyPlayer,
        check=lambda instance: None,
    )


# in the order `ncmatch run` lists them
ALGORITHMS: dict[str, Callable[..., OnlineAlgorithm]] = {
    "bt": bt_matching,
    "asap": asap_matching,
    "sorted": sorted_matching,
    "greedy": greedy,
}
