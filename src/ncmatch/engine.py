"""Online simulation harness and the advice algorithms that run in it.

The harness threads an advice tape from an oracle phase (full instance
visible) into a player phase (points revealed one at a time).  A player's
``decide(i, view, tape)`` sees the availability engine's queries
(``has``, ``min_arrival``, ``max_arrival``, and in convex position
``region`` and ``kth_clockwise``).  The harness hands each decision to the
engine as one ``commit(j)``, j None for a skip, which raises IllegalMatch
unless ``has(j)`` admits j, so no simulation can commit a crossing edge.
On BNM an engine's arrivals are the reds, n + 1..2n: it starts with the
blue batch (arrivals 1..n) free, and a skipped red is never joined.

Each geometry has one availability engine (``make_engine``): a
laminar-region tracker in convex position (circles and polygons) and, in
general position, a brute-force one that decides by turns on integer pairs
(hull ranks r lifted to (r, r^2) in convex position, where tests use it as
the region engine's reference).  No point still live lies on a committed
edge's line: validation rules it out, and a match that would break it
raises Degenerate.  So the brute engine keeps one bit mask per point, of
the committed edges that have the point strictly on their left, and tests
a candidate segment only against the edges whose line separates its ends,
the candidate's last blocker first: the segments meet iff the edge's ends
do not lie strictly on one side of the candidate's line, two inline turns.
Its answers equal geometry.scan_available's, which stays the reference.

Two points in convex position can be joined without a crossing iff no
committed chord separates them, so region identity is availability.  The
region engine reads the instance's hull order and ranks as they are.
Every hull rank keeps the id of its region and each region its ranks and
free points as two rank-sorted lists: an arrival reads one id, a match
costs bisects plus the slices it moves, and relabels total O(m log m)
because the side with fewer ranks takes the new id.  The region engine also
names each arrival's region, which is the tree slot that the bt player
fills (the oracle builds the same tree offline, in offline.bt_children),
and the k-th available blue clockwise from a red.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import geometry, offline
from .codecs import (
    AdviceTape,
    DyckWord,
    catalan,
    dyck_rank,
    dyck_unrank,
    elias_delta_decode,
    elias_delta_encode,
    rank_children,
    read_ranked,
    unrank_children,
    write_ranked,
)
from .errors import Degenerate, DuplicateX, IllegalMatch, InvalidInstance, NotConvex, TapeExhausted
from .geometry import BNM, MNM, Instance, Matching
from .offline import MatchingReport


# ---------------------------------------------------------------------------
# availability engines


class _BruteEngine:
    """Availability by turns on integer pairs; the reference engine.

    Points are integer pairs: ``int_xy``, or in convex position each hull
    rank r lifted to (r, r * r), whose cross products (b - a)(c - a)(c - b)
    have ``cyclic_turn``'s sign and never vanish.  Committed edges are kept
    flat as (ax, ay, bx, by), numbered 0, 1, 2, ... in commit order.  No
    live point (in ``free``, or yet to arrive) lies on a committed edge's
    line: validated input has no collinear triple, and ``commit`` raises
    Degenerate before it would put one there.  So one bit mask per point
    places it: bit k of ``side[t]`` is set when t lies strictly left of
    edge k, clear when strictly right; a match fills in its bit for every
    live point.  A segment whose ends lie strictly on one side of an edge's
    line cannot touch that edge, so an arrival tests a candidate pq only
    against the edges in ``side[i] ^ side[j]``, ``last[j]`` (the edge that
    last blocked j) first.  For such an edge ab, p and q lie strictly on
    opposite sides of line ab, which meets pq in one point strictly between
    them; the closed segments meet iff that point lies on ab, that is iff
    the turns of a and b about pq, computed inline, have a product <= 0.
    On BNM it starts with the blues free and a skipped red, which no one
    may join, stays out of ``free`` and gets no mask bits, so the arrivals,
    the reds, see blues only.  The answers equal
    ``geometry.scan_available``'s; ``arrival_turns`` and ``commit_turns``
    count the work.
    """

    work_counters = ("arrival_turns", "commit_turns")

    def __init__(self, instance: Instance):
        self.instance = instance
        self.ends = [(r, r * r) for r in instance.ranks] if instance.convex else instance.int_xy
        self.edges: list[tuple[int, int, int, int]] = []
        m = len(self.ends)
        self.side = [0] * (m + 1)  # by arrival index; slot 0 unused
        self.last = [0] * (m + 1)
        self.bnm = instance.kind == BNM
        self.free = list(range(1, instance.n + 1)) if self.bnm else []  # joinable, ascending
        self.cur: tuple[int, list[int]] | None = None
        self.arrival_turns = self.commit_turns = 0

    def on_arrival(self, i: int) -> int:
        ends, edges, side, last = self.ends, self.edges, self.side, self.last
        (px, py), si = ends[i - 1], side[i]
        av = []
        turns = 0
        for j in self.free:
            mask = si ^ side[j]
            qx, qy = ends[j - 1]
            dx, dy = qx - px, qy - py
            low = last[j] & mask or mask & -mask
            while mask:
                ax, ay, bx, by = edges[low.bit_length() - 1]
                turns += 2
                if (dx * (ay - py) - dy * (ax - px)) * (dx * (by - py) - dy * (bx - px)) <= 0:
                    break
                mask ^= low
                low = mask & -mask
            else:
                av.append(j)
                continue
            last[j] = low
        self.arrival_turns += turns
        self.cur = (i, av)
        return len(av)

    def min_arrival(self) -> int | None:
        return min(self.cur[1], default=None)

    def max_arrival(self) -> int | None:
        return max(self.cur[1], default=None)

    def has(self, j: int) -> bool:
        return j in self.cur[1]

    def commit(self, j: int | None) -> tuple[int, int] | tuple[None, None]:
        """Match the arrival to j, or skip it (j None); the counts left and
        right of the chord, or (None, None).  IllegalMatch unless has(j), and
        Degenerate, changing nothing, if a live point is on its line."""
        if j is None:
            if not self.bnm:  # no later arrival may join a red
                self.free.append(self.cur[0])
            self.cur = None
            return None, None
        i, av = self.cur
        if not self.has(j):
            raise IllegalMatch(f"arrival {i} tried to match unavailable point {j}")
        ends, side = self.ends, self.side
        (px, py), (qx, qy) = ends[i - 1], ends[j - 1]
        dx, dy = qx - px, qy - py
        rest = [t for t in self.free if t != j]
        rest += range(i + 1, len(ends) + 1)
        bit = 1 << len(self.edges)
        for t in rest:
            x, y = ends[t - 1]
            s = dx * (y - py) - dy * (x - px)
            if s > 0:
                side[t] |= bit
            elif not s:
                for u in rest:
                    side[u] &= ~bit
                raise Degenerate(f"a live point is collinear with edge ({i}, {j})")
        self.commit_turns += len(rest)
        left = sum(side[t] & bit != 0 for t in av)
        self.free.remove(j)
        self.edges.append((px, py, qx, qy))
        self.cur = None
        return left, len(av) - 1 - left


class _RegionEngine:
    """Laminar-region availability tracker for convex-position instances.

    It reads only the instance's hull order (``hull``, the arrival at each
    rank) and its inverse (``ranks``).  Committed chords partition
    the polygon into regions, with ids 0, 1, 2, ... in order of creation (0
    is the whole polygon).  Every hull rank, arrived or not, has a region id
    in ``reg``; it is read once, on arrival, when the rank lies on one
    region's boundary only.  ``members`` and ``free``, indexed by region id,
    hold each region's two rank-sorted lists: its ranks, and the points a
    later arrival may join (every unmatched point on MNM, every unmatched
    blue on BNM).  On BNM the arrivals are the reds, and the engine starts
    with the blues free in region 0.

    An arrival reads its region from ``reg``.  Counts are list lengths,
    ``has`` and ``kth_clockwise`` are one bisect each, and ``min_arrival``
    and ``max_arrival`` read one entry when one point is free.  A match cuts
    both lists of its region in place at the two chord ranks, which costs
    bisects plus the slices it moves; the side with fewer ranks is appended
    as a new region and relabelled in ``reg``, so ``relabels`` totals at
    most m * ceil(log2 m).  After a match, ``split`` holds the ids of the
    regions left and right of the directed chord (arrival to partner).
    """

    work_counters = ("relabels",)

    def __init__(self, instance: Instance):
        self.instance = instance
        self.bnm = instance.kind == BNM
        self.rank_of = instance.ranks  # ccw hull position
        self.arrival_at_rank = instance.hull
        self.reg = [0] * len(self.rank_of)
        self.members: list[list[int]] = [list(range(len(self.rank_of)))]
        self.free: list[list[int]] = [sorted(self.rank_of[: instance.n]) if self.bnm else []]
        self.split: tuple[int, int] | None = None
        self.relabels = 0
        # (arrival, rank, region, the free ranks it may join)
        self.cur: tuple[int, int, int, Sequence[int]] | None = None

    def on_arrival(self, i: int) -> int:
        r = self.rank_of[i - 1]
        g = self.reg[r]
        av = self.free[g]
        self.cur = (i, r, g, av)
        return len(av)

    def region(self) -> int:
        return self.cur[2]

    def min_arrival(self) -> int | None:
        av = self.cur[3]
        if len(av) > 1:
            return min(map(self.arrival_at_rank.__getitem__, av))
        return self.arrival_at_rank[av[0]] if av else None

    def max_arrival(self) -> int | None:
        av = self.cur[3]
        if len(av) > 1:
            return max(map(self.arrival_at_rank.__getitem__, av))
        return self.arrival_at_rank[av[0]] if av else None

    def kth_clockwise(self, k: int) -> int:
        """BNM: the k-th available point clockwise from the arrival;
        IllegalMatch if fewer than k are available."""
        i, r, _g, av = self.cur
        if k > len(av):
            raise IllegalMatch(f"red {i} wants blue #{k} but only {len(av)} available")
        return self.arrival_at_rank[av[(bisect_left(av, r) - k) % len(av)]]

    def has(self, j: int) -> bool:
        i, _r, _g, av = self.cur
        if not 1 <= j < i:
            return False
        rq = self.rank_of[j - 1]
        pos = bisect_left(av, rq)
        return pos < len(av) and av[pos] == rq

    def commit(self, j: int | None) -> tuple[int, int] | tuple[None, None]:
        """Match the arrival to j, or skip it (j None); the counts left and
        right of the chord, or (None, None).  IllegalMatch unless has(j)."""
        i, r, g, av = self.cur
        if j is None:
            if not self.bnm:  # no later arrival may join a red
                insort(self.free[g], r)
            self.cur = None
            return None, None
        rq = self.rank_of[j - 1] if 1 <= j < i else -1
        fq = bisect_left(av, rq)
        if fq == len(av) or av[fq] != rq:
            raise IllegalMatch(f"arrival {i} tried to match unavailable point {j}")
        self.cur = None
        members, free = self.members[g], av  # av is free[g] once it holds rq
        del free[fq]
        fr = bisect_left(free, r)
        ar, aq = bisect_left(members, r), bisect_left(members, rq)
        # the ccw side of the chord holds members[ar:aq] (the ranks in
        # [r, rq)) and free[fr:fq], cyclically; it is the right side of the
        # directed chord (arrival -> partner).  The side with fewer ranks
        # moves to the new region, members[a:b] and free[c:d], or their
        # ends members[:b] + members[a:] and free[:d] + free[c:] if it wraps.
        g1 = len(self.members)
        if 2 * ((aq - ar) % len(members)) <= len(members):
            a, b, c, d, wrap, self.split = ar, aq, fr, fq, r > rq, (g, g1)
        else:
            a, b, c, d, wrap, self.split = aq, ar, fq, fr, r < rq, (g1, g)
        if wrap:
            moved, moved_free = members[:b] + members[a:], free[:d] + free[c:]
            del members[a:], members[:b], free[c:], free[:d]
        else:
            moved, moved_free = members[a:b], free[c:d]
            del members[a:b], free[c:d]
        self.members.append(moved)
        self.free.append(moved_free)
        reg = self.reg
        for rk in moved:
            reg[rk] = g1
        self.relabels += len(moved)
        left, right = self.split
        return len(self.free[left]), len(self.free[right])


def make_engine(instance: Instance):
    """The region engine in convex position, the brute engine otherwise."""
    return (_RegionEngine if instance.convex else _BruteEngine)(instance)


# ---------------------------------------------------------------------------
# harness


@dataclass
class SimulationResult:
    """``steps`` holds ``(arrival, available, partner, left, right)`` per
    decision arrival: the available count, then the counts left and right of
    the chord arrival -> partner; the last three are None on a skip.
    ``work`` holds the engine's work counters by name: ``relabels`` from the
    region engine, ``arrival_turns`` and ``commit_turns`` from the brute
    engine."""

    matching: Matching
    bits_written: int
    bits_read: int
    steps: list[tuple[int, int, int | None, int | None, int | None]]
    violations: MatchingReport
    work: dict[str, int]


@dataclass
class OnlineAlgorithm:
    """An oracle writing advice plus a player consuming it online; the
    player's ``begin(n, tape)`` learns n only when ``needs_n``."""

    name: str
    oracle: Callable[[Instance], list[int]] | None
    make_player: Callable[[], Any]
    check: Callable[[Instance], None]
    needs_n: bool = False


def _play(instance: Instance, eng, player, tape: AdviceTape | None) -> list[tuple]:
    """Reveal the points one at a time, commit the player's decisions and
    return the steps; on BNM the engine starts with the blues free, and only
    the reds arrive.  Raises IllegalMatch the moment the player names an
    unavailable partner."""
    n = instance.n
    first = n + 1 if instance.kind == BNM else 1
    arrive, commit = eng.on_arrival, eng.commit
    decide = player.decide
    steps: list[tuple] = []
    step = steps.append
    for i in range(first, 2 * n + 1):
        available = arrive(i)
        j = decide(i, eng, tape)
        left, right = commit(j)
        step((i, available, j, left, right))
    return steps


def simulate(alg: OnlineAlgorithm, instance: Instance) -> SimulationResult:
    """Run oracle then player over an instance, on the one engine that
    ``make_engine`` picks for its geometry, and audit every decision.

    The algorithm's precondition check runs once, before the oracle.
    Raises IllegalMatch the moment a player names an unavailable partner,
    so a committed crossing is impossible by construction.  The player
    learns n up front when the algorithm ``needs_n``.  For BNM the engine
    starts with the blues free, its arrivals are the reds, and ``steps``
    covers those (decision) arrivals only; the matching is built from
    ``steps``.
    """
    alg.check(instance)
    tape = AdviceTape(list(alg.oracle(instance)) if alg.oracle is not None else [])
    eng = make_engine(instance)
    player = alg.make_player()
    player.begin(instance.n if alg.needs_n else None, tape)
    steps = _play(instance, eng, player, tape)
    # a partner j always arrived before i, so (j, i) is already ordered
    matching = Matching(frozenset([(j, i) for i, _a, j, _l, _r in steps if j is not None]))
    return SimulationResult(
        matching=matching,
        bits_written=tape.bits_written,
        bits_read=tape.cursor,
        steps=steps,
        violations=offline.validate_matching(instance, matching),
        work={k: getattr(eng, k) for k in eng.work_counters},
    )


# ---------------------------------------------------------------------------
# players


class _BTPlayer:
    """Replays a perfect matching from its tree encoding.

    Every face of the committed chords is one empty child slot of the
    tree, so the player maps the engine's region ids to tree nodes (their
    numbers in the child arrays) instead of descending the tree.  A red
    takes the node of its region; the left-subtree size k says that its
    partner is the k-th available blue clockwise from it, and the node's
    children become the slots of the regions left and right of the new
    chord.  A red costs O(log a) on top of the region engine's own work.
    """

    def begin(self, n: int, tape: AdviceTape) -> None:
        self.lefts, self.rights, self.lsizes = unrank_children(n, read_ranked(tape, catalan(n)))
        self.slot = {0: 0}
        self.last = -1  # the node matched at the previous red

    def decide(self, i, view, tape):
        if self.last >= 0:
            left, right = view.split
            self.slot[left], self.slot[right] = self.lefts[self.last], self.rights[self.last]
        k = self.last = self.slot.get(view.region(), -1)
        if k < 0:
            raise IllegalMatch(f"red {i} arrives in an empty tree slot")
        return view.kth_clockwise(self.lsizes[k] + 1)


def _check_convex(kind: str) -> Callable[[Instance], None]:
    """The precondition of an algorithm for ``kind`` in convex position."""

    def check(instance: Instance) -> None:
        if instance.kind != kind:
            raise InvalidInstance(f"this algorithm runs on {kind} instances")
        if not instance.convex:
            raise NotConvex("this algorithm needs points in convex position")

    return check


def _bt_oracle(instance: Instance) -> list[int]:
    m = offline.convex_noncrossing_pm(instance)
    tape = AdviceTape()
    write_ranked(tape, rank_children(*offline.bt_children(instance, m)), catalan(instance.n))
    return list(tape.bits)


def bt_matching() -> OnlineAlgorithm:
    """Tree-advice matching for BNM in convex position; ceil(log2 C_n) bits."""
    return OnlineAlgorithm(
        name="bt",
        oracle=_bt_oracle,
        make_player=_BTPlayer,
        check=_check_convex(BNM),
        needs_n=True,
    )


class _SortedPlayer:
    """Decodes per-point codes 0 / 10 / 11: skip, match nearest unmatched x
    on the left, or on the right; x is the arrival's exact x-key."""

    def begin(self, n, tape) -> None:
        self.unmatched: list[tuple] = []  # (x-key, arrival), sorted

    def decide(self, i, view, tape):
        x = view.instance.x_keys[i - 1]
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
    keys = instance.x_keys
    if len(set(keys)) != len(keys):
        raise DuplicateX("x-sorted matching needs globally distinct x-coordinates")


def _sorted_oracle(instance: Instance) -> list[int]:
    keys = instance.x_keys
    order = sorted(range(len(keys)), key=keys.__getitem__)
    partner = {}
    for t in range(0, len(order), 2):
        a, b = order[t], order[t + 1]
        partner[a] = b
        partner[b] = a
    bits: list[int] = []
    for t in range(len(keys)):
        j = partner[t]
        if j > t:
            bits.append(0)
        elif keys[j] < keys[t]:
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
    def __init__(self, tie_break: str):
        self.tie_break = tie_break

    def begin(self, n, tape) -> None:
        if n is None:  # not given (needs_n is false): an Elias delta prefix carries it
            n = elias_delta_decode(tape)
        if tape.bits_written - tape.cursor < n - 1:  # C_n >= 2^(n-1); before catalan(n)
            raise TapeExhausted(f"a rank for n = {n} needs at least {n - 1} bits")
        rank = read_ranked(tape, catalan(n))
        self.word = dyck_unrank(n, rank).bits
        self.step = 0

    def decide(self, i, view, tape):
        try:
            bit = self.word[self.step]
        except IndexError:
            raise IllegalMatch(f"the advice word ends before arrival {i}") from None
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
        make_player=lambda: _ASAPPlayer(tie_break),
        check=_check_convex(MNM),
        needs_n=known_n,
    )


class _GreedyPlayer:
    def begin(self, n, tape) -> None:
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
