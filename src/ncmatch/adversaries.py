"""Adversarial instance families and the machinery that certifies the
lower bounds at desk scale: the permutation-driven bichromatic family, the
interval-choice monochromatic family with its parity fingerprint, the
Markov-chain adversary with its coupling diagnostics, the relative-entropy
rate function, and an exhaustive minimum-strategy-cover search.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from . import geometry, offline
from .codecs import Permutation, enumerate_231_avoiding, is_231_avoiding
from .engine import SimulationResult
from .errors import (
    BadSubset,
    CapExceeded,
    DomainError,
    Not231Avoiding,
)
from .geometry import (
    BLUE,
    BNM,
    CIRCLE,
    MNM,
    RED,
    Instance,
    Matching,
    Point,
    circle_point,
)

RNG_ALGORITHM = "python-random-mt19937"


@dataclass
class AnnotatedInstance:
    """An adversarial instance plus the hidden data that generated it."""

    instance: Instance
    parent: tuple[int, ...] | None = None  # per point, Markov family
    fake: tuple[int, ...] | None = None
    coins_f: tuple[int, ...] | None = None  # 1-based via [0] padding
    coins_r: tuple[int, ...] | None = None
    hidden_perm: tuple[int, ...] | None = None  # bichromatic family
    hidden_choice: tuple[int, tuple[int, ...]] | None = None  # (j, intervals)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# bichromatic lower-bound family


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


def bnm_red_instance(
    sigma: Permutation | Sequence[int], allow_any: bool = False
) -> AnnotatedInstance:
    """The red arrival sequence R(sigma) on the lower semicircle.

    Red i drops at the midpoint of the j-th arc, counted left to right
    over the gaps between already placed reds and sentinels at the
    semicircle endpoints, with j = 1 + #{k < i : sigma_k < sigma_i}: the
    value gap sigma_i falls into among the placed values (the endpoint
    sentinels carry the values 0 and n+1).  Placed reds therefore sit in
    value order at all times, and the final left-to-right rank of red i is
    exactly sigma_i.

    Non-avoiding permutations are rejected unless allow_any is set; the
    construction itself is defined for any sigma and the strategy-cover
    counterexamples need that generality.
    """
    values = tuple(sigma)
    perm = Permutation(values)
    if not allow_any:
        ok, witness = is_231_avoiding(perm)
        if not ok:
            raise Not231Avoiding(f"{values} contains a 231 pattern at {witness}")
    n = perm.n
    # angles increase left to right on the lower semicircle; sentinels at
    # the west (1/2) and east (1 == 0 mod 1, stored as 1 for arithmetic)
    # placed values and their angles, both in value (= angle) order
    placed: list[int] = []
    angles: list[Fraction] = []
    reds: list[Fraction] = []
    for s in values:
        j = bisect_left(placed, s)  # j - 1 in the notation above
        lo = angles[j - 1] if j else Fraction(1, 2)
        hi = angles[j] if j < len(angles) else Fraction(1)
        reds.append((lo + hi) / 2)
        placed.insert(j, s)
        angles.insert(j, reds[-1])
    points = bnm_blue_positions(n) + [
        circle_point(a, n + i, RED) for i, a in enumerate(reds, start=1)
    ]
    instance = Instance.build(points, BNM, CIRCLE)
    return AnnotatedInstance(
        instance=instance,
        hidden_perm=values,
        meta={"family": "bnm-perm", "sigma": list(values)},
    )


def bnm_family(n: int) -> Iterator[AnnotatedInstance]:
    """R(sigma) for every 231-avoiding sigma of 1..n."""
    for perm in enumerate_231_avoiding(n):
        yield bnm_red_instance(perm)


# ---------------------------------------------------------------------------
# monochromatic floor(n/3) family


def mnm_family_instance(k: int, j: int, intervals: Iterable[int]) -> AnnotatedInstance:
    """One member of the interval-choice family with 6k points.

    4k fixed points sit at regular spacing clockwise from the north pole;
    the chosen j of the first 4k-1 gaps get their midpoints, arriving
    clockwise, and the remaining 2k-j points spread evenly inside the last
    gap, also clockwise.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if not 0 <= j <= 2 * k:
        raise BadSubset(f"j must lie in [0, {2 * k}]")
    chosen = tuple(sorted(intervals))
    if len(set(chosen)) != len(chosen):
        raise BadSubset(f"interval ids repeat in {chosen}")
    if len(chosen) != j:
        raise BadSubset(f"expected {j} distinct intervals, got {chosen}")
    if chosen and not (1 <= chosen[0] and chosen[-1] <= 4 * k - 1):
        raise BadSubset(f"intervals must come from 1..{4 * k - 1}")

    north = Fraction(1, 4)
    gap = Fraction(1, 4 * k)
    angles: list[Fraction] = [(north - (i - 1) * gap) % 1 for i in range(1, 4 * k + 1)]
    # interval i runs clockwise from fixed point i; its midpoint is half a
    # gap further clockwise
    for i in chosen:
        angles.append((north - (i - 1) * gap - gap / 2) % 1)
    tail = 2 * k - j
    start = (north - (4 * k - 1) * gap) % 1  # fixed point 4k
    for t in range(1, tail + 1):
        angles.append((start - gap * Fraction(t, tail + 1)) % 1)

    points = [circle_point(a, idx) for idx, a in enumerate(angles, start=1)]
    instance = Instance.build(points, MNM, CIRCLE)
    return AnnotatedInstance(
        instance=instance,
        hidden_choice=(j, chosen),
        meta={"family": "mnm-family", "k": k, "j": j, "intervals": list(chosen)},
    )


def mnm_family(k: int) -> Iterator[AnnotatedInstance]:
    """Every (j, S) member, in canonical order."""
    from itertools import combinations

    for j in range(0, 2 * k + 1):
        for chosen in combinations(range(1, 4 * k), j):
            yield mnm_family_instance(k, j, chosen)


def mnm_family_size(k: int) -> int:
    return sum(math.comb(4 * k - 1, j) for j in range(0, 2 * k + 1))


def parity_fingerprint(ai: AnnotatedInstance) -> tuple[int, ...]:
    """Parities of the fixed 4k prefix points within the full instance."""
    if ai.hidden_choice is None:
        raise ValueError("parity fingerprints are defined for the interval family")
    chi = geometry.parity(ai.instance)
    prefix = 2 * len(ai.instance.points) // 3  # 4k of 6k points
    return tuple(chi[:prefix])


@dataclass
class ConsistencyResult:
    """Whether a prior matching extends to a perfect non-crossing matching,
    plus the two cheap necessary conditions."""

    completable: bool
    size_at_least_k: bool
    edges_opposite_parity: bool

    def __bool__(self) -> bool:
        return self.completable


def consistent(prior: Matching, ai: AnnotatedInstance, cap: int = 18) -> ConsistencyResult:
    """Brute-force search for an online-realizable perfect completion.

    New edges must touch an arriving point: after the fixed prefix has
    passed, an online algorithm can only ever match an arrival against an
    older point, never two leftover prefix points against each other.
    Under that reading, size >= k and opposite-parity edges really are
    necessary for consistency, and the search verifies them independently.
    """
    inst = ai.instance
    m = len(inst.points)
    if m > cap:
        raise CapExceeded(f"consistency search capped at {cap} points")
    k = m // 6
    prefix = 4 * k
    chi = geometry.parity(inst)
    size_ok = len(prior) >= k
    parity_ok = all(chi[a - 1] != chi[b - 1] for a, b in prior.edges)

    matched = prior.matched_indices()
    free = [i for i in range(1, m + 1) if i not in matched]
    # every new edge needs a suffix point: two prefix points both arrived
    # before the suffix began
    completions = offline.noncrossing_pairings(
        inst, free, prior.edges, may_pair=lambda i, j: max(i, j) > prefix
    )
    completable = next(completions, None) is not None
    return ConsistencyResult(completable, size_ok, parity_ok)


def noncrossing_priors(ai: AnnotatedInstance) -> Iterator[Matching]:
    """All non-crossing partial matchings on the 4k fixed prefix points."""
    inst = ai.instance
    prefix = 2 * len(inst.points) // 3
    for edges in offline.noncrossing_pairings(inst, range(1, prefix + 1), perfect=False):
        yield Matching.from_pairs(edges)


# ---------------------------------------------------------------------------
# Markov-chain adversary


def markov_instance(n: int, seed: int) -> AnnotatedInstance:
    """A 2n-point circle instance grown by seeded arc splitting.

    Two fair coin streams drive the walk: R picks which adjacent arc of the
    current parent receives the next point, F decides whether that point is
    a fake (dead end) forcing the following parent into the other arc.  The
    parent indicator obeys P_i = 1 - P_{i-1} * F_i with P_1 = 0.  All
    angles are exact dyadic turn fractions.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    m = 2 * n
    coins_f = [0] + [rng.getrandbits(1) for _ in range(m)]
    coins_r = [0] + [rng.getrandbits(1) for _ in range(m)]

    scale = m + 2  # enough halvings: angles are multiples of 2^-scale
    one = 1 << scale
    ticks = [one >> 2, 3 * (one >> 2)]  # by arrival: north, south
    placed = ticks[:]  # in angle order
    fake = [0, 0, 0]  # 1-based; p_1 is neither parent nor fake

    cur_parent = 2  # arrival index of the active parent
    for i in range(3, m + 1):
        # R=1 is the right (ccw) arc; the point after a fake lands in the
        # parent's other arc and is never a fake itself
        go_ccw = coins_r[cur_parent] != fake[i - 1]
        new_fake = 0 if fake[i - 1] else coins_f[i]
        center = ticks[cur_parent - 1]
        pos = bisect_left(placed, center)
        if go_ccw:
            end = placed[pos + 1] if pos + 1 < len(placed) else placed[0] + one
        else:
            end = placed[pos - 1] if pos else placed[-1] - one
        ticks.append((center + end) // 2 % one)
        insort(placed, ticks[-1])
        fake.append(new_fake)
        if not new_fake:
            cur_parent = i

    instance = Instance.from_ticks(ticks, scale, MNM, validate=False)
    return AnnotatedInstance(
        instance=instance,
        parent=(0,) + tuple(1 - f for f in fake[2:]),
        fake=tuple(fake[1:]),
        coins_f=tuple(coins_f),
        coins_r=tuple(coins_r),
        meta={"family": "markov", "n": n, "seed": seed, "rng": RNG_ALGORITHM},
    )


@dataclass
class CouplingDiagnostics:
    """Per-match trap indicators and the realized damage.

    x[i] is 1 when the i-th match was made by a parent point and the coins
    guarantee a newly isolated point; y[i] is the looser coupled variant
    whose even-index entries are fair 1/4 coins.  isolated_count is the
    number of points left unmatched when the input ends (every one of them
    is permanently unmatchable at that moment).
    """

    times: list[int]
    cases: list[str]
    x: list[int]
    y: list[int]
    isolated_count: int


def _event_coin(case: str, f_next: int, r_cur: int) -> int:
    """The coin pattern that creates an isolated point, by side case.

    With no available point on a side, a fake landing there dies; with
    available points on a side, a parent landing on the other side strands
    them.  Writing the four events per case and summing collapses the two
    middle cases to pure R tests.
    """
    if case == "00":
        return f_next
    if case == "0+":
        return 1 - r_cur
    if case == "+0":
        return r_cur
    return 1 - f_next


def coupling_diagnostics(ai: AnnotatedInstance, sim: SimulationResult) -> CouplingDiagnostics:
    """Compute the X/Y indicator sequences for a simulated trace.

    Matches at times 2 and 2n fall outside the indicator equations
    (the next-point coins they reference are degenerate there) and are
    dropped, matching the analysis.
    """
    if ai.parent is None:
        raise ValueError("coupling diagnostics need a Markov-family instance")
    m = ai.instance.size
    parent = (0,) + ai.parent  # 1-based
    coins_f = ai.coins_f
    coins_r = ai.coins_r

    times: list[int] = []
    cases: list[str] = []
    xs: list[int] = []
    ys: list[int] = []
    for t, _available, partner, left, right in sim.steps:
        if partner is None or t == 2 or t == m:
            continue
        case = ("0" if left == 0 else "+") + ("0" if right == 0 else "+")
        coin = _event_coin(case, coins_f[t + 1], coins_r[t])
        times.append(t)
        cases.append(case)
        xs.append(parent[t] * coin)
        ys.append((1 - coins_f[t]) * coin)

    unmatched = m - 2 * len(sim.matching)
    return CouplingDiagnostics(times, cases, xs, ys, unmatched)


# ---------------------------------------------------------------------------
# rate function


def kl_divergence(a: float, p: float) -> float:
    """Relative entropy D(a || p) between Bernoulli coins, in bits."""
    if not (0 < a < 1 and 0 < p < 1):
        raise DomainError("kl_divergence needs arguments strictly inside (0, 1)")
    return a * math.log2(a / p) + (1 - a) * math.log2((1 - a) / (1 - p))


RATE_VARIANTS = {"abstract": 2, "proof": 4}


def approx_lb_rate(alpha: float, variant: str = "proof") -> float:
    """Advice-rate lower bound for matching a 2*alpha*n fraction of points.

    Evaluates (alpha/2) * D(c(1-alpha)/alpha || 1/4) with c = 2 for the
    headline statement and c = 4 for the proof's final line; the source
    material carries both constants, so both are exposed.
    """
    if variant not in RATE_VARIANTS:
        raise ValueError(f"variant must be one of {sorted(RATE_VARIANTS)}")
    c = RATE_VARIANTS[variant]
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    inner = c * (1 - alpha) / alpha
    if not 0 < inner < 0.25:
        raise DomainError(
            f"inner argument {inner:.4f} outside (0, 1/4); alpha too small for c={c}"
        )
    return (alpha / 2) * kl_divergence(inner, 0.25)


# ---------------------------------------------------------------------------
# minimum strategy cover


def min_strategy_cover(
    family: Iterable[Instance | AnnotatedInstance],
    cap_instances: int = 64,
    cap_points: int = 12,
) -> int:
    """Fewest deterministic no-advice strategies solving every family member.

    A strategy is a decision tree over the family's arrival prefix trie: it
    may branch only where observed prefixes differ geometrically, and two
    algorithms acting identically on every member are the same strategy.
    Solvable instance subsets are enumerated bottom-up over the trie
    (maximal antichains only) and finished with an exact set cover.  The
    family is read lazily: past ``cap_instances`` members it raises
    ``CapExceeded`` without taking more.
    """
    instances = [
        x.instance if isinstance(x, AnnotatedInstance) else x
        for x in islice(family, cap_instances + 1)
    ]
    if not instances:
        return 0
    if len(instances) > cap_instances:
        raise CapExceeded(f"strategy cover capped at {cap_instances} instances")
    size = instances[0].size
    kind = instances[0].kind
    if any(inst.size != size or inst.kind != kind for inst in instances):
        raise ValueError("family members must share size and kind")
    if size > cap_points:
        raise CapExceeded(f"strategy cover capped at {cap_points} points")

    n = size // 2
    first_decision = n + 1 if kind == BNM else 1
    if kind == BNM:
        shared = instances[0].points[:n]
        for inst in instances[1:]:
            if any(
                a.position() != b.position()
                for a, b in zip(shared, inst.points[:n])
            ):
                raise ValueError("BNM family members must share blue points")

    full_len = size

    def solvable_sets(ids: tuple[int, ...], t: int, state: frozenset) -> frozenset:
        """Maximal subsets of `ids` one strategy can finish perfectly from
        (t points revealed, matched pairs `state`)."""
        if t == full_len:
            perfect = len(state) == n
            return frozenset({frozenset(ids) if perfect else frozenset()})
        groups: dict[tuple, list[int]] = {}
        for iid in ids:
            key = instances[iid].points[t].position()
            groups.setdefault(key, []).append(iid)

        per_group: list[frozenset] = []
        for key, gids in sorted(groups.items()):
            rep = instances[gids[0]]
            ends = rep.crossing_view[0]
            edges = [(ends[a - 1], ends[b - 1]) for a, b in state]
            matched = {v for e in state for v in e}
            options = geometry.scan_available(rep, t + 1, matched, edges)
            collected: set[frozenset] = set()
            if kind == BNM:
                if not options:
                    collected.add(frozenset())  # a skipped red can never be perfect
            else:
                collected |= solvable_sets(tuple(gids), t + 1, state)  # skip
            for j in options:
                new_state = state | {(min(j, t + 1), max(j, t + 1))}
                collected |= solvable_sets(tuple(gids), t + 1, new_state)
            per_group.append(_maximal(collected))

        out: set[frozenset] = {frozenset()}
        for coll in per_group:
            out = {s | c for s in out for c in coll}
        return _maximal(out)

    ids = tuple(range(len(instances)))
    t0 = first_decision - 1
    root_sets = solvable_sets(ids, t0, frozenset())
    covers = [s for s in root_sets if s]
    universe = frozenset(ids)
    if not covers or frozenset().union(*covers) != universe:
        raise ValueError("some family member is unsolvable by any strategy")
    return _exact_cover_size(universe, covers)


def _maximal(sets: Iterable[frozenset]) -> frozenset:
    pool = sorted(set(sets), key=len, reverse=True)
    out: list[frozenset] = []
    for s in pool:
        if not any(s < t for t in out):
            out.append(s)
    return frozenset(out)


def _exact_cover_size(universe: frozenset, sets: list[frozenset]) -> int:
    best = len(universe) + 1

    def rec(uncovered: frozenset, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not uncovered:
            best = used
            return
        pivot = min(
            uncovered, key=lambda e: sum(1 for s in sets if e in s)
        )
        for s in sets:
            if pivot in s:
                rec(uncovered - s, used + 1)

    rec(universe, 0)
    return best
