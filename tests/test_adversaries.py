import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from cover_reference import pairwise_maximal, recursive_cover_size
from helpers import bnm_blue_positions, partner, point, reds

from ncmatch import adversaries, engine, geometry, offline
from ncmatch.adversaries import (
    AnnotatedInstance,
    _exact_cover_size,
    _maximal,
    approx_lb_rate,
    bnm_family,
    bnm_red_instance,
    consistent,
    coupling_diagnostics,
    kl_divergence,
    markov_instance,
    min_strategy_cover,
    mnm_family,
    mnm_family_instance,
    mnm_family_size,
    noncrossing_priors,
    parity_fingerprint,
)
from ncmatch.campaigns import check_bnm_lb, check_mnm_lb
from ncmatch.codecs import catalan, enumerate_231_avoiding
from ncmatch.engine import asap_matching, greedy, simulate
from ncmatch.errors import BadSubset, CapExceeded, DomainError, Not231Avoiding
from ncmatch.geometry import MNM, Matching


# ---------------------------------------------------------------------------
# bichromatic family


def test_blue_positions_small_cases():
    b = bnm_blue_positions(1)
    assert b[0].angle == Fraction(1, 4)  # top of the circle
    b4 = bnm_blue_positions(4)
    assert [p.angle for p in b4] == [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]
    for p in b4:
        assert Fraction(0) < p.angle < Fraction(1, 2)


def test_first_red_always_at_the_bottom():
    for perm in enumerate_231_avoiding(4):
        ai = bnm_red_instance(perm)
        assert point(ai.instance, 5).angle == Fraction(3, 4)


def test_figure_permutation_layout():
    ai = bnm_red_instance((2, 1, 4, 3))
    by_x = sorted(reds(ai.instance), key=lambda p: p.angle)  # increasing angle = left to right below
    assert [p.arrival_index - 4 for p in by_x] == [2, 1, 4, 3]


def test_final_rank_equals_sigma_for_all_avoiding():
    for n in range(1, 6):
        for perm in enumerate_231_avoiding(n):
            ai = bnm_red_instance(perm)
            ranks = {
                p.arrival_index: pos + 1
                for pos, p in enumerate(sorted(reds(ai.instance), key=lambda q: q.angle))
            }
            assert tuple(ranks[n + i] for i in range(1, n + 1)) == tuple(perm)


def test_non_avoiding_rejected_unless_opted_in():
    with pytest.raises(Not231Avoiding):
        bnm_red_instance((2, 3, 1))
    ai = bnm_red_instance((2, 3, 1), allow_any=True)
    assert ai.instance.n == 3


def test_red_prefixes_agree_through_first_difference():
    for n in range(2, 6):
        fam = [(tuple(p), bnm_red_instance(p)) for p in enumerate_231_avoiding(n)]
        for (s1, a1), (s2, a2) in combinations(fam, 2):
            i = next(t for t in range(n) if s1[t] != s2[t])
            r1 = [p.angle for p in reds(a1.instance)]
            r2 = [p.angle for p in reds(a2.instance)]
            assert r1[: i + 1] == r2[: i + 1], (s1, s2)
            # and the required partners differ right there
            assert s1[i] != s2[i]


def test_bt_matches_red_i_to_blue_sigma_i():
    for n in range(1, 5):
        for perm in enumerate_231_avoiding(n):
            ai = bnm_red_instance(perm)
            sim = simulate(engine.bt_matching(), ai.instance)
            assert sim.violations.perfect
            for i, s in enumerate(perm, start=1):
                assert partner(sim.matching, n + i) == s


# ---------------------------------------------------------------------------
# interval family


def test_mnm_family_smallest_member_shape():
    ai = mnm_family_instance(1, 0, ())
    pts = ai.instance.points
    assert len(pts) == 6
    # fixed prefix: north, east, south, west, clockwise
    assert [p.angle for p in pts[:4]] == [
        Fraction(1, 4),
        Fraction(0),
        Fraction(3, 4),
        Fraction(1, 2),
    ]
    # the two tail points sit evenly inside the fourth interval (west to
    # north, clockwise), arriving clockwise
    assert [p.angle for p in pts[4:]] == [Fraction(5, 12), Fraction(1, 3)]


def test_mnm_family_sizes():
    assert mnm_family_size(1) == 7
    assert mnm_family_size(2) == 99
    assert len(list(mnm_family(1))) == 7
    for k in (1, 2, 3, 4):
        assert mnm_family_size(k) >= 2 ** (4 * k - 2) + 1


def test_mnm_family_rejects_bad_subsets():
    with pytest.raises(BadSubset):
        mnm_family_instance(1, 1, (4,))  # interval 4k is reserved for the tail
    with pytest.raises(BadSubset):
        mnm_family_instance(1, 2, (1,))


def test_mnm_family_rejects_repeated_interval_ids():
    for j, intervals in ((1, (1, 1)), (2, (5, 1, 5)), (2, [3, 3, 3])):
        with pytest.raises(BadSubset, match="interval ids repeat"):
            mnm_family_instance(2, j, intervals)
    # distinct ids in any order name the same member
    a, b = mnm_family_instance(2, 2, (5, 1)), mnm_family_instance(2, 2, (1, 5))
    assert a.instance == b.instance and a.hidden_choice == b.hidden_choice == (2, (1, 5))


def test_parity_fingerprint_injective_and_sensitive():
    members = list(mnm_family(2))
    fps = [parity_fingerprint(ai) for ai in members]
    assert len(set(fps)) == len(members) == 99
    a = mnm_family_instance(2, 1, (1,))
    b = mnm_family_instance(2, 1, (2,))
    assert parity_fingerprint(a) != parity_fingerprint(b)


def test_consistency_conditions_are_necessary():
    members = list(mnm_family(1))
    for ai in members:
        for prior in noncrossing_priors(ai):
            res = consistent(prior, ai)
            if res.completable:
                assert res.size_at_least_k
                assert res.edges_opposite_parity


@pytest.mark.parametrize("k, consistent_priors", [(1, 27), (2, 5193)])
def test_members_share_the_priors_the_campaign_enumerates_once(k, consistent_priors):
    # check_mnm_lb enumerates the priors of its first member only
    members = list(mnm_family(k))
    first = list(noncrossing_priors(members[0]))
    assert all(list(noncrossing_priors(ai)) == first for ai in members[1:])
    summary = check_mnm_lb(k)
    assert summary["ok"], summary
    assert summary["results"][-1]["name"].endswith(f"(of {consistent_priors})")


def test_small_and_same_parity_priors_are_inconsistent():
    ai = mnm_family_instance(1, 0, ())
    empty = consistent(Matching(), ai)
    assert not empty.completable  # 4 leftovers cannot be soaked up by 2 arrivals
    assert not empty.size_at_least_k
    chi = geometry.parity(ai.instance)
    same = next(
        (i, j)
        for i in range(1, 5)
        for j in range(i + 1, 5)
        if chi[i - 1] == chi[j - 1]
    )
    res = consistent(Matching.from_pairs([same]), ai)
    assert not res.edges_opposite_parity
    assert not res.completable


def test_every_member_admits_perfect_noncrossing_matching():
    for ai in mnm_family(1):
        assert next(offline.enumerate_perfect_noncrossing(ai.instance), None) is not None


# ---------------------------------------------------------------------------
# Markov adversary


def test_markov_two_points():
    ai = markov_instance(1, 0)
    angles = [p.angle for p in ai.instance.points]
    assert angles == [Fraction(1, 4), Fraction(3, 4)]
    assert ai.parent == (0, 1)


def test_markov_deterministic_and_dyadic():
    a = markov_instance(40, 7)
    b = markov_instance(40, 7)
    assert [p.angle for p in a.instance.points] == [p.angle for p in b.instance.points]
    assert a.coins_f == b.coins_f and a.coins_r == b.coins_r
    angles = [p.angle for p in a.instance.points]
    assert len(set(angles)) == len(angles)
    for q in angles:
        assert q.denominator & (q.denominator - 1) == 0  # power of two


def test_markov_parent_recurrence():
    for seed in range(20):
        ai = markov_instance(30, seed)
        parent = (0,) + ai.parent
        f = ai.coins_f
        for i in range(2, 61):
            assert parent[i] == 1 - parent[i - 1] * f[i]
        fake = (0,) + ai.fake
        for i in range(2, 61):
            assert fake[i] == parent[i - 1] * f[i]


def test_markov_coins_are_one_bit_draws():
    # the walk draws each coin stream at once; the coins equal m calls of
    # getrandbits(1) each
    for n, seed in ((1, 0), (2, 5), (3, 9), (200, 1), (1000, 77)):
        rng = random.Random(seed)
        coins_f = tuple([0] + [rng.getrandbits(1) for _ in range(2 * n)])
        coins_r = tuple([0] + [rng.getrandbits(1) for _ in range(2 * n)])
        ai = markov_instance(n, seed)
        assert (ai.coins_f, ai.coins_r) == (coins_f, coins_r)


def test_markov_placement_follows_the_coins():
    # hand-check the third point: parent p2 at the south pole, R_2 picks
    # its left (clockwise, lands west) or right (counterclockwise, wraps
    # around to land east) adjacent half-circle
    for seed in range(40):
        ai = markov_instance(4, seed)
        p3 = point(ai.instance, 3).angle
        if ai.coins_r[2] == 1:
            assert p3 == Fraction(0)  # ccw of south: east midpoint
        else:
            assert p3 == Fraction(1, 2)  # cw of south: west midpoint


# ---------------------------------------------------------------------------
# coupling diagnostics


def test_event_coin_matches_isolation_rules():
    from ncmatch.adversaries import _event_coin

    # enumerate the trap events: a fake landing on an empty side dies; a
    # parent landing opposite a populated side strands it
    for left_empty in (True, False):
        for right_empty in (True, False):
            case = ("0" if left_empty else "+") + ("0" if right_empty else "+")
            for f_next in (0, 1):
                for r_cur in (0, 1):
                    goes_left = r_cur == 0
                    if f_next == 1:  # next point is fake, lands at s^R
                        isolates = (goes_left and left_empty) or (
                            not goes_left and right_empty
                        )
                    else:  # next point is a parent, future confined to s^R
                        isolates = (goes_left and not right_empty) or (
                            not goes_left and not left_empty
                        )
                    assert _event_coin(case, f_next, r_cur) == int(isolates), (
                        case,
                        f_next,
                        r_cur,
                    )


def _scripted_markov(n, coins_f, coins_r):
    """A Markov-family instance replayed by hand from forced coin streams.

    Mirrors the generator's placement rules over explicit angles so the
    diagnostics can be checked against a trace worked out on paper.
    """
    from ncmatch.geometry import CIRCLE, Instance, circle_point

    angles = [Fraction(1, 4), Fraction(3, 4)]
    parent = [0, 0, 1]
    fake = [0, 0, 0]
    cur = 2
    for i in range(3, 2 * n + 1):
        placed = sorted(angles)
        anchor = angles[cur - 1]
        pos = placed.index(anchor)
        if fake[i - 1]:
            go_ccw = coins_r[cur] == 0
        else:
            go_ccw = coins_r[cur] == 1
        if go_ccw:
            nxt = placed[pos + 1] if pos + 1 < len(placed) else placed[0] + 1
            a = (anchor + nxt) / 2 % 1
        else:
            prv = placed[pos - 1] if pos else placed[-1] - 1
            a = (prv + anchor) / 2 % 1
        angles.append(a)
        new_fake = 0 if fake[i - 1] else coins_f[i]
        fake.append(new_fake)
        parent.append(0 if new_fake else 1)
        if not new_fake:
            cur = i
    inst = Instance.build(
        [circle_point(a, i + 1) for i, a in enumerate(angles)], MNM, CIRCLE
    )
    return AnnotatedInstance(
        instance=inst,
        parent=tuple(parent[1:]),
        fake=tuple(fake[1:]),
        coins_f=tuple(coins_f),
        coins_r=tuple(coins_r),
    )


def test_scripted_markov_agrees_with_generator():
    for seed in range(12):
        ai = markov_instance(8, seed)
        replay = _scripted_markov(8, list(ai.coins_f), list(ai.coins_r))
        assert [p.angle for p in replay.instance.points] == [
            p.angle for p in ai.instance.points
        ]
        assert replay.parent == ai.parent and replay.fake == ai.fake


def test_coupling_hand_traced_no_fakes():
    # F = 0, R = 0 everywhere: every point is a parent walking clockwise:
    # p3 = west (1/2), p4 = 3/8, p5 = 5/16, p6 = 9/32.  Greedy matches
    # (1,2) at t=2 (dropped), (3,4) at t=4, (5,6) at t=6 = 2n (dropped).
    ai = _scripted_markov(3, [0] * 7, [0] * 7)
    assert [p.angle for p in ai.instance.points] == [
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(5, 16),
        Fraction(9, 32),
    ]
    sim = simulate(greedy(), ai.instance)
    assert sorted(sim.matching.edges) == [(1, 2), (3, 4), (5, 6)]
    diag = coupling_diagnostics(ai, sim)
    assert diag.times == [4]
    # at t=4 the available set was exactly the partner: both sides empty
    assert diag.cases == ["00"]
    # coin for 00 is F_5 = 0, so no isolation is predicted and none happens
    assert diag.x == [0] and diag.y == [0]
    assert diag.isolated_count == 0


def test_coupling_hand_traced_fake_trap_fires():
    # F_5 = 1 plants a fake right after the greedy match at t = 4, where
    # both sides of the new chord are empty (case 00): the fake lands at
    # 9/16, strictly inside the chord (1/2, 5/8), and the walk then leaves
    # through the other arc, so the fake is isolated exactly as X predicts.
    f = [0, 0, 0, 0, 0, 1, 0, 0, 0]
    r = [0, 0, 0, 1, 0, 0, 1, 0, 0]
    ai = _scripted_markov(4, f, r)
    assert ai.fake == (0, 0, 0, 0, 1, 0, 0, 0)
    assert [p.angle for p in ai.instance.points] == [
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(5, 8),
        Fraction(9, 16),
        Fraction(11, 16),
        Fraction(23, 32),
        Fraction(45, 64),
    ]
    sim = simulate(greedy(), ai.instance)
    assert sorted(sim.matching.edges) == [(1, 2), (3, 4), (6, 7)]
    diag = coupling_diagnostics(ai, sim)
    assert diag.times == [4, 7]
    assert diag.cases == ["00", "00"]
    # t=4: coin F_5 = 1 and p4 is a parent, so X fires; t=7: coin F_8 = 0
    assert diag.x == [1, 0]
    assert diag.y == [1, 0]
    # points 5 (the trapped fake) and 8 end unmatched
    assert diag.isolated_count == 2
    assert sum(diag.x) <= diag.isolated_count


def test_coupling_side_case_hand_traced_with_lazy_player():
    # greedy keeps at most one unmatched point per region, so its match
    # events are always case 00; a player that skips its first chance
    # leaves two points in one region and forces a one-sided case.
    # Coins: no fakes, walk p3=1/2, p4=3/8, p5=7/16, p6=13/32.
    from ncmatch.engine import OnlineAlgorithm

    ai = _scripted_markov(3, [0] * 7, [0, 0, 0, 0, 1, 0, 0])
    assert [p.angle for p in ai.instance.points] == [
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(7, 16),
        Fraction(13, 32),
    ]

    class Lazy:
        def begin(self, ctx, tape):
            pass

        def decide(self, i, view, tape):
            if i == 2:
                return None  # pass up the first match on purpose
            return view.min_arrival()

    sim = simulate(OnlineAlgorithm("lazy", None, Lazy, lambda inst: None), ai.instance)
    assert sorted(sim.matching.edges) == [(1, 3), (4, 5)]
    diag = coupling_diagnostics(ai, sim)
    assert diag.times == [3, 5]
    # at t=3 the leftover point 2 sits right of the chord p3 -> p1, and the
    # walk then turns left (R_3 = 0), stranding it: the indicator fires and
    # the isolation really happens (points 2 and 6 end unmatched)
    assert diag.cases == ["0+", "00"]
    assert diag.x == [1, 0]
    assert diag.y == [1, 0]
    assert diag.isolated_count == 2
    assert sum(diag.x) <= diag.isolated_count


def test_coupling_invariants_on_random_traces():
    for seed in range(60):
        ai = markov_instance(25, seed)
        sim = simulate(greedy(), ai.instance)
        diag = coupling_diagnostics(ai, sim)
        assert all(y <= x for x, y in zip(diag.x, diag.y))
        assert sum(diag.x) <= diag.isolated_count
        assert sum(diag.y[1::2]) <= sum(diag.x)
        assert diag.isolated_count == 50 - 2 * len(sim.matching)


# the coin of each side case, by the isolation rules: F_{t+1} or R_t
EVENT_COINS = {
    "00": lambda f_next, r_cur: f_next,
    "0+": lambda f_next, r_cur: 1 - r_cur,
    "+0": lambda f_next, r_cur: r_cur,
    "++": lambda f_next, r_cur: 1 - f_next,
}


def _table_diagnostics(ai, steps):
    """Times, cases, X and Y of a trace, read off the case table."""
    m, parent = ai.instance.size, (0, *ai.parent)
    times, cases, xs, ys = [], [], [], []
    for t, _available, partner, left, right in steps:
        if partner is None or t in (2, m):
            continue
        case = ("+" if left > 0 else "0") + ("+" if right > 0 else "0")
        coin = EVENT_COINS[case](ai.coins_f[t + 1], ai.coins_r[t])
        times.append(t)
        cases.append(case)
        xs.append(parent[t] * coin)
        ys.append((1 - ai.coins_f[t]) * coin)
    return times, cases, xs, ys


def test_asap_markov_traces_reach_the_one_sided_cases():
    # asap leaves one free point beside some of its chords, so its matches
    # fall under 0+ and +0 with a single point on the populated side
    seen, single = set(), 0
    for seed in range(4):
        ai = markov_instance(50, seed)
        sim = simulate(asap_matching(), ai.instance)
        diag = coupling_diagnostics(ai, sim)
        assert (diag.times, diag.cases, diag.x, diag.y) == _table_diagnostics(ai, sim.steps)
        seen.update(diag.cases)
        single += sum(1 for *_, left, right in sim.steps if 1 in (left, right))
    assert {"00", "0+", "+0"} <= seen and single > 0


def test_hand_built_steps_reach_the_two_sided_case():
    # F_6 = 1 makes point 6 a fake, so point 7 is a parent with F_7 = 1;
    # every listed match has one point on each side of its chord (case ++)
    ai = _scripted_markov(4, [0, 0, 0, 0, 0, 0, 1, 1, 0], [0] * 9)
    assert ai.parent == (0, 1, 1, 1, 1, 0, 1, 1)
    steps = [
        (2, 1, 1, 0, 0),  # t = 2 falls outside the equations
        (3, 2, 2, 1, 1),
        (4, 1, None, None, None),  # a skip
        (5, 3, 4, 1, 1),
        (6, 3, 3, 1, 1),
        (7, 3, 5, 1, 1),
    ]
    sim = dataclasses.replace(simulate(greedy(), ai.instance), steps=steps)
    diag = coupling_diagnostics(ai, sim)
    assert diag.times == [3, 5, 6, 7]
    assert diag.cases == ["++"] * 4
    # the ++ coin is 1 - F_{t+1}: F_4, F_6, F_7, F_8 = 0, 1, 1, 0
    assert diag.x == [1, 0, 0, 1]
    # Y also needs F_t = 0, which fails at t = 7
    assert diag.y == [1, 0, 0, 0]
    assert (diag.times, diag.cases, diag.x, diag.y) == _table_diagnostics(ai, steps)


# ---------------------------------------------------------------------------
# rate function


def test_kl_divergence_values():
    assert kl_divergence(0.25, 0.25) == 0
    assert abs(kl_divergence(0.125, 0.25) - 0.0696) < 1e-3
    for a in (0.1, 0.3, 0.6, 0.9):
        for p in (0.2, 0.5, 0.8):
            if a != p:
                assert kl_divergence(a, p) > 0
    with pytest.raises(DomainError):
        kl_divergence(0.0, 0.5)
    with pytest.raises(DomainError):
        kl_divergence(0.5, 1.0)


def test_rate_variants_ordered_and_domain_checked():
    for alpha in (0.95, 0.97, 0.99):
        assert approx_lb_rate(alpha, "abstract") >= approx_lb_rate(alpha, "proof") > 0
    # increasing toward alpha = 1
    vals = [approx_lb_rate(a, "proof") for a in (0.95, 0.97, 0.99, 0.999)]
    assert vals == sorted(vals)
    with pytest.raises(DomainError):
        approx_lb_rate(16 / 17, "proof")  # inner argument hits 1/4 exactly
    with pytest.raises(DomainError):
        approx_lb_rate(0.9, "proof")
    assert approx_lb_rate(0.9, "abstract") > 0  # c=2 tolerates alpha > 8/9


# ---------------------------------------------------------------------------
# strategy cover


def test_cover_n2_is_catalan():
    assert min_strategy_cover(list(bnm_family(2))) == 2


def test_cover_n3_is_catalan_below_factorial():
    cover = min_strategy_cover(list(bnm_family(3)))
    assert cover == 5
    assert cover < math.factorial(3)


def test_cover_n4_is_catalan():
    assert min_strategy_cover(list(bnm_family(4))) == 14


def test_cover_of_the_counterexample_pair_is_one():
    pair = [
        bnm_red_instance((2, 3, 1), allow_any=True),
        bnm_red_instance((2, 1, 3), allow_any=True),
    ]
    assert min_strategy_cover(pair) == 1


def test_cover_reads_at_most_one_member_past_its_cap():
    # the size guard reads the first member only: 22 points is past it
    taken = []

    def family():
        for sigma in (range(1, 12), range(11, 0, -1)):
            taken.append(sigma)
            yield bnm_red_instance(sigma)

    with pytest.raises(CapExceeded):
        min_strategy_cover(family())
    assert len(taken) == 1
    # a generator within the cap gives what its list gives
    assert min_strategy_cover(bnm_family(3)) == min_strategy_cover(list(bnm_family(3))) == 5


def test_cover_single_instance_is_one():
    assert min_strategy_cover([bnm_red_instance((1, 2))]) == 1


def test_cover_search_agrees_with_the_recursive_reference():
    # small random set systems, some with an element that no set holds and
    # some whose cover needs a branch: the answer is the reference's
    rng = random.Random(211)
    sizes = set()
    for _ in range(2000):
        universe = frozenset(range(rng.randrange(9)))
        density = rng.choice((0.2, 0.4, 0.6))
        sets = [
            frozenset(e for e in universe if rng.random() < density)
            for _ in range(rng.randrange(8))
        ]
        want = recursive_cover_size(universe, sets)
        assert _exact_cover_size(universe, sets) == want, (universe, sets)
        sizes.add(want if want <= len(universe) else "none")
    assert {0, 1, 2, 3, 4, "none"} <= sizes


def test_maximal_sets_agree_with_the_pairwise_filter():
    # random families with repeats, nested chains, the empty set and
    # families of the empty set alone: the same frozenset of maximal sets
    rng = random.Random(29)
    kinds = set()
    for _ in range(3000):
        universe = range(rng.randrange(1, 10))
        density = rng.choice((0.1, 0.3, 0.6, 0.9))
        sets = [
            frozenset(e for e in universe if rng.random() < density)
            for _ in range(rng.randrange(12))
        ]
        if sets and rng.random() < 0.3:
            sets += [s - {min(s)} for s in sets if s]  # strict subsets
        want = pairwise_maximal(sets)
        assert _maximal(sets) == want, sets
        assert _maximal(iter(sets)) == want
        kinds.add(len(want) if frozenset() not in want else "empty")
    assert {0, 1, 2, 3, "empty"} <= kinds


def test_cover_search_takes_disjoint_sets_without_recursion():
    # the recursive search went one level deeper per chosen set
    singletons = [frozenset({e}) for e in range(2000)]
    assert _exact_cover_size(frozenset(range(2000)), singletons) == 2000


def test_cover_of_the_n6_family_is_catalan():
    assert min_strategy_cover(bnm_family(6)) == catalan(6) == 132


def test_bnm_lb_certifies_n8():
    # C_8 = 1430 family members; the cover search takes about 0.5 s
    report = check_bnm_lb(8)
    assert report["ok"]
    assert report["results"][0]["measured"] == catalan(8) == 1430


def test_cover_works_for_small_mnm_families():
    members = list(mnm_family(1))[:3]
    assert min_strategy_cover(members) >= 1
