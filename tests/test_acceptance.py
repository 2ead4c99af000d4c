"""Acceptance suite: one test per advertised guarantee, each timed against
its stated budget and printing a single PASS/FAIL line (run with -s).

Seeds are fixed so every run checks the identical instance population.
"""
import math
import time
from itertools import combinations

from helpers import reds

from ncmatch import campaigns, generators, offline
from ncmatch.adversaries import (
    approx_lb_rate,
    bnm_family,
    bnm_red_instance,
    consistent,
    min_strategy_cover,
    mnm_family,
    mnm_family_size,
    noncrossing_priors,
    parity_fingerprint,
)
from ncmatch.codecs import (
    DyckWord,
    bits_for_universe,
    catalan,
    dyck_rank,
    dyck_to_tree,
    dyck_unrank,
    elias_delta_encode,
    enumerate_231_avoiding,
    enumerate_dyck,
    enumerate_trees,
    perm_to_tree,
    tree_rank,
    tree_to_dyck,
    tree_to_perm,
    tree_unrank,
)
from ncmatch.engine import asap_matching, bt_matching, simulate, sorted_matching
from ncmatch.geometry import BNM, MNM

PER_N_TRIALS = 500


def _finish(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    line = f"[acceptance] {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) {detail}"
    print(line)
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def width(n: int) -> int:
    return bits_for_universe(catalan(n))


def test_01_bt_matching_optimal_with_exact_bits():
    t0 = time.perf_counter()
    runs = 0
    for n in range(1, 11):
        for trial in range(PER_N_TRIALS):
            inst = generators.random_convex_instance(n, BNM, seed=1000 * n + trial)
            sim = simulate(bt_matching(), inst)
            assert sim.violations.perfect, (n, trial)
            assert sim.bits_read == sim.bits_written == width(n), (n, trial)
            runs += 1
    for n in range(1, 7):
        for perm in enumerate_231_avoiding(n):
            sim = simulate(bt_matching(), bnm_red_instance(perm).instance)
            assert sim.violations.perfect, tuple(perm)
            assert sim.bits_read == sim.bits_written == width(n)
            runs += 1
    _finish("01 tree-advice optimality/bits", t0, 10.0, f"({runs} runs)")


def test_02_asap_matching_optimal_with_exact_bits():
    t0 = time.perf_counter()
    runs = 0
    for n in range(1, 11):
        for trial in range(PER_N_TRIALS):
            inst = generators.random_convex_instance(n, MNM, seed=2000 * n + trial)
            sim = simulate(asap_matching(known_n=True), inst)
            assert sim.violations.perfect, (n, trial)
            assert sim.bits_read == sim.bits_written == width(n), (n, trial)
            sim_u = simulate(asap_matching(known_n=False), inst)
            assert sim_u.violations.perfect
            assert (
                sim_u.bits_read
                == sim_u.bits_written
                == width(n) + len(elias_delta_encode(n))
            )
            runs += 2
            if trial % 10 == 0:
                # the oracle's word is a valid balanced word and survives
                # the rank round trip (construction itself validates)
                from ncmatch.engine import _asap_word

                word = _asap_word(inst, "min")
                assert isinstance(word, DyckWord)
                assert dyck_unrank(n, dyck_rank(word)) == word
    _finish("02 asap optimality/bits", t0, 10.0, f"({runs} runs)")


def test_03_sorted_matching_three_n_bits():
    t0 = time.perf_counter()
    for n in range(1, 11):
        for trial in range(PER_N_TRIALS):
            inst = generators.random_general_instance(n, seed=3000 * n + trial)
            sim = simulate(sorted_matching(), inst)
            assert sim.violations.perfect, (n, trial)
            assert sim.bits_read == sim.bits_written == 3 * n, (n, trial)
    _finish("03 x-sorted optimality/3n bits", t0, 5.0, f"({10 * PER_N_TRIALS} runs)")


def test_04_bnm_lower_bound_strategy_cover():
    t0 = time.perf_counter()
    assert min_strategy_cover(list(bnm_family(2))) == catalan(2) == 2
    cover3 = min_strategy_cover(list(bnm_family(3)))
    assert cover3 == catalan(3) == 5
    assert cover3 < math.factorial(3), "the factorial count is refuted at n=3"
    pair = [
        bnm_red_instance((2, 3, 1), allow_any=True),
        bnm_red_instance((2, 1, 3), allow_any=True),
    ]
    assert min_strategy_cover(pair) == 1
    _finish("04 strategy cover = catalan", t0, 60.0, "(n=2: 2, n=3: 5 < 3!, pair: 1)")


def test_05_red_prefixes_agree_through_first_difference():
    t0 = time.perf_counter()
    pairs = 0
    for n in range(2, 6):
        fam = [(tuple(p), bnm_red_instance(p)) for p in enumerate_231_avoiding(n)]
        for (s1, a1), (s2, a2) in combinations(fam, 2):
            i = next(t for t in range(n) if s1[t] != s2[t])
            r1 = [p.angle for p in reds(a1.instance)]
            r2 = [p.angle for p in reds(a2.instance)]
            assert r1[: i + 1] == r2[: i + 1], (s1, s2)
            pairs += 1
    _finish("05 shared red prefixes", t0, 30.0, f"({pairs} pairs)")


def test_06_catalan_bijections_and_roundtrips():
    t0 = time.perf_counter()
    for n in range(11):
        c = catalan(n)
        assert sum(1 for _ in enumerate_trees(n)) == c
        assert sum(1 for _ in enumerate_dyck(n)) == c
        if n >= 1:
            assert sum(1 for _ in enumerate_231_avoiding(n)) == c
    for n in range(9):
        for t in enumerate_trees(n):
            assert tree_unrank(n, tree_rank(t)) == t
            w = tree_to_dyck(t)
            assert dyck_unrank(n, dyck_rank(w)) == w
            assert dyck_to_tree(w) == t
            assert perm_to_tree(tree_to_perm(t)) == t
    _finish("06 catalan structures", t0, 30.0, "(counts n<=10, roundtrips n<=8)")


def test_07_interval_family_structure():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        members = list(mnm_family(k))
        assert len(members) == mnm_family_size(k)
        fingerprints = {parity_fingerprint(ai) for ai in members}
        assert len(fingerprints) == len(members), f"fingerprint not injective at k={k}"
    assert mnm_family_size(2) == 99
    for k in (1, 2):
        members = list(mnm_family(k))
        for ai in members:
            assert (
                next(offline.enumerate_perfect_noncrossing(ai.instance), None)
                is not None
            ), ai.meta
        for ai in members:
            for prior in noncrossing_priors(ai):
                res = consistent(prior, ai)
                if res.completable:
                    assert res.size_at_least_k, (ai.meta, sorted(prior.edges))
                    assert res.edges_opposite_parity, (ai.meta, sorted(prior.edges))
    _finish("07 interval family", t0, 120.0, "(k<=3 injective, k<=2 priors audited)")


def test_08_markov_coupling_trace_invariants():
    t0 = time.perf_counter()
    summary = campaigns.check_coupling(n=200, trials=10_000, seed=0, tolerance=0.02)
    rate = summary["params"]["trials"] / (time.perf_counter() - t0)
    assert summary["ok"], summary
    mean = next(
        r["measured"] for r in summary["results"] if r["name"].startswith("mean of Y")
    )
    _finish("08 markov coupling", t0, 60.0, f"(Y-mean {mean}, {rate:.0f} trials/s)")

    # rate-function goldens, both published constants; frozen on first
    # computation and re-derived here from the bare formula
    golden = {
        (0.95, "abstract"): 0.04579707583919971,
        (0.95, "proof"): 0.0029574666970577394,
        (0.97, "abstract"): 0.08647977002315847,
        (0.97, "proof"): 0.03452210663454424,
        (0.99, "abstract"): 0.15071938867158943,
        (0.99, "proof"): 0.11629269917524424,
    }
    for (alpha, variant), expected in golden.items():
        got = approx_lb_rate(alpha, variant)
        assert math.isclose(got, expected, rel_tol=1e-9), (alpha, variant, got)
        c = 2 if variant == "abstract" else 4
        x = c * (1 - alpha) / alpha
        direct = (alpha / 2) * (
            x * math.log2(x / 0.25) + (1 - x) * math.log2((1 - x) / 0.75)
        )
        assert math.isclose(got, direct, rel_tol=1e-12)
    print("[acceptance] 08b rate-function goldens: PASS (6 values, both constants)")


def test_09_offline_oracles_agree():
    t0 = time.perf_counter()
    # 200 brute-force minimum-length runs across geometries, 2n <= 12
    rng_sizes = [1, 2, 3, 4, 5, 6]
    runs = 0
    trial = 0
    while runs < 200:
        n = rng_sizes[trial % len(rng_sizes)]
        which = trial % 3
        if which == 0:
            inst = generators.random_circle_instance(n, MNM, seed=9000 + trial)
        elif which == 1:
            inst = generators.random_general_instance(n, seed=9000 + trial)
        else:
            inst = generators.random_convex_instance(n, MNM, seed=9000 + trial)
        m = offline.min_length_pm(inst)
        report = offline.validate_matching(inst, m)
        assert report.valid and report.perfect and not report.crossings, (trial, n)
        runs += 1
        trial += 1

    # tree transform round trip: the player's replay IS the offline matching
    for trial in range(500):
        n = 1 + trial % 10
        inst = generators.random_convex_instance(n, BNM, seed=9500 + trial)
        m = offline.convex_noncrossing_pm(inst)
        sim = simulate(bt_matching(), inst)
        assert sim.matching == m, (trial, n)
    _finish("09 offline oracle agreement", t0, 60.0, "(200 brute + 500 replays)")
