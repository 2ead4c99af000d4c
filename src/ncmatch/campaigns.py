"""Named verification campaigns behind `ncmatch verify` and the
acceptance suite.  Each campaign returns a plain dict with one entry per
sub-check so callers can render or assert uniformly.
"""
from __future__ import annotations

import math
import os

from . import adversaries, codecs, engine
from .adversaries import (
    AnnotatedInstance,
    bnm_family,
    bnm_red_instance,
    coupling_diagnostics,
    markov_instance,
    min_strategy_cover,
    mnm_family,
    mnm_family_size,
    parity_fingerprint,
)
from .codecs import catalan, enumerate_231_avoiding, enumerate_dyck, enumerate_trees
from .engine import greedy, simulate


def _entry(name: str, expected, measured, ok: bool | None = None) -> dict:
    if ok is None:
        ok = expected == measured
    return {"name": name, "expected": expected, "measured": measured, "ok": bool(ok)}


def _finish(check: str, params: dict, results: list[dict]) -> dict:
    return {
        "check": check,
        "params": params,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


def check_bnm_lb(n: int = 3) -> dict:
    """Strategy cover of the full 231-avoiding family equals catalan(n), for
    n up to the enumeration cap of 10 (about 9 s there on a 2-core box)."""
    cover = min_strategy_cover(bnm_family(n))
    results = [_entry(f"cover(all avoiding sigma, n={n})", catalan(n), cover)]
    if n >= 3:
        results.append(
            _entry(
                "cover below factorial count",
                True,
                cover < math.factorial(n),
                cover < math.factorial(n),
            )
        )
        pair = [
            bnm_red_instance((2, 3, 1), allow_any=True),
            bnm_red_instance((2, 1, 3), allow_any=True),
        ]
        results.append(_entry("cover of the {231, 213} pair", 1, min_strategy_cover(pair)))
    return _finish("bnm-lb", {"n": n}, results)


def check_mnm_lb(k: int = 2) -> dict:
    """Family size matches the binomial sum and the parity fingerprint is
    injective; at k <= 2, every member has a completable prior and every
    consistent prior (by the face rule of ``adversaries.consistent``)
    satisfies the two necessary conditions.  Every member has the same 4k
    fixed points, so the priors of the first serve all."""
    deep = k <= 2
    members = list(mnm_family(k))
    expected_size = mnm_family_size(k)
    results = [_entry(f"family size (k={k})", expected_size, len(members))]

    fingerprints = [parity_fingerprint(ai) for ai in members]
    results.append(
        _entry("fingerprint injective", len(members), len(set(fingerprints)))
    )
    results.append(
        _entry(
            "fingerprint covers 4k prefix bits",
            4 * k,
            len(fingerprints[0]),
        )
    )

    if deep:
        priors = list(adversaries.noncrossing_priors(members[0]))
        completable = 0
        bad_conditions = 0
        priors_checked = 0
        for ai in members:
            found = False
            for prior in priors:
                res = adversaries.consistent(prior, ai)
                if res.completable:
                    found = True
                    priors_checked += 1
                    if not (res.size_at_least_k and res.edges_opposite_parity):
                        bad_conditions += 1
            completable += found
        results.append(_entry("members with perfect completion", len(members), completable))
        results.append(
            _entry(
                f"consistent priors violating necessary conditions (of {priors_checked})",
                0,
                bad_conditions,
            )
        )
    return _finish("mnm-lb", {"k": k, "deep": deep}, results)


def check_catalan_bijections(n: int = 8) -> dict:
    """Tree, balanced-word and 231-avoiding counts, the trees that survive
    each round trip (rank, balanced word, permutation) and, for n >= 1, the
    distinct bt ranks over the 231-avoiding family all equal catalan(n)."""
    expected = catalan(n)
    # the capped enumeration first, so n past its cap fails before any work
    perms = sum(1 for _ in enumerate_231_avoiding(n))
    trees = list(enumerate_trees(n))
    dycks = sum(1 for _ in enumerate_dyck(n))
    rank_trips = sum(codecs.tree_unrank(n, codecs.tree_rank(t)) == t for t in trees)
    word_trips = sum(codecs.dyck_to_tree(codecs.tree_to_dyck(t)) == t for t in trees)
    perm_trips = sum(codecs.perm_to_tree(codecs.tree_to_perm(t)) == t for t in trees)
    results = [
        _entry("tree count", expected, len(trees)),
        _entry("balanced word count", expected, dycks),
        _entry("231-avoiding count", expected, perms),
        _entry("tree rank round trips", expected, rank_trips),
        _entry("tree-word round trips", expected, word_trips),
        _entry("tree-permutation round trips", expected, perm_trips),
    ]
    if n:  # the family's instances need at least one pair
        oracle = engine.bt_matching().oracle
        ranks = {
            codecs.read_ranked(codecs.AdviceTape(oracle(ai.instance)), expected)
            for ai in bnm_family(n)
        }
        results.append(_entry("distinct bt ranks over all avoiding sigma", expected, len(ranks)))
    return _finish("catalan-bijections", {"n": n}, results)


def _coupling_trial(args: tuple[int, int]) -> tuple[int, int, int, int, int, int]:
    """One seeded greedy trace; returns violation counts and Y statistics."""
    n, seed = args
    ai = markov_instance(n, seed)
    sim = simulate(greedy(), ai.instance)
    diag = coupling_diagnostics(ai, sim)

    bad_y_le_x = sum(1 for x, y in zip(diag.x, diag.y) if y > x)
    bad_sum = 1 if sum(diag.x) > diag.isolated_count else 0
    parent = (0,) + ai.parent
    f = ai.coins_f
    bad_rec = sum(
        1
        for i in range(2, 2 * n + 1)
        if parent[i] != 1 - parent[i - 1] * f[i]
    )
    y_even = diag.y[1::2]
    return bad_y_le_x, bad_sum, bad_rec, sum(y_even), len(y_even), diag.isolated_count


def check_coupling(
    n: int = 200,
    trials: int = 1000,
    seed: int = 0,
    tolerance: float = 0.02,
    workers: int | None = None,
) -> dict:
    """Trace invariants of the Markov adversary against the greedy player."""
    if workers is None:
        workers = int(os.environ.get("NCMATCH_WORKERS", "1"))
    args = [(n, seed + t) for t in range(trials)]
    chunk = 64  # trials per worker task
    processes = min(workers, -(-trials // chunk))  # no more than the chunks
    if processes > 1:
        from multiprocessing import Pool

        with Pool(processes) as pool:
            rows = pool.map(_coupling_trial, args, chunksize=chunk)
    else:
        rows = [_coupling_trial(a) for a in args]

    bad_y_le_x = sum(r[0] for r in rows)
    bad_sum = sum(r[1] for r in rows)
    bad_rec = sum(r[2] for r in rows)
    y_sum = sum(r[3] for r in rows)
    y_count = sum(r[4] for r in rows)
    if not y_count:
        raise ValueError(f"no Y coin at an even match index (n={n}, trials={trials})")
    mean = y_sum / y_count
    results = [
        _entry("steps violating Y <= X", 0, bad_y_le_x),
        _entry("traces violating sum(X) <= unmatched", 0, bad_sum),
        _entry("points violating the parent recurrence", 0, bad_rec),
        _entry(
            f"mean of Y over even match indices in 0.25 +/- {tolerance}",
            0.25,
            round(mean, 5),
            abs(mean - 0.25) <= tolerance,
        ),
    ]
    return _finish(
        "coupling",
        {"n": n, "trials": trials, "seed": seed, "workers": workers},
        results,
    )


RATE_ALPHAS = (0.95, 0.97, 0.99)


def check_rate_table(alphas: tuple[float, ...] = RATE_ALPHAS) -> dict:
    """Evaluate the approximation rate bound for both published constants."""
    results = []
    for alpha in alphas:
        proof = adversaries.approx_lb_rate(alpha, "proof")
        abstract = adversaries.approx_lb_rate(alpha, "abstract")
        results.append(
            _entry(
                f"alpha={alpha}: abstract >= proof > 0",
                True,
                abstract >= proof > 0,
                abstract >= proof > 0,
            )
        )
        results[-1]["values"] = {"abstract": abstract, "proof": proof}
    return _finish("rate-table", {"alphas": list(alphas)}, results)


CHECKS = {
    "bnm-lb": check_bnm_lb,
    "mnm-lb": check_mnm_lb,
    "catalan-bijections": check_catalan_bijections,
    "coupling": check_coupling,
    "rate-table": check_rate_table,
}
