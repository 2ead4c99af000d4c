"""The benchmark's four workloads.

Each workload makes its inputs from the run seed alone, exposes one
operation ``op(k)`` (operation ``k`` of the run; ``k = 0`` is the untimed
warm-up) and checks each output with ``check(k, out)`` against the
independent computations in ``checks``.  A run attempts whole rounds of
``round_size`` operations.  Every call into ncmatch passes ``workers=1``
where the API takes it, so ``NCMATCH_WORKERS`` cannot change a run.
"""
from __future__ import annotations

import json
import traceback

from click.testing import CliRunner

from ncmatch import adversaries, campaigns, cli, engine, generators, serial

import checks
from checks import require


class OpFailed(Exception):
    """The program raised or exited non-zero on an operation."""


def sub_seed(seed: int, k: int) -> int:
    """Seed of operation k; distinct for every (seed, k) with 0 < k < 10**6.
    Operation 0, the warm-up, gets the same inputs whatever the run seed, so
    that set-up time does not vary with the seed's instances."""
    return seed * 1_000_000 + k if k else 0


def _circle_ranks(instance):
    return checks.circle_ranks(p.angle for p in instance.points)


class Workload:
    round_size = 1

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Make the inputs that outlive one operation (none by default)."""


class Coupling(Workload):
    """One ``verify coupling`` batch per operation: Markov instances at
    n = 200 against greedy, trial seeds consecutive from the batch seed."""

    name = "coupling"
    n = 200
    # ~88 even-index Y coins per trace: over 150 traces the standard error of
    # the Y mean is 0.0038, so 1/4 +/- 0.02 is five standard errors wide
    trials = 150
    tolerance = 0.02

    def batch_seed(self, k: int) -> int:
        return sub_seed(self.seed, k * self.trials)  # trial seeds never overlap

    def op(self, k: int):
        return campaigns.check_coupling(
            n=self.n, trials=self.trials, seed=self.batch_seed(k),
            tolerance=self.tolerance, workers=1,
        )

    def check(self, k: int, out) -> None:
        require(out["ok"], f"coupling campaign failed: {out['results']}")
        require(out["params"]["trials"] == self.trials, "wrong trial count")
        require(out["params"]["workers"] == 1, "the campaign did not run in one process")
        *invariants, y_mean = out["results"]
        for entry in invariants:
            require(entry["measured"] == 0, f"coupling invariant broken: {entry}")
        require(abs(y_mean["measured"] - 0.25) <= self.tolerance, f"Y mean {y_mean}")
        # the batch's first trace, replayed and audited apart from the program
        ai = adversaries.markov_instance(self.n, self.batch_seed(k))
        sim = engine.simulate(engine.greedy(), ai.instance)
        edges = list(sim.matching.edges)
        rank = _circle_ranks(ai.instance)
        checks.check_noncrossing_chords(rank, edges)
        checks.check_greedy_circle(rank, edges)


class ConvexAdvice(Workload):
    """``bt`` on a random circle BNM instance and ``asap`` on a random
    circle MNM instance, both at n = 200, per operation."""

    name = "convex-advice"
    n = 200

    def op(self, k: int):
        s = sub_seed(self.seed, k)
        bnm = generators.random_circle_instance(self.n, "BNM", s)
        bt = engine.simulate(engine.bt_matching(), bnm)
        mnm = generators.random_circle_instance(self.n, "MNM", s)
        asap = engine.simulate(engine.asap_matching(), mnm)
        return (bnm, bt), (mnm, asap)

    def check(self, k: int, out) -> None:
        bits = checks.catalan_bits(self.n)
        for instance, result in out:
            edges = list(result.matching.edges)
            checks.check_perfect(2 * self.n, edges)
            checks.check_noncrossing_chords(_circle_ranks(instance), edges)
            require(
                result.bits_written == result.bits_read == bits,
                f"advice {result.bits_written} written, {result.bits_read} read, "
                f"expected {bits}",
            )
        (bnm, bt), _ = out
        checks.check_red_blue([p.color for p in bnm.points], bt.matching.edges)


class Plane(Workload):
    """A general-position instance at n = 100, then ``sorted`` and
    ``greedy`` on it, per operation."""

    name = "plane"
    n = 100

    def op(self, k: int):
        instance = generators.random_general_instance(self.n, sub_seed(self.seed, k))
        return (
            instance,
            engine.simulate(engine.sorted_matching(), instance),
            engine.simulate(engine.greedy(), instance),
        )

    def check(self, k: int, out) -> None:
        instance, by_x, greedy = out
        pts = checks.integer_points((p.x, p.y) for p in instance.points)
        expected = checks.x_consecutive_pairs([p.x for p in instance.points])
        require(set(by_x.matching.edges) == expected, "sorted is not the x-consecutive pairing")
        bits = checks.sorted_bits(self.n)
        require(
            by_x.bits_written == by_x.bits_read == bits,
            f"sorted used {by_x.bits_written}/{by_x.bits_read} bits, expected {bits}",
        )
        require(greedy.bits_written == 0, "greedy wrote advice")
        checks.check_noncrossing_segments(pts, by_x.matching.edges)
        checks.check_noncrossing_segments(pts, greedy.matching.edges)


class Files(Workload):
    """``ncmatch run`` through the click entry point, in process, on
    instance files written at set-up."""

    name = "files"
    # (file, family, n): one large Markov file, one general-position file
    # (whose load is a cubic collinearity check), one circle file per kind
    files = (
        ("markov", "markov", 5000),
        ("general", "general", 50),
        ("circle-bnm", "BNM", 100),
        ("circle-mnm", "MNM", 100),
    )
    invocations = (
        ("greedy", "markov"),
        ("sorted", "general"),
        ("greedy", "general"),
        ("bt", "circle-bnm"),
        ("asap", "circle-mnm"),
    )
    round_size = len(invocations)

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        self.runner = CliRunner()

    def setup(self) -> None:
        for i, (name, family, n) in enumerate(self.files, start=1):
            s = sub_seed(self.seed, i)
            if family == "markov":
                payload = adversaries.markov_instance(n, s)
            elif family == "general":
                payload = generators.random_general_instance(n, s)
            else:
                payload = generators.random_circle_instance(n, family, s)
            serial.dump_instance(self.workdir / f"{name}.json", payload)

    def op(self, k: int):
        algorithm, name = self.invocations[k % self.round_size]
        res = self.runner.invoke(cli.main, ["run", algorithm, str(self.workdir / f"{name}.json")])
        if res.exit_code != 0:
            detail = "".join(traceback.format_exception(*res.exc_info)) if res.exc_info else ""
            raise OpFailed(
                f"ncmatch run {algorithm} {name}.json exited {res.exit_code}: "
                f"{res.stderr.strip()} {detail}"
            )
        return json.loads(res.stdout)

    def check(self, k: int, report) -> None:
        algorithm, name = self.invocations[k % self.round_size]
        n = next(size for file, _, size in self.files if file == name)
        require(report["algorithm"] == algorithm and report["n"] == n, f"wrong run: {report}")
        require(not any(report["violations"].values()), f"violations: {report}")
        require(report["matched"] + report["unmatched"] == 2 * n, f"point count: {report}")
        bits = {
            "bt": checks.catalan_bits(n),
            "asap": checks.catalan_bits(n),
            "sorted": checks.sorted_bits(n),
            "greedy": 0,
        }[algorithm]
        require(
            report["bits_written"] == report["bits_read"] == bits,
            f"{algorithm} used {report['bits_written']}/{report['bits_read']} bits, "
            f"expected {bits}",
        )
        if algorithm != "greedy":
            require(report["perfect"] and report["matched"] == 2 * n, f"not perfect: {report}")


WORKLOADS = {w.name: w for w in (Coupling, ConvexAdvice, Plane, Files)}
