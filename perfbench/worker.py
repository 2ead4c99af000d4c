"""One benchmark process, started by ``run.py`` in a fresh interpreter.

Modes:
  setup    set up the workload (imports included), run one warm-up
           operation, and report the time taken (``setup_s``);
  measure  the same set-up, then a closed loop of whole rounds of
           operations for ``--seconds``, untraced;
  trace    the same set-up, one round with predicate call counters, then
           the closed loop with spans around each layer.

Every timing is scaled for the box's drifting speed (see ``REF_CAL_S``).
Prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import time


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds a fixed pure-Python integer loop takes right now: the median
    of three runs, so that one preemption does not skew an operation."""
    return sorted(_loop_seconds() for _ in range(3))[1]


CAL_AT_START = calibrate()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# The speed that a shared box gives one process drifts over tens of
# seconds: averaged over 2 s windows, the loop in calibrate() took from 0.73
# to 1.17 times its median time on the reference box (2 cores, Python
# 3.11.7) with nothing else of ours running.  So each
# timing is scaled by REF_CAL_S, the loop's median time on that box, over
# the loop's time measured right before and right after it: figures read
# as wall time at the reference box's median speed.
REF_CAL_S = 0.0117

# layers whose self time the traced run reports, as module.function
LAYERS = (
    "adversaries.markov_instance",
    "adversaries.coupling_diagnostics",
    "campaigns.check_coupling",
    "generators.random_circle_instance",
    "generators.random_general_instance",
    "geometry.validate_instance",
    "offline.convex_noncrossing_pm",
    "offline.matching_to_bt",
    "codecs.tree_rank",
    "codecs.tree_unrank",
    "codecs.dyck_rank",
    "codecs.dyck_unrank",
    "engine.oracle",
    "engine.simulate",
    "offline.validate_matching",
    "serial.load_instance",
    "cli.run",
)
# predicates whose calls the traced run counts over its first round
PREDICATES = (
    "geometry.orientation",
    "geometry.half_plane_side",
    "geometry.segments_cross",
)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ncmatch

    if Path(ncmatch.__file__).resolve().parent != src / "ncmatch":
        raise SystemExit(f"ncmatch imported from {ncmatch.__file__}, not from {src}")


def _attempt(wl, k, tracer=None):
    """Run operation k; returns (output or None if it failed, seconds)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(k)
        else:
            tracer.op, tracer.active = k, True
            try:
                with tracer.span("op"):
                    out = wl.op(k)
            finally:
                tracer.active = False
    except Exception:  # the run goes on; the failure is counted
        print(f"operation {k} failed:\n{traceback.format_exc()}", file=sys.stderr)
        out = None
    return out, time.perf_counter() - t0


def _wrong(wl, k, out) -> int:
    """Check operation k's output: 0 if correct, 1 (and a report) if not."""
    try:
        wl.check(k, out)
    except CheckFailed as exc:
        print(f"operation {k}: wrong output: {exc}", file=sys.stderr)
        return 1
    return 0


def closed_loop(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds of operations, each started when the last one ended,
    until ``seconds`` have passed.  Outputs are checked, and the
    calibration loop run, between operations, outside the timed region;
    each operation is scaled by the loop times just before and after it."""
    raw: list[float] = []
    scale: list[float] = []
    failed = incorrect = 0
    k = 0
    cal = calibrate()
    start = time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            k += 1
            out, dt = _attempt(wl, k, tracer)
            after = calibrate()
            raw.append(dt)
            scale.append(2 * REF_CAL_S / (cal + after))
            cal = after
            if out is None:
                failed += 1
            else:
                incorrect += _wrong(wl, k, out)
        if time.perf_counter() - start >= seconds:
            break
    scaled = [t * f for t, f in zip(raw, scale)]
    return {
        "attempted": k,
        "failed": failed,
        "incorrect": incorrect,
        "ops_per_s": (k - failed) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1000.0,
        "raw_ops_per_s": (k - failed) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1000.0,
        "scale": scale,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    _import_program()
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        warm_wrong = _wrong(wl, 0, wl.op(0))  # warm-up, untimed but counted in setup_s
        raw_setup = time.perf_counter() - START
        speed = (CAL_AT_START + calibrate()) / 2
        result = {"setup_s": raw_setup * REF_CAL_S / speed, "raw_setup_s": raw_setup}
        if args.mode == "measure":
            result.update(closed_loop(wl, args.seconds))
            result["incorrect"] += warm_wrong
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            del result["scale"]
        elif args.mode == "trace":
            counts: Counter = Counter()
            with spans.counting(PREDICATES, counts):
                for k in range(1, wl.round_size + 1):
                    _attempt(wl, k)
            tracer = spans.Tracer()
            with tracer.installed(LAYERS):
                result.update(closed_loop(wl, args.seconds, tracer))
            result["incorrect"] += warm_wrong
            self_s = tracer.self_seconds(dict(enumerate(result.pop("scale"), start=1)))
            per_op = {name: s / result["attempted"] for name, s in self_s.items()}
            result["layers"] = {
                **{f"{q}.self_s": per_op.get(q, 0.0) for q in LAYERS},
                **{f"{q}.calls": counts[q] for q in PREDICATES},
            }
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
