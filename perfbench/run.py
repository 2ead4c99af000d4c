"""Benchmark of the ncmatch online simulator: one workload, one seed.

    python3 perfbench/run.py --workload coupling --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``.  Every process is a fresh interpreter with one thread, so the
``lru_cache``s in ``ncmatch.codecs`` and the peak RSS start cold.

``--trace 0`` runs the workload's set-up ``SETUP_SAMPLES`` times (each in
its own process; the last one goes on to the timed closed loop) and prints
the end-to-end metrics.  ``--trace 1`` runs one traced process and prints
the per-layer metrics.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _worker(args, mode: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    # a fixed hash seed keeps set iteration, and so the call counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120
    )
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("coupling", "convex-advice", "plane", "files"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if selftest.main() != 0:
        raise SystemExit("the benchmark's checkers failed their self-test")
    if not (ROOT / "src" / "ncmatch" / "__init__.py").is_file():
        raise SystemExit(f"no ncmatch sources under {ROOT / 'src'}")

    if args.trace:
        r = _worker(args, "trace")
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith(".calls") else "s"}
            for name, value in r["layers"].items()
        }
        print(f"{args.workload} seed={args.seed} traced: {r['attempted']} ops, "
              f"ops_per_s={r['ops_per_s']:.4g} 1/s with tracing on "
              f"(unscaled {r['raw_ops_per_s']:.4g} 1/s)")
    else:
        setups = [_worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        r = _worker(args, "measure")
        setups.append(r["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": r["ops_per_s"],
            "op_p50_ms": r["op_p50_ms"],
            "peak_rss_mb": r["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        print(f"{args.workload} seed={args.seed}: {r['attempted']} ops, set-up samples "
              + ", ".join(f"{s:.3f}" for s in setups) + " s, "
              + ", ".join(f"{k}={v:.4g} {UNITS[k]}" for k, v in values.items())
              + f"; unscaled wall time: setup_s={r['raw_setup_s']:.4g} s, "
              f"ops_per_s={r['raw_ops_per_s']:.4g} 1/s, op_p50_ms={r['raw_op_p50_ms']:.4g} ms")
    print(json.dumps({
        "correct": r["incorrect"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
