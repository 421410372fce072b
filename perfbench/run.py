"""Benchmark of the exact zeta pipeline: end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each run starts the workload in a fresh worker process (so set-up time and
peak memory do not depend on what ran before), then, for --trace 0, times
SETUP_RUNS more fresh processes that only import the package and build the
inputs. The last line of stdout is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). The line before it holds the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("sweep", "classes", "rank2", "large")
SETUP_RUNS = 5
TIME_LIMIT_S = 170  # the whole run, set-up processes included


class BenchError(Exception):
    pass


def run_worker(mode, args, src, workdir, deadline):
    cmd = [
        sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--src", src, "--workdir", workdir,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")  # same str hashing in every run
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker exceeded the {TIME_LIMIT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def end_to_end(result, setup_samples):
    """Times are medians of pass and set-up times scaled to the reference
    host speed (see speed.py)."""
    wall = statistics.median(result["untraced"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": result["items"] / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(s["scaled"] for s in setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "iharazeta", "__init__.py")):
        print("error: no src/iharazeta in the current directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        mode = "trace" if args.trace else "measure"
        result = run_worker(mode, args, src, workdir, deadline)
        setup_samples = []
        if not args.trace:
            # after the first worker, so byte-compiling is not timed
            setup_samples = [
                run_worker("setup", args, src, workdir, deadline)
                for _ in range(SETUP_RUNS)
            ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    metrics = result["layers"] if args.trace else end_to_end(result, setup_samples)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "fail_ratio": failed / attempted,
        "notes": result["notes"],
        "absent": result.get("absent", []),
        "wall_pass_s": result["wall"],
        "scaled_pass_s": result["untraced"],
        "scaled_traced_pass_s": result["traced"],
        "setup_s": setup_samples,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
