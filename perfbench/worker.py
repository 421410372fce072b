"""One workload in a fresh process; started by run.py, not by hand.

Modes:
  setup    import the package and generate the inputs, report the time;
  measure  then run untraced passes for the given seconds;
  trace    then alternate untraced and traced passes.

The last line of stdout is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from layers import TARGETS, ResultCounter, layer_metrics
from spans import Tracer, install
from speed import SpeedProbe, timed
from workloads import WORKLOADS


def _import_package(src):
    sys.path.insert(0, src)
    import iharazeta

    where = os.path.dirname(os.path.abspath(iharazeta.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"imported iharazeta from {where}, expected it under {src}")


def measure(workload, inputs, reference, seconds, traced_too):
    """Run passes until the next one would overrun ``seconds`` (at least
    one pass, and with tracing at least one traced and one untraced),
    checking every pass outside its timed region. Pass times are scaled to
    the reference host speed (speed.py)."""
    tracer, results = Tracer(), ResultCounter()
    untraced, traced, walls, speeds, notes, absent = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if traced_too and len(traced) < len(untraced):
            restore, absent = install(tracer, TARGETS, results)
            raw, wall, scaled, speed = timed(workload.run_pass, inputs, tracer.exclude)
            restore()
            traced.append(scaled)
            speeds.append(speed)
        else:
            raw, wall, scaled, _ = timed(workload.run_pass, inputs)
            untraced.append(scaled)
        walls.append(wall)
        bad, why = workload.check(raw, reference)
        attempted += workload.items
        failed += bad
        notes.extend(why[: 10 - len(notes)])
        if len(walls) >= (2 if traced_too else 1) and (
            time.perf_counter() - start + statistics.median(walls) > seconds
        ):
            break
    out = {
        "untraced": untraced,
        "traced": traced,
        "wall": walls,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }
    if traced_too:
        out["layers"], out["absent"] = trace_report(
            tracer, results, len(traced), absent, statistics.fmean(speeds)
        )
        out["layers"]["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(untraced),
            "unit": "ratio",
        }
    return out


def trace_report(tracer, results, passes, absent_spans, speed):
    """Per-pass layer metrics, times scaled by the traced passes' mean
    host speed; ``trace.wall_s`` equals the sum of the ``*_s`` metrics."""
    traced_wall = tracer.root_time - tracer.excluded  # the sum of all self times
    metrics, absent = layer_metrics(tracer, results, passes, absent_spans, speed)
    metrics["trace.wall_s"] = {"value": traced_wall * speed / passes, "unit": "s"}
    return metrics, absent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--src", required=True, help="directory holding the iharazeta package")
    ap.add_argument("--workdir", required=True, help="scratch directory for input files")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    _import_package(os.path.abspath(args.src))
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        probe = SpeedProbe()
        for _ in range(6):
            probe.sample()
        print(json.dumps({"setup_s": setup_s, "scaled": setup_s * probe.speed()}))
        return 0

    reference = workload.reference(inputs)
    out = measure(workload, inputs, reference, args.seconds, args.mode == "trace")
    out["items"] = workload.items
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
