#!/usr/bin/env python3
"""Benchmark of shuffle_rdp: accountant queries, CLI eps-vs-T sweeps and
CLDP-SGD runs, each output checked against independent references.

    python3 perfbench/run.py --workload {query,sweep,sgd} --seed N --seconds S --trace {0,1}

Run it from the root of a source tree that has ``src/shuffle_rdp``; it
imports the package from there.  One process is one closed-loop caller: it
starts an operation only after the previous one returned.  A run does a
fixed amount of work, ``ops_per_second * S`` operations (at least 100),
on inputs made from the seed, then checks every output outside the timed
phase.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the library's public
functions are wrapped in spans and the metrics are per layer, and the spans
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fewest operations in a run: the 90th percentile then has ten beyond it.
MIN_OPS = 100
#: Checked operations whose failures are printed.
SHOW_FAILURES = 5


def timed_setup(workload, seed: int, tracer: Tracer | None = None):
    """Import shuffle_rdp and build the workload's context; return the time
    from just before the import to the end of set-up."""
    t0 = time.perf_counter()
    srdp = importlib.import_module("shuffle_rdp")
    if tracer is not None:
        install(tracer, srdp)
    ctx = workload.setup(srdp, seed)
    return time.perf_counter() - t0, srdp, ctx


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shuffle_rdp" / "__init__.py").is_file():
        print(f"error: no shuffle_rdp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    n_ops = max(MIN_OPS, math.ceil(workload.ops_per_second * args.seconds))
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = workload.inputs(args.seed, n_ops, run_dir)
        tracer = Tracer() if args.trace else None
        setup_s, srdp, ctx = timed_setup(workload, args.seed, tracer)

        # Timed phase: one closed-loop caller.
        latencies = np.empty(n_ops)
        outputs: list = []
        failed = 0
        start = time.perf_counter()
        for i, point in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.op(srdp, ctx, point)
                else:
                    out = tracer.operation(workload.op_span, workload.op, srdp, ctx, point)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
                failed += 1
                if failed <= SHOW_FAILURES:
                    print(f"operation {i} failed: {exc!r}", file=sys.stderr)
            latencies[i] = time.perf_counter() - t0
            outputs.append(out)
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer is not None:
            tracer.unwrap_all()
            tracer.save(OUT / f"trace-{workload.name}-seed{args.seed}.npz")

        # Output checks, outside the timed phase.
        bad = 0
        for i, (point, out) in enumerate(zip(inputs, outputs)):
            if isinstance(out, Exception):
                continue
            try:
                fails = workload.check(srdp, ctx, point, out)
            except Exception as exc:  # e.g. an output file the operation did not write
                fails = [f"check raised {exc!r}"]
            if fails:
                bad += 1
                if bad <= SHOW_FAILURES:
                    print(f"operation {i} {point}: " + "; ".join(fails), file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n_ops / wall, "1/s"),
            "op_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
            "op_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        rounds = workload.rounds(inputs) if hasattr(workload, "rounds") else 0
        metrics = layer_metrics(tracer, n_ops, rounds, wall)
    mode = "traced" if tracer else f"percentiles over {n_ops} samples"
    print(f"{workload.name} seed {args.seed}: {n_ops} operations in {wall:.2f} s, "
          f"{failed} failed, {bad} with failed checks; {mode}")
    print(json.dumps({
        "correct": bad == 0,
        "attempted": n_ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
