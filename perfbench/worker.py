"""One workload in one process: set up, then measure or trace.

Run from the checkout root with ``PYTHONPATH=src:.``::

    python -m perfbench.worker --workload sweep-warm --seed 1 --seconds 20 \\
        --trace 0 --workdir .perfbench/w

It prints one JSON object as its last stdout line.  ``--setup-only``
stops after set-up and reports the ``CLOCK_MONOTONIC`` instant it was
ready, so the launcher (``perfbench/run.py``) can time process start to
first op.  ``--trace 0`` runs whole passes until ``--seconds`` have
elapsed; ``--trace 1`` runs one untraced pass, then one pass under the
layer shims, and reports the per-layer metrics and the overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

IMPORT_START = time.perf_counter()
import repro  # noqa: E402  (timed: the import layer)
IMPORT_SECONDS = time.perf_counter() - IMPORT_START

from perfbench import shims  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> dict:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    start = time.perf_counter()
    passes = [workload.run_pass()]
    # Resident memory grows with every sweep replay (the lowering memo
    # keeps each replayed function alive), so the high-water mark is
    # read at a fixed point: after set-up and the first timed pass.
    peak_rss_mb = _peak_rss_mb()
    while time.perf_counter() - start < seconds:
        passes.append(workload.run_pass())
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    melds = first.melds
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in passes for e in p.errors],
        "metrics": {
            "ops_per_s": statistics.median(p.ops / p.seconds for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "cfm_speedup_gm": (repro.geomean(first.speedups)
                               if first.speedups else 1.0),
            "melds": melds,
            "equivalent_frac": (first.equivalent / melds
                                if workload.name == "fuzz-validate" and melds
                                else 1.0),
        },
    }


def traced_pass(workload):
    """One untraced pass, then one pass under the layer shims.

    Returns ``(metrics, untraced, traced, recorder)``: the per-layer
    metrics of the traced pass (with the tracing overhead against the
    untraced one), both :class:`~perfbench.workloads.PassOutcome` s and
    the recorder holding the spans.
    """
    untraced = workload.run_pass()
    recorder = shims.Recorder()
    with shims.installed(recorder):
        traced = workload.run_pass(recorder)
    metrics = shims.layer_metrics(recorder.tracer.events, IMPORT_SECONDS)
    metrics["trace.overhead_frac"] = traced.seconds / untraced.seconds - 1.0
    return metrics, untraced, traced, recorder


def trace(workload, trace_path: Path) -> dict:
    """The ``--trace 1`` run: per-layer metrics, layer table, trace file."""
    metrics, untraced, traced, recorder = traced_pass(workload)
    errors = untraced.errors + traced.errors
    failed = untraced.failed + traced.failed
    if workload.name != "fuzz-validate":
        # compare() launches both arms with execute(check=True): two
        # reference checks per op, or an op went unchecked.
        if metrics["kernels.verify_calls"] != 2 * traced.ops:
            failed += 1
            errors.append(f"{metrics['kernels.verify_calls']} reference "
                          f"checks for {traced.ops} ops")
        if workload.warm and metrics["compile_cache.misses"]:
            failed += 1
            errors.append(f"{metrics['compile_cache.misses']} compile-cache "
                          f"misses on the warm traced pass")
    print(shims.format_self_times(metrics))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.tracer.write(str(trace_path))
    print(f"wrote {trace_path} ({len(recorder.tracer.events)} spans)")
    return {"attempted": untraced.ops + traced.ops, "failed": failed,
            "errors": errors, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path,
                        help="Chrome trace file of the traced pass")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.workdir)
    workload.prepare()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        result = {"ready": ready}
    elif args.trace:
        result = trace(workload, args.trace_out
                       or args.workdir / f"trace-{args.workload}.json")
    else:
        result = measure(workload, args.seconds)
    result["ready"] = ready
    result["import_s"] = IMPORT_SECONDS
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
