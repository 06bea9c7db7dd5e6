"""Measure the benchmark's baseline: every workload end to end and traced.

Run from the checkout root::

    python3 -m perfbench.baseline --seeds 1-10 --out perfbench/baseline.json

For each workload it runs ``perfbench/run.py --trace 0`` once per seed and
records each end-to-end metric's median, quartiles and spread (quartile
distance over median), then one ``--trace 1`` run at the first seed.  The
traced layer ranking is checked against the profile the workloads were
designed from; a mismatch is recorded, not corrected.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench.shims import LAYERS as SHIM_LAYERS

#: the profile the workloads were designed from, per workload: the claim,
#: the check on the traced metrics, and the inclusive costs whose shares
#: of the traced pass are recorded next to it
PROFILE = {
    "sweep-cold": (
        "core has the largest self time (CFM about 57% of the sweep, "
        "Needleman-Wunsch about 12%, -O3 about 15%, simulation about 15%)",
        lambda m: _top(m, 1) == ["core"],
        ("core.cfm_s", "core.nw_s", "transforms.o3_s", "simt.launch_s")),
    "sweep-warm": (
        "simulation (about 50%) and cache lookup (about 30%, two thirds "
        "of it parse_module) are the two largest costs",
        lambda m: set(_largest(m, ["simt.launch_s", "compile_cache.lookup_s",
                                   "kernels.build_s", "kernels.verify_s",
                                   "ir.print_s", "scheduler.dispatch_s"], 2))
        == {"simt.launch_s", "compile_cache.lookup_s"},
        ("simt.launch_s", "compile_cache.lookup_s", "ir.parse_s")),
    "fuzz-validate": (
        "per-pass lint is the largest cost (about 60%), mostly interval "
        "range analysis; per-pass IR verification about 15%, CFM about 6%",
        lambda m: _largest(m, ["lint.s", "ir.verify_s", "simt.launch_s",
                               "core.cfm_s", "difftest.generate_s"], 1)
        == ["lint.s"]
        and _largest(m, ["analysis.ranges_s", "analysis.divergence_s",
                         "analysis.domtree_s", "analysis.postdomtree_s"], 1)
        == ["analysis.ranges_s"],
        ("lint.s", "analysis.ranges_s", "ir.verify_s", "core.cfm_s")),
}

LAYERS = SHIM_LAYERS + ("unattributed",)


def _top(metrics, n):
    return sorted(LAYERS, key=lambda l: -metrics[f"self.{l}_s"])[:n]


def _largest(metrics, names, n):
    return sorted(names, key=lambda name: -metrics[name])[:n]


def profile(workload: str, traced: dict) -> dict:
    """The design-profile check of one traced run, with observed shares
    of the traced pass (every layer's self time except import)."""
    claim, check, costs = PROFILE[workload]
    total = sum(traced[f"self.{layer}_s"] for layer in LAYERS
                if layer != "import")
    return {"expected": claim, "matches": check(traced),
            "shares": {name: traced[name] / total for name in costs}}


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{completed.returncode}\n{completed.stdout}")
    result = json.loads(completed.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def parse_seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default="sweep-cold,sweep-warm,fuzz-validate")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    out = {"machine": f"{platform.machine()}, "
                      f"{len(os.sched_getaffinity(0))} cores, "
                      f"Python {platform.python_version()}",
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, 0, seconds))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        end_to_end = {name: summarize([r[name] for r in runs])
                      for name in runs[0]}
        traced = run(workload, seeds[0], 1, seconds)
        checked = profile(workload, traced)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "traced": traced,
            "layer_ranking": _top(traced, len(LAYERS)),
            "profile": checked,
        }
        for name, summary in end_to_end.items():
            print(f"  {name:16s} median {summary['median']:.5g} "
                  f"spread {summary['spread']:.4f}")
        print(f"  profile: {checked['expected']}: "
              f"{'matches' if checked['matches'] else 'MISMATCH'} "
              f"{checked['shares']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
