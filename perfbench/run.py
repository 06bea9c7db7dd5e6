"""The repo benchmark: one workload, end to end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads: ``sweep-cold``, ``sweep-warm``, ``fuzz-validate`` (see
``perfbench/README.md``).  The workload runs in one child process
(``perfbench/worker.py``), serially, with no worker pool.  With
``--trace 0`` two more children only set up, so ``setup_s`` is the median
of three set-ups; the last stdout line is the JSON result with every
end-to-end metric.  With ``--trace 1`` the child runs one untraced and
one traced pass and the result carries every per-layer metric.

The exit code is non-zero when any op failed or any check did not hold,
or when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: wall-clock budget of one benchmark run, children included
BUDGET_SECONDS = 170.0

UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "cfm_speedup_gm": "x",
    "melds": "count",
    "equivalent_frac": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "simt.sim_ips":
        return "1/s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    return "count"


def run_child(root: Path, argv, deadline: float) -> dict:
    """Run one worker process to completion; returns its JSON result
    plus ``spawned``, the ``CLOCK_MONOTONIC`` instant it was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *argv], cwd=root, env=env,
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv} exited {completed.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold", "sweep-warm", "fuzz-validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_SECONDS
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    base = root / ".perfbench"
    workdir = base / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        if not args.trace:
            for sample in range(SETUP_SAMPLES - 1):
                result = run_child(root, common + [
                    "--setup-only", "--workdir", str(workdir / f"setup-{sample}")],
                    deadline)
                setups.append(result["ready"] - result["spawned"])
        trace_out = base / f"trace-{args.workload}.json"
        result = run_child(root, common + [
            "--workdir", str(workdir / "run"), "--trace-out", str(trace_out)],
            deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["ready"] - result["spawned"])

    metrics = result["metrics"]
    if args.trace:
        report = {name: {"value": value, "unit": layer_unit(name)}
                  for name, value in metrics.items()}
    else:
        metrics["setup_s"] = statistics.median(setups)
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in UNITS.items()}
    for error in result["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
