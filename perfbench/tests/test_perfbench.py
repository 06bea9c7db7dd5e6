"""Tests of the benchmark itself: shim coverage, determinism, attribution.

Run from the checkout root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q

They drive each workload's reduced op set (``small=True``: one block
size per sweep kernel, 20 fuzz seeds) in-process, through the same
passes and shims the benchmark uses.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro
from perfbench import run, shims, worker
from perfbench.workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parents[2]

#: per-layer metrics each workload must exercise: the layer -> end-to-end
#: metric -> workload table of README.md.  A shim that stops matching its
#: target after a rename reads 0 here.
MOVES = {
    "sweep-cold": [
        "core.cfm_s", "core.cfm_calls", "core.cfm_s.LUD", "core.cfm_s.BIT",
        "core.cfm_s.DCT", "core.cfm_s.MS", "core.cfm_s.PCM", "core.nw_s",
        "core.nw_calls", "core.nw_cells", "core.meld_accept_ratio",
        "transforms.o3_s", "transforms.o3_calls", "transforms.late_s",
        "transforms.pass_runs", "transforms.pass_changed_ratio",
        "analysis.domtree_s", "analysis.domtree_calls",
        "analysis.postdomtree_s", "analysis.postdomtree_calls",
        "analysis.divergence_s", "analysis.divergence_calls",
        "compile_cache.store_s", "simt.lower_s", "import.s",
    ],
    "sweep-warm": [
        "ir.parse_s", "ir.parse_calls", "ir.print_s",
        "compile_cache.lookup_s", "compile_cache.disk_read_s",
        "compile_cache.hit_ratio", "simt.materialize_s", "simt.launch_s",
        "simt.launches", "simt.instructions_issued", "simt.sim_ips",
        "kernels.build_s", "kernels.verify_s", "scheduler.dispatch_s",
        "import.s",
    ],
    "fuzz-validate": [
        "core.meld_accept_ratio", "transforms.o3_s", "transforms.o3_calls",
        "transforms.late_s", "transforms.pass_runs",
        "transforms.pass_changed_ratio",
        "analysis.domtree_s", "analysis.domtree_calls",
        "analysis.postdomtree_s", "analysis.postdomtree_calls",
        "analysis.divergence_s", "analysis.divergence_calls",
        "analysis.ranges_s", "analysis.ranges_calls", "analysis.validate_s",
        "lint.s", "lint.calls", "ir.verify_s", "ir.verify_calls",
        "difftest.generate_s", "import.s",
    ],
}

#: per-layer counts that must repeat exactly from run to run
EXACT = ("core.nw_cells", "analysis.domtree_calls",
         "analysis.postdomtree_calls", "analysis.divergence_calls",
         "analysis.ranges_calls", "ir.parse_calls", "ir.verify_calls",
         "simt.instructions_issued")


def _traced_run(name: str, workdir: Path):
    workload = make_workload(name, 1, workdir, small=True)
    workload.prepare()
    metrics, untraced, traced, _ = worker.traced_pass(workload)
    return metrics, untraced, traced


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two independent traced runs of every workload."""
    out = {}
    for name in WORKLOADS:
        out[name] = [_traced_run(name, tmp_path_factory.mktemp(name))
                     for _ in range(2)]
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_listed_layer_metric_moves(runs, name):
    for metrics, untraced, traced in runs[name]:
        assert untraced.failed == 0 and traced.failed == 0, \
            untraced.errors + traced.errors
        zero = [m for m in MOVES[name] if not metrics[m] > 0]
        assert not zero, f"{name}: layer metrics read 0: {zero}"


def test_warm_replay_does_no_compile_work(runs):
    for metrics, _, traced in runs["sweep-warm"]:
        assert traced.cache_misses == 0
        assert metrics["compile_cache.misses"] == 0
        assert metrics["core.cfm_calls"] == 0
        assert metrics["transforms.o3_calls"] == 0
        assert metrics["kernels.verify_calls"] == 2 * traced.ops


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counts_repeat(runs, name):
    (first, _, pass1), (second, _, pass2) = runs[name]
    for metric in EXACT:
        assert first[metric] == second[metric], metric
    assert (pass1.melds, pass1.equivalent, pass1.speedups) == \
        (pass2.melds, pass2.equivalent, pass2.speedups)
    assert pass1.melds > 0


def test_metric_names_match_benchmark_json(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = runs["sweep-cold"][0][0]
    assert set(per_layer) == set(metrics)
    assert all(run.layer_unit(name) == unit
               for name, unit in per_layer.items())


def test_self_times_subtract_children():
    def span(name, sid, parent, ts, dur):
        return {"name": name, "ph": "X", "cat": name.split(".")[0],
                "ts": ts, "dur": dur,
                "args": {"id": sid, "parent": parent, "op": 1}}

    events = [span("core.nw", 3, 2, 20, 30), span("ir.print", 4, 2, 60, 10),
              span("core.cfm", 2, 1, 10, 80), span("op", 1, 0, 0, 100)]
    own = shims.self_times(events)
    assert own == {3: 30e-6, 4: 10e-6, 2: 40e-6, 1: 20e-6}
    metrics = shims.layer_metrics(events)
    assert metrics["self.core_s"] == pytest.approx(70e-6)
    assert metrics["self.ir_s"] == pytest.approx(10e-6)
    assert metrics["self.unattributed_s"] == pytest.approx(20e-6)
    assert metrics["core.cfm_s"] == pytest.approx(80e-6)


DELAY = 0.02


def test_delay_in_one_layer_shows_only_there(tmp_path):
    """A fixed delay injected into ``parse_module`` lands in the ``ir``
    layer's self time and in sweep-warm throughput, nowhere else."""
    base, base_pass, _ = _traced_run("sweep-warm", tmp_path / "base")
    original = repro.ir.parser.parse_module

    def delayed(*args, **kwargs):
        time.sleep(DELAY)
        return original(*args, **kwargs)

    undo = shims.rebind(original, delayed)
    try:
        slow, slow_pass, _ = _traced_run("sweep-warm", tmp_path / "slow")
    finally:
        for namespace, key, value in undo:
            namespace[key] = value
    assert slow["ir.parse_calls"] == base["ir.parse_calls"] > 0
    injected = DELAY * slow["ir.parse_calls"]
    assert slow["self.ir_s"] - base["self.ir_s"] >= 0.9 * injected
    for layer in shims.LAYERS + ("unattributed",):
        if layer == "ir":
            continue
        grew = slow[f"self.{layer}_s"] - base[f"self.{layer}_s"]
        assert grew < 0.25 * injected, (layer, grew, injected)
    base_ops = base_pass.ops / base_pass.seconds
    slow_ops = slow_pass.ops / slow_pass.seconds
    assert slow_pass.seconds - base_pass.seconds >= 0.5 * injected
    assert slow_ops < base_ops
