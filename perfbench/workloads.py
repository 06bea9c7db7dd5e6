"""The benchmark's three workloads and the checks run on every op.

* ``sweep-cold`` — every Fig. 7 and Fig. 8 (kernel, block size)
  configuration through ``repro.run_sweep`` with an empty disk compile
  cache for each pass: compile-bound (CFM, ``-O3``, lowering, cache
  writes).
* ``sweep-warm`` — the same configurations replayed from a disk cache
  that setup fills: cache reads, IR parsing and simulation; CFM and
  ``-O3`` must do no work (zero cache misses, checked per op).
* ``fuzz-validate`` — ``repro.difftest.run_oracle(validate=True)`` over
  consecutive generator seeds: many small random kernels, verified and
  linted after every pass, every meld symbolically validated.

A pass is a fixed set of ops derived from the workload seed, so counts
(melds, calls, cells) repeat exactly from pass to pass and run to run.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
import repro.difftest
import repro.evaluation
from repro.evaluation.experiments import (
    DEFAULT_SEED,
    REAL_BLOCK_SIZES,
    SYNTHETIC_BLOCK_SIZES,
)
from repro.evaluation.parallel import SweepError

#: the checkout root (the benchmark runs from it)
ROOT = Path(__file__).resolve().parent.parent

#: generator seeds per ``fuzz-validate`` pass.  Kernel cost varies a lot
#: from seed to seed; 150 keeps the seed-to-seed spread of throughput and
#: meld count below 10% (see README.md).
FUZZ_BATCH = 150

#: at most this many failure messages are kept per pass
MAX_ERRORS = 5


@dataclass
class PassOutcome:
    """What one pass over a workload's ops did, and whether it was right."""

    seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    melds: int = 0
    #: melds the symbolic validator proved EQUIVALENT (fuzz-validate)
    equivalent: int = 0
    #: per-configuration CFM-over-O3 simulated-cycle speedups (sweeps)
    speedups: List[float] = field(default_factory=list)
    cache_misses: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# sweeps


#: one figure row, compared exactly: (kernel, block, baseline cycles,
#: CFM cycles, melds, speedup)
Row = Tuple[str, int, int, int, int, float]


def sweep_configs() -> Tuple[Dict[str, object], Dict[str, List[int]]]:
    """The 34 Fig. 7 + Fig. 8 configurations as ``run_sweep`` arguments.

    Builders are looked up at call time, so layer shims wrapping the
    builder registries see them.
    """
    builders = dict(repro.SYNTHETIC_BUILDERS)
    builders.update(repro.REAL_WORLD_BUILDERS)
    sizes = {name: list(SYNTHETIC_BLOCK_SIZES)
             for name in repro.SYNTHETIC_BUILDERS}
    sizes.update({name: list(REAL_BLOCK_SIZES[name])
                  for name in repro.REAL_WORLD_BUILDERS})
    return builders, sizes


def committed_rows() -> Tuple[Dict[Tuple[str, int], int],
                              Dict[Tuple[str, int], Tuple[int, int, float]]]:
    """Reference rows of the committed report.

    Returns ``(melds, measured)``: melds per configuration from the
    Figure 7/8 tables of ``results/report.txt`` (compile-only, so the
    same at every seed) and ``(baseline cycles, CFM cycles, speedup)``
    from ``results/data.json`` (measured at the default input seed).
    """
    melds: Dict[Tuple[str, int], int] = {}
    row = re.compile(r"^(\S+?)\+?\s+(\d+)\s+[\d.]+\s+\d+\s+\d+\s+(\d+)\s*$")
    section = False
    for line in (ROOT / "results" / "report.txt").read_text().splitlines():
        if line.startswith(("Figure 7:", "Figure 8:")):
            section = True
        elif section and line.startswith("GM ="):
            section = False
        elif section:
            match = row.match(line)
            if match:
                melds[(match.group(1), int(match.group(2)))] = \
                    int(match.group(3))
    data = json.loads((ROOT / "results" / "data.json").read_text())
    measured = {
        (r["kernel"], r["block"]): (r["baseline"]["cycles"],
                                    r["cfm"]["cycles"], r["speedup"])
        for figure in ("figure7", "figure8") for r in data[figure]["rows"]}
    return melds, measured


class SweepWorkload:
    """``sweep-cold`` / ``sweep-warm``: Fig. 7 + Fig. 8 through run_sweep.

    ``kernels`` narrows the sweep (tests use it to stay small); the
    benchmark always runs every configuration.
    """

    def __init__(self, name: str, seed: int, workdir: Path,
                 kernels: Optional[Dict[str, List[int]]] = None) -> None:
        self.name = name
        self.warm = name == "sweep-warm"
        self.seed = seed
        self.workdir = Path(workdir)
        self.kernels = kernels
        self._passes = 0
        self.melds_ref, self.measured_ref = committed_rows()
        #: rows every later pass must reproduce exactly
        self.reference: Optional[Dict[Tuple[str, int], Row]] = None

    def _configs(self):
        builders, sizes = sweep_configs()
        if self.kernels is not None:
            builders = {k: builders[k] for k in self.kernels}
            sizes = dict(self.kernels)
        return builders, sizes

    def _fresh_cache(self) -> Path:
        self._passes += 1
        path = self.workdir / f"cache-{self._passes}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def prepare(self) -> None:
        """Warm: fill the disk cache with one cold pass (its rows become
        the reference every replay must match).  Cold: nothing."""
        if self.warm:
            self.cache_dir = self._fresh_cache()
            outcome = self._sweep(self.cache_dir, None)
            if outcome.failed:
                raise RuntimeError(f"cache fill failed: {outcome.errors}")

    def run_pass(self, recorder=None) -> PassOutcome:
        if self.warm:
            return self._sweep(self.cache_dir, recorder)
        cache_dir = self._fresh_cache()
        try:
            return self._sweep(cache_dir, recorder)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _sweep(self, cache_dir: Path, recorder) -> PassOutcome:
        builders, sizes = self._configs()
        results = []
        start = time.perf_counter()
        try:
            repro.evaluation.run_sweep(
                builders, sizes, seed=self.seed, workers=1,
                cache_dir=str(cache_dir),
                progress=lambda done, total, result: results.append(result))
        except SweepError:
            pass  # every failed op is in ``results`` and is counted below
        outcome = PassOutcome(seconds=time.perf_counter() - start)
        rows = {}
        for result in results:
            outcome.ops += 1
            label = f"{result.kernel}-{result.block_size}"
            if not result.ok:
                outcome.fail(f"{label}: {result.error}")
                continue
            comparison = result.comparison
            row: Row = (result.kernel, result.block_size,
                        comparison.baseline.cycles, comparison.melded.cycles,
                        comparison.melds, comparison.speedup)
            rows[row[:2]] = row
            outcome.melds += comparison.melds
            outcome.speedups.append(comparison.speedup)
            outcome.cache_misses += result.compile_cache_misses
            problem = self._check_row(row, result.compile_cache_misses)
            if problem:
                outcome.fail(f"{label}: {problem}")
        if self.reference is None:
            self.reference = rows
        return outcome

    def _check_row(self, row: Row, misses: int) -> Optional[str]:
        key = row[:2]
        if self.melds_ref.get(key) != row[4]:
            return f"{row[4]} melds, results/report.txt has " \
                   f"{self.melds_ref.get(key)}"
        if self.seed == DEFAULT_SEED and \
                self.measured_ref.get(key) != (row[2], row[3], row[5]):
            return f"cycles/speedup {row[2:4] + row[5:]} differ from " \
                   f"results/data.json {self.measured_ref.get(key)}"
        if self.reference is not None and self.reference.get(key) != row:
            return f"row {row} differs from the first pass's " \
                   f"{self.reference.get(key)}"
        if self.warm and self.reference is not None and misses:
            return f"{misses} compile-cache misses on a warm replay"
        return None


# ---------------------------------------------------------------------------
# fuzzing


class FuzzWorkload:
    """``fuzz-validate``: the six-way oracle over consecutive seeds."""

    name = "fuzz-validate"

    def __init__(self, seed: int, batch: int = FUZZ_BATCH) -> None:
        self.seed = seed
        self.batch = batch
        #: generator seed -> (melds, EQUIVALENT verdicts) of the first pass
        self.reference: Optional[Dict[int, Tuple[int, int]]] = None

    def prepare(self) -> None:
        pass

    def run_pass(self, recorder=None) -> PassOutcome:
        outcome = PassOutcome()
        seen: Dict[int, Tuple[int, int]] = {}
        start = time.perf_counter()
        for seed in range(self.seed, self.seed + self.batch):
            with recorder.op(seed=seed) if recorder else nullcontext():
                spec = repro.difftest.generate_spec(seed)
                verdict = repro.difftest.run_oracle(spec, validate=True)
            outcome.ops += 1
            cfm = verdict.arms.get("o3-cfm")
            melded = [d for d in (cfm.decisions if cfm else [])
                      if d.action == "melded"]
            equivalent = sum(1 for d in melded
                             if d.validation == "EQUIVALENT")
            seen[seed] = (len(melded), equivalent)
            outcome.melds += len(melded)
            outcome.equivalent += equivalent
            if not verdict.ok:
                outcome.fail(f"seed {seed}: {verdict.failures[0]}")
            elif equivalent != len(melded):
                outcome.fail(f"seed {seed}: {len(melded) - equivalent} "
                             f"meld(s) not proven EQUIVALENT")
            elif self.reference is not None and \
                    self.reference.get(seed) != seen[seed]:
                outcome.fail(f"seed {seed}: (melds, equivalent) "
                             f"{seen[seed]} != first pass's "
                             f"{self.reference.get(seed)}")
        outcome.seconds = time.perf_counter() - start
        if self.reference is None:
            self.reference = seen
        return outcome


WORKLOADS = ("sweep-cold", "sweep-warm", "fuzz-validate")


def make_workload(name: str, seed: int, workdir: Path, small: bool = False):
    """The named workload; ``small`` shrinks it for the benchmark's tests
    (one block size per kernel, 20 fuzz seeds)."""
    if name == "fuzz-validate":
        return FuzzWorkload(seed, batch=20 if small else FUZZ_BATCH)
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (known: {WORKLOADS})")
    kernels = None
    if small:
        _, sizes = sweep_configs()
        kernels = {kernel: blocks[:1] for kernel, blocks in sizes.items()}
    return SweepWorkload(name, seed, workdir, kernels=kernels)
