"""Layer shims: time the calls into each ``repro`` layer's public functions.

:meth:`Recorder.install` wraps every function named in :data:`SHIMS` and
rebinds the wrapper wherever a caller looks the function up: the
defining module, every ``repro`` module that imported it by name,
module-level registries (``SYNTHETIC_BUILDERS`` and friends) and, for
methods, the class.  Nothing under ``src/`` changes;
:meth:`Recorder.uninstall` puts every original back.

Each wrapped call records one span in a private :class:`repro.obs.Tracer`
(kept in memory, exportable as a Chrome trace) with its id, its parent
span and the op it belongs to.  :func:`layer_metrics` turns the spans
into the per-layer metrics: per-function inclusive seconds and call
counts, counts read from arguments and results, and each layer's self
time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import importlib
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute).  The layer is the span name's first
#: component, named after the ``src/repro`` module; ``op`` spans are the
#: benchmark's unit of work.  ``Class.method`` patches the class;
#: ``REGISTRY[*]`` wraps every value of a module-level dict.
SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("op", "repro.evaluation.runner", "compare"),
    ("scheduler.dispatch", "repro.evaluation.experiments", "run_sweep"),
    ("core.cfm", "repro.core.pass_", "CFMPass.run"),
    ("core.nw", "repro.core.alignment", "needleman_wunsch"),
    ("transforms.pipeline", "repro.transforms.pass_manager",
     "PassPipeline.run"),
    ("transforms.pipeline", "repro.transforms.pass_manager",
     "PassPipeline.run_to_fixpoint"),
    ("transforms.pass", "repro.transforms.pass_manager", "CallablePass.run"),
    ("baselines.pass", "repro.baselines", "TailMergingPass.run"),
    ("baselines.pass", "repro.baselines", "BranchFusionPass.run"),
    ("analysis.domtree", "repro.analysis.dominators",
     "compute_dominator_tree"),
    ("analysis.postdomtree", "repro.analysis.dominators",
     "compute_postdominator_tree"),
    ("analysis.divergence", "repro.analysis.divergence",
     "compute_divergence"),
    ("analysis.ranges", "repro.analysis.ranges", "compute_ranges"),
    ("analysis.validate", "repro.analysis.validate", "RegionCapture.__init__"),
    ("analysis.validate", "repro.analysis.validate",
     "RegionCapture.compare_against_current"),
    ("lint.run", "repro.lint.engine", "run_lint"),
    ("ir.parse", "repro.ir.parser", "parse_module"),
    ("ir.print", "repro.ir.printer", "print_module"),
    ("ir.verify", "repro.ir.verifier", "verify_function"),
    ("compile_cache.lookup", "repro.compile_cache", "CompileCache.lookup"),
    ("compile_cache.disk_read", "repro.compile_cache",
     "DiskCompileCache.load"),
    ("compile_cache.store", "repro.compile_cache", "CompileCache.store"),
    ("simt.lower", "repro.simt.lowering", "get_program"),
    ("simt.lower", "repro.simt.lowering", "lower_symbolic"),
    ("simt.materialize", "repro.simt.lowering", "materialize_program"),
    ("simt.launch", "repro.simt.machine", "GPU.launch"),
    ("kernels.build", "repro.kernels", "SYNTHETIC_BUILDERS[*]"),
    ("kernels.build", "repro.kernels", "REAL_WORLD_BUILDERS[*]"),
    ("kernels.verify", "repro.kernels.common", "KernelCase.verify_outputs"),
    ("difftest.generate", "repro.difftest.generator", "generate_spec"),
    ("difftest.generate", "repro.difftest.generator", "build_kernel"),
)

#: every layer a self time is reported for, in report order
LAYERS = ("core", "transforms", "baselines", "analysis", "lint", "ir",
          "compile_cache", "simt", "kernels", "difftest", "scheduler",
          "import")

#: the Fig. 8 kernels whose CFM time is also reported one by one
REAL_WORLD_KERNELS = ("LUD", "BIT", "DCT", "MS", "PCM")


def _probe(name: str, args: tuple, result) -> Optional[dict]:
    """Span arguments read from one call's arguments and result."""
    if name == "core.nw":
        return {"cells": len(args[0]) * len(args[1])}
    if name == "core.cfm":
        stats = result.stats
        return {"melds": len(stats.melds),
                "regions": stats.regions_considered}
    if name == "transforms.pass":
        return {"pass": args[0].name, "changed": bool(result.changed)}
    if name == "compile_cache.lookup":
        return {"hit": result is not None}
    if name == "simt.launch":
        return {"instructions": result.instructions_issued}
    return None


class Recorder:
    """Holds the installed shims and the spans they record."""

    def __init__(self) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self._stack: List[int] = []
        self._next_id = 0
        self._op = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[object, object]] = {}
        self._o3_pipelines: "weakref.WeakSet" = weakref.WeakSet()

    # ---- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self
        tracer = self.tracer
        stack = self._stack
        is_op = name == "op"
        pipelines = self._o3_pipelines

        def shim(*args, **kwargs):
            recorder._next_id += 1
            span_id = recorder._next_id
            parent = stack[-1] if stack else 0
            span_name = name
            extra = None
            if is_op:
                recorder._op = span_id
                extra = {"kernel": kwargs.get("name")}
            elif name == "transforms.pipeline" and args[0] in pipelines:
                span_name = "transforms.o3"
            stack.append(span_id)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                stack.pop()
                if is_op:
                    recorder._op = 0
            span_args = {"id": span_id, "parent": parent,
                         "op": span_id if is_op else recorder._op}
            if extra:
                span_args.update(extra)
            probed = _probe(name, args, result)
            if probed:
                span_args.update(probed)
            tracer.complete(span_name, end - start, cat=span_name.split(".")[0],
                            ts=start, args=span_args)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        shim.__qualname__ = getattr(fn, "__qualname__", name)
        shim.__doc__ = getattr(fn, "__doc__", None)
        return shim

    @contextmanager
    def op(self, **args):
        """A benchmark-driven op span (ops the shims cannot see)."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        self._op = span_id
        start = self.tracer.now()
        try:
            yield
        finally:
            end = self.tracer.now()
            self._stack.pop()
            self._op = 0
            self.tracer.complete("op", end - start, cat="op", ts=start,
                                 args={"id": span_id, "parent": parent,
                                       "op": span_id, **args})

    # ---- installation ----------------------------------------------------

    def _install_one(self, name: str, module_name: str, attribute: str) -> None:
        module = importlib.import_module(module_name)
        if attribute.endswith("[*]"):
            registry = getattr(module, attribute[:-3])
            for fn in list(registry.values()):
                self._install_function(name, fn)
            return
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            shim = self._wrap(name, original)
            self._patches.append((cls, method, original))
            setattr(cls, method, shim)
            return
        self._install_function(name, getattr(module, attribute))

    def _install_function(self, name: str, fn: Callable) -> None:
        if any(original is fn for _, original in self._originals.values()):
            return
        shim = self._wrap(name, fn)
        self._originals[id(shim)] = (shim, fn)
        patches = rebind(fn, shim)
        if not patches:
            raise RuntimeError(f"shim {name}: no module binds {fn!r}")
        self._patches.extend(patches)

    def _tag_o3(self) -> None:
        """Mark pipelines built by ``o3_pipeline`` so their runs are
        reported as ``transforms.o3`` rather than a plain pipeline."""
        import repro.transforms

        factory = repro.transforms.o3_pipeline
        pipelines = self._o3_pipelines

        def o3_pipeline(*args, **kwargs):
            pipeline = factory(*args, **kwargs)
            pipelines.add(pipeline)
            return pipeline

        o3_pipeline.__wrapped__ = factory
        self._originals[id(o3_pipeline)] = (o3_pipeline, factory)
        self._patches.extend(rebind(factory, o3_pipeline))

    def install(self) -> None:
        self._tag_o3()
        for name, module_name, attribute in SHIMS:
            self._install_one(name, module_name, attribute)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()
        # Modules imported while the shims were live bound a shim by name.
        originals = {id(shim): fn for shim, fn in self._originals.values()}
        for namespace in _repro_namespaces():
            for key, value in list(namespace.items()):
                if id(value) in originals:
                    namespace[key] = originals[id(value)]
        self._originals.clear()


def _repro_namespaces():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro"
                                   or name.startswith("repro.")):
            yield vars(module)


def rebind(original: object, replacement: object
           ) -> List[Tuple[dict, object, object]]:
    """Point every ``repro`` module attribute and module-level dict value
    that is ``original`` at ``replacement``; returns the undo records
    ``(dict, key, original)``."""
    patches = []
    for namespace in _repro_namespaces():
        for key, value in list(namespace.items()):
            if value is original:
                patches.append((namespace, key, value))
                namespace[key] = replacement
            elif type(value) is dict:
                for item_key, item in list(value.items()):
                    if item is original:
                        patches.append((value, item_key, item))
                        value[item_key] = replacement
    return patches


@contextmanager
def installed(recorder: Recorder):
    """Install ``recorder``'s shims for the duration of a ``with`` block."""
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.uninstall()


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(events: List[dict]) -> Dict[int, float]:
    """Span id -> self time in seconds (duration minus the time its
    child spans cover; children nest strictly inside their parent)."""
    child_us: Dict[int, float] = defaultdict(float)
    for event in events:
        child_us[event["args"]["parent"]] += event["dur"]
    return {event["args"]["id"]:
            (event["dur"] - child_us[event["args"]["id"]]) / 1e6
            for event in events}


def layer_metrics(events: List[dict], import_seconds: float = 0.0
                  ) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (see ``README.md``)."""
    spans = [e for e in events if e.get("ph") == "X" and "args" in e]
    by_id = {e["args"]["id"]: e for e in spans}
    own = self_times(spans)

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for event in spans:
        name = event["name"]
        calls[name] += 1
        # Inclusive time, counting a recursive or nested same-name call
        # once (its outermost span already covers it).
        parent = by_id.get(event["args"]["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["args"]["parent"])
        if parent is None:
            seconds[name] += event["dur"] / 1e6

    def total(name: str, key: str) -> float:
        return sum(e["args"].get(key, 0) for e in spans if e["name"] == name)

    kernels = {e["args"]["id"]: e["args"].get("kernel")
               for e in spans if e["name"] == "op"}
    cfm_by_kernel: Dict[str, float] = defaultdict(float)
    for event in spans:
        if event["name"] == "core.cfm":
            kernel = kernels.get(event["args"]["op"])
            cfm_by_kernel[kernel] += event["dur"] / 1e6

    passes = [e for e in spans if e["name"] == "transforms.pass"]
    lookups = calls["compile_cache.lookup"]
    regions = total("core.cfm", "regions")
    instructions = total("simt.launch", "instructions")

    metrics: Dict[str, float] = {
        "core.cfm_s": seconds["core.cfm"],
        "core.cfm_calls": calls["core.cfm"],
    }
    for kernel in REAL_WORLD_KERNELS:
        metrics[f"core.cfm_s.{kernel}"] = cfm_by_kernel[kernel]
    metrics.update({
        "core.nw_s": seconds["core.nw"],
        "core.nw_calls": calls["core.nw"],
        "core.nw_cells": total("core.nw", "cells"),
        "core.meld_accept_ratio": (total("core.cfm", "melds") / regions
                                   if regions else 0.0),
        "transforms.o3_s": seconds["transforms.o3"],
        "transforms.o3_calls": calls["transforms.o3"],
        "transforms.late_s": sum(e["dur"] for e in passes
                                 if e["args"]["pass"].startswith("late-")
                                 ) / 1e6,
        "transforms.pass_runs": len(passes),
        "transforms.pass_changed_ratio": (
            sum(1 for e in passes if e["args"]["changed"]) / len(passes)
            if passes else 0.0),
    })
    for analysis in ("domtree", "postdomtree", "divergence", "ranges"):
        metrics[f"analysis.{analysis}_s"] = seconds[f"analysis.{analysis}"]
        metrics[f"analysis.{analysis}_calls"] = calls[f"analysis.{analysis}"]
    metrics.update({
        "analysis.validate_s": seconds["analysis.validate"],
        "lint.s": seconds["lint.run"],
        "lint.calls": calls["lint.run"],
        "ir.parse_s": seconds["ir.parse"],
        "ir.parse_calls": calls["ir.parse"],
        "ir.print_s": seconds["ir.print"],
        "ir.verify_s": seconds["ir.verify"],
        "ir.verify_calls": calls["ir.verify"],
        "compile_cache.lookup_s": seconds["compile_cache.lookup"],
        "compile_cache.disk_read_s": seconds["compile_cache.disk_read"],
        "compile_cache.hit_ratio": (
            total("compile_cache.lookup", "hit") / lookups
            if lookups else 0.0),
        "compile_cache.misses": lookups - total("compile_cache.lookup",
                                                "hit"),
        "compile_cache.store_s": seconds["compile_cache.store"],
        "simt.lower_s": seconds["simt.lower"],
        "simt.materialize_s": seconds["simt.materialize"],
        "simt.launch_s": seconds["simt.launch"],
        "simt.launches": calls["simt.launch"],
        "simt.instructions_issued": instructions,
        "simt.sim_ips": (instructions / seconds["simt.launch"]
                         if seconds["simt.launch"] else 0.0),
        "kernels.build_s": seconds["kernels.build"],
        "kernels.verify_s": seconds["kernels.verify"],
        "kernels.verify_calls": calls["kernels.verify"],
        "difftest.generate_s": seconds["difftest.generate"],
        "import.s": import_seconds,
    })

    layer_self: Dict[str, float] = defaultdict(float)
    for event in spans:
        layer_self[event["cat"]] += own[event["args"]["id"]]
    layer_self["import"] += import_seconds
    # run_sweep's own time outside the op spans it dispatches
    metrics["scheduler.dispatch_s"] = layer_self["scheduler"]
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = layer_self[layer]
    # Op wall time minus the self time of every layer span inside an op:
    # exactly the ops' own self time.
    metrics["self.unattributed_s"] = layer_self["op"]
    return metrics


def format_self_times(metrics: Dict[str, float]) -> str:
    """The traced run's layer table: self seconds and share of the total."""
    rows = [(layer, metrics[f"self.{layer}_s"]) for layer in LAYERS]
    rows.append(("unattributed", metrics["self.unattributed_s"]))
    total = sum(value for _, value in rows) or 1.0
    lines = [f"{'layer':<16}{'self_s':>10}{'share':>8}"]
    for layer, value in sorted(rows, key=lambda row: -row[1]):
        lines.append(f"{layer:<16}{value:>10.4f}{value / total:>8.1%}")
    lines.append(f"tracing overhead: {metrics['trace.overhead_frac']:+.1%} "
                 f"of the untraced pass")
    return "\n".join(lines)
