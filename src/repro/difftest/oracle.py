"""The differential oracle: one kernel, five pipelines, one verdict.

Each generated kernel is compiled under every *arm* of the matrix —

==============  ============================================================
arm             pipeline
==============  ============================================================
``noopt``       DSL output run as-is (the reference semantics)
``o3``          the -O3 fixpoint pipeline
``o3-cfm``      -O3, then the CFM melding pass + §V-A late cleanups
``o3-tail``     -O3, then tail merging + late cleanups
``o3-bf``       -O3, then branch fusion + late cleanups
==============  ============================================================

— with the -O3 stage compiled **once** per spec: the ``o3`` arm keeps
its output, and each melding arm runs its own stage 2 on a parsed copy
of it (see :class:`_O3Output`), so an -O3 failure is
reported once per requested optimizing arm, just as four independent
compiles would report it.  ``verify_function`` runs after **every** pass
(the ``verify_after_each`` hook of :class:`~repro.transforms.PassPipeline`)
and the :mod:`repro.lint` rules differenced after every pass (the
symmetric ``lint_after_each`` hook): a pass that *introduces* an
error-severity diagnostic the previous IR did not carry — a barrier
moved under divergent control flow, a shared-memory race opened by a
deleted barrier — fails the arm with kind ``"lint"`` and the guilty
pass attached, even when the simulator cannot observe the hazard (a
one-warp block makes a dropped barrier semantically invisible).  After
compilation the ``o3-cfm`` arm additionally runs the meld-legality
audit over the pass's decision log.  The kernels are then launched on
the SIMT machine over several deterministic input sets.  Device memory
is compared bit-for-bit against the ``noopt`` arm; any difference,
verifier error, lint regression or simulator trap becomes a
:class:`Failure` carrying the arm, the guilty pass (when known) and the
first diverging buffer index.

With ``validate=True`` the ``o3-cfm`` arm also runs the *static* oracle:
symbolic translation validation of every meld
(:mod:`repro.analysis.validate`), wired through the pipeline's
``validate_melds`` hook.  An ``INEQUIVALENT`` meld fails the arm with
kind ``"validate"`` whether or not any input set witnesses the
difference — the one oracle class that does not need a run.

One :class:`~repro.simt.GPU` per arm is reused across all input sets via
``GPU.reset()``, so a long fuzzing run touches the device-state
lifecycle the same way a real host application would.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro import (
    BranchFusionPass,
    CFMConfig,
    CFMPass,
    GPU,
    MachineConfig,
    PassPipeline,
    TailMergingPass,
    late_pipeline,
    o3_pipeline,
    verify_function,
)
from repro.analysis import MeldValidationError, validate_melds_hook
from repro.ir import Constant, Undef, parse_module, print_module
from repro.simt import resolve_machine
from repro.obs import MeldingDecision, Tracer, use as use_tracer

from .generator import KernelSpec, build_kernel, make_inputs

#: every arm of the matrix, in reporting order
ALL_ARMS = ("noopt", "o3", "o3-cfm", "o3-tail", "o3-bf")
#: arms that exercise a divergence-reduction pass on top of -O3
MELDING_ARMS = ("o3-cfm", "o3-tail", "o3-bf")


@dataclass
class Failure:
    """One way one arm disagreed with the reference."""

    arm: str
    #: "mismatch" | "verifier" | "lint" | "validate" | "crash"
    kind: str
    detail: str
    #: pass that broke the IR (verifier failures only)
    pass_name: Optional[str] = None
    input_seed: Optional[int] = None

    def __str__(self) -> str:
        where = f" after pass {self.pass_name!r}" if self.pass_name else ""
        inputs = (f" (input seed {self.input_seed})"
                  if self.input_seed is not None else "")
        return f"[{self.arm}] {self.kind}{where}{inputs}: {self.detail}"


@dataclass
class ArmReport:
    """Compile + run outcome of one arm on one kernel."""

    arm: str
    #: passes on this arm's path whose output was verified: the shared
    #: -O3 stage plus, on a melding arm, its own stage 2 (0 on failure)
    verified_passes: int = 0
    melds: int = 0
    outputs: Optional[List[Dict[str, List[int]]]] = None
    failure: Optional[Failure] = None
    #: the compiled kernel, with ``.module`` and ``.function`` (present
    #: when compilation succeeded)
    builder: Optional[object] = field(default=None, repr=False)
    #: the CFM pass's melding decision log (``o3-cfm`` arm only)
    decisions: List[MeldingDecision] = field(default_factory=list, repr=False)


@dataclass
class Verdict:
    """Everything the oracle learned about one kernel spec."""

    spec: KernelSpec
    arms: Dict[str, ArmReport] = field(default_factory=dict)
    failures: List[Failure] = field(default_factory=list)
    seconds: float = 0.0
    #: per-pass verifications performed, the shared -O3 stage counted once
    verifications: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def mismatches(self) -> int:
        return sum(1 for f in self.failures if f.kind == "mismatch")

    @property
    def verifier_failures(self) -> int:
        return sum(1 for f in self.failures if f.kind == "verifier")

    @property
    def lint_failures(self) -> int:
        return sum(1 for f in self.failures if f.kind == "lint")

    @property
    def validate_failures(self) -> int:
        return sum(1 for f in self.failures if f.kind == "validate")


class _PassVerifier:
    """``verify_after_each`` hook that counts and attributes failures."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, pass_name: str, function) -> None:
        self.count += 1
        try:
            verify_function(function)
        except Exception as exc:
            raise PassVerificationError(pass_name, exc) from exc


class PassVerificationError(Exception):
    """verify_function failed right after ``pass_name`` ran."""

    def __init__(self, pass_name: str, cause: Exception) -> None:
        self.pass_name = pass_name
        super().__init__(f"IR invalid after pass {pass_name!r}: {cause}")


class PassLintError(Exception):
    """A pass introduced a new error-severity lint diagnostic."""

    def __init__(self, pass_name: str, diagnostics) -> None:
        self.pass_name = pass_name
        self.diagnostics = list(diagnostics)
        rendered = "; ".join(d.render().split("\n")[0]
                             for d in self.diagnostics)
        super().__init__(
            f"pass {pass_name!r} introduced new lint error(s): {rendered}")


class _LintDiffer:
    """``lint_after_each`` hook holding the rolling lint baseline.

    The baseline starts as the input IR's own report (pre-existing
    findings are the generator's responsibility, not any pass's) and
    advances after each clean pass, so a regression is attributed to
    exactly the pass that introduced it.
    """

    def __init__(self, baseline) -> None:
        self.baseline = baseline

    def __call__(self, pass_name: str, function) -> None:
        report = repro.lint(function)
        new = report.new_errors(self.baseline)
        if new:
            raise PassLintError(pass_name, new)
        self.baseline = report


@dataclass
class _Kernel:
    """A compiled copy of the kernel: what launching an arm needs."""

    module: object
    function: object


class _O3Output:
    """The verified -O3 kernel, printed once and parsed per melding arm.

    Passes read three things the printed text does not carry: new values
    are named after their operands (printing numbers unnamed values and
    uniques clashing names), constants are compared by identity, and φ
    nodes are built in predecessor order (printing sorts predecessors).
    Each parsed copy gets all three back from the original, which gets
    its own names back too, so a melding arm compiles its copy to the IR
    it would produce from the unparsed function.
    """

    def __init__(self, builder) -> None:
        self.function = function = builder.function
        names = [instr.name for instr in function.instructions()]
        self.text = print_module(builder.module)
        for instr, name in zip(function.instructions(), names):
            instr.name = name

    def copy(self) -> _Kernel:
        original = self.function
        module = parse_module(self.text)
        function = module.functions[original.name]
        shared: Dict[int, object] = {}
        for theirs, ours in zip(original.instructions(),
                                function.instructions()):
            ours.name = theirs.name
            for index, (value, parsed) in enumerate(
                    zip(theirs.operands, ours.operands)):
                if isinstance(parsed, (Constant, Undef)):
                    ours.set_operand(index,
                                     shared.setdefault(id(value), parsed))
        blocks = {id(theirs): ours for theirs, ours
                  in zip(original.blocks, function.blocks)}
        for theirs, ours in zip(original.blocks, function.blocks):
            ours._preds = [blocks[id(pred)] for pred in theirs._preds]
        return _Kernel(module, function)


def _failure(arm: str, exc: Exception) -> Failure:
    """The :class:`Failure` a compile-time exception maps to."""
    if isinstance(exc, PassVerificationError):
        return Failure(arm=arm, kind="verifier", detail=str(exc),
                       pass_name=exc.pass_name)
    if isinstance(exc, PassLintError):
        return Failure(arm=arm, kind="lint", detail=str(exc),
                       pass_name=exc.pass_name)
    if isinstance(exc, MeldValidationError):
        return Failure(arm=arm, kind="validate", detail=str(exc),
                       pass_name=exc.pass_name)
    return Failure(arm=arm, kind="crash",
                   detail=f"{type(exc).__name__}: {exc}")


def _stage2(arm: str, hook: _PassVerifier,
            cfm_config: Optional[CFMConfig], lint_hook: _LintDiffer,
            validate: bool) -> PassPipeline:
    """One melding arm's reducer followed by the late cleanups."""
    if arm == "o3-cfm" and validate:
        cfm_config = dataclasses.replace(cfm_config or CFMConfig(),
                                         validate=True)
    reducer = {
        "o3-cfm": lambda: CFMPass(cfm_config),
        "o3-tail": TailMergingPass,
        "o3-bf": BranchFusionPass,
    }[arm]()
    # One pipeline hosts the reducer and the late cleanups through the
    # same Pass surface — the point of the unified pass API.  Under
    # ``validate`` the stage also carries the translation-validation
    # hook, so an INEQUIVALENT meld aborts the arm at the guilty pass.
    stage2 = PassPipeline([reducer], verify_after_each=hook,
                          lint_after_each=lint_hook,
                          validate_melds=(validate_melds_hook
                                          if arm == "o3-cfm" and validate
                                          else None))
    for late_pass in late_pipeline().passes:
        stage2.add(late_pass)
    return stage2


def _compile_melding_arm(arm: str, o3_output: _O3Output, o3_passes: int,
                         o3_lint, cfm_config: Optional[CFMConfig],
                         validate: bool) -> Tuple[ArmReport, int]:
    """Run stage 2 of ``arm`` on its own copy of the -O3 output.

    Returns the report and the number of stage-2 passes verified.
    """
    report = ArmReport(arm=arm)
    hook = _PassVerifier()
    stage2 = _stage2(arm, hook, cfm_config, _LintDiffer(o3_lint), validate)
    try:
        kernel = o3_output.copy()
        stage2.run(kernel.function)
        verify_function(kernel.function)
    except Exception as exc:
        report.failure = _failure(arm, exc)
        return report, hook.count
    report.verified_passes = o3_passes + hook.count
    if arm == "o3-cfm":
        stats = stage2.passes[0].stats
        report.melds = len(stats.melds) if stats else 0
        report.decisions = list(stats.decisions) if stats else []
        # The per-pass hook cannot see the decision log (it lives on the
        # pass object); audit meld legality once, post-compile.
        audit = repro.lint(kernel.function, rules=["meld-legality"],
                           decisions=report.decisions)
        if not audit.ok:
            report.failure = Failure(
                arm=arm, kind="lint", pass_name="cfm",
                detail="; ".join(d.render().split("\n")[0]
                                 for d in audit.errors))
            return report, hook.count
    report.builder = kernel
    return report, hook.count


def _compile_arms(spec: KernelSpec, arms: Sequence[str],
                  cfm_config: Optional[CFMConfig],
                  validate: bool = False
                  ) -> Tuple[Dict[str, ArmReport], int]:
    """Compile every arm in ``arms``, sharing one hooked -O3 stage.

    The -O3 fixpoint runs once, under the verify and lint hooks.  The
    ``o3`` arm keeps that function; every melding arm runs its stage 2
    on its own parsed copy of the verified, linted -O3 output, starting
    from the last -O3 lint report as its baseline (exact: the lint diff
    compares rule ids only).  An -O3 failure is reported once per
    requested optimizing arm, as each arm's own pipeline would have hit
    it.  Returns the reports and the number of per-pass verifications
    actually performed.
    """
    reports: Dict[str, ArmReport] = {}
    if "noopt" in arms:
        report = reports["noopt"] = ArmReport(arm="noopt")
        builder = build_kernel(spec)
        try:
            verify_function(builder.function)
        except Exception as exc:
            report.failure = _failure("noopt", exc)
        else:
            report.builder = builder
    optimizing = [arm for arm in arms if arm != "noopt"]
    if not optimizing:
        return reports, 0

    hook = _PassVerifier()
    builder = build_kernel(spec)
    function = builder.function
    try:
        lint_hook = _LintDiffer(repro.lint(function))
        o3 = o3_pipeline()
        o3.verify_after_each = hook
        o3.lint_after_each = lint_hook
        o3.run_to_fixpoint(function)
        verify_function(function)
    except Exception as exc:
        for arm in optimizing:
            reports[arm] = ArmReport(arm=arm, failure=_failure(arm, exc))
        return reports, hook.count

    o3_output = _O3Output(builder)
    verifications = hook.count
    for arm in optimizing:
        if arm == "o3":
            reports[arm] = ArmReport(arm=arm, verified_passes=hook.count,
                                     builder=builder)
            continue
        reports[arm], stage2_passes = _compile_melding_arm(
            arm, o3_output, hook.count, lint_hook.baseline, cfm_config,
            validate)
        verifications += stage2_passes
    return reports, verifications


def arm_trace(spec: KernelSpec, arm: str,
              cfm_config: Optional[CFMConfig] = None,
              validate: bool = False) -> Dict[str, object]:
    """Re-compile one arm under a fresh tracer and return its artifacts.

    Used when recording a failing seed: the hot fuzz loop runs untraced,
    and only once a failure is being written to the corpus is the guilty
    arm recompiled to capture its pass-span trace and (for ``o3-cfm``)
    the melding decision log.  Compilation is deterministic, so the
    replayed trace describes exactly the compile that failed.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        reports, _ = _compile_arms(spec, (arm,), cfm_config,
                                   validate=validate)
    report = reports[arm]
    return {
        "arm": arm,
        "events": list(tracer.events),
        "melding_decisions": [d.as_dict() for d in report.decisions],
    }


def _run_arm(report: ArmReport, spec: KernelSpec,
             input_seeds: Sequence[int],
             machine: Optional[MachineConfig] = None) -> None:
    """Launch one compiled arm over every input set, reusing one GPU."""
    builder = report.builder
    outputs: List[Dict[str, List[int]]] = []
    with GPU(builder.module, machine) as gpu:
        for input_seed in input_seeds:
            args = make_inputs(spec, input_seed)
            try:
                result = repro.launch(builder.module, spec.grid_dim,
                                      spec.block_dim, args, gpu=gpu)
            except Exception as exc:
                report.failure = Failure(
                    arm=report.arm, kind="crash", input_seed=input_seed,
                    detail=f"{type(exc).__name__}: {exc}")
                return
            outputs.append(result.outputs)
            gpu.reset()
    report.outputs = outputs


def _first_difference(reference: Dict[str, List[int]],
                      candidate: Dict[str, List[int]]) -> str:
    for name in sorted(reference):
        ref, got = reference[name], candidate.get(name)
        if got == ref:
            continue
        for i, (r, g) in enumerate(zip(ref, got or [])):
            if r != g:
                return f"buffer {name!r}[{i}]: expected {r}, got {g}"
        return f"buffer {name!r}: length {len(ref)} vs {len(got or [])}"
    return "outputs differ"


def run_oracle(spec: KernelSpec,
               arms: Sequence[str] = ALL_ARMS,
               input_seeds: Sequence[int] = (0, 1),
               cfm_config: Optional[CFMConfig] = None,
               machine: Optional[MachineConfig] = None,
               executor: Optional[str] = None,
               validate: bool = False) -> Verdict:
    """Compile and run ``spec`` under every arm; diff against ``noopt``.

    ``machine`` (a :class:`~repro.simt.MachineConfig`) describes the
    simulated GPU every arm launches on — executor, reconvergence
    policy, latency model.  The executor-differential tests run the same
    compiled arms under both executors; the policy-differential contract
    is that device memory is bit-identical across reconvergence policies
    too.  ``executor=`` is the deprecated pre-PR-7 spelling.

    ``validate=True`` adds the *static* sixth oracle: the ``o3-cfm`` arm
    compiles with symbolic translation validation enabled
    (``CFMConfig.validate``) and the
    :func:`~repro.analysis.validate.validate_melds_hook` pipeline hook,
    so any meld proven ``INEQUIVALENT`` fails the arm with kind
    ``"validate"`` — even when every run-and-diff input happens to mask
    the miscompile dynamically.
    """
    machine = resolve_machine(machine, executor=executor,
                              where="run_oracle")
    unknown = set(arms) - set(ALL_ARMS)
    if unknown:
        raise ValueError(f"unknown arms: {sorted(unknown)} "
                         f"(available: {list(ALL_ARMS)})")
    start = time.perf_counter()
    verdict = Verdict(spec=spec)
    arm_list = list(arms)
    if "noopt" not in arm_list:
        arm_list.insert(0, "noopt")

    reports, verdict.verifications = _compile_arms(
        spec, arm_list, cfm_config, validate=validate)
    for arm in arm_list:
        report = reports[arm]
        if report.failure is None:
            _run_arm(report, spec, input_seeds, machine=machine)
        verdict.arms[arm] = report
        if report.failure is not None:
            verdict.failures.append(report.failure)

    reference = verdict.arms["noopt"]
    if reference.outputs is not None:
        for arm in arm_list:
            report = verdict.arms[arm]
            if arm == "noopt" or report.outputs is None:
                continue
            for input_seed, ref, got in zip(input_seeds, reference.outputs,
                                            report.outputs):
                if got != ref:
                    failure = Failure(
                        arm=arm, kind="mismatch", input_seed=input_seed,
                        detail=_first_difference(ref, got))
                    report.failure = report.failure or failure
                    verdict.failures.append(failure)

    verdict.seconds = time.perf_counter() - start
    return verdict
