"""The oracle's shared -O3 stage against independent per-arm compiles.

``run_oracle`` runs the hooked -O3 fixpoint once per spec and hands each
melding arm a parsed copy of its output.  These tests pin that the
sharing is invisible: every arm ends with exactly the IR, melds,
decision log and verified-pass count an independent compile through the
public API produces, and a failure inside -O3 still reports once per
optimizing arm with the kind and guilty pass an independent compile of
that arm would report.
"""

import pytest

from repro import (
    BranchFusionPass,
    CFMConfig,
    CFMPass,
    PassPipeline,
    TailMergingPass,
    late_pipeline,
    o3_pipeline,
)
from repro.difftest import (
    ALL_ARMS,
    build_kernel,
    generate_spec,
    inject,
    run_oracle,
)
from repro.ir import print_module

OPTIMIZING_ARMS = ALL_ARMS[1:]
#: seeds 0-12 cover barriers (0), counted and divergent loops (1, 9),
#: nested divergent regions (0, 2, ...) and a shared-memory stage (12);
#: on 29 a meld reads two uses of one constant object, and on 42 a meld
#: builds φs in predecessor order, both of which printing loses
EQUIVALENCE_SEEDS = (*range(13), 29, 42)


def _statement_kinds(body, nested_in_if=False):
    for stmt in body or ():
        yield stmt["kind"], nested_in_if
        for key in ("then", "else", "body"):
            yield from _statement_kinds(stmt.get(key),
                                        nested_in_if or stmt["kind"] == "if")


def _reference(spec, arm):
    """One arm compiled on its own from the public API, never printed
    before its final IR: (final IR, melds, decisions, passes run)."""
    builder = build_kernel(spec)
    o3 = o3_pipeline()
    o3.run_to_fixpoint(builder.function)
    passes = len(o3.timings)
    melds, decisions = 0, []
    if arm != "o3":
        reducer = {
            "o3-cfm": lambda: CFMPass(CFMConfig(validate=True)),
            "o3-tail": TailMergingPass,
            "o3-bf": BranchFusionPass,
        }[arm]()
        stage2 = PassPipeline([reducer])
        for late_pass in late_pipeline().passes:
            stage2.add(late_pass)
        stage2.run(builder.function)
        passes += len(stage2.timings)
        if arm == "o3-cfm":
            melds = len(reducer.stats.melds)
            decisions = [d.as_dict() for d in reducer.stats.decisions]
    return print_module(builder.module), melds, decisions, passes


def test_equivalence_seeds_cover_loops_barriers_and_nesting():
    kinds = {kind for seed in EQUIVALENCE_SEEDS
             for kind, _ in _statement_kinds(generate_spec(seed).body)}
    assert {"for", "divloop", "barrier", "shared_stage"} <= kinds
    assert any(kind == "if" and nested
               for seed in EQUIVALENCE_SEEDS
               for kind, nested in _statement_kinds(generate_spec(seed).body))


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_every_arm_matches_an_independent_compile(seed):
    spec = generate_spec(seed)
    verdict = run_oracle(spec, validate=True)
    assert verdict.ok, [str(f) for f in verdict.failures]
    for arm in OPTIMIZING_ARMS:
        report = verdict.arms[arm]
        ir, melds, decisions, passes = _reference(spec, arm)
        assert print_module(report.builder.module) == ir, arm
        assert report.melds == melds, arm
        assert [d.as_dict() for d in report.decisions] == decisions, arm
        assert report.verified_passes == passes, arm


def test_equivalence_seeds_meld_something():
    assert sum(run_oracle(generate_spec(seed)).arms["o3-cfm"].melds
               for seed in EQUIVALENCE_SEEDS) > 0


def test_verifications_count_the_shared_stage_once():
    verdict = run_oracle(generate_spec(0))
    o3_passes = verdict.arms["o3"].verified_passes
    per_arm = sum(verdict.arms[arm].verified_passes
                  for arm in OPTIMIZING_ARMS)
    assert verdict.verifications == per_arm - 3 * o3_passes


# ---------------------------------------------------------------------------
# failure fan-out


def _signature(failures):
    return sorted((f.arm, f.kind, f.pass_name) for f in failures)


# Expected failures as the independent per-arm oracle reported them: the
# caught seeds and, on each, one failure per listed arm.
@pytest.mark.parametrize("bug, caught, failing", [
    # DCE inside -O3 drops a barrier: every optimizing arm inherits it.
    ("drop-barrier", (12, 20),
     {arm: ("lint", "dce") for arm in OPTIMIZING_ARMS}),
    # The melder drops undef φ incomings: only the CFM arm's stage 2.
    ("drop-undef-phi", (6, 13), {"o3-cfm": ("verifier", "cfm")}),
])
def test_failures_fan_out_per_arm(bug, caught, failing):
    expected = sorted((arm, kind, pass_name)
                      for arm, (kind, pass_name) in failing.items())
    with inject(bug):
        for seed in (0,) + caught:
            spec = generate_spec(seed)
            verdict = run_oracle(spec)
            assert _signature(verdict.failures) == (
                expected if seed in caught else [])
            # The same failures as compiling each arm on its own...
            independent = [f for arm in OPTIMIZING_ARMS
                           for f in run_oracle(spec, arms=(arm,)).failures]
            assert _signature(verdict.failures) == _signature(independent)
            # ...and a fanned-out -O3 failure reads the same on every arm.
            assert len({f.detail for f in verdict.failures}) <= 1
            for arm in OPTIMIZING_ARMS:
                assert (verdict.arms[arm].failure is None) == \
                    (seed not in caught or arm not in failing)
