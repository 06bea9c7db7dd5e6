"""Tests for the generic dataflow framework (block-level + sparse SSA)."""

import pytest

from repro.analysis import (
    FORWARD,
    DataflowAnalysis,
    SparseSolver,
    live_variables,
    run_dataflow,
)
from repro import o3_pipeline
from repro.analysis.ranges import EMPTY, _transfer as ranges_transfer
from repro.difftest import build_kernel, generate_spec
from repro.ir.instructions import BinaryOp, Instruction
from repro.ir.values import Constant

from tests.support import parse


# ---------------------------------------------------------------------------
# block-level engine


class _ReachedFrom(DataflowAnalysis):
    """Forward may-analysis: the set of block names on some path here."""

    direction = FORWARD

    def boundary(self, function):
        return frozenset()

    def initial(self):
        return frozenset()

    def join(self, states):
        out = frozenset()
        for state in states:
            out |= state
        return out

    def transfer(self, block, state):
        return state | {block.name}


class _Counter(DataflowAnalysis):
    """Deliberately divergent on cycles: the per-block count grows by one
    every visit, so only widening (or the visit cap) can stop it."""

    direction = FORWARD

    def __init__(self, with_widening):
        self.with_widening = with_widening

    def boundary(self, function):
        return 0.0

    def initial(self):
        return 0.0

    def join(self, states):
        return max(states) if states else 0.0

    def transfer(self, block, state):
        return state + 1.0

    def widen(self, old, new):
        if self.with_widening:
            return float("inf")
        return new


LOOP = """
define void @loop(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %ni, %h ]
  %ni = add i32 %i, 1
  %c = icmp slt i32 %ni, %n
  br i1 %c, label %h, label %x
x:
  ret void
}
"""


class TestRunDataflow:
    def test_forward_reachability_through_a_diamond(self):
        f = parse("""
define void @k(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  ret void
}
""")
        result = run_dataflow(f, _ReachedFrom())
        merge = f.block_by_name("m")
        # Facts from both arms meet at the merge.
        assert result.state_in[merge] == {"entry", "t", "e"}
        assert result.state_out[merge] == {"entry", "t", "e", "m"}

    def test_acyclic_cfg_converges_in_one_sweep(self):
        f = parse("""
define void @k(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  ret void
}
""")
        result = run_dataflow(f, _ReachedFrom())
        # Reverse postorder seeding: every block transferred exactly once.
        assert result.iterations == len(f.blocks)

    def test_loop_reaches_fixpoint(self):
        f = parse(LOOP)
        result = run_dataflow(f, _ReachedFrom())
        header = f.block_by_name("h")
        # The back edge folds the header's own name into its input.
        assert result.state_in[header] == {"entry", "h"}

    def test_widening_terminates_an_infinite_lattice(self):
        f = parse(LOOP)
        result = run_dataflow(f, _Counter(with_widening=True),
                              max_iterations_before_widen=3)
        assert result.state_out[f.block_by_name("h")] == float("inf")

    def test_visit_cap_raises_instead_of_returning_a_non_fixpoint(self):
        f = parse(LOOP)
        with pytest.raises(RuntimeError, match="did not converge"):
            run_dataflow(f, _Counter(with_widening=False),
                         max_iterations_before_widen=10_000, max_visits=50)


class TestLiveVariables:
    def test_values_live_across_blocks(self):
        f = parse("""
define void @k(i32 %a) {
entry:
  %x = add i32 %a, 1
  br label %b
b:
  %y = add i32 %x, %a
  ret void
}
""")
        live = live_variables(f)
        b = f.block_by_name("b")
        names = {getattr(v, "name", None) for v in live[b]}
        assert "x" in names          # defined in entry, used in b
        assert "a" in names          # arguments count as live values
        assert "y" not in names      # defined and dead within b

    def test_liveness_splits_across_branch_arms(self):
        f = parse("""
define void @k(i1 %c, i32 %v) {
entry:
  %dbl = add i32 %v, %v
  br i1 %c, label %t, label %e
t:
  %u = add i32 %dbl, 1
  br label %m
e:
  br label %m
m:
  ret void
}
""")
        live = live_variables(f)
        t_names = {getattr(v, "name", None) for v in live[f.block_by_name("t")]}
        e_names = {getattr(v, "name", None) for v in live[f.block_by_name("e")]}
        assert "dbl" in t_names      # used down the then-arm only
        assert "dbl" not in e_names


# ---------------------------------------------------------------------------
# sparse SSA engine


def _const_fold_transfer(instr, fact_of):
    """Tiny constant-folding client: int or the "top" sentinel."""

    def read(value):
        if isinstance(value, Constant):
            return value.value
        return fact_of(value)

    if isinstance(instr, BinaryOp) and instr.opcode == "add":
        a, b = read(instr.lhs), read(instr.rhs)
        if isinstance(a, int) and isinstance(b, int):
            return a + b
    return "top"


class TestSparseSolver:
    FUNC = """
define void @k(i32 %n) {
entry:
  %a = add i32 2, 3
  %b = add i32 %a, 4
  %c = add i32 %b, %n
  ret void
}
"""

    def _solver(self):
        return SparseSolver(bottom=None, join=lambda a, b: a,
                            transfer=_const_fold_transfer)

    def _instr(self, f, name):
        return next(i for block in f.blocks for i in block
                    if getattr(i, "name", None) == name)

    def test_facts_propagate_along_def_use_chains(self):
        f = parse(self.FUNC)
        solver = self._solver()
        solver.solve(f)
        assert solver.fact_of(self._instr(f, "a")) == 5
        assert solver.fact_of(self._instr(f, "b")) == 9
        # %n is an unseeded argument: the chain degrades to top.
        assert solver.fact_of(self._instr(f, "c")) == "top"

    def test_seeded_leaf_facts_flow_downstream(self):
        f = parse(self.FUNC)
        solver = self._solver()
        solver.seed(f.args[0], 100)
        solver.solve(f)
        assert solver.fact_of(self._instr(f, "c")) == 109

    def test_unknown_values_read_as_bottom(self):
        f = parse(self.FUNC)
        solver = self._solver()
        # Before solve, nothing has a fact.
        assert solver.fact_of(self._instr(f, "a")) is None


# ---------------------------------------------------------------------------
# sparse solver visit order: the heap worklist against the sort-per-visit
# loop it replaced


def _sorted_list_solve(solver, function, max_visits=100_000):
    """The solver's original loop: sort the whole worklist by program
    position on every visit and pop its head."""
    instrs = [i for block in function.blocks for i in block
              if not i.type.is_void]
    position = {id(i): n for n, i in enumerate(instrs)}
    worklist = list(instrs)
    queued = {id(i) for i in instrs}
    visits = 0
    while worklist:
        worklist.sort(key=lambda i: position[id(i)])
        instr = worklist.pop(0)
        queued.discard(id(instr))
        visits += 1
        if visits > max_visits:
            raise RuntimeError("did not converge")
        new = solver.transfer(instr, solver.fact_of)
        old = solver.fact_of(instr)
        count = solver._recomputations.get(id(instr), 0) + 1
        solver._recomputations[id(instr)] = count
        if solver.widen is not None and count > solver.widen_after:
            new = solver.widen(old, new)
        if new == old:
            continue
        solver.facts[id(instr)] = (instr, new)
        for user, _ in instr.uses:
            if (isinstance(user, Instruction) and user.parent is not None
                    and not user.type.is_void
                    and id(user) in position
                    and id(user) not in queued):
                worklist.append(user)
                queued.add(id(user))


def _interval_solver():
    """The solver :func:`repro.analysis.compute_ranges` builds."""
    return SparseSolver(bottom=EMPTY, join=lambda a, b: a.join(b),
                        transfer=ranges_transfer,
                        widen=lambda old, new: new.widen(old))


def _assert_same_solution(function):
    heap, reference = _interval_solver(), _interval_solver()
    heap.solve(function)
    _sorted_list_solve(reference, function)
    assert {k: fact for k, (_, fact) in heap.facts.items()} == \
        {k: fact for k, (_, fact) in reference.facts.items()}
    assert heap._recomputations == reference._recomputations


class TestSparseSolverVisitOrder:
    def test_heap_matches_sorted_list_on_generated_kernels(self):
        widened = 0
        for seed in range(150):
            function = build_kernel(generate_spec(seed)).function
            _assert_same_solution(function)
            o3_pipeline().run_to_fixpoint(function)
            _assert_same_solution(function)
            solver = _interval_solver()
            solver.solve(function)
            widened += any(count > solver.widen_after
                           for count in solver._recomputations.values())
        # Loops in the corpus drive some values past the widening point.
        assert widened > 0
