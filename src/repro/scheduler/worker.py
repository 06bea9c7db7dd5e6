"""Worker-process side of the sweep pool.

A worker is a *persistent* process: it is forked once, then serves many
tasks over a duplex pipe until the parent stops it or it dies.  Contrast
with a process-per-task pool: the scheduler amortizes process startup,
interpreter warm-up and module imports across tasks, at the price of
*in-process state now outliving a task*.  Hence the **quarantine**: a
task that raises may have left process-global caches half-written (most
sharply the launch-time lowering memo, whose fingerprints are keyed on
object *identities* and therefore cannot detect a poisoned entry).
After any task failure the worker clears those memos before accepting
the next task, so a crashing task cannot poison a later task's — or a
retry's — cache state
(``tests/scheduler/test_chaos.py::TestMemoQuarantine``).

Fault injection: ``_TEST_WORKER_CHAOS`` (mirroring
``repro.simt.fastpath._TEST_DISPATCH_DELAY``) maps a scheduler task
index to a chaos mode applied on that task's **first attempt only**, so
the retry path being exercised can actually succeed:

* ``"exit"``          — hard-kill the worker before running the task;
* ``"exit-after"``    — run the task (side effects like disk compile
  cache writes land), then die before reporting;
* ``"raise"``         — fail the task with an in-band Python exception;
* ``"hang"``          — sleep far past any sane timeout;
* ``"corrupt"``       — run the task, then report a malformed message.

Never set outside tests.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Dict

#: task index -> chaos mode, consulted on attempt 1 only.  Forked
#: workers inherit the parent's value, so tests set it before the
#: scheduler starts.
_TEST_WORKER_CHAOS: Dict[int, str] = {}

CHAOS_MODES = ("exit", "exit-after", "raise", "hang", "corrupt")

#: exit code for chaos-killed workers (distinguishable in error text)
_CHAOS_EXIT_CODE = 13


@dataclass(frozen=True)
class TaskContext:
    """What a task callable learns about its own execution."""

    index: int
    attempt: int
    worker: int


def _quarantine() -> None:
    """Reset process-global caches after a failed task.

    The lowering memo's fingerprints are identity-keyed, so a poisoned
    entry (planted by a task that crashed mid-lowering) is
    indistinguishable from a valid one — drop everything and re-lower.
    Import is local so the scheduler stays usable for tasks that never
    touch the simulator.
    """
    try:
        from repro.simt import clear_lowering_memo
    except ImportError:  # pragma: no cover - simt always present here
        return
    clear_lowering_memo()


def _maybe_chaos_before(index: int, attempt: int) -> None:
    if attempt != 1:
        return
    mode = _TEST_WORKER_CHAOS.get(index)
    if mode == "exit":
        os._exit(_CHAOS_EXIT_CODE)
    elif mode == "raise":
        raise RuntimeError(f"chaos: injected worker exception (task {index})")
    elif mode == "hang":
        time.sleep(3600)


def worker_main(worker_id: int, slot: int, conn) -> None:
    """Serve tasks from ``conn`` until stopped or killed.

    Messages in: ``("task", index, attempt, fn, payload, metrics)`` and
    ``("stop",)``.  Messages out: ``("result", index, attempt, ok,
    value, error, seconds, metrics_delta)`` after each task, and
    ``("goodbye", snapshot)`` in answer to a stop, carrying the
    worker-lifetime metrics snapshot.
    """
    from repro.obs import MetricsRegistry, use_registry

    lifetime = MetricsRegistry()
    tasks_total = lifetime.counter(
        "repro_sched_worker_tasks_total",
        "Tasks served, by worker slot and outcome")

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died; nothing left to serve
            return
        if message[0] == "stop":
            try:
                conn.send(("goodbye", lifetime.snapshot()))
            except (BrokenPipeError, OSError):  # parent already gone
                pass
            finally:
                conn.close()
            return
        _, index, attempt, fn, payload, metrics = message
        start = time.perf_counter()
        ok, value, error, delta = True, None, None, None
        registry = MetricsRegistry() if metrics else None
        try:
            _maybe_chaos_before(index, attempt)
            ctx = TaskContext(index=index, attempt=attempt, worker=worker_id)
            if registry is not None:
                with use_registry(registry):
                    value = fn(payload, ctx)
            else:
                value = fn(payload, ctx)
        except BaseException as exc:  # noqa: BLE001 — report, never die silently
            ok, value = False, None
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            # A task that annotated its own partial snapshot (see
            # run_task) wins; otherwise whatever this registry caught.
            delta = getattr(exc, "_metrics_delta", None)
            if delta is None and registry is not None:
                delta = registry.snapshot()
            _quarantine()
        if ok and registry is not None:
            delta = registry.snapshot()
        seconds = time.perf_counter() - start
        tasks_total.labels(slot=str(slot),
                           outcome="ok" if ok else "error").inc()

        mode = _TEST_WORKER_CHAOS.get(index) if attempt == 1 else None
        if mode == "exit-after":
            os._exit(_CHAOS_EXIT_CODE)
        try:
            if mode == "corrupt":
                conn.send(("result", index))  # malformed on purpose
            else:
                conn.send(("result", index, attempt, ok, value, error,
                           seconds, delta))
        except (BrokenPipeError, OSError):
            return
        except Exception:  # unpicklable task value: report the failure
            try:
                conn.send(("result", index, attempt, False, None,
                           "TypeError: task returned an unpicklable value\n",
                           seconds, delta))
            except (BrokenPipeError, OSError):
                return
