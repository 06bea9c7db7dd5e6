"""``repro.scheduler`` — the persistent-worker pool behind sweeps.

:class:`Scheduler` runs picklable ``fn(payload, ctx)`` tasks over
long-lived forked workers with deterministic result ordering,
per-attempt timeouts, crash respawn plus retry, and a quarantine of the
lowering memo after any failed task.  ``workers=0`` runs tasks inline in
the calling process.  :class:`repro.evaluation.ParallelRunner` adapts
figure-sweep tasks onto it.

Test hooks: ``repro.scheduler.worker._TEST_WORKER_CHAOS`` injects
crashes, hangs and corrupt payloads by task index (see that module's
docstring).
"""

from .core import (
    DEFAULT_RETRIES,
    Scheduler,
    SchedulerClosed,
    Task,
    TaskOutcome,
)
from .worker import CHAOS_MODES, TaskContext

__all__ = [
    "CHAOS_MODES",
    "DEFAULT_RETRIES",
    "Scheduler",
    "SchedulerClosed",
    "Task",
    "TaskContext",
    "TaskOutcome",
]
