"""FIFO job queue with one worker thread and cooperative cancellation.

The single worker thread is the service's serialization point: a
replay job's batches, a periodic replan, and an SLO-triggered replan
all execute on it, one job at a time — a watchdog breach that lands
*mid-replay* merely sets the controller's pending flag, and the replay
job consumes it at its next tick boundary (see
:meth:`~repro.core.controller.PipeleonController.scenario_tick`).
Nothing ever replans concurrently with an in-flight batch, by
construction rather than by locking.

Cancellation is cooperative: :meth:`JobQueue.cancel` flips the job's
:attr:`Job.cancel_event`; job functions are expected to poll it at
safe points (scenario drivers poll between ticks) and return early.
A queued job cancels immediately without ever running.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Job", "JobQueue", "JobState", "QueueClosedError"]


class JobState:
    """String states a job moves through (terminal: the last three)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


class QueueClosedError(RuntimeError):
    """Submit after drain started: the service is going away."""


@dataclass
class Job:
    """One unit of serialized service work."""

    id: str
    op: str
    params: dict
    fn: Callable[["Job"], Any]
    state: str = JobState.QUEUED
    result: Any = None
    error: Optional[str] = None
    #: Set to request cooperative cancellation; job functions poll it.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Set exactly once, when the job reaches a terminal state.
    done_event: threading.Event = field(default_factory=threading.Event)

    @property
    def cancelled(self) -> bool:
        return self.cancel_event.is_set()

    def snapshot(self) -> dict:
        """JSON-safe view for the ``job``/``status`` ops."""
        return {
            "job_id": self.id,
            "op": self.op,
            "state": self.state,
            "error": self.error,
            "cancel_requested": self.cancel_event.is_set(),
        }


class JobQueue:
    """FIFO queue drained by one daemon worker thread."""

    def __init__(self, name: str = "repro-service-jobs"):
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: list[Job] = []
        self._jobs: dict[str, Job] = {}
        self._running: Optional[Job] = None
        self._closed = False
        self._seq = 0
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        op: str,
        params: dict,
        fn: Callable[[Job], Any],
    ) -> Job:
        with self._wake:
            if self._closed:
                raise QueueClosedError("service is draining")
            self._seq += 1
            job = Job(id=f"job-{self._seq}", op=op, params=params, fn=fn)
            self._pending.append(job)
            self._jobs[job.id] = job
            self._wake.notify_all()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- cancellation / drain ------------------------------------------------

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; queued jobs settle immediately."""
        with self._wake:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.cancel_event.set()
            if job.state == JobState.QUEUED:
                self._pending.remove(job)
                self._settle(job, JobState.CANCELLED)
        return job

    def drain(
        self,
        cancel_running: bool = False,
        timeout_s: Optional[float] = None,
    ) -> bool:
        """Reject new work, cancel the backlog, wait for quiescence.

        The backlog is every job the worker has not yet dequeued, even
        one submitted before the current running job finished.

        ``cancel_running=True`` (the SIGTERM path) additionally flips
        the in-flight job's cancel event so a long replay exits at its
        next tick boundary instead of running to completion. Returns
        True when the worker went idle within ``timeout_s``.
        """
        with self._wake:
            self._closed = True
            for job in list(self._pending):
                self._pending.remove(job)
                job.cancel_event.set()
                self._settle(job, JobState.CANCELLED)
            if cancel_running and self._running is not None:
                self._running.cancel_event.set()
            self._wake.notify_all()
        self._thread.join(timeout=timeout_s)
        return not self._thread.is_alive()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def running(self) -> Optional[Job]:
        with self._lock:
            return self._running

    @property
    def backlog(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- worker ----------------------------------------------------------------

    def _settle(self, job: Job, state: str) -> None:
        # Caller holds self._lock.
        job.state = state
        job.done_event.set()

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if not self._pending and self._closed:
                    return
                job = self._pending.pop(0)
                if job.cancel_event.is_set():
                    self._settle(job, JobState.CANCELLED)
                    continue
                job.state = JobState.RUNNING
                self._running = job
            try:
                result = job.fn(job)
            except Exception as exc:
                with self._wake:
                    job.error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    self._running = None
                    self._settle(job, JobState.FAILED)
            else:
                with self._wake:
                    job.result = result
                    self._running = None
                    self._settle(
                        job,
                        JobState.CANCELLED
                        if job.cancel_event.is_set()
                        else JobState.DONE,
                    )
