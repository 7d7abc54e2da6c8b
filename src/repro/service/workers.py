"""The DES worker pool draining the job queue.

Workers are processes on the *service* engine — a second, outer DES
clock, distinct from the per-job replay engines. Each job replay runs to
completion on its own inner engine (exactly as a standalone
:meth:`~repro.core.runner.ScaledExperiment.run_schedule` call, which is
what makes service results bit-identical to serial runs); the worker
then holds its service-clock slot for the replay's makespan, modelling
the wall occupancy of the in-transit allocation. Queue waits and quota
holds therefore play out in simulated service time, deterministically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.des import Engine, EventHandle


class WorkerPool:
    """Fixed pool of DES workers pulling jobs from a dispatch callback.

    The pool is wired with three callbacks:

    * ``next_job()`` — pop the next admissible job, or None;
    * ``run_job(job, worker)`` — execute it (Python-side, instantaneous
      on the service clock) and return the service-clock hold time;
    * ``on_done(job)`` — completion bookkeeping (release quota, pump).

    Idle workers park on an engine event; :meth:`dispatch` hands a job
    straight to a parked worker. The engine drains naturally once no
    work remains — held-forever jobs simply stay queued and surface in
    the service report — and :meth:`close` then releases the pool.
    """

    def __init__(self, engine: Engine, n_workers: int,
                 next_job: Callable[[], Any],
                 run_job: Callable[[Any, str], float],
                 on_done: Callable[[Any], None]) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.engine = engine
        self.n_workers = n_workers
        self._next_job = next_job
        self._run_job = run_job
        self._on_done = on_done
        self._idle: deque[EventHandle] = deque()
        self._workers = [
            engine.process(self._worker(f"worker-{i}"),
                           name=f"service:worker-{i}")
            for i in range(n_workers)]

    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def closed(self) -> bool:
        return self._next_job is None

    def close(self) -> None:
        """Release the pool once its engine drained (every worker parked):
        it leaves no cycle, and runs no more jobs."""
        for proc in self._workers:
            proc.generator.close()
        self._idle.clear()
        self._next_job = self._run_job = self._on_done = None

    def dispatch(self, job: Any) -> None:
        """Hand ``job`` to a parked worker (the caller checks one idles)."""
        self._idle.popleft().succeed(job)

    def _worker(self, name: str):
        while True:
            job = self._next_job()
            if job is None:
                ev = self.engine.event()
                self._idle.append(ev)
                job = yield ev
            hold = self._run_job(job, name)
            if hold > 0:
                yield self.engine.timeout(hold)
            self._on_done(job)
