"""The frozen calibration loop every timed round is divided by.

One sample replays a fixed scenario on a miniature discrete-event engine
written here with the same ingredients as the program's own: generator
processes resumed by event callbacks, a heap of ``(when, seq, event)``
tuples, one small record object per step kept in a list and a dict, a
final sort and fold, plus one small numpy reduction. A host that is slow
*right now* (noisy neighbour, busy sibling thread, frequency step, a
different machine) slows the sample and the round by about the same
factor, so the ratio stays put when the raw wall time does not.

A *reading* is the mean of ``SAMPLES_PER_READING`` consecutive samples:
single 10 ms samples are either hit by a preemption or not, and a round
fifteen times as long always takes its share; two samples before and two
after each round see enough of the same weather.

FROZEN: the scenario, ``SAMPLES_PER_READING`` and ``CALIB_REF_MS``
change only in a ``benchmark`` PR that resets the committed trajectory
(see README.md). Stdlib + numpy only; never imports ``repro``.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Generator

import numpy as np

#: Median of :func:`reading` on the host the seed trajectory was recorded
#: on, at the seed commit. Reported times are
#: ``wall / calibration x CALIB_REF_MS`` — "reference-host" units.
CALIB_REF_MS = 9.0

SAMPLES_PER_READING = 2

_N_PROCESSES = 16
_N_STEPS = 320
_ARRAY = np.linspace(0.0, 1.0, 131072)


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value: Any) -> None:
        self.callbacks: list = []
        self.value = value


class _Record:
    __slots__ = ("task", "bucket", "start", "finish", "nbytes")

    def __init__(self, task: tuple[int, int], bucket: int, start: float,
                 finish: float, nbytes: int) -> None:
        self.task = task
        self.bucket = bucket
        self.start = start
        self.finish = finish
        self.nbytes = nbytes


class _Engine:
    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.queue: list[tuple[float, int, _Event]] = []

    def timeout(self, delay: float, value: Any = None) -> _Event:
        event = _Event(value)
        self.seq += 1
        heappush(self.queue, (self.now + delay, self.seq, event))
        return event

    def process(self, generator: Generator[_Event, Any, None]) -> None:
        def resume(event: _Event) -> None:
            try:
                waited_on = generator.send(event.value)
            except StopIteration:
                return
            waited_on.callbacks.append(resume)

        self.timeout(0.0).callbacks.append(resume)

    def run(self) -> None:
        queue = self.queue
        while queue:
            self.now, _seq, event = heappop(queue)
            for callback in event.callbacks:
                callback(event)


def _worker(engine: _Engine, rank: int, results: list[_Record],
            index: dict[tuple[int, int], _Record]
            ) -> Generator[_Event, Any, None]:
    period = 1.0 + 0.125 * (rank & 7)
    for step in range(_N_STEPS):
        start = engine.now
        got = yield engine.timeout(period, step)
        record = _Record((step, rank), rank & 3, start, engine.now, 4096 + got)
        results.append(record)
        index[record.task] = record


def sample() -> float:
    """Seconds one calibration sample took (perf_counter)."""
    t0 = time.perf_counter()
    engine = _Engine()
    results: list[_Record] = []
    index: dict[tuple[int, int], _Record] = {}
    for rank in range(_N_PROCESSES):
        engine.process(_worker(engine, rank, results, index))
    engine.run()
    results.sort(key=lambda record: (record.finish, record.task))
    busy = 0.0
    for record in results:
        busy += record.finish - record.start
    float((_ARRAY * _ARRAY).sum())
    return time.perf_counter() - t0


def reading() -> float:
    """Mean seconds of ``SAMPLES_PER_READING`` consecutive samples."""
    return sum(sample() for _ in range(SAMPLES_PER_READING)) / SAMPLES_PER_READING
