"""Event heap, simulated clock, and generator-driven processes.

The engine is deliberately tiny but complete enough to express the paper's
asynchronous machinery: timeouts, one-shot events (RDMA completion
notifications, data-ready/bucket-ready messages), and process join.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from heapq import heappop, heappush
from typing import Any

from repro.obs.tracer import get_tracer


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class EventHandle:
    """A one-shot event that processes can wait on and code can trigger.

    An event is *triggered* at most once with an optional value; every
    process waiting on it is resumed at the engine's current time (or at the
    trigger time if scheduled via :meth:`Engine.schedule_event`).

    An untriggered event can be *cancelled*: a later ``succeed`` becomes a
    silent no-op. This is what makes timeouts revocable — a lease or
    watchdog timeout racing a completion cancels the loser instead of
    raising on the second trigger.
    """

    __slots__ = ("engine", "triggered", "cancelled", "value", "_waiters",
                 "_callbacks")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.triggered = False
        self.cancelled = False
        self.value: Any = None
        #: Allocated by the first waiter: most events have one or none.
        self._waiters: list[ProcessHandle] | None = None
        #: Allocated on first use: most events never get a callback.
        self._callbacks: list[Callable[[Any], None]] | None = None

    @property
    def callbacks(self) -> list[Callable[[Any], None]]:
        """Functions called with the value when the event triggers, in
        order and before any waiter resumes."""
        if self._callbacks is None:
            self._callbacks = []
        return self._callbacks

    def succeed(self, value: Any = None) -> "EventHandle":
        """Trigger the event now, resuming all waiters.

        A cancelled event absorbs the trigger silently; triggering an
        already-triggered (and not cancelled) event is still an error.
        """
        if self.cancelled:
            return self
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        engine = self.engine
        if engine._traced:
            c = engine._triggers  # stamped in place: Counter.inc(1)
            c.value += 1
            c.times.append(c.clock())
            c.values.append(c.value)
        callbacks = self._callbacks
        if callbacks:
            for cb in callbacks:
                cb(value)
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            for proc in waiters:  # a wake is due now: onto the FIFO
                engine._seq += 1
                engine._due.append((proc._resume, value))
        return self

    def cancel(self) -> bool:
        """Revoke an untriggered event; returns whether it was revoked.

        After cancellation a pending ``succeed`` (e.g. a scheduled timeout
        firing) is ignored. Cancelling an already-triggered event is a
        no-op returning ``False`` — the race was lost, nothing to revoke.
        """
        if self.triggered:
            return False
        if not self.cancelled:
            self.cancelled = True
            self._waiters = None
        return True

    def _add_waiter(self, proc: "ProcessHandle") -> None:
        if self.triggered:
            self.engine._schedule(0.0, proc._resume, self.value)
        elif self._waiters is None:
            self._waiters = [proc]
        else:
            self._waiters.append(proc)


class ProcessHandle:
    """A running generator process.

    Processes yield:
      * ``EventHandle`` — suspend until the event triggers;
      * ``ProcessHandle`` — suspend until that process finishes (join);
      * ``None`` — yield the engine loop without advancing time.
    """

    __slots__ = ("engine", "generator", "name", "finished", "result", "_done_event")

    def __init__(self, engine: "Engine", generator: Generator, name: str = "") -> None:
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self._done_event = EventHandle(engine)

    # -- process protocol --------------------------------------------------

    def _resume(self, value: Any = None) -> None:
        if self.finished:
            return
        engine = self.engine
        if engine._traced:
            c = engine._resumes  # stamped in place: Counter.inc(1)
            c.value += 1
            c.times.append(c.clock())
            c.values.append(c.value)
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        # The common target, inline: _wait_on -> _add_waiter is two calls
        # on every resume of the replay loop.
        if type(target) is EventHandle:
            if target.triggered:
                engine._seq += 1
                engine._due.append((self._resume, target.value))
            elif target._waiters is None:
                target._waiters = [self]
            else:
                target._waiters.append(self)
        else:
            self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.finished:
            return
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if target is None:
            self.engine._schedule(0.0, self._resume, None)
        elif isinstance(target, EventHandle):
            target._add_waiter(self)
        elif isinstance(target, ProcessHandle):
            target._done_event._add_waiter(self)
        else:
            self._throw(TypeError(f"process yielded unsupported object {target!r}"))

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        self._done_event.succeed(result)

    # -- public API --------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: it sees :class:`Interrupt` at its yield."""
        self.engine._schedule(0.0, self._throw, Interrupt(cause))


class Engine:
    """Deterministic discrete-event engine with a float-seconds clock.

    Events dispatch in ``(when, seq)`` order, ``seq`` being the count of
    events scheduled so far: equal timestamps fire in the order they were
    scheduled. Two containers hold that order between them. A future
    event goes on a heap keyed ``(when, seq)``; an event due at the
    current timestamp (a triggered event waking its waiter, a process
    start) goes on a FIFO and never touches the heap. Every heap entry
    at time ``T`` was pushed while ``now < T``, so it carries a smaller
    ``seq`` than anything scheduled once the clock reached ``T``, and all
    of that lands on the FIFO in ``seq`` order; the heap's entries at
    ``T`` followed by the FIFO front to back is therefore exactly
    ``(when, seq)`` order. The argument needs a clock that never goes
    backwards, which :meth:`run` enforces. Events enter through
    :meth:`_schedule_at`, but for the two hot wakes (DESIGN.md §4).
    """

    def __init__(self) -> None:
        #: Future events, a ``heapq`` of ``(when, seq, fn, arg)``.
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        #: Events due at ``now``, ``(fn, arg)`` in ``seq`` order.
        self._due: deque[tuple[Callable[[Any], None], Any]] = deque()
        #: Every event ever scheduled, FIFO ones included.
        self._seq = 0
        self.now: float = 0.0
        #: Optional live sampler (``repro.obs.probes.ProbeSampler``):
        #: notified via ``on_advance(now)`` as the clock advances.
        self._probe: Any = None
        # Capture the active tracer once; when tracing is enabled the
        # engine's clock becomes the tracer's trace clock and the des.*
        # counters are bound here. Each site stamps its +1 in place (the
        # two column appends of ``Counter.inc``, without its call); the
        # sample reads the counter's own clock, which a later engine may
        # have re-pointed at itself.
        self._tracer = get_tracer()
        self._traced = self._tracer.enabled
        if self._traced:
            self._tracer.attach_engine(self)
            counter = self._tracer.metrics.counter
            self._dispatches = counter("des.dispatch")
            self._resumes = counter("des.process_resume")
            self._triggers = counter("des.event_trigger")
            self._timeouts = counter("des.timeout")
            self._starts = counter("des.process_started")

    def attach_probe(self, sampler: Any) -> None:
        """Install a periodic sampler; it sees every clock advance.

        The sampler needs one method, ``on_advance(now: float)``. Attach
        before :meth:`run`; pass ``None`` to detach.
        """
        self._probe = sampler

    def idle(self) -> bool:
        """True once no event remains (``run`` would return immediately).

        Live viewers (``repro serve --follow``) drive the engine in
        bounded slices — ``run(until=...)`` — and use this to know when
        the batch has fully drained.
        """
        return not self._due and not self._heap

    def next_event_time(self) -> float | None:
        """Earliest pending timestamp (None when idle). ``run(until=
        next_event_time())`` processes exactly that timestamp's events
        and leaves the clock there — no overshoot past the drain."""
        if self._due:
            return self.now
        return self._heap[0][0] if self._heap else None

    # -- scheduling primitives ----------------------------------------------

    def _schedule(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        self._schedule_at(self.now + delay, fn, arg)

    def _schedule_at(self, when: float, fn: Callable[[Any], None],
                     arg: Any) -> None:
        """Schedule ``fn(arg)`` at exactly ``when``; ``when == now`` (not a
        zero delay: one below an ulp of the clock counts) means the FIFO."""
        now = self.now
        if not when >= now:  # also refuses NaN, which compares false
            raise ValueError(f"cannot schedule at {when}, before now ({now})")
        self._seq += 1
        if when == now:
            self._due.append((fn, arg))
        else:
            heappush(self._heap, (when, self._seq, fn, arg))

    def event(self) -> EventHandle:
        """Create an untriggered one-shot event."""
        return EventHandle(self)

    def timeout(self, delay: float, value: Any = None) -> EventHandle:
        """Event that triggers ``delay`` simulated seconds from now."""
        ev = EventHandle(self)
        self._schedule_at(self.now + delay, ev.succeed, value)
        if self._traced:  # counted once scheduled: a refused one is not
            c = self._timeouts  # stamped in place: Counter.inc(1)
            c.value += 1
            c.times.append(c.clock())
            c.values.append(c.value)
        return ev

    def schedule_event(self, ev: EventHandle, delay: float, value: Any = None) -> None:
        """Trigger an existing event ``delay`` seconds from now."""
        self._schedule_at(self.now + delay, ev.succeed, value)

    def any_of(self, *events: EventHandle) -> EventHandle:
        """Race several events: an event triggering with ``(index, value)``
        of the first to fire.

        Later finishers are absorbed (their callbacks find the race already
        decided), so a timeout racing a completion is safe to express::

            winner, value = yield engine.any_of(done, engine.timeout(lease))
            if winner == 1:  # lease expired first
                ...

        Events already triggered when the race is built win immediately, in
        argument order.
        """
        if not events:
            raise ValueError("any_of needs at least one event")
        race = EventHandle(self)

        def settle(index: int, value: Any) -> None:
            if not race.triggered and not race.cancelled:
                race.succeed((index, value))

        for i, ev in enumerate(events):
            if ev.triggered:
                settle(i, ev.value)
            else:
                ev.callbacks.append(
                    lambda value, i=i: settle(i, value))
        return race

    def process(self, generator: Generator, name: str = "") -> ProcessHandle:
        """Register and start a generator process at the current time."""
        proc = ProcessHandle(self, generator, name)
        if self._traced:
            c = self._starts  # stamped in place: Counter.inc(1)
            c.value += 1
            c.times.append(c.clock())
            c.values.append(c.value)
            self._tracer.instant("process.start", lane="des",
                                 process=proc.name)
        self._schedule_at(self.now, proc._resume, None)
        return proc

    def call_at(self, when: float, fn: Callable[..., None], *arg: Any) -> None:
        """Run ``fn()``, or ``fn(arg)``, at absolute simulated time
        ``when``: the clock reads exactly ``when`` while it runs."""
        if arg:  # the heap entry calls fn(arg) itself: no closure
            self._schedule_at(when, fn, *arg)
        else:
            self._schedule_at(when, lambda _: fn(), None)

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until no event remains or the clock reaches ``until``.

        Returns the final simulated time. ``until`` may not lie before
        ``now``: the clock never goes backwards.
        """
        if until is not None and not until >= self.now:  # NaN too
            raise ValueError(f"run(until={until}) is before now ({self.now})")
        dispatches = self._dispatches if self._traced else None
        if dispatches is not None:
            stamp_t = dispatches.times.append
            stamp_v = dispatches.values.append
        probe = self._probe
        heap, due = self._heap, self._due
        popleft = due.popleft
        while True:
            if due:
                when = self.now
            elif heap and (until is None or heap[0][0] <= until):
                self.now = when = heap[0][0]
            else:
                break
            # The sampler sees the state as it stood before this
            # timestamp's first event; later events at the same time
            # have nothing left to back-fill.
            if probe is not None:
                probe.on_advance(when)
            # The heap's entries at this timestamp precede everything
            # scheduled since the clock got here (class docstring).
            while heap and heap[0][0] == when:
                _when, _seq, fn, arg = heappop(heap)
                if dispatches is not None:
                    dispatches.value += 1
                    stamp_t(dispatches.clock())
                    stamp_v(dispatches.value)
                fn(arg)
            while due:
                fn, arg = popleft()
                if dispatches is not None:
                    dispatches.value += 1
                    stamp_t(dispatches.clock())
                    stamp_v(dispatches.value)
                fn(arg)
        if until is not None:
            self.now = until
        return self.now

    def run_until_done(self, proc: ProcessHandle, limit: float = 1e12) -> Any:
        """Run whole timestamps until ``proc`` completes; returns its result.

        Raises ``RuntimeError`` if no event remains first (deadlock) or
        the next event lies past ``limit``.
        """
        while not proc.finished:
            when = self.next_event_time()
            if when is None:
                raise RuntimeError(f"deadlock: process {proc.name!r} never finished")
            if when > limit:
                raise RuntimeError(f"time limit {limit} exceeded waiting for {proc.name!r}")
            self.run(until=when)
        return proc.result
