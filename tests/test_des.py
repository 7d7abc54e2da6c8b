"""Tests for the discrete-event engine and its resources."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.des import Engine, Interrupt, Resource, Store


class TestEngineBasics:
    def test_timeout_advances_clock(self):
        eng = Engine()
        log = []

        def proc():
            yield eng.timeout(1.5)
            log.append(eng.now)
            yield eng.timeout(2.0)
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [1.5, 3.5]

    def test_negative_delay_raises(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.timeout(-1.0)

    def test_run_until_stops_clock(self):
        eng = Engine()

        def proc():
            yield eng.timeout(10.0)

        eng.process(proc())
        t = eng.run(until=4.0)
        assert t == 4.0
        assert eng.now == 4.0
        eng.run()
        assert eng.now == 10.0

    def test_deterministic_tie_breaking(self):
        eng = Engine()
        order = []

        def proc(tag):
            yield eng.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            eng.process(proc(tag))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_event_value_passed_to_waiter(self):
        eng = Engine()
        ev = eng.event()
        got = []

        def waiter():
            value = yield ev
            got.append(value)

        eng.process(waiter())
        eng.schedule_event(ev, 2.0, "payload")
        eng.run()
        assert got == ["payload"]
        assert eng.now == 2.0

    def test_event_double_trigger_raises(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_wait_on_already_triggered_event(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("x")
        got = []

        def waiter():
            got.append((yield ev))

        eng.process(waiter())
        eng.run()
        assert got == ["x"]

    def test_process_join(self):
        eng = Engine()
        trace = []

        def child():
            yield eng.timeout(3.0)
            return "done"

        def parent():
            result = yield eng.process(child())
            trace.append((eng.now, result))

        eng.process(parent())
        eng.run()
        assert trace == [(3.0, "done")]

    def test_run_until_done_returns_result(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            return 42

        p = eng.process(proc())
        assert eng.run_until_done(p) == 42

    def test_run_until_done_detects_deadlock(self):
        eng = Engine()
        ev = eng.event()  # never triggered

        def proc():
            yield ev

        p = eng.process(proc())
        with pytest.raises(RuntimeError, match="deadlock"):
            eng.run_until_done(p)

    def test_interrupt_raises_in_process(self):
        eng = Engine()
        seen = []

        def victim():
            try:
                yield eng.timeout(100.0)
            except Interrupt as i:
                seen.append(i.cause)

        def attacker(p):
            yield eng.timeout(1.0)
            p.interrupt("stop")

        p = eng.process(victim())
        eng.process(attacker(p))
        eng.run()
        assert seen == ["stop"]

    def test_call_at(self):
        eng = Engine()
        hits = []
        eng.call_at(5.0, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [5.0]

    def test_call_at_fires_at_exactly_when(self):
        """From ``now = 0.2``, ``0.2 + (0.9 - 0.2)`` is 0.8999999999999999:
        the callback must still see the clock read 0.9, and on both the
        engine and its oracle."""
        for eng in (Engine(), OracleEngine()):
            eng.run(until=0.2)
            hits = []
            eng.call_at(0.9, lambda: hits.append(eng.now))
            eng.call_at(0.2, lambda: hits.append(eng.now))
            eng.run()
            assert hits == [0.2, 0.9]

    def test_call_at_past_raises(self):
        eng = Engine()
        eng.call_at(1.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.call_at(0.5, lambda: None)

    def test_yield_bad_object_raises_typeerror_in_process(self):
        eng = Engine()
        caught = []

        def proc():
            try:
                yield "not-an-event"
            except TypeError as e:
                caught.append(str(e))

        eng.process(proc())
        eng.run()
        assert caught and "unsupported" in caught[0]


class TestStore:
    def test_fifo_order(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        eng.process(consumer())
        for i in range(3):
            store.put(i)
        eng.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, eng.now))

        def producer():
            yield eng.timeout(4.0)
            store.put("x")

        eng.process(consumer())
        eng.process(producer())
        eng.run()
        assert got == [("x", 4.0)]

    def test_multiple_getters_fcfs(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        eng.process(consumer("first"))
        eng.process(consumer("second"))
        eng.run()
        store.put(1)
        store.put(2)
        eng.run()
        assert got == [("first", 1), ("second", 2)]

    def test_snapshot(self):
        eng = Engine()
        store = Store(eng)
        store.put("a")
        store.put("b")
        assert store.items_snapshot() == ["a", "b"]
        assert len(store) == 2


class TestResource:
    def test_capacity_enforced(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        times = []

        def worker(tag):
            yield res.acquire()
            yield eng.timeout(2.0)
            times.append((tag, eng.now))
            res.release()

        eng.process(worker("a"))
        eng.process(worker("b"))
        eng.run()
        assert times == [("a", 2.0), ("b", 4.0)]

    def test_parallel_capacity(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        times = []

        def worker(tag):
            yield res.acquire()
            yield eng.timeout(2.0)
            times.append((tag, eng.now))
            res.release()

        for tag in "abc":
            eng.process(worker(tag))
        eng.run()
        assert times == [("a", 2.0), ("b", 2.0), ("c", 4.0)]

    def test_release_idle_raises(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_bad_capacity_raises(self):
        eng = Engine()
        with pytest.raises(ValueError):
            Resource(eng, capacity=0)


class TestEventCancel:
    def test_cancelled_event_ignores_succeed(self):
        eng = Engine()
        ev = eng.event()
        assert ev.cancel() is True
        ev.succeed("late")  # silent no-op
        assert not ev.triggered
        assert ev.cancelled

    def test_cancel_after_trigger_returns_false(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(1)
        assert ev.cancel() is False
        assert ev.triggered

    def test_cancelled_timeout_never_resumes_waiter(self):
        eng = Engine()
        fired = []

        def proc():
            t = eng.timeout(1.0)
            eng.call_at(0.5, lambda: t.cancel())
            got = yield eng.any_of(t, eng.timeout(3.0))
            fired.append((eng.now, got))

        eng.process(proc())
        eng.run()
        # the cancelled 1.0 s timeout lost; the 3.0 s one won the race
        assert fired == [(3.0, (1, None))]

    def test_double_trigger_still_raises(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)


class TestAnyOf:
    def test_first_event_wins(self):
        eng = Engine()
        got = []

        def proc():
            result = yield eng.any_of(eng.timeout(2.0), eng.timeout(1.0))
            got.append((eng.now, result))

        eng.process(proc())
        eng.run()
        assert got == [(1.0, (1, None))]

    def test_winner_value_propagates(self):
        eng = Engine()
        ev = eng.event()
        eng.call_at(0.5, lambda: ev.succeed("payload"))
        got = []

        def proc():
            result = yield eng.any_of(eng.timeout(2.0), ev)
            got.append(result)

        eng.process(proc())
        eng.run()
        assert got == [(1, "payload")]

    def test_already_triggered_event_wins_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("now")
        got = []

        def proc():
            result = yield eng.any_of(eng.timeout(5.0), ev)
            got.append((eng.now, result))

        eng.process(proc())
        eng.run()
        assert got == [(0.0, (1, "now"))]

    def test_losers_do_not_retrigger_race(self):
        eng = Engine()
        got = []

        def proc():
            result = yield eng.any_of(eng.timeout(1.0), eng.timeout(2.0))
            got.append(result)
            yield eng.timeout(5.0)  # outlive the losing timeout

        eng.process(proc())
        eng.run()
        assert got == [(0, None)]

    def test_empty_any_of_raises(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.any_of()


class TestResourceCancel:
    def test_cancel_queued_request_lets_next_waiter_in(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def holder():
            yield res.acquire()
            yield eng.timeout(2.0)
            res.release()

        def quitter():
            grant = res.acquire()
            timeout = eng.timeout(1.0)
            idx, _ = yield eng.any_of(grant, timeout)
            if idx == 1:  # gave up waiting
                res.cancel(grant)
                order.append(("quit", eng.now))

        def patient():
            yield res.acquire()
            order.append(("got-it", eng.now))
            res.release()

        eng.process(holder())
        eng.process(quitter())
        eng.process(patient())
        eng.run()
        # quitter's abandoned slot was skipped; patient got the unit
        assert order == [("quit", 1.0), ("got-it", 2.0)]
        assert res.in_use == 0

    def test_cancel_granted_request_returns_unit(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        grant = res.acquire()

        def proc():
            yield grant

        eng.process(proc())
        eng.run()
        assert res.in_use == 1
        res.cancel(grant)  # already granted: behaves like release
        assert res.in_use == 0

    def test_capacity_never_leaks_after_cancel(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        grants = [res.acquire() for _ in range(4)]
        for g in grants[2:]:
            res.cancel(g)  # cancel the two queued ones
        eng.run()
        assert res.in_use == 2
        res.cancel(grants[0])
        res.cancel(grants[1])
        assert res.in_use == 0


# ---------------------------------------------------------------------------
# The ordering contract: dispatch is (when, seq) order
# ---------------------------------------------------------------------------


class _FiledDue:
    """The oracle's ``_due``: a wake bumps ``_seq`` and appends
    ``(fn, arg)`` itself, and this files it in the oracle's one list at
    ``(now, _seq)``, refusing a ``seq`` it has already filed."""

    def __init__(self, oracle):
        self.oracle = oracle

    def append(self, item):
        self.oracle._file(self.oracle.now, *item)


class OracleEngine(Engine):
    """The contract stated directly: one list, always dispatch the pending
    event with the least ``(when, seq)``. Events, processes, stores and
    resources are the real ones; only the containers differ. Both ways
    in are covered: ``_schedule_at`` (every timeout, ``call_at``, process
    start and ``_schedule``) and the wakes' direct appends to ``_due``."""

    def __init__(self):
        super().__init__()
        self._pending = []
        self._filed_seq = 0
        self._due = _FiledDue(self)

    def _schedule_at(self, when, fn, arg):
        if when < self.now:
            raise ValueError(when)
        self._seq += 1
        self._file(when, fn, arg)

    def _file(self, when, fn, arg):
        assert self._seq > self._filed_seq, "an event reused a seq"
        self._filed_seq = self._seq
        self._pending.append((when, self._seq, fn, arg))

    def idle(self):
        return not self._pending

    def next_event_time(self):
        return min(e[0] for e in self._pending) if self._pending else None

    def run(self, until=None):
        while self._pending:
            self._pending.sort(key=lambda e: e[:2])
            if until is not None and self._pending[0][0] > until:
                break
            self.now, _seq, fn, arg = self._pending.pop(0)
            fn(arg)
        if until is not None:
            self.now = until
        return self.now


#: Few distinct values, so timestamps collide; 1e-18 is below one ulp of
#: any clock value >= 0.25 and positive before that.
DELAYS = st.sampled_from([0.0, 0.0, 1e-18, 0.25, 0.5, 1.0, 1.0, 2.0])
SLOTS = st.integers(0, 2)

ACTION = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("yield")),
    st.tuples(st.just("cascade"), st.integers(1, 4)),
    st.tuples(st.just("race"), DELAYS, DELAYS),
    st.tuples(st.just("revoke"), DELAYS, DELAYS),
    st.tuples(st.just("put")),
    st.tuples(st.just("get")),
    st.tuples(st.just("hold"), DELAYS),
    st.tuples(st.just("hold_or_quit"), DELAYS, DELAYS),
    st.tuples(st.just("signal"), SLOTS),
    st.tuples(st.just("wait"), SLOTS),
    st.tuples(st.just("fork"), DELAYS),
)
SCRIPT = st.lists(ACTION, max_size=6)
STEP = st.one_of(
    st.tuples(st.just("spawn"), SCRIPT),
    st.tuples(st.just("slice"), DELAYS),
    st.tuples(st.just("step")),
    st.tuples(st.just("until_done"), st.integers(0, 7)),
)


def execute(engine, scripts, steps):
    """Start ``scripts`` together, then interpret ``steps`` on ``engine``;
    the log is everything observable."""
    log = []
    store, nic = Store(engine), Resource(engine, capacity=1)
    signals = [engine.event() for _ in range(3)]
    procs = []

    def note(*what):
        log.append((engine.now, *what))

    def cascade(tag, depth):
        note(tag, "cascade", depth)
        if depth:
            engine.call_at(engine.now, lambda: cascade(tag, depth - 1))

    def child(tag, delay):
        yield engine.timeout(delay)
        note(tag, "child")
        return tag

    def script(tag, actions):
        for n, (kind, *args) in enumerate(actions):
            if kind == "timeout":
                yield engine.timeout(args[0])
            elif kind == "yield":
                yield None
            elif kind == "cascade":
                cascade(tag, args[0])
            elif kind == "race":
                note(tag, "race", (yield engine.any_of(
                    engine.timeout(args[0], "a"), engine.timeout(args[1], "b"))))
            elif kind == "revoke":
                loser = engine.timeout(args[0])
                engine.call_at(engine.now + args[1], loser.cancel)
                note(tag, "revoke", (yield engine.any_of(
                    loser, engine.timeout(args[0] + 1.0))))
            elif kind == "put":
                store.put((tag, n))
            elif kind == "get":
                note(tag, "got", (yield engine.any_of(
                    store.get(), engine.timeout(2.0)))[1])
            elif kind == "hold":
                yield nic.acquire()
                note(tag, "granted")
                yield engine.timeout(args[0])
                nic.release()
            elif kind == "hold_or_quit":
                grant = nic.acquire()
                won, _ = yield engine.any_of(grant, engine.timeout(args[0]))
                note(tag, "grant" if won == 0 else "quit")
                if won == 0:
                    yield engine.timeout(args[1])
                nic.cancel(grant)
            elif kind == "signal":
                if not signals[args[0]].triggered:
                    signals[args[0]].succeed(tag)
            elif kind == "wait":
                note(tag, "woke", (yield signals[args[0]]))
            elif kind == "fork":
                note(tag, "joined",
                     (yield engine.process(child((tag, n), args[0]))))
            note(tag, n, kind)
        return tag

    for kind, *args in [("spawn", actions) for actions in scripts] + steps:
        if kind == "spawn":
            procs.append(engine.process(script(len(procs), args[0])))
        elif kind == "slice":
            engine.run(until=engine.now + args[0])
        elif kind == "step" and not engine.idle():
            engine.run(until=engine.next_event_time())
        elif kind == "until_done" and procs:
            try:
                note("done", engine.run_until_done(procs[args[0] % len(procs)]))
            except RuntimeError:
                note("deadlock")
        note(kind, engine.idle(), engine.next_event_time(), engine._seq)
    engine.run()
    note("end", engine._seq, [p.finished for p in procs])
    return log


class TestOrderContract:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SCRIPT, min_size=1, max_size=4),
           st.lists(STEP, max_size=10))
    def test_engine_matches_when_seq_oracle(self, scripts, steps):
        assert (execute(Engine(), scripts, steps)
                == execute(OracleEngine(), scripts, steps))

    def test_delay_below_one_ulp_is_due_now(self):
        eng = Engine()
        eng.run(until=1e6)
        fired = []
        eng._schedule(1.0, fired.append, "later")
        eng._schedule(1e-12, fired.append, "sub-ulp")  # 1e6 + 1e-12 == 1e6
        eng._schedule(0.0, fired.append, "zero")
        assert eng.next_event_time() == 1e6
        eng.run(until=1e6)
        assert fired == ["sub-ulp", "zero"]
        eng.run()
        assert fired == ["sub-ulp", "zero", "later"]

    def test_seq_counts_fifo_events(self):
        eng = Engine()
        eng._schedule(0.0, lambda _: eng._schedule(0.0, lambda _: None, None),
                      None)
        eng._schedule(1.0, lambda _: None, None)
        eng.run()
        assert eng._seq == 3

    def test_wakes_count_in_seq(self):
        """Every wake is one event, whichever way it enters: two waiters
        woken by ``succeed`` and a process yielding an event already
        triggered (both straight onto the FIFO), and one joining a
        finished process, each take a ``seq``."""
        eng = Engine()
        ev = eng.event()

        def waiter():
            yield ev

        procs = [eng.process(waiter()) for _ in range(2)]
        eng.run()
        assert eng._seq == 2
        ev.succeed()
        assert eng._seq == 4 and len(eng._due) == 2
        eng.process(waiter())
        eng.run()
        assert eng._seq == 6 and eng.idle()

        def joiner():
            yield procs[0]

        eng.process(joiner())
        eng.run()
        assert eng._seq == 8 and eng.idle()

    def test_idle_and_next_event_time_see_the_fifo(self):
        eng = Engine()
        assert eng.idle() and eng.next_event_time() is None
        eng.run(until=2.0)
        eng.event().succeed()  # no waiter: nothing scheduled
        assert eng.idle()
        eng.process(_ for _ in ())  # a process start is due now
        assert not eng._heap
        assert not eng.idle()
        assert eng.next_event_time() == 2.0
        eng.run(until=2.0)
        assert eng.idle() and eng.now == 2.0


class TestStepping:
    def test_run_until_before_now_raises(self):
        """The clock never rewinds: until < now used to set now = until."""
        eng = Engine()
        fired = []
        eng._schedule(5.0, fired.append, 5.0)
        eng._schedule(9.0, fired.append, 9.0)
        eng.run(until=6.0)
        with pytest.raises(ValueError, match="before now"):
            eng.run(until=2.0)
        assert eng.now == 6.0
        eng._schedule(1.0, fired.append, 7.0)
        eng.run()
        assert fired == [5.0, 7.0, 9.0]

    @pytest.mark.parametrize("schedule", [
        lambda eng: eng.timeout(float("nan")),
        lambda eng: eng.call_at(float("nan"), lambda: None),
        lambda eng: eng.schedule_event(eng.event(), float("nan")),
    ], ids=["timeout", "call_at", "schedule_event"])
    def test_nan_time_refused(self, schedule):
        """A NaN time compares false to everything: on the heap it made
        ``run`` spin for ever, its timestamp never equal to the clock."""
        eng = Engine()
        with pytest.raises(ValueError, match="cannot schedule at nan"):
            schedule(eng)
        assert eng.idle()
        assert eng.run() == 0.0

    def test_run_until_nan_refused(self):
        """``run(until=nan)`` used to leave the clock at NaN, so every
        later schedule was wrong."""
        eng = Engine()
        fired = []
        eng._schedule(1.0, fired.append, 1.0)
        with pytest.raises(ValueError, match="before now"):
            eng.run(until=float("nan"))
        assert eng.now == 0.0
        assert eng.run() == 1.0 and fired == [1.0]

    def test_run_until_done_advances_probe_once_per_timestamp(self):
        eng = Engine()
        advances = []
        eng.attach_probe(SimpleNamespace(on_advance=advances.append))

        def ticker():
            for _ in range(3):
                yield eng.timeout(1.0)

        procs = [eng.process(ticker()) for _ in range(4)]
        eng.run_until_done(procs[-1])
        assert advances == [0.0, 1.0, 2.0, 3.0]
        assert all(p.finished for p in procs)

    def test_run_until_done_limit_stops_before_the_late_event(self):
        eng = Engine()
        advances = []
        eng.attach_probe(SimpleNamespace(on_advance=advances.append))
        fired = []

        def proc():
            yield eng.timeout(1.0)
            fired.append(eng.now)
            yield eng.timeout(10.0)
            fired.append(eng.now)

        p = eng.process(proc())
        with pytest.raises(RuntimeError, match="time limit"):
            eng.run_until_done(p, limit=5.0)
        assert fired == [1.0]
        assert eng.now == 1.0
        assert advances == [0.0, 1.0]
