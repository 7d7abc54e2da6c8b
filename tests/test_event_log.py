"""The event log contract: sites append once, views fold later.

Checks that need no wall clock: the bus's cursor view is
indistinguishable from a bounded ring (a property test against a
small ``deque`` model), an observed replay makes a bounded number of
Python calls into ``repro.obs`` per record it emits, and with the
tracer off that number does not grow with the run.
"""

import os
import sys
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.runner import ExperimentConfig, ScaledExperiment
from repro.obs.live import TelemetryBus
from repro.obs.probes import ProbeSampler
from repro.obs.tracer import Tracer, tracing


class RingModel:
    """Reference model: a bounded ring that evicts one per overflow."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.ring = deque()
        self.published = self.start_seq = self.dropped_total = 0
        self.dropped_by_kind = {}

    def publish(self, kind):
        self.ring.append((self.published, kind))
        self.published += 1
        if len(self.ring) > self.capacity:
            _seq, evicted = self.ring.popleft()
            self.start_seq += 1
            self.dropped_total += 1
            self.dropped_by_kind[evicted] = (
                self.dropped_by_kind.get(evicted, 0) + 1)


class CursorModel:
    def __init__(self, ring):
        self.ring, self.cursor, self.dropped = ring, ring.start_seq, 0

    def poll(self):
        ring = self.ring
        if self.cursor < ring.start_seq:
            self.dropped += ring.start_seq - self.cursor
            self.cursor = ring.start_seq
        events = list(ring.ring)[self.cursor - ring.start_seq:]
        self.cursor += len(events)
        return events

    @property
    def pending(self):
        return self.ring.published - max(self.cursor, self.ring.start_seq)


PROBES = ("p0", "p1")
#: kind -> how many bus events one emit of it is.
EMITS = {"span": 1, "instant": 1, "probe": len(PROBES), "job": 1}

steps = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), st.sampled_from(sorted(EMITS)),
                  st.integers(1, 20)),
        st.tuples(st.just("poll"), st.integers(0, 3), st.none()),
        st.tuples(st.just("subscribe"), st.none(), st.none()),
    ),
    max_size=40)


def _emit(bus, tracer, sampler, kind):
    """One emit of ``kind``: through the tracer's log when attached,
    straight onto the bus otherwise."""
    if tracer is None:
        for _ in range(EMITS[kind]):
            bus.publish(kind, "e", t=0.0)
    elif kind == "span":
        tracer.add_span("s", lane="x", t_start=0.0, t_end=1.0)
    elif kind == "instant":
        tracer.instant("i", lane="x")
    elif kind == "probe":
        sampler.on_advance(float(sampler.n_samples))  # exactly one tick
    else:
        bus.publish(kind, "e", t=0.0)


class TestBusViewMatchesTheRing:
    @given(st.integers(1, 8), st.booleans(), steps)
    @settings(max_examples=200, deadline=None)
    def test_cursor_view_equals_deque_model(self, capacity, attached, steps):
        bus, model = TelemetryBus(capacity), RingModel(capacity)
        tracer = Tracer(clock=lambda: 0.0) if attached else None
        sampler = None
        if attached:
            tracer.instant("before-attach", lane="x")  # not a bus event
            tracer.attach_bus(bus)
            sampler = ProbeSampler(1.0, dict.fromkeys(PROBES, lambda: 1.0),
                                   tracer=tracer)
        subs = [(bus.subscribe("s0"), CursorModel(model))]
        for op, a, b in steps:
            if op == "emit":
                for _ in range(b):
                    _emit(bus, tracer, sampler, a)
                    for _ in range(EMITS[a]):
                        model.publish(a)
            elif op == "subscribe":
                subs.append((bus.subscribe(f"s{len(subs)}"),
                             CursorModel(model)))
            else:
                sub, ref = subs[a % len(subs)]
                assert [(e.seq, e.kind) for e in sub.poll()] == ref.poll()
            assert (bus.published, bus.start_seq, bus.dropped_total,
                    len(bus)) == (model.published, model.start_seq,
                                  model.dropped_total, len(model.ring))
            assert bus.dropped_by_kind == model.dropped_by_kind
            for sub, ref in subs:
                assert (sub.dropped, sub.pending) == (ref.dropped,
                                                      ref.pending)
        for sub, ref in subs:
            assert [(e.seq, e.kind) for e in sub.poll()] == ref.poll()
            assert (sub.cursor, sub.dropped) == (ref.cursor, ref.dropped)


_OBS_DIR = os.sep + os.path.join("repro", "obs") + os.sep


def _obs_calls(fn):
    """``(fn(), Python calls into repro.obs while it ran)``, counted with
    ``sys.setprofile``."""
    calls = 0

    def count_obs_calls(frame, event, arg):
        nonlocal calls
        if event == "call" and _OBS_DIR in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(count_obs_calls)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def test_observed_replay_stays_within_four_obs_calls_per_record():
    """Hot-path guard: with tracer, bus, probes and ledger all on, the
    replay makes at most 4 Python calls into ``repro.obs`` per record it
    emits (spans + instants + probe samples + ledger deltas — the bus
    event count). Counted, not timed."""
    experiment = ScaledExperiment(ExperimentConfig.paper_4896())
    bus = TelemetryBus()
    with tracing() as tracer:
        tracer.attach_bus(bus)
        result, calls = _obs_calls(lambda: experiment.run_schedule(
            n_steps=10, n_buckets=8,
            probe_interval=0.25 * experiment.simulation_step_time()))
    report = result.capacity
    records = (len(tracer.trace.spans) + len(tracer.trace.instants)
               + sum(len(s) for s in result.probes.series.values())
               + report.n_registers + report.n_releases + report.n_transfers)
    assert records == bus.published > 0
    assert calls / records <= 4.0, (calls, records)


def test_tracer_off_paths_make_a_fixed_number_of_obs_calls():
    """Tracer-off guard: with the tracer off, ``breakdown()`` makes one
    call into ``repro.obs`` (the ``get_tracer()`` lookup), and an
    untraced replay makes as many at 40 steps as at 10 — the disabled
    observers cost nothing per step, event or task. Counted, not timed."""
    experiment = ScaledExperiment(ExperimentConfig.paper_4896())
    assert _obs_calls(experiment.breakdown)[1] == 1
    short, long_ = (_obs_calls(lambda n=n: experiment.run_schedule(
        n_steps=n, n_buckets=8))[1] for n in (10, 40))
    assert short == long_ > 0, (short, long_)
