"""DART: asynchronous data transport over the DES engine.

Maps the paper's description (§IV, *Communication and Data Movement Layer*)
onto simulated machinery:

* ``notify`` — SMSG/FMA short message carrying an RPC or descriptor;
  delivered after the small-message latency, no NIC occupancy modeled
  (OS-bypass, fire-and-forget);
* ``pull`` — BTE RDMA Get: the destination posts a get, both endpoints'
  NICs are occupied for the wire time, and completion events fire at source
  and destination (DART uses these to schedule follow-on analysis).

Every completed transfer is appended to ``transfers`` for tracing.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.des import Engine, EventHandle, Resource
from repro.machine.gemini import GeminiNetwork
from repro.obs.flow import FlowContext
from repro.obs.tracer import get_tracer
from repro.transport.messages import DataDescriptor, TransferRecord
from repro.transport.rdma import RdmaRegion, RdmaRegistry


class PullFault(Exception):
    """A transient RDMA Get failure (NIC error, staging-node hiccup).

    Raised by the pull fault hook; :meth:`DartTransport.pull` retries with
    exponential backoff up to ``pull_max_attempts`` before re-raising.
    """


class DartTransport:
    """Asynchronous transport between named nodes on one DES engine."""

    #: A failed pull attempt ``k`` is retried after
    #: ``pull_backoff_base * pull_backoff_factor ** (k - 1)`` seconds.
    pull_backoff_base = 1.0e-4
    pull_backoff_factor = 2.0

    def __init__(self, engine: Engine, network: GeminiNetwork | None = None,
                 pull_max_attempts: int = 1) -> None:
        if pull_max_attempts < 1:
            raise ValueError(
                f"pull_max_attempts must be >= 1, got {pull_max_attempts}")
        self.engine = engine
        self.network = network or GeminiNetwork()
        self.registry = RdmaRegistry()
        self.transfers: list[TransferRecord] = []
        self._nics: dict[str, Resource] = {}
        #: ``sum(nic.in_use)`` over ``_nics``, kept by every pull.
        self._busy_channels = 0
        self._tracer = get_tracer()
        self.pull_max_attempts = pull_max_attempts
        #: Fault-injection hook called per pull attempt with
        #: ``(descriptor, dest_node, attempt)``; returns extra stall
        #: seconds (0.0 = none) or raises :class:`PullFault` to fail the
        #: attempt. Installed by :class:`repro.faults.FaultInjector`.
        self.pull_fault_hook: Callable[
            [DataDescriptor, str, int], float] | None = None
        #: Capacity ledger (:class:`repro.obs.capacity.CapacityLedger`)
        #: recording granted-bytes wire intervals, or None — the pull
        #: path pays one ``is None`` check without one.
        self.ledger: Any = None
        self.ledger_shard = "shard0"

    # -- registration ---------------------------------------------------------

    def register(self, source_node: str, payload: Any,
                 meta: dict[str, Any] | None = None,
                 nbytes: int | None = None) -> DataDescriptor:
        """Register a payload; returns the descriptor to advertise."""
        region = self.registry.register(source_node, payload, meta, nbytes)
        return DataDescriptor(region.region_id, source_node, region.nbytes,
                              region.meta)

    def release(self, descriptor: DataDescriptor) -> None:
        self.registry.release(descriptor.region_id)

    # -- short messages ---------------------------------------------------------

    def notify(self, dest_node: str, payload: Any, nbytes: int | None = None,
               on_delivery: Callable[[Any], None] | None = None) -> EventHandle:
        """Send an SMSG-scale message; event triggers with the payload on
        delivery at ``dest_node``."""
        size = nbytes if nbytes is not None else 256
        delay = self.network.transfer_time(size)
        if self._tracer.enabled:
            self._tracer.step("dart.notify", dest_node, nbytes=size)
        ev = EventHandle(self.engine)
        if on_delivery is not None:
            ev._callbacks = [on_delivery]  # a fresh event has none yet
        self.engine.schedule_event(ev, delay, payload)
        return ev

    # -- bulk pulls ---------------------------------------------------------------

    def _nic(self, node: str) -> Resource:
        nic = self._nics.get(node)
        if nic is None:
            # One channel per node: concurrent pulls into it serialise.
            nic = self._nics[node] = Resource(self.engine, 1,
                                              name=f"nic:{node}")
        return nic

    def nic_busy_channels(self) -> int:
        """NIC channels currently occupied by in-flight pulls, across all
        nodes (the live-probe utilisation gauge)."""
        return self._busy_channels

    def pull(self, descriptor: DataDescriptor, dest_node: str,
             release: bool = True, flow: FlowContext | None = None
             ) -> Generator[Any, Any, Any]:
        """DES process: RDMA-Get the region into ``dest_node``.

        Usage inside a process::

            payload = yield from transport.pull(desc, "staging-3")

        Occupies both endpoints' NICs for the wire time; appends a
        :class:`TransferRecord`; optionally releases the region (the
        common case — the producer's scratch buffer is freed as soon as
        the staging area holds the data).

        Transient :class:`PullFault` attempts (raised by the fault hook)
        are retried with exponential backoff up to ``pull_max_attempts``;
        the last failure re-raises to the caller. Lookup errors (pulling a
        released or unknown region) are permanent and never retried.

        ``flow`` (a causal flow context, or None) collects the pull's
        hand-off edges: a *retry* hop after each failed attempt's backoff
        and a *grant* hop binding the wire-time span, so NIC queueing and
        retry cost are attributable per flow.
        """
        tracer = self._tracer
        attempt = 1
        while True:  # only the hook fails an attempt: retry up to it
            region: RdmaRegion = self.registry.lookup(descriptor.region_id)
            try:
                stall = (0.0 if self.pull_fault_hook is None else
                         self.pull_fault_hook(descriptor, dest_node, attempt))
                break
            except PullFault:
                if attempt >= self.pull_max_attempts:
                    tracer.step("dart.pull_exhausted", dest_node,
                                region=descriptor.region_id, attempts=attempt)
                    raise
            delay = (self.pull_backoff_base
                     * self.pull_backoff_factor ** (attempt - 1))
            tracer.step("dart.pull_retry", dest_node,
                        region=descriptor.region_id, attempt=attempt,
                        backoff=delay)
            yield self.engine.timeout(delay)
            tracer.step("dart.pull_backoff", dest_node, flow=flow,
                        region=descriptor.region_id, attempt=attempt,
                        backoff=delay)
            attempt += 1

        protocol = self.network.select_protocol(region.nbytes)
        start = self.engine.now
        src_nic = self._nic(region.source_node)
        dst_nic = self._nic(dest_node)
        # Acquire destination first (the puller posts the Get), then source.
        # Withdraw a pending request if the puller dies while queueing — a
        # crashed bucket must not leak NIC capacity. ``_busy_channels``
        # follows every change of an ``in_use``: a grant made at once takes
        # a channel, a release or cancel frees one unless a waiter took it.
        dst_grant = dst_nic.acquire()
        self._busy_channels += dst_grant.triggered
        try:
            yield dst_grant
        except BaseException:
            self._busy_channels -= dst_nic.cancel(dst_grant)
            raise
        try:
            src_grant = src_nic.acquire()
            self._busy_channels += src_grant.triggered
            try:
                yield src_grant
            except BaseException:
                self._busy_channels -= src_nic.cancel(src_grant)
                raise
            try:
                wire = self.network.transfer_time(region.nbytes, protocol) + stall
                if stall:
                    tracer.step("dart.pull_stall", stall=stall)
                if tracer.enabled:
                    # The span covers only the wire time (NIC waits show up
                    # as gaps); tagged for per-analysis stage totals.
                    tags = {}
                    if "analysis" in region.meta:
                        tags["analysis"] = region.meta["analysis"]
                    if "timestep" in region.meta:
                        tags["step"] = region.meta["timestep"]
                    sp = tracer.begin("rdma.pull", lane=dest_node,
                                      category="transfer", stage="movement",
                                      protocol=protocol, nbytes=region.nbytes,
                                      src=region.source_node, **tags)
                    try:
                        tracer.step("dart.grant", span=sp, flow=flow,
                                    region=region.region_id)
                        yield self.engine.timeout(wire)
                    finally:
                        tracer.end(sp)
                    tracer.step("dart.pull", protocol=protocol.name.lower(),
                                nbytes=region.nbytes)
                else:
                    yield self.engine.timeout(wire)
            finally:
                self._busy_channels -= src_nic.release()
        finally:
            self._busy_channels -= dst_nic.release()

        if self.ledger is not None:
            # The granted-bytes interval is the wire time only — NIC
            # channel queueing shows up as idle, not occupancy.
            end = self.engine.now
            self.ledger.on_transfer(end - wire, end, region.nbytes,
                                    protocol.name, region.source_node,
                                    dest_node, self.ledger_shard,
                                    analysis=region.meta.get("analysis"))

        self.transfers.append(TransferRecord(
            region.region_id, region.source_node, dest_node, region.nbytes,
            protocol, start, self.engine.now))
        region.pull_count += 1
        if release:
            self.registry.release(descriptor.region_id)
        return region.payload

    # -- tracing -------------------------------------------------------------------

    def bytes_moved(self) -> int:
        return sum(t.nbytes for t in self.transfers)
