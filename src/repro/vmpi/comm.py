"""The virtual communicator: functional collectives over per-rank values.

``VirtualComm`` stands in for the communicator of an SPMD program inside
one process: collectives operate on the list of per-rank contributions. A
:class:`CommTracker` records every collective's modeled time and byte
volume so the performance layer can charge communication to the simulated
machine.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backend import kernel
from repro.machine.gemini import GeminiNetwork
from repro.obs.flow import EDGE_COLLECTIVE, FlowContext
from repro.obs.tracer import get_tracer
from repro.vmpi import collectives as coll


def payload_bytes(value: Any) -> int:
    """Byte size of a collective payload.

    NumPy arrays report their buffer size; other objects are costed at
    their pickle size (mirroring mpi4py's lowercase-method semantics).
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class CommRecord:
    """One collective operation's modeled cost."""

    op: str
    n_ranks: int
    nbytes: int
    time: float


@dataclass
class CommTracker:
    """Accumulates modeled communication costs for a VirtualComm."""

    records: list[CommRecord] = field(default_factory=list)
    #: Causal flow the communicator's collectives currently feed (set by
    #: the driver around an in-situ stage; None = untracked).
    flow: FlowContext | None = None

    def __post_init__(self) -> None:
        self._tracer = get_tracer()

    def add(self, op: str, n_ranks: int, nbytes: int, time: float) -> None:
        self.records.append(CommRecord(op, n_ranks, nbytes, time))
        if self._tracer.enabled:
            # Single chokepoint for every VirtualComm collective.
            self._tracer.counter(f"vmpi.{op}")
            self._tracer.counter("vmpi.coll_bytes", nbytes)
            self._tracer.metrics.histogram("vmpi.coll_time").observe(time)
            self._tracer.instant(f"vmpi.{op}", lane="vmpi", n_ranks=n_ranks,
                                 nbytes=nbytes, modeled_time=time)
            if self.flow is not None:
                self._tracer.flow_step(self.flow, EDGE_COLLECTIVE, "vmpi",
                                       op=op, n_ranks=n_ranks, nbytes=nbytes,
                                       modeled_time=time,
                                       rounds=coll.rounds(op, n_ranks))

    @property
    def total_time(self) -> float:
        return sum(r.time for r in self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    def count(self, op: str) -> int:
        return sum(1 for r in self.records if r.op == op)

    def clear(self) -> None:
        self.records.clear()


@kernel("vmpi.pairwise_reduce")
def _pairwise_reduce(values: list[Any], op: Callable[[Any, Any], Any]) -> Any:
    """Tree-order (pairwise) reduction — the order real MPI trees use.

    Pairwise order matters for floating-point reproducibility claims: it is
    deterministic for a fixed rank count and numerically better conditioned
    than left-to-right folding.

    Backend seam: the numpy backend stacks same-shape ndarray contributions
    and folds whole tree levels in single elementwise array operations —
    the *same* pairing, so results stay bit-identical.
    """
    vals = list(values)
    if not vals:
        raise ValueError("cannot reduce an empty contribution list")
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(op(vals[i], vals[i + 1]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


class VirtualComm:
    """A communicator over ``n_ranks`` virtual ranks.

    Functional collectives take a sequence of length ``n_ranks`` holding
    each rank's contribution and return what MPI would deliver. Every call
    is costed on ``network`` and recorded in :attr:`tracker`.
    """

    def __init__(self, n_ranks: int,
                 network: GeminiNetwork | None = None) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.network = network or GeminiNetwork()
        self.tracker = CommTracker()

    @property
    def flow(self) -> FlowContext | None:
        """Causal flow the next collectives charge their hops to
        (stored on the tracker — the single recording chokepoint)."""
        return self.tracker.flow

    @flow.setter
    def flow(self, flow: FlowContext | None) -> None:
        self.tracker.flow = flow

    # -- collectives ----------------------------------------------------------

    def _require_all_ranks(self, values: Sequence[Any]) -> None:
        if len(values) != self.n_ranks:
            raise ValueError(
                f"collective needs {self.n_ranks} contributions, got {len(values)}"
            )

    def reduce(self, values: Sequence[Any], op: Callable[[Any, Any], Any]
               ) -> Any:
        """Reduce all contributions to rank 0; returns the reduced value."""
        self._require_all_ranks(values)
        nbytes = payload_bytes(values[0])
        self.tracker.add("reduce", self.n_ranks, nbytes,
                         coll.reduce_time(self.network, self.n_ranks, nbytes))
        return _pairwise_reduce(list(values), op)

    def allreduce(self, values: Sequence[Any], op: Callable[[Any, Any], Any]) -> list[Any]:
        """All-reduce: every rank receives the reduced value."""
        self._require_all_ranks(values)
        nbytes = payload_bytes(values[0])
        self.tracker.add("allreduce", self.n_ranks, nbytes,
                         coll.allreduce_time(self.network, self.n_ranks, nbytes))
        result = _pairwise_reduce(list(values), op)
        return [result] * self.n_ranks
