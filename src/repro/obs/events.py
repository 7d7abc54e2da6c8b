"""The event log: instrumentation sites append, every view folds.

A recording :class:`~repro.obs.tracer.Tracer` owns one append-only,
DES-stamped list, ``tracer.log``, and every observer of the run writes
to it: one record, one append, a few scalar updates. Span/instant lists,
probe series and gauges, ledger accounts, bus events, blame and the
Chrome trace are folds over it, run on read, ``poll()`` or
``finalize()`` (DESIGN.md §4c has the record layout and the fold table).

Records: :class:`~repro.obs.tracer.SpanRecord` (appended when the span
closes), :class:`~repro.obs.tracer.InstantRecord`, :class:`SampleRow`,
:class:`LedgerEntry` / :class:`TransferEntry`, and ready-made
:class:`~repro.obs.live.BusEvent` records for direct publishes. Each
class carries its bus ``kind``. **Log position is bus sequence**: every
slot is exactly one bus event, so a :class:`SampleRow` — one value per
probe — fills one slot per probe (the same object ``len(names)`` times,
from one ``list.extend``) and slot ``pos0 + k`` is probe ``k``'s event.
The log is never trimmed or reordered. Observers running without a
recording tracer keep their records to themselves.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["SampleRow", "LedgerEntry", "TransferEntry", "UNATTRIBUTED"]

#: Tenant/job key of a ledger delta recorded outside any tracer context.
UNATTRIBUTED = "-"


class SampleRow(NamedTuple):
    """One sampler tick: every probe's value at one DES instant."""

    t: float
    #: Log position of the row's first slot (probe ``k`` is ``pos0 + k``).
    pos0: int
    #: Probe names, shared by every row of one sampler (and its identity).
    names: tuple[str, ...]
    values: tuple[float, ...]
    tenant: str | None
    job: str | None

    kind = "probe"


class LedgerEntry(NamedTuple):
    """One staging-memory ledger transition (register / release / leak)."""

    t: float
    op: str  # "register" | "release" | "leak"
    region_id: str
    nbytes: int
    #: Global resident bytes immediately after this transition.
    resident: int
    shard: str
    source: str
    tenant: str
    job: str
    analysis: str | None = None
    timestep: int | None = None

    kind = "capacity"



class TransferEntry(NamedTuple):
    """One granted-bytes NIC interval (the wire time of an RDMA pull)."""

    t_start: float
    t_end: float
    nbytes: int
    protocol: str
    src: str
    dest: str
    shard: str
    tenant: str
    job: str
    analysis: str | None = None

    kind = "capacity"

