"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES engine in the style of SimPy:

* :class:`~repro.des.engine.Engine` owns the event heap and simulated clock;
* processes are plain generator functions that ``yield`` events
  (:meth:`Engine.timeout`, :class:`~repro.des.engine.EventHandle`, store gets);
* :class:`~repro.des.resources.Store` and
  :class:`~repro.des.resources.Resource` provide FIFO queues and counted
  resources used to model staging buckets, network links and I/O servers.

Determinism: ties in time are broken by insertion order (a monotonically
increasing sequence number), so repeated runs produce identical traces.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "Engine": "engine",
    "EventHandle": "engine",
    "Interrupt": "engine",
    "ProcessHandle": "engine",
    "Resource": "resources",
    "Store": "resources",
})
