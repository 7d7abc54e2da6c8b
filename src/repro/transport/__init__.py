"""DART-like asynchronous transport substrate (paper §IV, comm layer).

Reproduces the structure of DART on Cray Gemini:

* *registration* of RDMA-enabled memory regions holding in-situ results
  (:class:`~repro.transport.rdma.RdmaRegion`);
* *short messages* (SMSG/FMA) for event notification — data-ready and
  bucket-ready RPCs;
* *block transfers* (BTE RDMA Get) for asynchronous pulls of registered
  regions by in-transit buckets, with completion events delivered at both
  endpoints;
* dynamic protocol selection by message size
  (:meth:`repro.machine.gemini.GeminiNetwork.select_protocol`).

Payloads are real Python/NumPy objects; transfer *times* come from the
network model and play out on the DES engine, with per-node NIC
serialisation so concurrent pulls into one staging node queue realistically.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "DataDescriptor": "messages",
    "TransferRecord": "messages",
    "RdmaRegion": "rdma",
    "RdmaRegistry": "rdma",
    "DartTransport": "dart",
    "PullFault": "dart",
})
