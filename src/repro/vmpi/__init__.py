"""Virtual MPI: decomposition and collectives without an MPI runtime.

The paper's codes (S3D, the VTK statistics engine, the in-situ analytics)
are MPI programs. This package reproduces their *semantics* inside one
process:

* :class:`~repro.vmpi.decomp.BlockDecomposition3D` mirrors S3D's 3-D
  domain decomposition (each core owns an ``nx × ny × nz`` sub-brick);
* :class:`~repro.vmpi.comm.VirtualComm` provides functional collectives
  (reduce, allreduce) over the actual per-rank buffers, so results are
  bit-comparable to serial references;
* :mod:`~repro.vmpi.collectives` provides analytic time costs for each
  collective on a given network model, charged by the performance layer.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "Block3D": "decomp",
    "BlockDecomposition3D": "decomp",
    "CommTracker": "comm",
    "VirtualComm": "comm",
    "allreduce_time": "collectives",
    "bcast_time": "collectives",
    "reduce_time": "collectives",
})
