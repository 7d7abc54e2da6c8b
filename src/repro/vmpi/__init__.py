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

from repro.vmpi.decomp import Block3D, BlockDecomposition3D
from repro.vmpi.comm import CommTracker, VirtualComm
from repro.vmpi.collectives import (
    allreduce_time,
    bcast_time,
    reduce_time,
)

__all__ = [
    "Block3D",
    "BlockDecomposition3D",
    "CommTracker",
    "VirtualComm",
    "allreduce_time",
    "bcast_time",
    "reduce_time",
]
