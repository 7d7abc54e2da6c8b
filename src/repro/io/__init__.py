"""ADIOS-like I/O: a self-describing container format + the checkpoint
timing model.

The paper writes checkpoints with ADIOS on a Lustre filesystem,
single-file-per-process (Table I's I/O rows). This package provides:

* :class:`~repro.io.bp.BPFile` — a minimal self-describing binary
  container (header + named typed variables with shape metadata), the
  moral equivalent of ADIOS's BP format;
* :class:`~repro.io.fpp.IOTimeModel` — charges the Lustre model for the
  bytes written/read, reproducing Table I's core-count-independent I/O
  times.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "BPFile": "bp",
    "IOTimeModel": "fpp",
})
