"""ADIOS-like I/O: a self-describing container format + file-per-process.

The paper writes checkpoints with ADIOS on a Lustre filesystem,
single-file-per-process (Table I's I/O rows). This package provides:

* :class:`~repro.io.bp.BPFile` — a minimal self-describing binary
  container (header + named typed variables with shape metadata), the
  moral equivalent of ADIOS's BP format;
* :func:`~repro.io.fpp.write_file_per_process` /
  :func:`~repro.io.fpp.read_file_per_process` — file-per-process dataset
  output over a block decomposition, with a global metadata index;
* :class:`~repro.io.fpp.IOTimeModel` — charges the Lustre model for the
  bytes written/read, reproducing Table I's core-count-independent I/O
  times.
"""

from repro._lazy import export_lazily

export_lazily(__name__, {
    "BPFile": "bp",
    "IOTimeModel": "fpp",
    "read_file_per_process": "fpp",
    "write_file_per_process": "fpp",
})
