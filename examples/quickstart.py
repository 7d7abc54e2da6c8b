"""Quickstart: run the hybrid in-situ/in-transit pipeline end to end.

Simulates a small lifted hydrogen jet flame with the S3D proxy, decomposed
over 8 virtual ranks, and runs all three of the paper's analyses
concurrently with the simulation:

* descriptive statistics (learn in-situ, derive in-transit),
* merge-tree topology (subtrees in-situ, streaming glue in-transit),
* volume rendering (down-sample in-situ, LUT render in-transit).

Run:  python examples/quickstart.py
"""

import pathlib

from repro.core import HybridFramework
from repro.sim import LiftedFlameCase, StructuredGrid3D
from repro.util import TextTable, fmt_bytes, write_ppm
from repro.vmpi import BlockDecomposition3D


def main() -> None:
    shape = (24, 16, 12)
    grid = StructuredGrid3D(shape, lengths=(3.0, 2.0, 1.5))
    case = LiftedFlameCase(grid, seed=7, kernel_rate=1.5)
    decomp = BlockDecomposition3D(shape, proc_grid=(2, 2, 2))

    framework = HybridFramework(
        case, decomp,
        analyses=("statistics", "topology", "visualization"),
        stats_variables=("T", "H2", "OH"),
        downsample_stride=2,
        n_buckets=4,
    )
    print(f"simulating {shape} grid on {decomp.n_ranks} virtual ranks, "
          f"analysing every step...")
    result = framework.run(n_steps=5)

    table = TextTable(["step", "mean T", "max T", "T std", "merge-tree maxima"],
                      title="\nPer-step concurrent analysis results")
    for step in result.analysed_steps:
        stats = result.statistics[step]["T"]
        tree = result.merge_trees[step].reduced()
        table.add_row([step, round(stats.mean, 4), round(stats.maximum, 3),
                       round(stats.std, 4), len(tree.leaves())])
    print(table)

    out = pathlib.Path("repro_out") / "quickstart_render.ppm"
    out.parent.mkdir(exist_ok=True)
    write_ppm(out, result.hybrid_images[result.analysed_steps[-1]])
    print(f"\nin-transit rendered frame written to {out}")
    print(f"intermediate data moved through staging: {fmt_bytes(result.bytes_moved)}")
    print(f"raw solution state per step would have been: "
          f"{fmt_bytes(framework.solver.assemble().nbytes)}")


if __name__ == "__main__":
    main()
