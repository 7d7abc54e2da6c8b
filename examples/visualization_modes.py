"""The two visualization modes compared (paper Fig. 2).

Renders the temperature field of the lifted-flame simulation with

(a) the fully in-situ algorithm — every rank ray-casts its
    full-resolution block, partial images composited (overview view);
(b) the hybrid algorithm — blocks down-sampled in-situ (stride 8 in the
    paper; stride 2 and 4 here, scaled to the laptop grid) and rendered
    serially in-transit from the block look-up table;
(c) both again with the Fig. 2 zoom-in camera.

Writes PPM images side by side and reports image error and data reduction.

Run:  python examples/visualization_modes.py
"""

import pathlib

from repro.analysis.visualization import (
    Camera,
    TransferFunction,
    downsample_decomposed,
    render_blocks_insitu,
    render_intransit,
)
from repro.sim import LiftedFlameCase, S3DProxy, StructuredGrid3D
from repro.util import TextTable, fmt_bytes, image_rmse, write_ppm
from repro.vmpi import BlockDecomposition3D


def main() -> None:
    shape = (32, 24, 16)
    grid = StructuredGrid3D(shape, lengths=(4.0, 3.0, 2.0))
    case = LiftedFlameCase(grid, seed=3, kernel_rate=2.0)
    solver = S3DProxy(case)
    print("advancing the lifted-flame simulation 6 steps...")
    solver.step(6)
    temperature = solver.fields["T"]
    decomp = BlockDecomposition3D(shape, (2, 2, 2))

    tf = TransferFunction.hot(float(temperature.min()), float(temperature.max()))
    views = {
        "overview": Camera(image_shape=(48, 48), azimuth_deg=30, elevation_deg=20),
        "zoom": Camera(image_shape=(48, 48), azimuth_deg=30, elevation_deg=20,
                       zoom=2.5, center=(10.0, 12.0, 8.0)),
    }

    outdir = pathlib.Path("repro_out") / "fig2_images"
    outdir.mkdir(parents=True, exist_ok=True)
    table = TextTable(["view", "mode", "payload", "RMSE vs in-situ"],
                      title="\nFig. 2 comparison")

    for view_name, camera in views.items():
        insitu = render_blocks_insitu(temperature, decomp, camera, tf)
        write_ppm(outdir / f"{view_name}_insitu.ppm", insitu)
        table.add_row([view_name, "in-situ full-res",
                       fmt_bytes(temperature.nbytes), 0.0])
        for stride in (2, 4):
            blocks = downsample_decomposed(temperature, decomp, stride)
            hybrid = render_intransit(blocks, shape, camera, tf)
            write_ppm(outdir / f"{view_name}_hybrid_stride{stride}.ppm", hybrid)
            moved = sum(b.nbytes for b in blocks)
            table.add_row([view_name, f"hybrid (stride {stride})",
                           fmt_bytes(moved), round(image_rmse(insitu, hybrid), 4)])
    print(table)
    print(f"\nimages written under {outdir}/ — the hybrid renders convey the "
          f"same structures at a fraction of the data")


if __name__ == "__main__":
    main()
