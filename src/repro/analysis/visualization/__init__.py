"""Volume rendering: the paper's two visualization modes (§III, Fig. 2).

* **Fully in-situ**: every rank ray-casts its full-resolution block; the
  partial images are alpha-composited back-to-front in block visibility
  order — high quality, runs on the simulation cores
  (:func:`~repro.analysis.visualization.compositing.render_blocks_insitu`).
* **Hybrid in-situ/in-transit**: ranks down-sample their blocks at a
  stride (every 8th grid point in Fig. 2) and ship the small copies to a
  single serial staging core, which builds a *look-up table* of block
  bounds and ray-casts directly against it — no visibility sort, no volume
  reconstruction (:func:`~repro.analysis.visualization.downsample.render_intransit`).

Both modes share the camera, transfer function, and ray-marching kernels,
so image differences reflect only the down-sampling — exactly the Fig. 2
comparison.
"""

from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.transfer_function import TransferFunction
from repro.analysis.visualization.volume_render import render_volume
from repro.analysis.visualization.compositing import render_blocks_insitu
from repro.analysis.visualization.downsample import (
    BlockLUT,
    DownsampledBlock,
    downsample_block,
    downsample_decomposed,
    render_intransit,
)
from repro.analysis.visualization.views import ViewSession, ViewSpec

__all__ = [
    "Camera",
    "TransferFunction",
    "render_volume",
    "render_blocks_insitu",
    "BlockLUT",
    "DownsampledBlock",
    "downsample_block",
    "downsample_decomposed",
    "render_intransit",
    "ViewSession",
    "ViewSpec",
]
