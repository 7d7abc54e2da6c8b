"""Linked multi-view rendering sessions (paper §III).

"Multiple instances of each visualization mode can be dynamically created
in-situ and/or in-transit on demand, enabling scientists to explore
different aspects of simulation and analysis data in linked-views."

A :class:`ViewSession` manages named views — each with its own variable,
camera, mode (in-situ full-resolution or hybrid down-sampled), and
transfer function — created and removed on demand. Views are *linked*
through a shared feature selection: highlighting a segmentation feature
overlays its region in every view, connecting the topological analysis to
the rendered images.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.topology.segmentation import Segmentation
from repro.analysis.visualization.camera import Camera
from repro.analysis.visualization.compositing import render_blocks_insitu
from repro.analysis.visualization.downsample import (
    downsample_decomposed,
    render_intransit,
)
from repro.analysis.visualization.transfer_function import TransferFunction
from repro.analysis.visualization.volume_render import (
    march_rays,
    reject_nonfinite,
    trilinear_sampler,
)
from repro.vmpi.decomp import BlockDecomposition3D

_MODES = ("insitu", "hybrid")


@dataclass
class ViewSpec:
    """One view's configuration."""

    name: str
    variable: str
    camera: Camera = field(default_factory=lambda: Camera(image_shape=(32, 32)))
    mode: str = "insitu"
    downsample_stride: int = 2
    transfer_function: TransferFunction | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.downsample_stride < 1:
            raise ValueError("downsample_stride must be >= 1")


class ViewSession:
    """A set of linked views over one decomposed domain."""

    def __init__(self, decomp: BlockDecomposition3D,
                 views: list[ViewSpec] | None = None) -> None:
        self.decomp = decomp
        self._views: dict[str, ViewSpec] = {}
        for v in views or []:
            self.add_view(v)

    # -- dynamic view management (the "on demand" part) -------------------------

    def add_view(self, view: ViewSpec) -> None:
        if view.name in self._views:
            raise ValueError(f"view {view.name!r} already exists")
        self._views[view.name] = view

    @property
    def view_names(self) -> list[str]:
        return sorted(self._views)

    # -- rendering ------------------------------------------------------------

    def _tf_for(self, view: ViewSpec, data: np.ndarray) -> TransferFunction:
        if view.transfer_function is not None:
            return view.transfer_function
        lo, hi = float(data.min()), float(data.max())
        return TransferFunction.hot(lo, max(hi, lo + 1e-9))

    def _render_one(self, view: ViewSpec, fields: dict[str, np.ndarray]
                    ) -> np.ndarray:
        try:
            data = fields[view.variable]
        except KeyError:
            raise KeyError(
                f"view {view.name!r} needs variable {view.variable!r}; "
                f"have {sorted(fields)}") from None
        reject_nonfinite(data, f"variable {view.variable!r}")
        tf = self._tf_for(view, data)
        if view.mode == "insitu":
            return render_blocks_insitu(data, self.decomp, view.camera, tf)
        blocks = downsample_decomposed(data, self.decomp,
                                       view.downsample_stride)
        return render_intransit(blocks, self.decomp.global_shape,
                                view.camera, tf)

    def _highlight_overlay(self, view: ViewSpec, segmentation: Segmentation,
                           label: int) -> tuple[np.ndarray, np.ndarray]:
        """Premultiplied (rgb, alpha) of the selected feature's region."""
        mask = segmentation.mask(label).astype(np.float64)
        r, g, b = 0.1, 0.9, 0.2  # the selection's green
        tf = TransferFunction((
            (0.0, r, g, b, 0.0),
            (0.5, r, g, b, 0.0),
            (1.0, r, g, b, 0.35),
        ))
        shape = self.decomp.global_shape
        return march_rays(trilinear_sampler(mask), shape,
                          view.camera.rays(shape), tf)

    def render_all(self, fields: dict[str, np.ndarray],
                   highlight: tuple[Segmentation, int] | None = None
                   ) -> dict[str, np.ndarray]:
        """Render every view; optionally overlay one linked feature.

        ``highlight = (segmentation, feature_label)`` draws the feature's
        region — the same region, in every view, whatever each view's
        variable or mode — the linked-selection interaction.
        """
        if not self._views:
            raise RuntimeError("session has no views")
        out: dict[str, np.ndarray] = {}
        for name in self.view_names:
            view = self._views[name]
            base = self._render_one(view, fields)
            if highlight is not None:
                seg, label = highlight
                if seg.labels.shape != self.decomp.global_shape:
                    raise ValueError(
                        f"segmentation shape {seg.labels.shape} != domain "
                        f"{self.decomp.global_shape}")
                o_rgb, o_a = self._highlight_overlay(view, seg, label)
                base = o_rgb + (1.0 - o_a[..., None]) * base
            out[name] = base
        return out
