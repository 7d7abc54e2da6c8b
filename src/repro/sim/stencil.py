"""Finite-difference stencils and block ghost exchange.

The solver's operators act on one block padded with a ghost layer copied
from its neighbours (:func:`pad_with_ghosts`), or on a stack of
same-shape blocks with the ranks as a leading axis: they read the
shifted operands through slice views and return interior-shaped output.
A 1×1×1 decomposition pads the whole grid with its own periodic wrap.
"""

from __future__ import annotations

import numpy as np

from repro.vmpi.decomp import BlockDecomposition3D


_INTERIOR = (Ellipsis,) + (slice(1, -1),) * 3


def _shifted_views(padded: np.ndarray, axis: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Interior-shaped views of a padded block's ``+1`` and ``-1``
    neighbours along spatial ``axis``."""
    plus = list(_INTERIOR)
    minus = list(_INTERIOR)
    plus[1 + axis] = slice(2, None)
    minus[1 + axis] = slice(None, -2)
    return padded[tuple(plus)], padded[tuple(minus)]


def block_laplacian(padded: np.ndarray, spacing: tuple[float, float, float]
                    ) -> np.ndarray:
    """Second-order 7-point Laplacian on the interior of a
    one-ghost-padded block, or of a stack of them: the last three axes
    are the spatial ones."""
    f = np.ascontiguousarray(padded[_INTERIOR])
    out = np.zeros_like(f)
    for axis in range(3):
        h2 = spacing[axis] ** 2
        plus, minus = _shifted_views(padded, axis)
        out += (plus - 2.0 * f + minus) / h2
    return out


def block_upwind_advection(padded: np.ndarray,
                           velocity: tuple[np.ndarray, np.ndarray, np.ndarray],
                           spacing: tuple[float, float, float]) -> np.ndarray:
    """First-order upwind ``-(u . grad f)`` on the interior of a
    one-ghost-padded block or stack of blocks; ``velocity`` is
    interior-shaped (the stencil reads it at the cell itself only).

    Upwinding keeps the explicit scheme monotone at the jet's sharp
    gradients, which matters for keeping species mass fractions in [0, 1].
    """
    f = np.ascontiguousarray(padded[_INTERIOR])
    dfdt = np.zeros_like(f)
    for axis, u in enumerate(velocity):
        h = spacing[axis]
        plus, minus = _shifted_views(padded, axis)
        fwd = (plus - f) / h
        bwd = (f - minus) / h
        dfdt -= np.where(u > 0, u * bwd, u * fwd)
    return dfdt


def pad_with_ghosts(parts: list[np.ndarray], decomp: BlockDecomposition3D,
                    out: list[np.ndarray] | None = None
                    ) -> list[np.ndarray]:
    """Pad every block with one ghost layer from its neighbours (the
    stencils are radius-1).

    Equivalent to S3D's halo exchange with periodic global topology. The
    implementation assembles the global array inside a wrapped border and
    re-slices; the *communication volume* this represents is charged
    separately by the performance layer (each block exchanges its six
    faces). ``out`` (one padded-block-shaped array per rank) is filled
    and returned instead of fresh arrays — the entries of one stacked
    array, when the block operators are to run over the ranks at once.
    """
    global_field = decomp.gather(parts)
    wrapped = np.empty(tuple(n + 2 for n in global_field.shape),
                       dtype=global_field.dtype)
    wrapped[1:-1, 1:-1, 1:-1] = global_field
    # Axis by axis, each pass copying the borders the earlier passes
    # filled, so edges and corners wrap too.
    wrapped[:1] = wrapped[-2:-1]
    wrapped[-1:] = wrapped[1:2]
    wrapped[:, :1] = wrapped[:, -2:-1]
    wrapped[:, -1:] = wrapped[:, 1:2]
    wrapped[:, :, :1] = wrapped[:, :, -2:-1]
    wrapped[:, :, -1:] = wrapped[:, :, 1:2]
    padded = [wrapped[tuple(slice(lo, hi + 2)
                            for lo, hi in zip(b.lo, b.hi))]
              for b in decomp.blocks()]
    if out is None:
        return [np.ascontiguousarray(p) for p in padded]
    for dst, src in zip(out, padded):
        dst[...] = src
    return out
