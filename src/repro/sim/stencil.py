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
    two_f = 2.0 * f
    out = np.zeros_like(f)
    for axis in range(3):
        plus, minus = _shifted_views(padded, axis)
        # ``((plus - 2f) + minus) / h2``, the operand order of the
        # expression written out, one temporary reused in place.
        term = plus - two_f
        term += minus
        term /= spacing[axis] ** 2
        out += term
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
        plus, minus = _shifted_views(padded, axis)
        # Select the upwind difference, then scale only it: the same two
        # roundings as ``u * ((f - minus) / h)`` (IEEE multiplication
        # commutes), without scaling the discarded branch.
        term = np.where(u > 0, f - minus, plus - f)
        term /= spacing[axis]
        term *= u
        dfdt -= term
    return dfdt


def pad_with_ghosts(parts: list[np.ndarray], decomp: BlockDecomposition3D,
                    out: list[np.ndarray] | None = None
                    ) -> list[np.ndarray]:
    """Pad every block with one ghost layer from its neighbours (the
    stencils are radius-1).

    Equivalent to S3D's halo exchange with periodic global topology. The
    implementation writes every block into the interior of one wrapped
    global array, fills its border from the opposite faces and re-slices;
    the *communication volume* this represents is charged separately by
    the performance layer (each block exchanges its six faces). ``out``
    (one padded-block-shaped array per rank) is filled and returned
    instead of fresh arrays — the entries of one stacked array, when the
    block operators are to run over the ranks at once.
    """
    blocks = decomp.blocks()
    if len(parts) != len(blocks):
        raise ValueError(f"expected {len(blocks)} parts, got {len(parts)}")
    wrapped = np.empty(tuple(n + 2 for n in decomp.global_shape),
                       dtype=parts[0].dtype)
    # A block spans [lo, hi) of the global grid: [lo + 1, hi + 1) of the
    # wrapped array, and [lo, hi + 2) with its ghost layer.
    windows = []
    for b, part in zip(blocks, parts):
        if part.shape != b.shape:
            raise ValueError(
                f"rank {b.rank}: part shape {part.shape} != block {b.shape}")
        (x0, y0, z0), (x1, y1, z1) = b.lo, b.hi
        wrapped[x0 + 1:x1 + 1, y0 + 1:y1 + 1, z0 + 1:z1 + 1] = part
        windows.append((slice(x0, x1 + 2), slice(y0, y1 + 2),
                        slice(z0, z1 + 2)))
    # Axis by axis, each pass copying the borders the earlier passes
    # filled, so edges and corners wrap too.
    wrapped[:1] = wrapped[-2:-1]
    wrapped[-1:] = wrapped[1:2]
    wrapped[:, :1] = wrapped[:, -2:-1]
    wrapped[:, -1:] = wrapped[:, 1:2]
    wrapped[:, :, :1] = wrapped[:, :, -2:-1]
    wrapped[:, :, -1:] = wrapped[:, :, 1:2]
    padded = [wrapped[w] for w in windows]
    if out is None:
        return [np.ascontiguousarray(p) for p in padded]
    for dst, src in zip(out, padded):
        dst[...] = src
    return out
