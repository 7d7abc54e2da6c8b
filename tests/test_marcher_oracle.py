"""Differential oracle for the ray marcher.

The oracle is the step-by-step march that sampled, classified and
composited every position on every ray and zeroed the contribution of
those outside the volume (or outside a rank's brick) with a float mask.
The marcher under test classifies only the samples inside the volume, in
one batch, and composites step by step over just those. A skipped
sample added ``(1 - alpha) * (a * 0.0)``, a signed zero, so the two must
agree bit for bit — ``rgb`` and ``alpha`` — over generated cameras,
fields, samplers and transfer functions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.visualization import (
    BlockLUT,
    Camera,
    TransferFunction,
    downsample_decomposed,
)
from repro.analysis.visualization.compositing import (
    _block_sampler,
    block_with_hi_ghost,
)
from repro.analysis.visualization.volume_render import (
    march_rays,
    trilinear_sampler,
)
from repro.vmpi import BlockDecomposition3D


def oracle_march_rays(sampler, origins, direction, t_len, tf, step=0.5,
                      sample_mask=None):
    """The marcher that composited every position, masking in floats."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    h, w, _ = origins.shape
    rgb = np.zeros((h, w, 3))
    alpha = np.zeros((h, w))
    flat_origins = origins.reshape(-1, 3)
    n_steps = int(np.ceil(t_len / step))
    for k in range(n_steps):
        t = k * step
        pos = flat_origins + t * direction
        vals = sampler(pos)
        rgba = tf(vals)
        a = 1.0 - np.power(1.0 - rgba[..., 3], step)  # per-step opacity
        if sample_mask is not None:
            a = a * sample_mask(pos)
        a = a.reshape(h, w)
        color = rgba[..., :3].reshape(h, w, 3)
        weight = (1.0 - alpha) * a
        rgb += weight[..., None] * color
        alpha += weight
        # Early out only once every ray is numerically opaque — a looser
        # threshold would make results depend on compositing grouping.
        if np.all(alpha >= 1.0 - 1e-12):
            break
    return rgb, alpha


def oracle_mask(lo, hi, global_shape):
    """Float mask: inside the volume and base cell in ``[lo, hi)``."""
    shape = np.asarray(global_shape, dtype=np.float64)
    lo_arr = np.asarray(lo, dtype=np.int64)
    hi_arr = np.asarray(hi, dtype=np.int64)

    def owned_mask(pos):
        inside = np.all((pos > -0.5) & (pos < shape - 0.5), axis=-1)
        p = np.clip(pos, 0.0, shape - 1.0)
        i0 = np.minimum(p.astype(np.int64), (shape - 2).astype(np.int64))
        i0 = np.maximum(i0, 0)
        owned = np.all((i0 >= lo_arr) & (i0 < hi_arr), axis=-1)
        return (inside & owned).astype(np.float64)

    return owned_mask


def _tf(kind, f):
    lo, hi = float(f.min()), float(f.max()) + 1e-9
    if kind == "hot":
        return TransferFunction.hot(lo, hi)
    # Colour varies with value, so a late sample's tiny weight still moves
    # bits; opacity saturates a ray within a few samples ("near") or one.
    opacity = 1.0 if kind == "opaque" else 0.9999
    return TransferFunction(((lo, 0.2, 0.9, 0.1, opacity),
                             (hi, 0.9, 0.3, 0.7, opacity)))


def _cases(kind, f, procs, stride, shape):
    """``(sampler, new-marcher predicate, oracle mask)`` per rendering
    pass: one for the serial and LUT samplers, one per rank for the
    block-owned sampler."""
    whole = oracle_mask((0, 0, 0), shape, shape)
    if kind == "trilinear":
        return [(trilinear_sampler(f), None, whole)]
    decomp = BlockDecomposition3D(shape, procs)
    if kind == "lut":
        blocks = downsample_decomposed(f, decomp, stride)
        return [(BlockLUT(blocks, shape).sampler(), None, whole)]
    cases = []
    for b in decomp.blocks():
        sample, owned = _block_sampler(block_with_hi_ghost(f, b), b.lo,
                                       b.hi, shape)
        cases.append((sample, owned, oracle_mask(b.lo, b.hi, shape)))
    return cases


def _assert_same(kind, f, camera, tf, step, procs=(1, 1, 1), stride=1):
    shape = f.shape
    rays = camera.rays(shape)
    for sampler, owned, mask in _cases(kind, f, procs, stride, shape):
        rgb, alpha = march_rays(sampler, shape, rays, tf, step,
                                sample_mask=owned)
        want_rgb, want_alpha = oracle_march_rays(sampler, *rays, tf, step,
                                                 sample_mask=mask)
        assert np.array_equal(rgb, want_rgb)
        assert np.array_equal(alpha, want_alpha)
        # Signed zeros too: array_equal would let -0.0 stand for +0.0.
        assert rgb.tobytes() == want_rgb.tobytes()
        assert alpha.tobytes() == want_alpha.tobytes()


@st.composite
def scenes(draw):
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    elevation = draw(st.one_of(st.sampled_from([90.0, -90.0, 0.0]),
                               st.floats(-89.0, 89.0)))
    center = draw(st.one_of(
        st.none(),
        st.tuples(*[st.floats(-2.0, n + 1.0) for n in shape])))
    camera = Camera(azimuth_deg=draw(st.floats(-180.0, 180.0)),
                    elevation_deg=elevation,
                    image_shape=(draw(st.integers(1, 7)),
                                 draw(st.integers(1, 7))),
                    # Above 1 the image plane shrinks inside the volume's
                    # silhouette: every ray hits and the global exit can fire.
                    zoom=draw(st.sampled_from([1.0, 2.5, 6.0])),
                    center=center)
    procs = tuple(draw(st.integers(1, min(n, 3))) for n in shape)
    return shape, camera, procs


@given(scene=scenes(), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["trilinear", "lut", "block"]),
       tf_kind=st.sampled_from(["hot", "opaque", "near"]),
       step=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
       stride=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_marcher_matches_oracle(scene, seed, kind, tf_kind, step, stride):
    shape, camera, procs = scene
    f = np.random.default_rng(seed).random(shape)
    _assert_same(kind, f, camera, _tf(tf_kind, f), step, procs, stride)


class _Counting:
    """A sampler wrapper that counts the oracle's per-step calls."""

    def __init__(self, sampler):
        self.sampler, self.calls = sampler, 0

    def __call__(self, pos):
        self.calls += 1
        return self.sampler(pos)


@pytest.mark.parametrize("step", [0.25, 1.0])
def test_global_exit_fires_and_matches(step):
    """Every ray hits and saturates to within 1e-12 but not to 1: the
    oracle leaves the loop early, and samples past that point would still
    have moved the bits — so an exit dropped, or taken per ray, shows."""
    f = np.random.default_rng(7).random((9, 8, 10))
    camera = Camera(image_shape=(5, 6), zoom=4.0, azimuth_deg=33.0,
                    elevation_deg=21.0)
    tf = _tf("near", f)
    rays = camera.rays(f.shape)
    counting = _Counting(trilinear_sampler(f))
    _rgb, alpha = oracle_march_rays(counting, *rays, tf, step,
                                    sample_mask=oracle_mask((0, 0, 0),
                                                            f.shape, f.shape))
    assert counting.calls < int(np.ceil(rays[2] / step))
    assert np.all(alpha >= 1.0 - 1e-12) and np.any(alpha < 1.0)
    for kind in ("trilinear", "block"):
        _assert_same(kind, f, camera, tf, step, procs=(2, 3, 2))


@pytest.mark.parametrize("elevation", [90.0, -90.0])
def test_samples_on_the_boundary_stay_outside(elevation):
    """A straight-down view of a 3 x 4 x 12 field (diagonal 13) puts
    samples of rays that cross the volume exactly on the faces
    ``z = -0.5`` and ``z = 11.5``: the domain test is strict on both
    sides, as the oracle's is."""
    f = np.random.default_rng(8).random((3, 4, 12))
    camera = Camera(image_shape=(5, 5), azimuth_deg=0.0,
                    elevation_deg=elevation, zoom=4.0)
    origins, direction, t_len = camera.rays(f.shape)
    t = np.arange(int(np.ceil(t_len / 0.5))) * 0.5
    x, y, z = (origins[..., a].reshape(-1) + (t * direction[a])[:, None]
               for a in range(3))
    crossing = (x > -0.5) & (x < 2.5) & (y > -0.5) & (y < 3.5)
    assert np.any(crossing & (z == -0.5)) and np.any(crossing & (z == 11.5))
    for kind in ("trilinear", "lut", "block"):
        _assert_same(kind, f, camera, _tf("hot", f), 0.5, procs=(1, 2, 3),
                     stride=2)
