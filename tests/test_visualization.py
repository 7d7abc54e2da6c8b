"""Tests for the visualization analysis: camera, transfer function, serial
renderer, in-situ block compositing, and the hybrid LUT renderer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.visualization import (
    BlockLUT,
    Camera,
    TransferFunction,
    downsample_block,
    downsample_decomposed,
    render_blocks_insitu,
    render_intransit,
    render_volume,
)
from repro.analysis.visualization.compositing import visibility_order
from repro.analysis.visualization.volume_render import trilinear_sampler
from repro.util import image_rmse
from repro.vmpi import BlockDecomposition3D


def _blob_field(shape=(16, 14, 12), seed=50):
    rng = np.random.default_rng(seed)
    coords = np.stack(np.mgrid[[slice(0, s) for s in shape]]).astype(float)
    f = np.zeros(shape)
    for _ in range(4):
        c = [rng.uniform(2, s - 2) for s in shape]
        d2 = sum((coords[a] - c[a]) ** 2 for a in range(3))
        f += rng.uniform(0.5, 1.5) * np.exp(-d2 / rng.uniform(4, 12))
    return f


class TestCamera:
    def test_basis_orthonormal(self):
        cam = Camera(azimuth_deg=42.0, elevation_deg=17.0)
        view, right, up = cam.basis()
        for v in (view, right, up):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.dot(view, right) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(view, up) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(right, up) == pytest.approx(0.0, abs=1e-12)

    def test_straight_down_view_handled(self):
        cam = Camera(azimuth_deg=0.0, elevation_deg=90.0)
        view, right, up = cam.basis()
        assert np.linalg.norm(right) == pytest.approx(1.0)

    def test_rays_cover_volume(self):
        cam = Camera(image_shape=(8, 10))
        origins, direction, t_len = cam.rays((10, 10, 10))
        assert origins.shape == (8, 10, 3)
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        assert t_len > np.linalg.norm([10, 10, 10]) * 0.99

    def test_zoom_shrinks_footprint(self):
        wide = Camera(zoom=1.0, image_shape=(4, 4)).rays((10, 10, 10))[0]
        tight = Camera(zoom=4.0, image_shape=(4, 4)).rays((10, 10, 10))[0]
        assert (np.ptp(tight[..., 0])) < np.ptp(wide[..., 0])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Camera(image_shape=(0, 4))
        with pytest.raises(ValueError):
            Camera(zoom=0.0)


class TestTransferFunction:
    def test_interpolation_and_clamping(self):
        tf = TransferFunction(((0.0, 0, 0, 0, 0.0), (1.0, 1, 1, 1, 0.5)))
        rgba = tf(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
        np.testing.assert_allclose(rgba[0], [0, 0, 0, 0])
        np.testing.assert_allclose(rgba[2], [0.5, 0.5, 0.5, 0.25])
        np.testing.assert_allclose(rgba[4], [1, 1, 1, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferFunction(((0.0, 0, 0, 0, 0),))  # one point
        with pytest.raises(ValueError):
            TransferFunction(((1.0, 0, 0, 0, 0), (0.0, 0, 0, 0, 0)))  # unsorted
        with pytest.raises(ValueError):
            TransferFunction(((0.0, 2.0, 0, 0, 0), (1.0, 0, 0, 0, 0)))  # bad color

    def test_hot_palette_shape(self):
        tf = TransferFunction.hot(0.0, 1.0)
        rgba = tf(np.array([0.0, 1.0]))
        assert rgba[0, 3] == 0.0          # transparent at vmin
        assert rgba[1, 3] > 0.0           # opaque-ish at vmax
        assert rgba[1, 0] == 1.0          # hot end is bright

    def test_hot_validation(self):
        with pytest.raises(ValueError):
            TransferFunction.hot(1.0, 0.0)


class TestTrilinearSampler:
    def test_exact_at_grid_points(self):
        f = np.random.default_rng(51).random((4, 5, 6))
        sample = trilinear_sampler(f)
        pts = np.array([[0, 0, 0], [3, 4, 5], [1, 2, 3]], dtype=float)
        np.testing.assert_allclose(sample(pts), [f[0, 0, 0], f[3, 4, 5], f[1, 2, 3]])

    def test_linear_between_points(self):
        f = np.zeros((2, 2, 2))
        f[1, :, :] = 1.0
        sample = trilinear_sampler(f)
        np.testing.assert_allclose(sample(np.array([[0.25, 0.5, 0.5]])), [0.25])

    def test_extent_one_axis_reads_its_layer(self):
        f = np.arange(4.0).reshape(2, 2, 1)
        sample = trilinear_sampler(f)
        np.testing.assert_allclose(sample(np.array([[0.5, 0.25, 0.0]])),
                                   [1.25])


class TestSerialRenderer:
    def test_empty_volume_is_background(self):
        f = np.zeros((8, 8, 8))
        tf = TransferFunction.hot(0.0, 1.0)
        img = render_volume(f, Camera(image_shape=(8, 8)), tf)
        np.testing.assert_array_equal(img, 0.0)

    def test_blob_renders_nonuniform(self):
        f = _blob_field()
        tf = TransferFunction.hot(0.0, float(f.max()))
        img = render_volume(f, Camera(image_shape=(16, 16)), tf)
        assert img.shape == (16, 16, 3)
        assert img.max() > 0.05
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_bad_field_dim_raises(self):
        with pytest.raises(ValueError):
            render_volume(np.zeros((4, 4)), Camera(), TransferFunction.hot(0, 1))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            render_volume(np.zeros((4, 4, 4)), Camera(),
                          TransferFunction.hot(0, 1), step=0.0)

    def test_deterministic(self):
        f = _blob_field()
        tf = TransferFunction.hot(0.0, 1.5)
        cam = Camera(image_shape=(10, 10))
        np.testing.assert_array_equal(render_volume(f, cam, tf),
                                      render_volume(f, cam, tf))


class TestInSituCompositing:
    """The key invariant: block-parallel rendering == serial reference."""

    @pytest.mark.parametrize("proc_grid", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_matches_serial(self, proc_grid):
        f = _blob_field()
        decomp = BlockDecomposition3D(f.shape, proc_grid)
        tf = TransferFunction.hot(float(f.min()), float(f.max()))
        cam = Camera(image_shape=(12, 12), azimuth_deg=25, elevation_deg=15)
        serial = render_volume(f, cam, tf)
        composited = render_blocks_insitu(f, decomp, cam, tf)
        assert image_rmse(serial, composited) < 1e-9

    @given(st.integers(0, 1000),
           st.floats(-80.0, 80.0), st.floats(-60.0, 60.0))
    @settings(max_examples=10, deadline=None)
    def test_property_matches_serial_any_view(self, seed, az, el):
        f = _blob_field(shape=(10, 9, 8), seed=seed)
        decomp = BlockDecomposition3D(f.shape, (2, 2, 1))
        tf = TransferFunction.hot(float(f.min()), float(f.max()) + 1e-9)
        cam = Camera(image_shape=(8, 8), azimuth_deg=az, elevation_deg=el)
        assert image_rmse(render_volume(f, cam, tf),
                          render_blocks_insitu(f, decomp, cam, tf)) < 1e-9

    @pytest.mark.parametrize("shape", [(8, 8, 1), (1, 8, 8), (8, 1, 8),
                                       (1, 1, 1)])
    def test_slab_matches_serial(self, shape):
        """A field one cell thick renders serially as it does per block."""
        f = np.random.default_rng(55).random(shape)
        decomp = BlockDecomposition3D(shape, tuple(min(n, 2) for n in shape))
        tf = TransferFunction.hot(float(f.min()) - 0.5, float(f.max()))
        cam = Camera(image_shape=(10, 10), azimuth_deg=25, elevation_deg=15)
        serial = render_volume(f, cam, tf)
        assert serial.max() > 0.0
        assert image_rmse(serial, render_blocks_insitu(f, decomp, cam, tf)) < 1e-9

    def test_rays_computed_once_per_image(self, monkeypatch):
        calls = []
        rays = Camera.rays

        def counting(cam, shape):
            calls.append(shape)
            return rays(cam, shape)

        monkeypatch.setattr(Camera, "rays", counting)
        f = _blob_field(shape=(8, 8, 6))
        render_blocks_insitu(f, BlockDecomposition3D(f.shape, (2, 2, 2)),
                             Camera(image_shape=(6, 6)),
                             TransferFunction.hot(0.0, float(f.max())))
        assert calls == [f.shape]

    def test_visibility_order_is_permutation(self):
        decomp = BlockDecomposition3D((8, 8, 8), (2, 2, 2))
        order = visibility_order(decomp, np.array([0.3, -0.5, 0.8]))
        assert sorted(order) == list(range(8))

    def test_visibility_order_respects_axis_direction(self):
        decomp = BlockDecomposition3D((8, 8, 8), (2, 1, 1))
        front_first = visibility_order(decomp, np.array([1.0, 0.0, 0.0]))
        assert front_first == [0, 1]
        assert visibility_order(decomp, np.array([-1.0, 0.0, 0.0])) == [1, 0]

    def test_shape_mismatch_raises(self):
        decomp = BlockDecomposition3D((8, 8, 8), (2, 1, 1))
        with pytest.raises(ValueError):
            render_blocks_insitu(np.zeros((4, 4, 4)), decomp, Camera(),
                                 TransferFunction.hot(0, 1))


class TestDownsample:
    def test_block_shape_ceil_division(self):
        data = np.arange(7 * 5 * 4, dtype=float).reshape(7, 5, 4)
        ds = downsample_block(data, (0, 0, 0), (7, 5, 4), stride=2)
        assert ds.data.shape == (4, 3, 2)
        np.testing.assert_array_equal(ds.data, data[::2, ::2, ::2])

    def test_stride_one_is_identity(self):
        data = np.random.default_rng(52).random((4, 4, 4))
        ds = downsample_block(data, (0, 0, 0), (4, 4, 4), stride=1)
        np.testing.assert_array_equal(ds.data, data)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            downsample_block(np.zeros((4, 4, 4)), (0, 0, 0), (4, 4, 4), 0)

    def test_data_reduction_factor(self):
        """Stride 8 reduces the payload by ~8^3 = 512x (Fig. 2 / Table II)."""
        f = np.zeros((32, 32, 32))
        decomp = BlockDecomposition3D(f.shape, (2, 2, 2))
        blocks = downsample_decomposed(f, decomp, stride=8)
        moved = sum(b.nbytes for b in blocks)
        assert moved == f.nbytes / 512

    def test_decomposed_covers_all_blocks(self):
        f = np.random.default_rng(53).random((8, 6, 4))
        decomp = BlockDecomposition3D(f.shape, (2, 3, 1))
        blocks = downsample_decomposed(f, decomp, stride=2)
        assert len(blocks) == 6
        for b, blk in zip(decomp.blocks(), blocks):
            assert blk.lo == b.lo and blk.hi == b.hi


class TestBlockLUT:
    def _blocks(self, shape=(8, 8, 8), grid=(2, 2, 1), stride=2, seed=54):
        f = np.random.default_rng(seed).random(shape)
        decomp = BlockDecomposition3D(shape, grid)
        return f, downsample_decomposed(f, decomp, stride)

    def test_routes_cells_to_owner(self):
        f, blocks = self._blocks()
        # Give every block one value of its own: a sample then names the
        # block the look-up table routed it to.
        tagged = [downsample_block(np.full(b.data.shape, float(k)), b.lo,
                                   b.hi, stride=1)
                  for k, b in enumerate(downsample_decomposed(
                      f, BlockDecomposition3D(f.shape, (2, 2, 1)), 1))]
        which = BlockLUT(tagged, f.shape).sampler()(
            np.array([[0, 0, 0], [7, 7, 7], [3, 4, 0]], dtype=float))
        assert which[0] == 0
        assert tagged[int(which[1])].hi == (8, 8, 8)
        assert tagged[int(which[2])].lo == (0, 4, 0)

    def test_sampler_returns_retained_voxels(self):
        f, blocks = self._blocks(stride=2)
        lut = BlockLUT(blocks, f.shape)
        sample = lut.sampler()
        # at even coordinates the retained voxel is the exact value
        pts = np.array([[0, 0, 0], [2, 4, 6], [6, 6, 2]], dtype=float)
        np.testing.assert_allclose(
            sample(pts), [f[0, 0, 0], f[2, 4, 6], f[6, 6, 2]])

    def test_lut_is_small(self):
        """"This small look-up table" — metadata, not data."""
        f, blocks = self._blocks()
        lut = BlockLUT(blocks, f.shape)
        assert lut.nbytes < sum(b.nbytes for b in blocks)

    def test_stride_disagreement_raises(self):
        f, blocks = self._blocks()
        bad = downsample_block(np.zeros((4, 4, 8)), blocks[0].lo,
                               blocks[0].hi, stride=4)
        with pytest.raises(ValueError):
            BlockLUT([bad] + blocks[1:], f.shape)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BlockLUT([], (4, 4, 4))

    def test_blocks_abreast_must_agree_on_extent(self):
        """The per-axis tables assume a rectilinear layout; a block whose
        bounds break it is refused rather than mis-sampled."""
        f, blocks = self._blocks(stride=1)
        b = blocks[1]
        bad = downsample_block(np.zeros((4, 4, 6)), b.lo,
                               (b.hi[0], b.hi[1], 6), stride=1)
        with pytest.raises(ValueError, match="disagree on extent"):
            BlockLUT([blocks[0], bad] + blocks[2:], f.shape)

    @given(data=st.data(), shape=st.tuples(*[st.integers(1, 9)] * 3),
           stride=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_sampler_equals_per_sample_oracle(self, data, shape, stride):
        """Table-driven routing == the definition, one sample at a time:
        clamp into the domain, round to a cell, find the block holding
        it, read that block's nearest retained voxel."""
        procs = tuple(data.draw(st.integers(1, n)) for n in shape)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        f = rng.random(shape)
        blocks = downsample_decomposed(
            f, BlockDecomposition3D(shape, procs), stride)
        # Inside, on the faces, and well outside the domain.
        pos = rng.uniform(-3.0, np.asarray(shape) + 2.0, size=(64, 3))

        def oracle(p):
            cell = [int(np.rint(min(max(p[a], 0.0), shape[a] - 1.0)))
                    for a in range(3)]
            owner, = [b for b in blocks
                      if all(b.lo[a] <= cell[a] < b.hi[a] for a in range(3))]
            return owner.data[tuple((cell[a] - owner.lo[a]) // stride
                                    for a in range(3))]

        got = BlockLUT(blocks, shape).sampler()(pos)
        assert got.tobytes() == np.array([oracle(p) for p in pos]).tobytes()


class TestHybridRenderer:
    def test_stride_one_matches_nearest_of_serial(self):
        """At stride 1 the LUT renderer sees full data; its image should be
        close to the serial (trilinear) reference."""
        f = _blob_field(shape=(12, 12, 10))
        decomp = BlockDecomposition3D(f.shape, (2, 2, 1))
        tf = TransferFunction.hot(float(f.min()), float(f.max()))
        cam = Camera(image_shape=(12, 12))
        serial = render_volume(f, cam, tf, step=0.5)
        hybrid = render_intransit(downsample_decomposed(f, decomp, 1),
                                  f.shape, cam, tf, step=0.5)
        assert image_rmse(serial, hybrid) < 0.05

    def test_error_grows_with_stride(self):
        """Fig. 2's message: the down-sampled render approximates the
        full-resolution one; fidelity degrades gracefully with stride."""
        f = _blob_field(shape=(16, 16, 16))
        decomp = BlockDecomposition3D(f.shape, (2, 2, 2))
        tf = TransferFunction.hot(float(f.min()), float(f.max()))
        cam = Camera(image_shape=(16, 16))
        serial = render_volume(f, cam, tf)
        errs = []
        for stride in (1, 2, 4):
            img = render_intransit(downsample_decomposed(f, decomp, stride),
                                   f.shape, cam, tf)
            errs.append(image_rmse(serial, img))
        assert errs[0] <= errs[1] <= errs[2] + 1e-6
        assert errs[2] < 0.5  # still recognisably the same scene

    def test_zoom_view(self):
        """The Fig. 2 zoom-in: same pipeline, tighter camera."""
        f = _blob_field(shape=(12, 12, 10))
        decomp = BlockDecomposition3D(f.shape, (2, 1, 1))
        tf = TransferFunction.hot(float(f.min()), float(f.max()))
        cam = Camera(image_shape=(10, 10), zoom=3.0, center=(6.0, 6.0, 5.0))
        img = render_intransit(downsample_decomposed(f, decomp, 2),
                               f.shape, cam, tf)
        assert img.shape == (10, 10, 3)
        assert img.max() > 0.0


class TestNonFiniteRefused:
    """A NaN or infinite value would turn every ray near it NaN; each entry
    point refuses the field up front and names the first bad value."""

    SHAPE = (8, 6, 4)
    BAD = (5, 4, 3)

    def _field(self, bad):
        f = _blob_field(shape=self.SHAPE)
        f[self.BAD] = bad
        return f

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_serial(self, bad):
        index = np.ravel_multi_index(self.BAD, self.SHAPE)
        with pytest.raises(ValueError, match=f"field value at flat index {index} "):
            render_volume(self._field(bad), Camera(image_shape=(4, 4)),
                          TransferFunction.hot(0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_insitu(self, bad):
        index = np.ravel_multi_index(self.BAD, self.SHAPE)
        with pytest.raises(ValueError, match=f"field value at flat index {index} "):
            render_blocks_insitu(self._field(bad),
                                 BlockDecomposition3D(self.SHAPE, (2, 2, 1)),
                                 Camera(image_shape=(4, 4)),
                                 TransferFunction.hot(0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_intransit_payloads(self, bad):
        """The staging side sees only the shipped blocks: the bad value
        lands in the last of four, at (1, 1, 3) of its 4 x 3 x 4 brick."""
        blocks = downsample_decomposed(
            self._field(bad), BlockDecomposition3D(self.SHAPE, (2, 2, 1)), 1)
        index = np.ravel_multi_index((1, 1, 3), blocks[3].data.shape)
        with pytest.raises(ValueError, match=f"block 3 value at flat index {index} "):
            render_intransit(blocks, self.SHAPE, Camera(image_shape=(4, 4)),
                             TransferFunction.hot(0.0, 1.0))
