"""Tests for linked multi-view rendering sessions."""

import numpy as np
import pytest

from repro.analysis.topology import segment_superlevel
from repro.analysis.visualization import Camera, ViewSession, ViewSpec
from repro.util import image_rmse
from repro.vmpi import BlockDecomposition3D

SHAPE = (14, 12, 10)


def _fields(seed=80):
    rng = np.random.default_rng(seed)
    coords = np.stack(np.mgrid[[slice(0, s) for s in SHAPE]]).astype(float)
    t = np.zeros(SHAPE)
    for _ in range(3):
        c = [rng.uniform(2, s - 2) for s in SHAPE]
        t += rng.uniform(0.6, 1.2) * np.exp(
            -sum((coords[a] - c[a]) ** 2 for a in range(3)) / 6.0)
    return {"T": t, "OH": 0.5 * t ** 2}


@pytest.fixture
def session():
    decomp = BlockDecomposition3D(SHAPE, (2, 2, 1))
    return ViewSession(decomp, views=[
        ViewSpec(name="temperature", variable="T",
                 camera=Camera(image_shape=(12, 12))),
        ViewSpec(name="radical", variable="OH", mode="hybrid",
                 downsample_stride=2, camera=Camera(image_shape=(12, 12))),
    ])


class TestViewSpec:
    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ViewSpec(name="x", variable="T", mode="magic")

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            ViewSpec(name="x", variable="T", downsample_stride=0)


class TestSessionManagement:
    def test_add_view(self, session):
        session.add_view(ViewSpec(name="zoom", variable="T",
                                  camera=Camera(image_shape=(8, 8), zoom=2.0)))
        assert "zoom" in session.view_names

    def test_duplicate_name_rejected(self, session):
        with pytest.raises(ValueError):
            session.add_view(ViewSpec(name="temperature", variable="T"))

    def test_empty_session_cannot_render(self):
        s = ViewSession(BlockDecomposition3D(SHAPE, (1, 1, 1)))
        with pytest.raises(RuntimeError):
            s.render_all({"T": np.zeros(SHAPE)})


class TestRendering:
    def test_renders_all_views(self, session):
        images = session.render_all(_fields())
        assert set(images) == {"temperature", "radical"}
        for img in images.values():
            assert img.shape == (12, 12, 3)
            assert img.max() > 0.0

    def test_missing_variable_raises(self, session):
        with pytest.raises(KeyError, match="needs variable"):
            session.render_all({"T": np.zeros(SHAPE)})  # OH missing

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_variable_refused(self, session, bad):
        """The hybrid view's stride-2 down-sample would not ship (3, 3, 3),
        yet its transfer function is built from the whole field."""
        fields = _fields()
        fields["OH"][3, 3, 3] = bad
        index = np.ravel_multi_index((3, 3, 3), SHAPE)
        with pytest.raises(ValueError,
                           match=f"variable 'OH' value at flat index {index} "):
            session.render_all(fields)

    def test_views_show_different_data(self, session):
        images = session.render_all(_fields())
        assert image_rmse(images["temperature"], images["radical"]) > 0.01

    def test_highlight_changes_every_view(self, session):
        fields = _fields()
        seg = segment_superlevel(fields["T"], 0.4)
        label = max(seg.features, key=lambda l: seg.features[l].n_cells)
        plain = session.render_all(fields)
        linked = session.render_all(fields, highlight=(seg, label))
        for name in plain:
            assert image_rmse(plain[name], linked[name]) > 1e-4, \
                f"highlight invisible in view {name}"

    def test_highlight_is_localised(self, session):
        """Pixels far from the feature's footprint are unchanged."""
        fields = _fields()
        seg = segment_superlevel(fields["T"], 0.4)
        label = next(iter(seg.features))
        plain = session.render_all(fields)["temperature"]
        linked = session.render_all(fields, highlight=(seg, label))["temperature"]
        diff = np.abs(plain - linked).sum(axis=-1)
        assert (diff < 1e-12).any(), "highlight covered the whole image"

    def test_highlight_shape_mismatch(self, session):
        fields = _fields()
        small = segment_superlevel(np.zeros((4, 4, 4)), 0.5)
        # need at least one feature to reference; use a fake label check
        with pytest.raises((ValueError, KeyError)):
            session.render_all(fields, highlight=(small, 0))

    def test_custom_transfer_function_respected(self):
        from repro.analysis.visualization import TransferFunction
        decomp = BlockDecomposition3D(SHAPE, (1, 1, 1))
        tf = TransferFunction(((0.0, 0.0, 0.0, 0.0, 0.0),
                               (2.0, 1.0, 1.0, 1.0, 0.4)))
        s = ViewSession(decomp, views=[
            ViewSpec(name="gray", variable="T", transfer_function=tf,
                     camera=Camera(image_shape=(8, 8)))])
        img = s.render_all(_fields())["gray"]
        # grayscale: channels equal
        np.testing.assert_allclose(img[..., 0], img[..., 1], atol=1e-12)
