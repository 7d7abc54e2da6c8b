"""Tests for the ADIOS-like I/O layer."""

import numpy as np
import pytest

from repro.io import BPFile, IOTimeModel
from repro.machine.lustre import LustreModel
from repro.util.units import GB


class TestBPFile:
    def test_roundtrip_multiple_variables(self, tmp_path):
        path = tmp_path / "out.bp"
        a = np.random.default_rng(0).random((4, 5))
        b = np.arange(7, dtype=np.int32)
        with BPFile.create(path, attrs={"step": 3}) as bp:
            bp.write("a", a)
            bp.write("b", b)
        r = BPFile.open(path)
        assert r.attrs == {"step": 3}
        assert r.variables == ["a", "b"]
        assert r.shape("a") == (4, 5)
        np.testing.assert_array_equal(r.read("a"), a)
        np.testing.assert_array_equal(r.read("b"), b)

    def test_dtype_preserved(self, tmp_path):
        path = tmp_path / "out.bp"
        with BPFile.create(path) as bp:
            bp.write("x", np.array([1.5, 2.5], dtype=np.float32))
        assert BPFile.open(path).read("x").dtype == np.float32

    def test_duplicate_variable_raises(self, tmp_path):
        bp = BPFile.create(tmp_path / "x.bp")
        bp.write("a", np.zeros(3))
        with pytest.raises(ValueError):
            bp.write("a", np.zeros(3))

    def test_missing_variable_raises(self, tmp_path):
        path = tmp_path / "x.bp"
        with BPFile.create(path) as bp:
            bp.write("a", np.zeros(3))
        with pytest.raises(KeyError, match="has"):
            BPFile.open(path).read("zz")

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bp"
        path.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(ValueError, match="magic"):
            BPFile.open(path)

    def test_write_after_flush_raises(self, tmp_path):
        path = tmp_path / "x.bp"
        bp = BPFile.create(path)
        bp.write("a", np.zeros(3))
        bp.flush()
        with pytest.raises(RuntimeError):
            bp.write("b", np.zeros(3))

    def test_exception_skips_flush(self, tmp_path):
        path = tmp_path / "x.bp"
        with pytest.raises(RuntimeError):
            with BPFile.create(path) as bp:
                bp.write("a", np.zeros(3))
                raise RuntimeError("boom")
        assert not path.exists()

    def test_noncontiguous_input_ok(self, tmp_path):
        path = tmp_path / "x.bp"
        base = np.arange(20).reshape(4, 5)
        with BPFile.create(path) as bp:
            bp.write("t", base.T)  # non-contiguous view
        np.testing.assert_array_equal(BPFile.open(path).read("t"), base.T)


class TestIOTimeModel:
    def test_table1_checkpoint_size(self):
        """Table I: 1600x1372x430 x 14 vars x 8 B = 98.5 GB."""
        m = IOTimeModel(LustreModel())
        nbytes = m.checkpoint_bytes((1600, 1372, 430), 14)
        assert nbytes / GB == pytest.approx(98.5, rel=0.01)

    def test_table1_io_times(self):
        m = IOTimeModel(LustreModel())
        shape = (1600, 1372, 430)
        assert m.read_time(shape, 14, 4480) == pytest.approx(6.56, rel=0.02)
        assert m.write_time(shape, 14, 4480) == pytest.approx(3.28, rel=0.02)
        # core-count independence
        assert m.read_time(shape, 14, 8960) == pytest.approx(
            m.read_time(shape, 14, 4480), rel=1e-6)
