"""Tests for repro.util: units, tables, images, rng."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import (
    GB,
    KB,
    MB,
    TextTable,
    bytes_to_gb,
    bytes_to_mb,
    fmt_bytes,
    fmt_seconds,
    image_rmse,
    seeded_rng,
    write_ppm,
)


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3

    def test_bytes_to_mb(self):
        assert bytes_to_mb(5 * MB) == 5.0

    def test_bytes_to_gb(self):
        assert bytes_to_gb(98.5 * GB) == pytest.approx(98.5)

    def test_fmt_bytes_ranges(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2 * KB) == "2.00 KB"
        assert fmt_bytes(49.19 * MB) == "49.19 MB"
        assert fmt_bytes(98.5 * GB) == "98.50 GB"

    def test_fmt_bytes_negative_raises(self):
        with pytest.raises(ValueError):
            fmt_bytes(-1)

    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(5e-7).endswith("us")
        assert fmt_seconds(0.005).endswith("ms")
        assert fmt_seconds(16.85) == "16.85 s"
        assert fmt_seconds(600).endswith("min")
        assert fmt_seconds(10000).endswith("h")

    def test_fmt_seconds_negative_raises(self):
        with pytest.raises(ValueError):
            fmt_seconds(-0.1)


class TestRng:
    def test_deterministic(self):
        a = seeded_rng(42).random(5)
        b = seeded_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = seeded_rng(42, 0).random(5)
        b = seeded_rng(42, 1).random(5)
        assert not np.allclose(a, b)


class TestTextTable:
    def test_render_aligns_columns(self):
        t = TextTable(["metric", "4896", "9440"], title="Table I")
        t.add_row(["Simulation time (sec.)", 16.85, 8.42])
        t.add_row(["I/O read time (sec.)", 6.56, 6.56])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Table I"
        assert "16.85" in out and "6.56" in out
        # all data rows have the same width
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1

    def test_row_length_mismatch_raises(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_small_floats_keep_precision(self):
        t = TextTable(["x"])
        t.add_row([0.00071])
        assert "0.00071" in t.render()


class TestImages:
    def test_ppm_roundtrip_header(self, tmp_path):
        img = np.zeros((4, 6, 3), dtype=np.float64)
        img[..., 0] = 1.0
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n6 4\n255\n")
        assert len(raw) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3

    def test_ppm_bad_shape_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 6)))

    def test_rmse_zero_for_identical(self):
        img = np.random.default_rng(0).random((8, 8, 3))
        assert image_rmse(img, img) == 0.0

    def test_rmse_shape_mismatch(self):
        with pytest.raises(ValueError):
            image_rmse(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_rmse_constant_offset(self, c):
        a = np.zeros((4, 4))
        b = np.full((4, 4), c)
        assert image_rmse(a, b) == pytest.approx(c, abs=1e-12)
