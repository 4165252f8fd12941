"""Tests for spatiotemporal samples."""

import numpy as np
import pytest

from repro.core.sample import (
    DT,
    DX,
    DY,
    NCOLS,
    T,
    X,
    Y,
    Sample,
    samples_array,
    validate_sample_array,
)


class TestSample:
    def test_defaults_match_paper_granularity(self):
        s = Sample(x=100.0, y=200.0, t=10.0)
        assert s.dx == 100.0
        assert s.dy == 100.0
        assert s.dt == 1.0

    def test_derived_geometry(self):
        s = Sample(x=0.0, y=0.0, t=5.0, dx=200.0, dy=100.0, dt=10.0)
        assert s.x_max == 200.0
        assert s.y_max == 100.0
        assert s.t_end == 15.0
        assert s.center == (100.0, 50.0)
        assert s.t_mid == 10.0

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Sample(x=0.0, y=0.0, t=0.0, dx=-1.0)
        with pytest.raises(ValueError):
            Sample(x=0.0, y=0.0, t=0.0, dt=-1.0)

    def test_row_roundtrip(self):
        s = Sample(x=1.0, y=2.0, t=3.0, dx=4.0, dy=5.0, dt=6.0)
        assert Sample.from_row(s.to_row()) == s

    def test_row_column_order(self):
        row = Sample(x=1.0, y=3.0, t=5.0, dx=2.0, dy=4.0, dt=6.0).to_row()
        assert row[X] == 1.0 and row[DX] == 2.0
        assert row[Y] == 3.0 and row[DY] == 4.0
        assert row[T] == 5.0 and row[DT] == 6.0

    def test_covers(self):
        big = Sample(x=0.0, y=0.0, t=0.0, dx=1000.0, dy=1000.0, dt=100.0)
        small = Sample(x=100.0, y=100.0, t=10.0, dx=50.0, dy=50.0, dt=5.0)
        assert big.covers(small)
        assert not small.covers(big)

    def test_covers_is_reflexive(self):
        s = Sample(x=5.0, y=5.0, t=5.0)
        assert s.covers(s)


class TestSamplesArray:
    def test_empty_yields_0x6(self):
        arr = samples_array([])
        assert arr.shape == (0, NCOLS)

    def test_stacks_samples(self):
        arr = samples_array([Sample(x=0.0, y=0.0, t=0.0), Sample(x=1.0, y=1.0, t=1.0)])
        assert arr.shape == (2, NCOLS)

    def test_rejects_bad_row_shape(self):
        with pytest.raises(ValueError):
            samples_array([np.zeros(5)])


class TestValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_sample_array(np.zeros((3, 5)))

    def test_rejects_nan(self):
        arr = np.zeros((1, NCOLS))
        arr[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            validate_sample_array(arr)

    def test_rejects_negative_extent(self):
        arr = np.zeros((1, NCOLS))
        arr[0, DT] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            validate_sample_array(arr)

    @pytest.mark.parametrize("col", [DX, DY, DT], ids=["dx", "dy", "dt"])
    def test_rejects_each_negative_extent(self, col):
        # The negative extent sits in a later row among positive ones,
        # and the other columns hold negatives that are not extents.
        arr = np.full((3, NCOLS), 5.0)
        arr[:, [X, Y, T]] = -7.0
        arr[2, col] = -1e-300
        with pytest.raises(ValueError, match="extents dx, dy, dt must be non-negative"):
            validate_sample_array(arr)

    def test_accepts_negative_zero_extents(self):
        arr = np.ones((2, NCOLS))
        arr[:, [DX, DY, DT]] = -0.0
        out = validate_sample_array(arr)
        assert np.signbit(out[:, [DX, DY, DT]]).all()

    def test_non_finite_reported_before_negative_extent(self):
        arr = np.zeros((1, NCOLS))
        arr[0, DX] = -1.0
        arr[0, T] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            validate_sample_array(arr)

    def test_accepts_valid(self):
        arr = np.zeros((2, NCOLS))
        out = validate_sample_array(arr)
        assert out.dtype == np.float64
