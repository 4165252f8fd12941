"""Tests for mobile fingerprints."""

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.sample import Sample
from tests.conftest import make_fp


class TestConstruction:
    def test_samples_sorted_by_time(self):
        fp = make_fp("a", [(0.0, 0.0, 100.0), (0.0, 0.0, 10.0), (0.0, 0.0, 50.0)])
        times = fp.data[:, 4]
        assert list(times) == sorted(times)

    def test_default_members(self):
        fp = make_fp("a", [(0.0, 0.0, 0.0)])
        assert fp.members == ("a",)
        assert fp.count == 1

    def test_count_must_match_members(self):
        with pytest.raises(ValueError, match="members"):
            Fingerprint("g", [Sample(x=0.0, y=0.0, t=0.0)], count=2, members=("a",))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Fingerprint("g", [Sample(x=0.0, y=0.0, t=0.0)], count=0, members=())

    def test_signed_zeros_stored_as_positive_zero(self):
        rows = np.array(
            [[-0.0, 0.0, -0.0, 0.0, -0.0, 0.0], [1.0, -0.0, 2.0, -0.0, 3.0, -0.0]]
        )
        fp = Fingerprint("z", rows)
        assert not np.signbit(fp.data).any()
        np.testing.assert_array_equal(fp.data, rows)
        # The canonical copy is the fingerprint's own: the caller's
        # array keeps its sign bits.
        assert int(np.signbit(rows).sum()) == 6

    def test_empty_fingerprint_allowed(self):
        fp = Fingerprint("e", np.empty((0, 6)))
        assert fp.m == 0
        assert fp.timespan_min == 0.0


class TestContainerProtocol:
    def test_len_iter_getitem(self):
        fp = make_fp("a", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        assert len(fp) == 2
        assert isinstance(fp[0], Sample)
        assert len(list(fp)) == 2

    def test_timespan(self):
        fp = make_fp("a", [(0.0, 0.0, 0.0), (0.0, 0.0, 100.0)])
        assert fp.timespan_min == 101.0  # includes the last sample's dt=1


class TestSameTrace:
    def test_identical_traces(self):
        a = make_fp("a", [(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)])
        b = make_fp("b", [(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)])
        assert a.same_trace(b)
        assert a.trace_key() == b.trace_key()

    def test_different_traces(self):
        a = make_fp("a", [(0.0, 0.0, 0.0)])
        b = make_fp("b", [(1.0, 0.0, 0.0)])
        assert not a.same_trace(b)
        assert a.trace_key() != b.trace_key()

    def test_different_lengths(self):
        a = make_fp("a", [(0.0, 0.0, 0.0)])
        b = make_fp("b", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        assert not a.same_trace(b)


class TestDerived:
    def test_restrict_time(self):
        fp = make_fp("a", [(0.0, 0.0, 10.0), (0.0, 0.0, 200.0), (0.0, 0.0, 500.0)])
        sub = fp.restrict_time(0.0, 250.0)
        assert sub.m == 2
        assert sub.uid == "a"

    def test_restrict_time_keeps_count(self):
        fp = make_fp("g", [(0.0, 0.0, 10.0)], count=2, members=("a", "b"))
        sub = fp.restrict_time(0.0, 100.0)
        assert sub.count == 2
        assert sub.members == ("a", "b")

    def test_with_samples(self):
        fp = make_fp("a", [(0.0, 0.0, 0.0)])
        new = fp.with_samples(np.array([[1.0, 100.0, 1.0, 100.0, 1.0, 1.0]]))
        assert new.uid == "a"
        assert new.m == 1
        assert new.data[0, 0] == 1.0
