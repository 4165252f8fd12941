"""Tests for the vectorized bulk stretch kernels."""

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.pairwise import (
    PaddedFingerprints,
    k_nearest,
    many_vs_some,
    one_vs_all,
    pairwise_matrix,
)
from repro.core.stretch import fingerprint_stretch
from tests.conftest import make_fp

#: Block sizes for the invariance tests: one target a block, a few
#: (blocks cut mid-collection) and the default (one block).
CHUNKS = (1, 3, 256)


@pytest.fixture
def ragged_fps(rng):
    """Fingerprints of varied lengths to exercise padding."""
    fps = []
    for i, m in enumerate([3, 7, 1, 5, 2]):
        rows = [
            (float(rng.uniform(0, 5e4)), float(rng.uniform(0, 5e4)), float(rng.uniform(0, 2e3)))
            for _ in range(m)
        ]
        fps.append(make_fp(f"u{i}", rows))
    return fps


@pytest.fixture
def long_fps(rng):
    """Fingerprints of 1–40 samples with extents and count weights, so
    the zero-padded means run NumPy's 8-way pairwise tree."""
    fps = []
    for i, m in enumerate([40, 1, 9, 23, 8, 31, 2, 17, 40, 12]):
        data = np.column_stack(
            [
                rng.uniform(0, 5e4, m),
                rng.uniform(0, 3e3, m),
                rng.uniform(0, 5e4, m),
                rng.uniform(0, 3e3, m),
                rng.uniform(0, 2.9e3, m),
                rng.uniform(0, 120, m),
            ]
        )
        count = 1 + i % 3
        fps.append(Fingerprint(f"u{i}", data, count=count,
                               members=[f"u{i}-{j}" for j in range(count)]))
    return fps


class TestPacking:
    def test_shapes(self, ragged_fps):
        packed = PaddedFingerprints(ragged_fps)
        assert packed.data.shape == (5, 7, 6)
        assert packed.mask.sum() == 3 + 7 + 1 + 5 + 2
        np.testing.assert_array_equal(packed.lengths, [3, 7, 1, 5, 2])

    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError):
            PaddedFingerprints([])

    def test_rejects_empty_fingerprint(self):
        import numpy as np

        from repro.core.fingerprint import Fingerprint

        with pytest.raises(ValueError):
            PaddedFingerprints([Fingerprint("e", np.empty((0, 6)))])


class TestOneVsAll:
    def test_matches_pairwise_reference(self, ragged_fps):
        packed = PaddedFingerprints(ragged_fps)
        for i, fp in enumerate(ragged_fps):
            vals = one_vs_all(fp.data, fp.count, packed)
            for j, other in enumerate(ragged_fps):
                if i == j:
                    continue
                expected = fingerprint_stretch(fp.data, other.data)
                assert vals[j] == pytest.approx(expected, abs=1e-12), (i, j)

    def test_self_distance_zero(self, ragged_fps):
        packed = PaddedFingerprints(ragged_fps)
        vals = one_vs_all(ragged_fps[1].data, 1, packed)
        assert vals[1] == pytest.approx(0.0, abs=1e-12)

    def test_subset_indices(self, ragged_fps, long_fps):
        # Bitwise (DESIGN.md D4): a target's value does not depend on
        # which other targets share its call, nor on their order.
        for fps in (ragged_fps, long_fps):
            packed = PaddedFingerprints(fps)
            for probe in (fps[0], fps[1], fps[2]):
                all_vals = one_vs_all(probe.data, probe.count, packed)
                for subset in ([2, 4], [4, 2], [1], [3, 0, 1]):
                    for chunk in CHUNKS:
                        sub = one_vs_all(
                            probe.data, probe.count, packed,
                            indices=np.array(subset), chunk=chunk,
                        )
                        np.testing.assert_array_equal(sub, all_vals[subset])

    def test_chunking_invariant(self, ragged_fps, long_fps):
        # Bitwise, on every probe: blocks of 1 and 3 targets cut the
        # collection mid-way, 256 keeps it whole.
        for fps in (ragged_fps, long_fps):
            packed = PaddedFingerprints(fps)
            for probe in fps:
                v = [one_vs_all(probe.data, probe.count, packed, chunk=c) for c in CHUNKS]
                np.testing.assert_array_equal(v[0], v[2])
                np.testing.assert_array_equal(v[1], v[2])

    def test_many_vs_some_matches_one_vs_all(self, long_fps):
        # Ragged target lists, empty and one-target ones included: each
        # row is its probe's one_vs_all, bit for bit, at every chunk.
        packed = PaddedFingerprints(long_fps)
        probes = [long_fps[i] for i in (0, 1, 2, 5, 8)]
        targets_list = [
            np.array([], dtype=np.int64),
            np.array([3]),
            np.array([9, 0, 4, 7, 1]),
            np.array([], dtype=np.int64),
            np.arange(len(long_fps))[::-1],
        ]
        for chunk in CHUNKS:
            rows = many_vs_some(
                [p.data for p in probes], [p.count for p in probes], packed,
                targets_list, chunk=chunk,
            )
            assert len(rows) == len(probes)
            for probe, targets, row in zip(probes, targets_list, rows):
                assert row.shape == targets.shape
                expected = one_vs_all(probe.data, probe.count, packed, indices=targets)
                np.testing.assert_array_equal(row, expected)

    def test_count_weights_respected(self, ragged_fps):
        from repro.core.fingerprint import Fingerprint

        heavy = Fingerprint(
            "h", ragged_fps[0].data, count=5, members=tuple(f"m{i}" for i in range(5))
        )
        packed = PaddedFingerprints(ragged_fps)
        vals_heavy = one_vs_all(heavy.data, 5, packed)
        expected = [
            fingerprint_stretch(heavy.data, fp.data, n_a=5, n_b=1) for fp in ragged_fps
        ]
        np.testing.assert_allclose(vals_heavy, expected, atol=1e-12)


class TestPairwiseMatrix:
    def test_symmetric_with_inf_diagonal(self, ragged_fps):
        mat = pairwise_matrix(ragged_fps)
        assert np.isinf(np.diag(mat)).all()
        off = ~np.eye(len(ragged_fps), dtype=bool)
        np.testing.assert_allclose(mat[off], mat.T[off])

    def test_values_in_unit_interval(self, ragged_fps):
        mat = pairwise_matrix(ragged_fps)
        off = ~np.eye(len(ragged_fps), dtype=bool)
        assert (mat[off] >= 0).all() and (mat[off] <= 1).all()


class TestKNearest:
    def test_nearest_neighbour(self):
        mat = np.array(
            [
                [np.inf, 0.1, 0.5],
                [0.1, np.inf, 0.2],
                [0.5, 0.2, np.inf],
            ]
        )
        idx, eff = k_nearest(mat, 1)
        np.testing.assert_array_equal(idx[:, 0], [1, 0, 1])
        np.testing.assert_allclose(eff[:, 0], [0.1, 0.1, 0.2])

    def test_sorted_by_effort(self):
        mat = np.array(
            [
                [np.inf, 0.3, 0.1, 0.2],
                [0.3, np.inf, 0.4, 0.5],
                [0.1, 0.4, np.inf, 0.6],
                [0.2, 0.5, 0.6, np.inf],
            ]
        )
        idx, eff = k_nearest(mat, 3)
        assert (np.diff(eff, axis=1) >= 0).all()
        np.testing.assert_array_equal(idx[0], [2, 3, 1])

    def test_rejects_too_large_k(self):
        mat = np.full((3, 3), np.inf)
        with pytest.raises(ValueError):
            k_nearest(mat, 3)

    def test_rejects_zero_k(self):
        mat = np.full((3, 3), np.inf)
        with pytest.raises(ValueError):
            k_nearest(mat, 0)
