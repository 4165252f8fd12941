"""Whole-run differential oracle on hostile populations (DESIGN.md D9/D13).

Every compute path must publish the same bytes as the preserved seed
path (:mod:`benchmarks.seed_path`), not only on the seeded populations
the benchmarks use but on small inputs built to hit the corners of the
kernels, the bounds and the merge:

* exact duplicate fingerprints (effort ties, the lowest-id rule);
* single-sample users;
* zero-extent samples;
* ``-0.0`` coordinates and times;
* coordinates near 1e6 with subnormal times;
* plain random inputs.

Per example and per ``k`` the oracle compares ``dataset_digest`` across
the seed path, numpy and compiled (when a binding is bound) with
pruning on and off, auto, sharded with one shard, and the stream whole-window ``--no-carry-over``
anchor; it also audits k-anonymity, full coverage and truthfulness
(:func:`repro.core.merge.covers`) of the published groups.

The paths that may legitimately publish other bytes — sharded with two
or more shards, the stream with carry-over, sliding windows and late
events, and suppression — are audited on the same regimes for
k-anonymity and truthfulness; reshape off and non-default stretch
weights are held to the seed path's bytes as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.seed_path import seed_glove
from repro.core import kernels
from repro.core.artifacts import dataset_digest
from repro.core.config import (
    ComputeConfig,
    GloveConfig,
    StretchConfig,
    SuppressionConfig,
)
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.glove import glove
from repro.core.merge import covers
from repro.core.sample import DT, DX, DY, NCOLS, T, X, Y
from repro.stream.driver import stream_glove
from repro.stream.feed import ReplayFeed, replay_dataset
from repro.stream.windows import StreamConfig
from tests.properties.test_k_anonymity import assert_k_anonymous

REGIMES = (
    "duplicates",
    "single-sample",
    "zero-extent",
    "negative-zero",
    "far-subnormal",
    "random",
)

#: Exact multiples of the smallest subnormal double.
_SUBNORMAL = st.integers(min_value=0, max_value=1 << 20).map(lambda i: i * 5e-324)
_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def _fingerprint_rows(draw, regime, m):
    rows = np.empty((m, NCOLS))
    for r in range(m):
        if regime == "far-subnormal":
            near = st.floats(min_value=1e6 - 500.0, max_value=1e6 + 500.0)
            rows[r, [X, Y]] = draw(near), draw(near)
            rows[r, [DX, DY]] = 100.0
            rows[r, [T, DT]] = draw(_SUBNORMAL), draw(_SUBNORMAL)
            continue
        if regime == "negative-zero":
            coord = _SIGNED_ZERO | st.floats(min_value=0, max_value=2e3)
            time = _SIGNED_ZERO | st.floats(min_value=0, max_value=60.0)
        else:
            coord = st.floats(min_value=0, max_value=6e4)
            time = st.floats(min_value=0, max_value=4e3)
        rows[r, [X, Y, T]] = draw(coord), draw(coord), draw(time)
        rows[r, [DX, DY, DT]] = 0.0 if regime == "zero-extent" else (100.0, 100.0, 1.0)
    return rows


@st.composite
def hostile_populations(draw, min_n=2, max_n=9, regimes=REGIMES):
    """``min_n..max_n`` single-subscriber fingerprints drawn in one
    hostile regime of ``regimes``."""
    regime = draw(st.sampled_from(regimes))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    max_m = 1 if regime == "single-sample" else 5
    if regime == "duplicates":
        # Fewer distinct fingerprints than users: some are exact copies.
        bases = [
            _fingerprint_rows(draw, "random", draw(st.integers(1, max_m)))
            for _ in range(draw(st.integers(min_value=1, max_value=n - 1)))
        ]
        rows = [bases[draw(st.integers(0, len(bases) - 1))] for _ in range(n)]
    else:
        rows = [
            _fingerprint_rows(draw, regime, draw(st.integers(1, max_m)))
            for _ in range(n)
        ]
    fps = [Fingerprint(f"u{i}", r.copy()) for i, r in enumerate(rows)]
    return FingerprintDataset(fps, name=f"hostile-{regime}")


def _compute_paths():
    paths = {
        "numpy": ComputeConfig(backend="numpy"),
        "numpy-no-prune": ComputeConfig(backend="numpy", pruning=False),
        "auto": ComputeConfig(backend="auto"),
        "sharded-1": ComputeConfig(backend="sharded", shards=1, workers=1),
    }
    if kernels.COMPILED_AVAILABLE:
        paths["compiled"] = ComputeConfig(backend="compiled")
        paths["compiled-no-prune"] = ComputeConfig(backend="compiled", pruning=False)
    return paths


#: One window over any recording the strategy draws, no carry-over.
WHOLE_WINDOW = StreamConfig(window_min=1e9, carry_over=False)


def _assert_every_path_publishes_the_seed_bytes(dataset):
    for k in (2, 3):
        if len(dataset) < k:
            continue
        config = GloveConfig(k=k)
        reference = seed_glove(dataset, config).dataset
        digests = {"seed": dataset_digest(reference)}
        for name, compute in _compute_paths().items():
            digests[name] = dataset_digest(glove(dataset, config, compute).dataset)
        anchor = stream_glove(dataset, config, WHOLE_WINDOW, ComputeConfig())
        assert len(anchor.emitted) == 1
        digests["stream-anchor"] = dataset_digest(anchor.emitted[0].dataset)
        assert set(digests.values()) == {digests["seed"]}, (k, digests)

        assert assert_k_anonymous(reference, k) == set(dataset.uids)
        group_of = {member: fp for fp in reference for member in fp.members}
        for fp in dataset:
            assert covers(group_of[fp.uid].data, fp.data), (k, fp.uid)


class TestDifferentialOracle:
    @given(hostile_populations())
    @settings(max_examples=60, deadline=None)
    def test_every_path_publishes_the_seed_bytes(self, dataset):
        _assert_every_path_publishes_the_seed_bytes(dataset)

    @pytest.mark.parametrize("regime", REGIMES)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_every_path_publishes_the_seed_bytes_at_scale(self, regime, data):
        # 30-40 users per regime: a probe's bounded walk runs past the
        # NumPy walk's first three rounds (4 + 8 + 16 candidates), and
        # duplicates make the pair memo recall tie-broken values.
        _assert_every_path_publishes_the_seed_bytes(
            data.draw(hostile_populations(30, 40, regimes=(regime,)))
        )


def _inside(row, original, atol=1e-9):
    """Mask of the ``original`` samples that lie inside the sample ``row``."""
    return (
        (row[X] <= original[:, X] + atol)
        & (row[Y] <= original[:, Y] + atol)
        & (row[T] <= original[:, T] + atol)
        & (row[X] + row[DX] >= original[:, X] + original[:, DX] - atol)
        & (row[Y] + row[DY] >= original[:, Y] + original[:, DY] - atol)
        & (row[T] + row[DT] >= original[:, T] + original[:, DT] - atol)
    )


def _assert_generalized(dataset, groups):
    """Every published sample lies over a true sample of each member of
    its group: samples are generalized, never fabricated."""
    truth = {fp.uid: fp.data for fp in dataset}
    for group in groups:
        for member in group.members:
            for row in group.data:
                assert _inside(row, truth[member]).any(), (group.uid, member, row)


def _assert_covered(dataset, groups):
    """Every true sample lies inside a published sample of a group that
    holds its subscriber (:func:`repro.core.merge.covers`)."""
    published = {}
    for group in groups:
        for member in group.members:
            published.setdefault(member, []).append(group.data)
    assert set(published) == set(dataset.uids)
    for fp in dataset:
        assert covers(np.vstack(published[fp.uid]), fp.data), fp.uid


def _assert_truthful_release(dataset, published, k):
    assert assert_k_anonymous(published, k) == set(dataset.uids)
    _assert_covered(dataset, published)
    _assert_generalized(dataset, published)


#: A stretch metric far from the default: space weighs 9x time, and
#: neither term saturates on the regimes' spreads (coordinates up to
#: 60 km, times up to 4,000 min), so the weights decide every argmin.
SKEWED_STRETCH = StretchConfig(
    w_sigma=0.9, w_tau=0.1, phi_max_sigma_m=1.5e5, phi_max_tau_min=1e4
)

#: Windowing regimes with carry-over: tumbling windows shorter than the
#: recordings, and sliding windows that publish every event twice.
STREAM_REGIMES = {
    "tumbling": StreamConfig(window_min=600.0),
    "sliding": StreamConfig(window_min=600.0, slide_min=300.0),
}


class TestTruthfulPaths:
    """k-anonymity and truthfulness where the bytes may differ from the
    seed path's, and the seed bytes where the config is off-default."""

    @given(hostile_populations(), st.sampled_from(["time", "hash"]), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_sharded_boundary_repair(self, dataset, strategy, shards):
        compute = ComputeConfig(
            backend="sharded", shards=shards, shard_strategy=strategy, workers=1
        )
        for k in (2, 3):
            if len(dataset) < k:
                continue
            result = glove(dataset, GloveConfig(k=k), compute)
            _assert_truthful_release(dataset, result.dataset, k)

    @given(
        hostile_populations(),
        st.sampled_from(sorted(STREAM_REGIMES)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
    )
    @settings(max_examples=30, deadline=None)
    def test_stream_carry_over(self, dataset, regime, order_seed):
        # A permuted arrival order under a zero watermark lag makes
        # late events, which the redirect policy moves to the oldest
        # open window.
        feed = None
        if order_seed is not None:
            events = replay_dataset(dataset)
            order = np.random.default_rng(order_seed).permutation(len(events))
            feed = ReplayFeed(
                [events.uids[int(i)] for i in order], events.rows[order], name="late"
            )
        for k in (2, 3):
            if len(dataset) < k:
                continue
            result = stream_glove(
                dataset, GloveConfig(k=k), STREAM_REGIMES[regime], feed=feed
            )
            groups = []
            for window in result.emitted:
                assert_k_anonymous(window.dataset, k)
                groups.extend(window.dataset)
            _assert_covered(dataset, groups)
            _assert_generalized(dataset, groups)

    @given(hostile_populations(), st.sampled_from(["reshape-off", "skewed-stretch"]))
    @settings(max_examples=30, deadline=None)
    def test_off_default_configs_publish_the_seed_bytes(self, dataset, variant):
        # Reshape off is the merge step's second branch; skewed weights
        # reach every stretch cell of the merge and the bounds.
        for k in (2, 3):
            if len(dataset) < k:
                continue
            if variant == "reshape-off":
                config = GloveConfig(k=k, reshape=False)
            else:
                config = GloveConfig(k=k, stretch=SKEWED_STRETCH)
            reference = seed_glove(dataset, config).dataset
            digests = {"seed": dataset_digest(reference)}
            for name, compute in _compute_paths().items():
                digests[name] = dataset_digest(glove(dataset, config, compute).dataset)
            assert set(digests.values()) == {digests["seed"]}, (k, variant, digests)
            _assert_truthful_release(dataset, reference, k)

    @given(hostile_populations())
    @settings(max_examples=30, deadline=None)
    def test_suppression_keeps_truthful_samples(self, dataset):
        # Suppression deletes the samples stretched past a threshold, so
        # coverage holds for the unsuppressed groups; each kept sample
        # must be one of them and still lie over every member's truth.
        suppression = SuppressionConfig(spatial_threshold_m=150.0, temporal_threshold_min=30.0)
        for k in (2, 3):
            if len(dataset) < k:
                continue
            full = glove(dataset, GloveConfig(k=k)).dataset
            kept = glove(dataset, GloveConfig(k=k, suppression=suppression)).dataset
            assert [g.members for g in kept] == [g.members for g in full]
            for g_kept, g_full in zip(kept, full):
                rows = {row.tobytes() for row in g_full.data}
                assert all(row.tobytes() in rows for row in g_kept.data)
            assert assert_k_anonymous(kept, k) == set(dataset.uids)
            _assert_covered(dataset, full)
            _assert_generalized(dataset, kept)
