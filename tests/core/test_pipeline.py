"""Tests for the staged compute-once pipeline."""

import numpy as np
import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.config import ComputeConfig, GloveConfig, StretchConfig
from repro.core.glove import glove
from repro.core.kgap import kgap
from repro.core.pipeline import (
    Pipeline,
    compute_result_signature,
    get_default_pipeline,
    set_default_pipeline,
)


@pytest.fixture
def memo_pipeline():
    """A fresh memo-only pipeline (no disk side effects)."""
    return Pipeline(ArtifactStore(root=None))


@pytest.fixture
def disk_pipeline(tmp_path):
    """A pipeline backed by a private on-disk store."""
    return Pipeline(ArtifactStore(root=tmp_path / "store"))


def _datasets_equal(a, b):
    return len(a) == len(b) and all(
        x.uid == y.uid
        and x.count == y.count
        and x.members == y.members
        and np.array_equal(x.data, y.data)
        for x, y in zip(a, b)
    )


class TestDatasetStage:
    def test_computes_each_key_exactly_once(self, memo_pipeline):
        p = memo_pipeline
        a = p.dataset("synth-civ", n_users=20, days=1, seed=3)
        b = p.dataset("synth-civ", n_users=20, days=1, seed=3)
        c = p.dataset("synth-civ", n_users=20, days=1, seed=4)
        assert a is b and a is not c
        stats = p.stats["dataset"]
        assert stats.computed == 2
        assert stats.memo_hits == 1
        assert all(count == 1 for count in stats.computed_labels.values())

    def test_matches_direct_synthesis(self, memo_pipeline):
        from repro.cdr.datasets import synthesize

        cached = memo_pipeline.dataset("synth-civ", n_users=20, days=1, seed=3)
        direct = synthesize("synth-civ", n_users=20, days=1, seed=3)
        assert _datasets_equal(cached, direct)

    def test_disk_hit_across_pipeline_instances(self, tmp_path):
        root = tmp_path / "store"
        first = Pipeline(ArtifactStore(root=root))
        a = first.dataset("synth-civ", n_users=20, days=1, seed=3)
        second = Pipeline(ArtifactStore(root=root))
        b = second.dataset("synth-civ", n_users=20, days=1, seed=3)
        assert second.stats["dataset"].disk_hits == 1
        assert second.stats["dataset"].computed == 0
        assert _datasets_equal(a, b)


class TestGloveStage:
    def test_cache_on_equals_cache_off(self, memo_pipeline, small_civ):
        off = Pipeline(ArtifactStore(root=None), enabled=False)
        cached = memo_pipeline.anonymize(small_civ, GloveConfig(k=2))
        fresh = off.anonymize(small_civ, GloveConfig(k=2))
        assert off.stats["glove"].computed == 1
        assert _datasets_equal(cached.dataset, fresh.dataset)
        assert cached.raw.stats.n_merges == fresh.raw.stats.n_merges

    def test_disk_round_trip_byte_identical(self, disk_pipeline, small_civ):
        p = disk_pipeline
        first = p.anonymize(small_civ, GloveConfig(k=2))
        p.store.clear_memo()
        again = p.anonymize(small_civ, GloveConfig(k=2))
        assert p.stats["glove"].disk_hits == 1
        assert first is not again
        assert _datasets_equal(first.dataset, again.dataset)

    def test_content_addressing_shares_across_sources(self, memo_pipeline, small_civ, tmp_path):
        # A CSV round trip of the same records hits the same artifact.
        from repro.cdr.io import read_events_csv, write_events_csv

        path = tmp_path / "events.csv"
        write_events_csv(small_civ, path)
        reloaded = read_events_csv(path)
        memo_pipeline.anonymize(small_civ, GloveConfig(k=2))
        memo_pipeline.anonymize(reloaded, GloveConfig(k=2))
        assert memo_pipeline.stats["glove"].computed == 1
        assert memo_pipeline.stats["glove"].memo_hits == 1

    def test_config_enters_the_key(self, memo_pipeline, small_civ):
        memo_pipeline.anonymize(small_civ, GloveConfig(k=2))
        memo_pipeline.anonymize(small_civ, GloveConfig(k=3))
        assert memo_pipeline.stats["glove"].computed == 2


class TestComputeResultSignature:
    def test_kernel_backends_share_artifacts(self):
        # numpy/compiled/auto are byte-identical (DESIGN.md D4): one key.
        assert compute_result_signature(ComputeConfig(backend="numpy")) == {}
        assert compute_result_signature(ComputeConfig(backend="compiled", workers=4)) == {}
        assert compute_result_signature(ComputeConfig(backend="auto", chunk=32)) == {}
        assert compute_result_signature(None) == {}

    def test_pruning_and_chunking_excluded(self):
        a = compute_result_signature(ComputeConfig(backend="numpy", pruning=False))
        b = compute_result_signature(ComputeConfig(backend="numpy", chunk=8))
        assert a == b == {}

    def test_sharded_driver_keyed_separately(self):
        sig = compute_result_signature(ComputeConfig(backend="sharded", shards=4))
        assert sig == {"backend": "sharded", "shards": 4, "shard_strategy": "time"}

    def test_single_shard_normalizes_to_unsharded(self):
        # shards=1 is byte-identical to the unsharded path (DESIGN.md D5).
        assert compute_result_signature(ComputeConfig(backend="sharded", shards=1)) == {}

    def test_effective_shards_resolved_from_population(self):
        # Auto shard picking is deterministic in n: a population small
        # enough for one shard shares the unsharded artifact, and an
        # explicit count is clamped before keying.
        assert compute_result_signature(ComputeConfig(backend="sharded"), 100) == {}
        clamped = compute_result_signature(ComputeConfig(backend="sharded", shards=4), 3)
        assert clamped["shards"] == 3

    def test_sharded_auto_on_small_population_hits_unsharded_artifact(
        self, memo_pipeline, small_civ
    ):
        memo_pipeline.anonymize(small_civ, GloveConfig(k=2))
        memo_pipeline.anonymize(
            small_civ, GloveConfig(k=2), ComputeConfig(backend="sharded")
        )
        assert memo_pipeline.stats["glove"].computed == 1
        assert memo_pipeline.stats["glove"].memo_hits == 1

    def test_sharded_results_cached_per_shard_count(self, memo_pipeline, small_civ):
        p = memo_pipeline
        p.anonymize(small_civ, GloveConfig(k=2), ComputeConfig(backend="sharded", shards=2))
        p.anonymize(small_civ, GloveConfig(k=2), ComputeConfig(backend="sharded", shards=3))
        p.anonymize(small_civ, GloveConfig(k=2), ComputeConfig(backend="sharded", shards=2))
        assert p.stats["glove"].computed == 2
        assert p.stats["glove"].memo_hits == 1


class TestMethodAxis:
    """The generic anonymize stage over the anonymizer registry."""

    def test_glove_method_hits_cached_glove_artifact(self, memo_pipeline, small_civ):
        # The acceptance invariant: method="glove" through the generic
        # stage is the same artifact, same key, as the cached_glove
        # path — the second request must be a memo hit.
        memo_pipeline.glove(small_civ, GloveConfig(k=2))
        result = memo_pipeline.anonymize(small_civ, GloveConfig(k=2), method="glove")
        assert memo_pipeline.stats["glove"].computed == 1
        assert memo_pipeline.stats["glove"].memo_hits == 1
        direct = glove(small_civ, GloveConfig(k=2))
        assert _datasets_equal(result.dataset, direct.dataset)

    def test_glove_suppression_shares_the_unsuppressed_artifact(
        self, memo_pipeline, small_civ
    ):
        from repro.core.config import SuppressionConfig

        suppressed_cfg = GloveConfig(
            k=2,
            suppression=SuppressionConfig(
                spatial_threshold_m=15_000.0, temporal_threshold_min=360.0
            ),
        )
        memo_pipeline.anonymize(small_civ, GloveConfig(k=2), method="glove")
        via_stage = memo_pipeline.anonymize(small_civ, suppressed_cfg, method="glove")
        # Suppression is a post-filter: one greedy-loop artifact serves
        # both configs...
        assert memo_pipeline.stats["glove"].computed == 1
        assert memo_pipeline.stats["glove"].memo_hits == 1
        # ...and the release is byte-identical to running glove() with
        # the suppression config inline.
        inline = glove(small_civ, suppressed_cfg)
        assert _datasets_equal(via_stage.dataset, inline.dataset)
        assert via_stage.raw.stats.suppression == inline.stats.suppression

    def test_baseline_method_computed_once(self, memo_pipeline, small_civ):
        from repro.baselines.w4m import W4MConfig

        a = memo_pipeline.anonymize(small_civ, W4MConfig(k=2), method="w4m-lc")
        b = memo_pipeline.anonymize(small_civ, W4MConfig(k=2), method="w4m-lc")
        assert a is b
        stats = memo_pipeline.stats["anonymize"]
        assert stats.computed == 1
        assert stats.memo_hits == 1

    def test_method_config_enters_the_key(self, memo_pipeline, small_civ):
        from repro.baselines.w4m import W4MConfig

        memo_pipeline.anonymize(small_civ, W4MConfig(k=2, delta_m=2_000.0), method="w4m-lc")
        memo_pipeline.anonymize(small_civ, W4MConfig(k=2, delta_m=3_000.0), method="w4m-lc")
        assert memo_pipeline.stats["anonymize"].computed == 2

    def test_baseline_round_trips_through_disk(self, disk_pipeline, tmp_path, small_civ):
        from repro.baselines.nwa import NWAConfig

        config = NWAConfig(k=2, period_min=120.0)
        first = disk_pipeline.anonymize(small_civ, config, method="nwa")
        again = Pipeline(ArtifactStore(root=tmp_path / "store")).anonymize(
            small_civ, config, method="nwa"
        )
        assert _datasets_equal(first.dataset, again.dataset)
        assert first.stats == again.stats
        assert first.groups == again.groups

    def test_unknown_method_rejected(self, memo_pipeline, small_civ):
        with pytest.raises(ValueError, match="unknown anonymizer"):
            memo_pipeline.anonymize(small_civ, method="gpu")

    def test_cached_anonymize_routes_through_default(self, memo_pipeline, small_civ):
        from repro.core.pipeline import cached_anonymize

        old = set_default_pipeline(memo_pipeline)
        try:
            result = cached_anonymize(small_civ, method="generalization")
        finally:
            set_default_pipeline(old)
        assert memo_pipeline.stats["anonymize"].computed == 1
        assert result.method == "generalization"
        assert len(result.dataset) == len(small_civ)


class TestMatrixAndKgapStages:
    def test_all_ks_share_one_matrix(self, memo_pipeline, small_civ):
        p = memo_pipeline
        for k in (2, 3, 5):
            p.kgap(small_civ, k=k)
        assert p.stats["matrix"].computed == 1
        assert p.stats["matrix"].memo_hits == 2

    def test_kgap_matches_direct_computation(self, memo_pipeline, small_civ):
        cached = memo_pipeline.kgap(small_civ, k=2)
        direct = kgap(small_civ, k=2)
        assert np.array_equal(cached.gaps, direct.gaps)
        assert np.array_equal(cached.neighbor_indices, direct.neighbor_indices)

    def test_stretch_config_enters_the_key(self, memo_pipeline, small_civ):
        memo_pipeline.matrix(small_civ)
        memo_pipeline.matrix(small_civ, StretchConfig(phi_max_sigma_m=10_000.0))
        assert memo_pipeline.stats["matrix"].computed == 2


class TestDefaultPipeline:
    def test_install_and_restore(self, memo_pipeline):
        old = set_default_pipeline(memo_pipeline)
        try:
            assert get_default_pipeline() is memo_pipeline
        finally:
            set_default_pipeline(old)
        assert get_default_pipeline() is not memo_pipeline

    def test_cached_helpers_route_through_default(self, memo_pipeline):
        from repro.core.pipeline import cached_dataset, cached_glove

        old = set_default_pipeline(memo_pipeline)
        try:
            ds = cached_dataset("synth-civ", n_users=20, days=1, seed=3)
            cached_glove(ds, GloveConfig(k=2))
        finally:
            set_default_pipeline(old)
        assert memo_pipeline.stats["dataset"].computed == 1
        assert memo_pipeline.stats["glove"].computed == 1


class TestPipelineFromArgs:
    def test_artifact_dir_flag_beats_cache_env(self, monkeypatch, tmp_path):
        from types import SimpleNamespace

        from repro.core.pipeline import pipeline_from_args

        monkeypatch.setenv("REPRO_CACHE", "0")
        explicit = pipeline_from_args(
            SimpleNamespace(no_cache=False, artifact_dir=str(tmp_path / "s"))
        )
        assert explicit.store.disk_enabled  # flag wins over the env gate
        from_env = pipeline_from_args(
            SimpleNamespace(no_cache=False, artifact_dir=None)
        )
        assert not from_env.store.disk_enabled

    def test_no_cache_flag_disables_everything(self):
        from types import SimpleNamespace

        from repro.core.pipeline import pipeline_from_args

        pipeline = pipeline_from_args(
            SimpleNamespace(no_cache=True, artifact_dir="ignored")
        )
        assert not pipeline.enabled
        assert not pipeline.store.disk_enabled


class TestPipelineDisabled:
    def test_disabled_pipeline_always_computes(self, small_civ):
        p = Pipeline(ArtifactStore(root=None), enabled=False)
        a = p.dataset("synth-civ", n_users=20, days=1, seed=3)
        b = p.dataset("synth-civ", n_users=20, days=1, seed=3)
        assert a is not b
        assert p.stats["dataset"].computed == 2
        reference = glove(small_civ, GloveConfig(k=2))
        fresh = p.anonymize(small_civ, GloveConfig(k=2))
        assert _datasets_equal(reference.dataset, fresh.dataset)


class TestFeedAndStreamStages:
    def test_feed_memoized_and_deterministic(self, memo_pipeline, small_civ):
        a = memo_pipeline.feed(small_civ)
        b = memo_pipeline.feed(small_civ)
        assert a is b
        assert memo_pipeline.stats["feed"].computed == 1
        assert len(a) == small_civ.n_samples

    def test_feed_keyed_by_jitter_and_seed(self, memo_pipeline, small_civ):
        plain = memo_pipeline.feed(small_civ)
        jittered = memo_pipeline.feed(small_civ, max_jitter_min=30.0, seed=1)
        other_seed = memo_pipeline.feed(small_civ, max_jitter_min=30.0, seed=2)
        assert memo_pipeline.stats["feed"].computed == 3
        assert plain is not jittered and jittered is not other_seed

    def test_stream_round_trips_through_disk(self, disk_pipeline, tmp_path, small_civ):
        from repro.stream.windows import StreamConfig

        cfg = StreamConfig(window_min=12 * 60.0)
        first = disk_pipeline.stream(small_civ, GloveConfig(k=2), cfg)
        again = Pipeline(ArtifactStore(root=tmp_path / "store")).stream(
            small_civ, GloveConfig(k=2), cfg
        )
        assert len(again.windows) == len(first.windows)
        for a, b in zip(first.emitted, again.emitted):
            assert a.index == b.index
            assert _datasets_equal(a.dataset, b.dataset)
        assert again.stats.n_events == first.stats.n_events

    def test_stream_keyed_by_window_and_config(self, memo_pipeline, small_civ):
        from repro.stream.windows import StreamConfig

        memo_pipeline.stream(small_civ, GloveConfig(k=2), StreamConfig(window_min=720.0))
        memo_pipeline.stream(small_civ, GloveConfig(k=2), StreamConfig(window_min=360.0))
        memo_pipeline.stream(small_civ, GloveConfig(k=3), StreamConfig(window_min=720.0))
        memo_pipeline.stream(
            small_civ, GloveConfig(k=2), StreamConfig(window_min=720.0, carry_over=False)
        )
        assert memo_pipeline.stats["stream"].computed == 4
        # The feed is shared by every run of the same replay parameters.
        assert memo_pipeline.stats["feed"].computed == 1
        memo_pipeline.stream(small_civ, GloveConfig(k=2), StreamConfig(window_min=720.0))
        assert memo_pipeline.stats["stream"].memo_hits == 1
