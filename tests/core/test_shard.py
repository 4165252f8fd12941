"""Tests for the sharded GLOVE tier (partitioner, driver, repair)."""

import numpy as np
import pytest

from repro.analysis.accuracy import extent_accuracy
from repro.core.config import ComputeConfig, GloveConfig
from repro.core.engine import (
    available_backends,
    get_default_compute,
    get_glove_driver,
    register_glove_driver,
    set_default_compute,
)
from repro.core.glove import GloveStats, glove
from repro.core.shard import (
    AUTO_SHARD_CAP,
    AUTO_SHARD_TARGET,
    partition_indices,
    resolve_shards,
    sharded_glove,
)
from tests.conftest import make_fp
from tests.properties.test_k_anonymity import assert_k_anonymous


def _compute(shards, workers=1, strategy="time"):
    return ComputeConfig(
        backend="sharded", shards=shards, workers=workers, shard_strategy=strategy
    )


class TestPartitioner:
    def test_time_partitions_cover_exactly_once(self, small_civ):
        fps = list(small_civ)
        parts = partition_indices(fps, 4, "time")
        assert len(parts) == 4
        covered = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(covered, np.arange(len(fps)))

    def test_time_partitions_are_balanced_and_local(self, small_civ):
        fps = list(small_civ)
        parts = partition_indices(fps, 4, "time")
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1
        mids = [
            0.5 * (float(fp.data[0, 4]) + float((fp.data[:, 4] + fp.data[:, 5]).max()))
            for fp in fps
        ]
        # Contiguous runs in midpoint order: each shard's latest midpoint
        # never exceeds the next shard's earliest.
        for left, right in zip(parts, parts[1:]):
            assert max(mids[int(i)] for i in left) <= min(mids[int(i)] for i in right)

    def test_hash_partitions_cover_exactly_once(self, small_civ):
        fps = list(small_civ)
        parts = partition_indices(fps, 4, "hash")
        covered = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(covered, np.arange(len(fps)))

    def test_hash_is_stable_under_reordering(self, small_civ):
        fps = list(small_civ)
        parts = partition_indices(fps, 3, "hash")
        shuffled = list(reversed(fps))
        parts_rev = partition_indices(shuffled, 3, "hash")
        by_uid = lambda order, parts: [
            sorted(order[int(i)].uid for i in part) for part in parts
        ]
        assert sorted(map(tuple, by_uid(fps, parts))) == sorted(
            map(tuple, by_uid(shuffled, parts_rev))
        )

    def test_deterministic(self, small_civ):
        fps = list(small_civ)
        for strategy in ("time", "hash"):
            a = partition_indices(fps, 3, strategy)
            b = partition_indices(fps, 3, strategy)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_clamps_to_population(self):
        fps = [make_fp(f"u{i}", [(0.0, 0.0, float(i))]) for i in range(3)]
        parts = partition_indices(fps, 10, "time")
        assert len(parts) == 3
        assert all(p.size == 1 for p in parts)

    def test_single_shard_is_identity(self, small_civ):
        fps = list(small_civ)
        (part,) = partition_indices(fps, 1, "time")
        np.testing.assert_array_equal(part, np.arange(len(fps)))

    def test_unknown_strategy_raises(self, small_civ):
        with pytest.raises(ValueError, match="unknown shard strategy"):
            partition_indices(list(small_civ), 2, "geo")


class TestResolveShards:
    def test_explicit_wins_and_clamps(self):
        assert resolve_shards(ComputeConfig(shards=4), 100) == 4
        assert resolve_shards(ComputeConfig(shards=8), 5) == 5

    def test_auto_scales_with_population(self):
        assert resolve_shards(ComputeConfig(), 100) == 1
        assert resolve_shards(ComputeConfig(), AUTO_SHARD_TARGET + 1) == 2
        assert resolve_shards(ComputeConfig(), 10 ** 6) == AUTO_SHARD_CAP


class TestGoldenEquivalence:
    """shards=1 must be byte-identical; shards>1 must stay k-anonymous
    with bounded extra stretch (DESIGN.md D5)."""

    def test_single_shard_byte_identical_to_numpy(self, small_civ):
        config = GloveConfig(k=2)
        reference = glove(small_civ, config, ComputeConfig(backend="numpy"))
        sharded = glove(small_civ, config, _compute(shards=1))
        assert sharded.stats.n_merges == reference.stats.n_merges
        assert len(sharded.dataset) == len(reference.dataset)
        for a, b in zip(sharded.dataset, reference.dataset):
            assert a.uid == b.uid
            assert a.members == b.members
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("shards,strategy", [(2, "time"), (3, "time"), (3, "hash")])
    def test_multi_shard_k_anonymous_and_complete(self, small_civ, shards, strategy):
        config = GloveConfig(k=2)
        result = glove(small_civ, config, _compute(shards=shards, strategy=strategy))
        covered = assert_k_anonymous(result.dataset, config.k)
        assert covered == set(small_civ.uids)
        assert result.dataset.is_k_anonymous(config.k)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_multi_shard_stretch_within_tolerance(self, small_civ, shards):
        # Documented tolerance (DESIGN.md D5): with >= ~20 fingerprints
        # per shard the median generalized extents stay within a small
        # constant of the unsharded run; enforce 4x spatial / 2x
        # temporal (measured <= 1.9x / 1.2x on this seeded scenario).
        config = GloveConfig(k=2)
        reference = glove(small_civ, config, ComputeConfig(backend="numpy"))
        sharded = glove(small_civ, config, _compute(shards=shards))
        ref_s, ref_t = extent_accuracy(reference.dataset)
        shard_s, shard_t = extent_accuracy(sharded.dataset)
        assert shard_s.median <= 4.0 * ref_s.median
        assert shard_t.median <= 2.0 * ref_t.median


class TestStatsCounters:
    def test_defaults(self):
        stats = GloveStats()
        assert stats.shards_used == 1
        assert stats.boundary_repaired == 0

    def test_unsharded_run_counts_one_shard(self, small_civ):
        result = glove(small_civ, GloveConfig(k=2), ComputeConfig(backend="numpy"))
        assert result.stats.shards_used == 1
        assert result.stats.boundary_repaired == 0

    def test_sharded_run_records_shards(self, small_civ):
        result = glove(small_civ, GloveConfig(k=2), _compute(shards=3))
        assert result.stats.shards_used == 3
        assert 0 <= result.stats.boundary_repaired <= 3
        # Each shard leaves at most one non-anonymous leftover behind.
        assert result.stats.boundary_repaired <= result.stats.shards_used

    def test_pool_matches_sequential(self, small_civ):
        config = GloveConfig(k=2)
        sequential = glove(small_civ, config, _compute(shards=3, workers=1))
        pooled = glove(small_civ, config, _compute(shards=3, workers=3))
        assert len(sequential.dataset) == len(pooled.dataset)
        for a, b in zip(sequential.dataset, pooled.dataset):
            assert a.members == b.members
            np.testing.assert_array_equal(a.data, b.data)


class TestDriverRouting:
    def test_sharded_backend_registered(self):
        assert "sharded" in available_backends()
        assert get_glove_driver("sharded") is sharded_glove
        assert get_glove_driver("numpy") is None

    def test_glove_routes_to_driver(self, small_civ):
        via_glove = glove(small_civ, GloveConfig(k=2), _compute(shards=2))
        direct = sharded_glove(small_civ, GloveConfig(k=2), _compute(shards=2))
        assert via_glove.stats.shards_used == direct.stats.shards_used == 2
        for a, b in zip(via_glove.dataset, direct.dataset):
            assert a.members == b.members
            np.testing.assert_array_equal(a.data, b.data)

    def test_duplicate_driver_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_glove_driver("sharded", sharded_glove)

    def test_process_wide_default_routes(self, small_civ):
        original = get_default_compute()
        try:
            set_default_compute(_compute(shards=2))
            result = glove(small_civ, GloveConfig(k=2))
            assert result.stats.shards_used == 2
        finally:
            set_default_compute(original)


class TestBoundaryRepair:
    def test_all_shards_undersized_falls_back_to_greedy(self):
        # k=5 with three users per shard: no shard can finish a group on
        # its own, so the repair pass greedy-merges the leftovers.
        fps = [
            make_fp(f"u{i}", [(100.0 * i, 0.0, 10.0 * i), (100.0 * i, 50.0, 10.0 * i + 5)])
            for i in range(6)
        ]
        from repro.core.dataset import FingerprintDataset

        dataset = FingerprintDataset(fps, name="tiny")
        result = sharded_glove(dataset, GloveConfig(k=5), _compute(shards=3))
        covered = assert_k_anonymous(result.dataset, 5)
        assert covered == {fp.uid for fp in fps}
        assert result.stats.boundary_repaired == 3

    def test_leftover_absorbed_into_nearest_group(self):
        # Odd population with k=2: some shard ends with a leftover that
        # must be folded across the shard boundary.
        fps = [
            make_fp(f"u{i}", [(50.0 * i, 0.0, 5.0 * i), (50.0 * i, 25.0, 5.0 * i + 2)])
            for i in range(9)
        ]
        from repro.core.dataset import FingerprintDataset

        dataset = FingerprintDataset(fps, name="odd")
        result = sharded_glove(dataset, GloveConfig(k=2), _compute(shards=3))
        covered = assert_k_anonymous(result.dataset, 2)
        assert covered == {fp.uid for fp in fps}
        assert result.stats.boundary_repaired >= 1
        assert result.stats.leftover_merged

    def test_repair_scores_on_the_tier_pick(self, small_civ, monkeypatch):
        # The repair scores every leftover through the ``auto`` pick's
        # one_vs_all (the compiled kernel when it is bound), one crossing
        # and one probe per leftover, and publishes the bytes the NumPy
        # body gives.
        from repro.core import engine as engine_module
        from repro.core import shard as shard_module
        from repro.core.artifacts import dataset_digest

        calls = []

        def counted(backend_cls):
            def one_vs_all(self, probe_data, probe_count, packed, targets):
                calls.append((type(self).__name__, len(targets)))
                return original[backend_cls](self, probe_data, probe_count, packed, targets)
            return one_vs_all

        original = {
            cls: cls.one_vs_all
            for cls in (engine_module.NumpyBackend, engine_module.CompiledBackend)
        }
        for cls in original:
            monkeypatch.setattr(cls, "one_vs_all", counted(cls))
        config, compute = GloveConfig(k=3), _compute(shards=4)
        result = sharded_glove(small_civ, config, compute)
        repaired = result.stats.boundary_repaired
        assert repaired >= 1
        expected = type(engine_module.create_backend(ComputeConfig(backend="auto"))).__name__
        # Leftovers fold into finished groups, so those are the targets.
        assert calls == [(expected, len(result.dataset))] * repaired

        monkeypatch.setattr(
            shard_module, "create_backend",
            lambda compute, stretch: engine_module.NumpyBackend(compute, stretch),
        )
        reference = sharded_glove(small_civ, config, compute)
        assert dataset_digest(result.dataset) == dataset_digest(reference.dataset)
        for name in ("n_exact_evaluations", "n_boundary_crossings", "n_probe_dispatches"):
            assert getattr(result.stats, name) == getattr(reference.stats, name), name
