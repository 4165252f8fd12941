"""Tests for the pluggable stretch-compute engine."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import DEFAULT_CHUNK, ComputeConfig, GloveConfig, StretchConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import (
    CompiledBackend,
    NumpyBackend,
    SlotStore,
    StretchEngine,
    _BACKENDS,
    available_backends,
    compute_pairwise_matrix,
    create_backend,
    get_default_compute,
    register_backend,
    set_default_compute,
)
from repro.core.glove import glove
from repro.core.merge import merge_fingerprints
from repro.core.pairwise import (
    PaddedFingerprints,
    bucket_lower_bounds,
    hull_lower_bounds,
    one_vs_all,
    pairwise_matrix,
)
from repro.core.reshape import reshape_fingerprint
from tests.conftest import make_fp
from tests.properties.test_k_anonymity import populations


class TestSlotStore:
    def test_packs_and_appends(self, small_civ):
        fps = list(small_civ)[:6]
        store = SlotStore(fps)
        assert len(store) == 6
        assert store.capacity == 12
        assert store.alive[:6].all()
        np.testing.assert_array_equal(store.lengths[:6], [fp.m for fp in fps])

    def test_retire_marks_dead(self, small_civ):
        store = SlotStore(list(small_civ)[:4])
        store.retire(2)
        assert not store.alive[2]
        with pytest.raises(ValueError):
            store.retire(2)

    def test_grows_past_initial_capacity(self):
        fps = [make_fp(f"u{i}", [(float(i), 0.0, float(i))]) for i in range(3)]
        store = SlotStore(fps)
        for i in range(10):
            store.append(make_fp(f"extra{i}", [(0.0, 0.0, 0.0)]))
        assert len(store) == 13
        assert store.capacity >= 13
        assert store.fps[12].uid == "extra9"

    def test_rejects_oversized_fingerprint(self):
        store = SlotStore([make_fp("a", [(0.0, 0.0, 0.0)])])
        tall = make_fp("b", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="exceeding"):
            store.append(tall)

    def test_view_matches_packed(self, small_civ):
        fps = list(small_civ)[:5]
        store = SlotStore(fps)
        packed = PaddedFingerprints(fps)
        view = store.view()
        np.testing.assert_array_equal(view.data, packed.data)
        np.testing.assert_array_equal(view.mask, packed.mask)


class TestBackendEquivalence:
    """Backends must be value-transparent: byte-identical results."""

    def test_matrix_matches_legacy_kernels(self, small_civ):
        fps = list(small_civ)[:15]
        engine_mat = compute_pairwise_matrix(fps, compute=ComputeConfig(backend="numpy"))
        np.testing.assert_array_equal(engine_mat, pairwise_matrix(fps))

    def test_glove_identical_across_backends(self, small_civ):
        from repro.core import kernels

        if not kernels.COMPILED_AVAILABLE:
            pytest.skip("no accelerated kernel binding")
        config = GloveConfig(k=3)
        results = {
            name: glove(small_civ, config, ComputeConfig(backend=name))
            for name in ("numpy", "compiled", "auto")
        }
        reference = results["numpy"]
        for name, result in results.items():
            assert result.stats.n_merges == reference.stats.n_merges, name
            for a, b in zip(result.dataset, reference.dataset):
                assert a.members == b.members, name
                np.testing.assert_array_equal(a.data, b.data)

    def test_glove_identical_with_and_without_pruning(self, small_civ):
        config = GloveConfig(k=2)
        pruned = glove(small_civ, config, ComputeConfig(backend="numpy", pruning=True))
        full = glove(small_civ, config, ComputeConfig(backend="numpy", pruning=False))
        assert pruned.stats.n_merges == full.stats.n_merges
        for a, b in zip(pruned.dataset, full.dataset):
            assert a.members == b.members
            np.testing.assert_array_equal(a.data, b.data)
        assert pruned.stats.n_pruned_evaluations > 0
        assert full.stats.n_pruned_evaluations == 0
        assert pruned.stats.n_exact_evaluations < full.stats.n_exact_evaluations


def _bounds(engine, slot, targets):
    """Level-0 and level-1 bounds of ``slot`` over the engine's summaries."""
    lb0 = hull_lower_bounds(engine._hull, slot, targets, engine.stretch)
    lb1 = bucket_lower_bounds(
        engine.store, engine._bucket_hull, engine._bucket_occ, slot, targets,
        engine.stretch,
    )
    return lb0, lb1


class TestLowerBounds:
    """The pruning bounds must never exceed the exact Eq. 10 effort."""

    @pytest.fixture
    def engine(self, small_civ):
        return StretchEngine(list(small_civ), compute=ComputeConfig(backend="numpy"))

    def test_hull_bound_is_a_lower_bound(self, engine):
        n = len(engine.store)
        for slot in range(0, n, 5):
            targets = np.array([t for t in range(n) if t != slot], dtype=np.int64)
            exact = engine.row(slot, targets)
            lb, _ = _bounds(engine, slot, targets)
            assert (lb <= exact + 1e-12).all()

    def test_bucket_bound_is_a_lower_bound_and_tighter(self, engine):
        n = len(engine.store)
        total_lb0 = total_lb1 = 0.0
        for slot in range(0, n, 5):
            targets = np.array([t for t in range(n) if t != slot], dtype=np.int64)
            exact = engine.row(slot, targets)
            lb0, lb1 = _bounds(engine, slot, targets)
            assert (lb1 <= exact + 1e-12).all()
            assert (lb0 <= lb1 + 1e-12).all()
            total_lb0 += lb0.sum()
            total_lb1 += lb1.sum()
        assert total_lb1 >= total_lb0

    def test_bounds_stay_valid_for_merge_products(self, engine, small_civ):
        fps = list(small_civ)
        slot = engine.merge_step(0, 1)
        assert engine.store.fps[slot].data.tobytes() == reshape_fingerprint(
            merge_fingerprints(fps[0], fps[1], StretchConfig())
        ).data.tobytes()
        targets = np.arange(2, 10, dtype=np.int64)
        exact = engine.row(slot, targets)
        lb0, lb1 = _bounds(engine, slot, targets)
        assert (lb0 <= exact + 1e-12).all()
        assert (lb1 <= exact + 1e-12).all()


class TestKernelProperties:
    """Property-based guarantees over randomized fingerprint populations.

    The greedy loop evaluates pairs from whichever side is cheaper, so
    the kernel must be *bitwise* direction-symmetric (DESIGN.md D4);
    and pruning is only exact if every lower bound is admissible
    (bound <= exact stretch, level 0 <= level 1).
    """

    @given(populations(max_users=6))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_direction_symmetry(self, dataset):
        fps = list(dataset)
        packed = PaddedFingerprints(fps)
        stretch = StretchConfig()
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                ij = one_vs_all(
                    fps[i].data, fps[i].count, packed, stretch,
                    indices=np.array([j], dtype=np.int64),
                )[0]
                ji = one_vs_all(
                    fps[j].data, fps[j].count, packed, stretch,
                    indices=np.array([i], dtype=np.int64),
                )[0]
                assert ij == ji  # bitwise, not approximate

    @given(populations(max_users=8))
    @settings(max_examples=40, deadline=None)
    def test_lower_bounds_admissible(self, dataset):
        fps = list(dataset)
        engine = StretchEngine(fps, compute=ComputeConfig(backend="numpy"))
        n = len(fps)
        for slot in range(n):
            targets = np.array([t for t in range(n) if t != slot], dtype=np.int64)
            exact = engine.row(slot, targets)
            lb0, lb1 = _bounds(engine, slot, targets)
            assert (lb0 <= lb1 + 1e-12).all()
            assert (lb1 <= exact + 1e-12).all()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) == {"auto", "compiled", "numpy", "sharded"}

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            create_backend(ComputeConfig(backend="quantum"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_custom_backend_drives_glove(self, small_civ):
        calls = []

        class TracingBackend(NumpyBackend):
            name = "tracing"

            def one_vs_all(self, probe_data, probe_count, packed, targets):
                calls.append(len(targets))
                return super().one_vs_all(probe_data, probe_count, packed, targets)

            # The batched merge frontier coalesces refresh scans into
            # ragged multi-probe dispatches, so a backend is exercised
            # through this entry point as well (Issue 6).
            def many_vs_some(self, probes, probe_counts, packed, targets_list):
                calls.extend(len(t) for t in targets_list)
                return super().many_vs_some(probes, probe_counts, packed, targets_list)

        register_backend("tracing", TracingBackend)
        try:
            result = glove(small_civ, GloveConfig(k=2), ComputeConfig(backend="tracing"))
            reference = glove(small_civ, GloveConfig(k=2), ComputeConfig(backend="numpy"))
            assert calls, "custom backend was never invoked"
            for a, b in zip(result.dataset, reference.dataset):
                assert a.members == b.members
        finally:
            _BACKENDS.pop("tracing", None)


class TestAutoSelection:
    def test_auto_is_the_bound_tier(self):
        from repro.core import kernels

        expected = CompiledBackend if kernels.COMPILED_AVAILABLE else NumpyBackend
        backend = create_backend(ComputeConfig(backend="auto"), StretchConfig())
        assert type(backend) is expected


class TestDefaultCompute:
    def test_round_trip(self):
        original = get_default_compute()
        replacement = ComputeConfig(backend="numpy", chunk=64)
        try:
            previous = set_default_compute(replacement)
            assert previous is original
            assert get_default_compute() is replacement
        finally:
            set_default_compute(original)

    def test_glove_uses_installed_default(self, small_civ):
        original = get_default_compute()
        try:
            set_default_compute(ComputeConfig(backend="numpy", pruning=False))
            result = glove(small_civ, GloveConfig(k=2))
            assert result.stats.n_pruned_evaluations == 0
        finally:
            set_default_compute(original)


class TestComputeConfig:
    def test_chunk_single_source_of_truth(self):
        from repro.core import pairwise

        assert ComputeConfig().chunk == DEFAULT_CHUNK == pairwise.DEFAULT_CHUNK

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk": 0},
            {"workers": 0},
            {"shards": 0},
            {"shards": -4},
            {"shard_strategy": "geo"},
            {"lb_bucket_minutes": -1.0},
            {"lb_max_buckets": 0},
            {"lb_bucket_minutes": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ComputeConfig(**kwargs)

    def test_chunking_never_changes_values(self, small_civ):
        fps = list(small_civ)[:12]
        a = compute_pairwise_matrix(fps, compute=ComputeConfig(backend="numpy", chunk=1))
        b = compute_pairwise_matrix(fps, compute=ComputeConfig(backend="numpy", chunk=256))
        np.testing.assert_array_equal(a, b)


class TestEngineLifecycle:
    def test_row_matches_matrix(self, small_civ):
        engine = StretchEngine(
            list(small_civ)[:8], compute=ComputeConfig(backend="numpy")
        )
        mat = engine.pairwise_matrix()
        row = engine.row(3, np.array([0, 1, 2, 4, 5, 6, 7]))
        np.testing.assert_array_equal(row, mat[3, [0, 1, 2, 4, 5, 6, 7]])


class TestPairMemoLifecycle:
    """An engine's pair memo lives as long as the engine (DESIGN.md D13).

    The engine takes it from its backend: a native table on the compiled
    tier, a dict memo on the NumPy walk.  It is freed when the engine is
    closed or dropped, and a closed engine keeps working without one.
    """

    @staticmethod
    def _filled(small_civ, backend="compiled"):
        from repro.core import kernels

        if backend == "compiled" and not kernels.COMPILED_AVAILABLE:
            pytest.skip("no accelerated kernel binding")
        engine = StretchEngine(list(small_civ)[:8], compute=ComputeConfig(backend=backend))
        engine.bounded_argmin(np.arange(4), np.arange(8))
        engine.bounded_argmin(np.arange(4, 8), np.arange(8))
        assert engine._memo.entries()[1] > 0
        return engine

    def test_dropped_engine_releases_its_memo(self, small_civ):
        import gc

        engine = self._filled(small_civ)
        free = engine._memo._free
        assert free.alive
        del engine
        gc.collect()
        assert not free.alive

    def test_closed_engine_releases_its_memo_and_still_works(self, small_civ):
        engine = self._filled(small_civ)
        free = engine._memo._free
        before = engine.bounded_argmin(np.arange(8), np.arange(8))
        engine.close()
        assert not free.alive
        assert engine._memo is None and engine._resident.memo is None
        after = engine.bounded_argmin(np.arange(8), np.arange(8))
        for got, ref in zip(after, before):
            np.testing.assert_array_equal(got, ref)
        assert engine.backend.n_lb1_memo_hits > 0

    def test_numpy_walk_memo_serves_hits_until_closed(self, small_civ, monkeypatch):
        import gc
        import weakref

        from repro.core.artifacts import dataset_digest
        from repro.core.engine import WalkMemo

        config, compute = GloveConfig(k=2), ComputeConfig(backend="numpy")
        with_memo = glove(small_civ, config, compute)
        with monkeypatch.context() as m:
            m.setattr(NumpyBackend, "new_memo", lambda self: None)
            without = glove(small_civ, config, compute)
        assert dataset_digest(with_memo.dataset) == dataset_digest(without.dataset)
        stats, ref = with_memo.stats, without.stats
        assert stats.n_exact_memo_hits > 0 and stats.n_lb1_memo_hits > 0
        assert ref.n_exact_memo_hits == ref.n_lb1_memo_hits == 0
        # The memo serves values; it moves no prune decision.
        for name in ("n_exact_evaluations", "n_bound_pruned", "n_lb1_evaluations"):
            assert getattr(stats, name) == getattr(ref, name), name

        engine = self._filled(small_civ, backend="numpy")
        memo = weakref.ref(engine._memo)
        assert isinstance(memo(), WalkMemo) and engine._resident.memo is memo()
        before = engine.bounded_argmin(np.arange(8), np.arange(8))
        engine.close()
        gc.collect()
        assert memo() is None and engine._resident.memo is None
        after = engine.bounded_argmin(np.arange(8), np.arange(8))
        for got, ref_arr in zip(after, before):
            np.testing.assert_array_equal(got, ref_arr)


class TestDispatchCounters:
    """Per-run native-vs-inline dispatch accounting (DESIGN.md D11).

    The counters make a silent per-probe fallback observable: a batched
    frontier that degrades to P crossings per pass shows up in the
    backend's ``dispatch_counters()`` and in ``GloveStats`` instead of
    only in wall time.
    """

    def _engine(self, small_civ, **compute):
        return StretchEngine(list(small_civ)[:8], compute=ComputeConfig(**compute))

    def test_numpy_many_vs_all_counts_per_probe(self, small_civ):
        # The NumPy walk crosses once per probe and exact round.  Here
        # each probe's first round of 4 candidates settles it: the
        # bounds prune its other 3, so no round runs a second crossing
        # and no pair repeats for the memo to serve.
        engine = self._engine(small_civ, backend="numpy")
        targets = np.arange(8, dtype=np.int64)
        _, _, pruned = engine.bounded_argmin(np.arange(4), targets)
        bound_pruned = int(pruned.sum())
        *counters, lb1, exact_hits, lb1_hits = engine.backend.dispatch_counters()
        assert counters == [4, 4, 0, bound_pruned]
        # 4 probes x 7 other targets: the evaluated ones reached level 1.
        assert 28 - bound_pruned <= lb1 <= 28
        assert exact_hits == lb1_hits == 0
        engine.row(0, targets)
        assert engine.backend.dispatch_counters() == (5, 5, 0, bound_pruned, lb1, 0, 0)

    def test_compiled_many_vs_all_counts_one_crossing(self, small_civ):
        from repro.core import kernels

        if not kernels.COMPILED_AVAILABLE:
            pytest.skip("no accelerated kernel binding")
        targets = np.arange(8, dtype=np.int64)
        with self._engine(small_civ, backend="compiled") as engine:
            _, _, a = engine.bounded_argmin(np.arange(4), targets)
            *counters, lb1_a, exact_hits_a, lb1_hits_a = engine.backend.dispatch_counters()
            assert counters == [1, 4, 4, int(a.sum())]
            assert 28 - int(a.sum()) <= lb1_a <= 28
            # Probes 0-3 meet each other in both roles: at least one
            # exact pair repeats across roles, no ordered level-1 pair.
            assert exact_hits_a > 0 and lb1_hits_a == 0
            t_lists = [targets[targets != p] for p in range(4)]
            rows, b = engine.bounded_rows_some(
                np.arange(4), t_lists, [np.zeros(7, dtype=bool)] * 4,
                np.full(16, np.inf),
            )
            *counters, lb1, exact_hits, lb1_hits = engine.backend.dispatch_counters()
            assert counters == [2, 8, 8, int(a.sum() + b.sum())]
            evaluated = sum(int((row < np.inf).sum()) for row in rows)
            assert evaluated <= lb1 - lb1_a <= evaluated + int(b.sum())
            # The same ordered pairs again: the first call computed every
            # level-1 bound the second reaches.
            assert lb1_hits - lb1_hits_a == lb1 - lb1_a
            assert exact_hits - exact_hits_a <= evaluated

    def test_auto_backend_aggregates_children(self, small_civ):
        with self._engine(small_civ, backend="auto") as engine:
            engine.bounded_argmin(np.arange(4), np.arange(8))
            crossings, dispatches = engine.backend.dispatch_counters()[:2]
        assert dispatches == 4
        # ``auto`` is whichever tier the environment binds: batched
        # native (1 crossing) or the per-probe NumPy walk.
        assert crossings in (1, 4)

    def test_glove_stats_harvest_counters(self, small_civ):
        result = glove(small_civ, GloveConfig(k=2), ComputeConfig(backend="numpy"))
        stats = result.stats
        assert stats.n_boundary_crossings > 0
        assert stats.n_probe_dispatches >= stats.n_batched_probes
        # The numpy tier has no batched native entries.
        assert stats.n_batched_probes == 0

    def test_sharded_stats_harvest_counters(self, small_civ):
        result = glove(
            small_civ,
            GloveConfig(k=2),
            ComputeConfig(backend="sharded", shards=2, workers=1),
        )
        assert result.stats.n_boundary_crossings > 0
        assert result.stats.n_probe_dispatches > 0


class TestPruneAccounting:
    """One accounting path: every pruned pair is a bound-pruned pair.

    Every backend's search goes through the bounded pair, so the loop's
    ``n_pruned_evaluations`` and the backend's ``n_bound_pruned`` count
    the same pairs; with ``pruning=False`` (neutral summaries) both are
    0 and the output is unchanged.
    """

    @pytest.mark.parametrize(
        "compute",
        [
            dict(backend="numpy"),
            dict(backend="compiled"),
            dict(backend="auto"),
            dict(backend="sharded", shards=1, workers=1),
            dict(backend="sharded", shards=2, workers=1),
        ],
        ids=["numpy", "compiled", "auto", "sharded1", "sharded2"],
    )
    def test_pruned_equals_bound_pruned(self, small_civ, compute):
        from repro.core import kernels
        from repro.core.artifacts import dataset_digest

        if compute["backend"] == "compiled" and not kernels.COMPILED_AVAILABLE:
            pytest.skip("no accelerated kernel binding")
        pruned = glove(small_civ, GloveConfig(k=2), ComputeConfig(**compute))
        full = glove(small_civ, GloveConfig(k=2), ComputeConfig(pruning=False, **compute))
        assert pruned.stats.n_bound_pruned > 0
        assert pruned.stats.n_pruned_evaluations == pruned.stats.n_bound_pruned
        assert full.stats.n_pruned_evaluations == full.stats.n_bound_pruned == 0
        assert dataset_digest(full.dataset) == dataset_digest(pruned.dataset)

    @pytest.mark.parametrize(
        "compute",
        [
            dict(backend="numpy"),
            dict(backend="compiled"),
            dict(backend="sharded", shards=1, workers=1),
            dict(backend="sharded", shards=2, workers=1),
        ],
        ids=["numpy", "compiled", "sharded1", "sharded2"],
    )
    def test_lb1_evaluations_are_exact_plus_level1_prunes(self, small_civ, compute):
        # Every pair reaching level 1 is evaluated or pruned there, so
        # the count lies between the search's exact evaluations and
        # those plus every bound prune; with neutral summaries every
        # non-self pair reaches it.  The sharded repair's one-vs-all
        # evaluations run outside the bounded pair.
        from repro.core import kernels

        if compute["backend"] == "compiled" and not kernels.COMPILED_AVAILABLE:
            pytest.skip("no accelerated kernel binding")
        pruned = glove(small_civ, GloveConfig(k=2), ComputeConfig(**compute)).stats
        full = glove(
            small_civ, GloveConfig(k=2), ComputeConfig(pruning=False, **compute)
        ).stats
        if compute.get("shards") == 2:
            assert 0 < pruned.n_lb1_evaluations <= pruned.n_exact_evaluations + pruned.n_bound_pruned
            assert 0 < full.n_lb1_evaluations <= full.n_exact_evaluations
            return
        assert pruned.n_exact_evaluations <= pruned.n_lb1_evaluations
        assert pruned.n_lb1_evaluations <= pruned.n_exact_evaluations + pruned.n_bound_pruned
        assert full.n_lb1_evaluations == full.n_exact_evaluations

    def test_numpy_walk_counts_its_level1_candidates(self, small_civ, monkeypatch):
        # A pair reaching level 1 has its bound computed or recalled from
        # the memo; while its probe's best is still +inf, no bound can
        # prune, so the walk computes none and still counts the pair.
        from repro.core import engine as engine_mod

        passed = []
        bound = engine_mod.bucket_lower_bounds

        def counting(store, bucket_hull, bucket_occ, slot, targets, config, *cols):
            passed.append(len(targets))
            return bound(store, bucket_hull, bucket_occ, slot, targets, config, *cols)

        monkeypatch.setattr(engine_mod, "bucket_lower_bounds", counting)
        engine = StretchEngine(list(small_civ)[:24], compute=ComputeConfig(backend="numpy"))
        backend = engine.backend
        slots = np.arange(24)
        # Every threshold finite: twice, so the second pass recalls.
        for _ in range(2):
            for tau in (1.0, 0.2, 0.05):
                engine.bounded_argmin(slots, slots, np.full(24, tau))
                engine.bounded_rows_some(
                    slots, [slots[slots != s] for s in slots],
                    [np.ones(23, dtype=bool)] * 24, np.full(48, 0.1), np.full(24, tau),
                )
        assert backend.n_lb1_memo_hits > 0
        assert backend.n_lb1_evaluations == sum(passed) + backend.n_lb1_memo_hits

        # A lone probe at +inf: its first round of 4 passes no pair to the
        # level-1 bound, yet its level-0 survivors (all 4) count.
        fresh = StretchEngine(list(small_civ)[:24], compute=ComputeConfig(backend="numpy"))
        passed.clear()
        fresh.bounded_argmin([0], np.arange(1, 5))
        assert passed == [] and fresh.backend.n_lb1_evaluations == 4
        fresh.bounded_argmin([5], np.arange(6, 24))
        assert fresh.backend.n_lb1_evaluations == 4 + 4 + sum(passed)

        passed.clear()
        stats = glove(small_civ, GloveConfig(k=2), ComputeConfig(backend="numpy")).stats
        assert 0 < sum(passed) + stats.n_lb1_memo_hits < stats.n_lb1_evaluations
