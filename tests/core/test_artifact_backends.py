"""Tests of the pluggable artifact backends (DESIGN.md D10).

Backend-level behavior — registry, SQLite round-trips and eviction,
thread-level single flight — lives here; the multi-*process* contracts
(the N=8 single-flight acceptance test, the put/get/evict stress test,
crashed-owner recovery) are in
:mod:`tests.core.test_artifact_concurrency`.
"""

import threading
import time

import pytest

from repro.core.artifact_backends import (
    STORE_VERSION,
    BackendStats,
    SQLiteArtifactBackend,
    available_artifact_backends,
    create_artifact_backend,
    runtime_tag,
)
from repro.core.artifacts import MISS, ArtifactStore


class TestRegistry:
    def test_all_backends_registered(self):
        assert available_artifact_backends() == ["disk", "sqlite"]

    def test_unknown_backend_rejected(self, tmp_path):
        for name in ("etcd", "redis"):
            with pytest.raises(ValueError, match="unknown artifact backend"):
                create_artifact_backend(name, root=tmp_path, max_bytes=1024)

    def test_disk_and_sqlite_constructible(self, tmp_path):
        for name in ("disk", "sqlite"):
            backend = create_artifact_backend(name, root=tmp_path, max_bytes=1024)
            assert backend.name == name


class TestSQLiteBackend:
    def test_round_trip_and_stats(self, tmp_path):
        backend = SQLiteArtifactBackend(root=tmp_path, max_bytes=1 << 20)
        assert backend.get("s", "k") is None
        backend.put("s", "k", b"payload-bytes")
        assert backend.get("s", "k") == b"payload-bytes"
        stats = backend.stats()
        assert stats.artifacts == 1
        assert stats.total_bytes == 13
        assert (stats.hits, stats.misses, stats.puts, stats.evictions) == (1, 1, 1, 0)

    def test_persists_across_instances(self, tmp_path):
        SQLiteArtifactBackend(root=tmp_path, max_bytes=1 << 20).put("s", "k", b"v")
        again = SQLiteArtifactBackend(root=tmp_path, max_bytes=1 << 20)
        assert again.get("s", "k") == b"v"
        assert (tmp_path / f"artifacts-{STORE_VERSION}.sqlite").exists()

    def test_single_file_not_file_per_artifact(self, tmp_path):
        backend = SQLiteArtifactBackend(root=tmp_path, max_bytes=1 << 20)
        for i in range(20):
            backend.put("s", f"k{i}", b"x" * 100)
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_namespaced_by_runtime(self, tmp_path):
        backend = SQLiteArtifactBackend(root=tmp_path, max_bytes=1 << 20)
        backend.put("s", "k", b"v")
        other = SQLiteArtifactBackend(root=tmp_path, max_bytes=1 << 20)
        other._runtime = "cpython-0.0-numpy-0"  # a different stack
        assert other.get("s", "k") is None

    def test_lru_eviction_by_atime(self, tmp_path):
        backend = SQLiteArtifactBackend(root=tmp_path, max_bytes=10_000)
        payload = b"x" * 4000
        backend.put("s", "a", payload)
        backend.put("s", "b", payload)
        # Age 'b' so it is the least recently used...
        with backend._tx() as conn:
            conn.execute(
                "UPDATE artifacts SET atime=1 WHERE key='b'",
            )
        backend.get("s", "a")
        # ...then push past the bound.
        backend.put("s", "c", payload)
        assert backend.get("s", "a") is not None
        assert backend.get("s", "c") is not None
        assert backend.get("s", "b") is None
        assert backend.stats().total_bytes <= 10_000

    def test_store_round_trip_through_sqlite(self, tmp_path):
        import numpy as np

        store = ArtifactStore(root=tmp_path, backend="sqlite")
        value = {"arr": np.arange(5.0)}
        store.put("stage", "k1", value)
        store.clear_memo()
        loaded = store.get("stage", "k1")
        assert np.array_equal(loaded["arr"], value["arr"])

    def test_store_path_only_meaningful_on_disk(self, tmp_path):
        store = ArtifactStore(root=tmp_path, backend="sqlite")
        with pytest.raises(TypeError):
            store._path("s", "k")

    def test_corrupt_database_degrades_to_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path, backend="sqlite")
        store.put("s", "k", [1, 2, 3])
        store.clear_memo()
        store.backend.db_path.write_bytes(b"this is not a sqlite file")
        assert store.get("s", "k") is MISS
        assert store.fetch("s", "k", lambda: "recomputed")[1] == "computed"

    def test_concurrent_open_of_a_fresh_root(self, tmp_path):
        # Only one connection can switch a fresh file to WAL; SQLite
        # reports the others busy at once, not after busy_timeout.
        # Openers racing on a new root must all come up regardless.
        n = 6
        errors = []
        for round_ in range(50):
            root = tmp_path / f"r{round_}"
            barrier = threading.Barrier(n, timeout=30)

            def opener():
                try:
                    barrier.wait()
                    SQLiteArtifactBackend(root=root, max_bytes=1 << 20)
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [threading.Thread(target=opener, daemon=True) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert errors == []


@pytest.mark.parametrize("backend", ["disk", "sqlite"])
class TestThreadSingleFlight:
    def test_concurrent_cold_fetch_computes_once(self, tmp_path, backend):
        n = 6
        computes = []
        errors = []
        barrier = threading.Barrier(n, timeout=30)
        results = [None] * n

        def worker(i):
            def compute():
                computes.append(i)
                time.sleep(0.05)  # widen the race window
                return {"value": 42}

            try:
                # Each thread builds its own store over the shared root
                # so the in-process memo cannot mask the backend lock.
                store = ArtifactStore(root=tmp_path, backend=backend)
                barrier.wait()
                results[i] = store.fetch("stage", "cold-key", compute)
            except Exception as exc:
                # Release the others: a worker that dies before the
                # barrier must fail the test, not wedge its threads.
                errors.append(repr(exc))
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(computes) == 1
        assert all(value == {"value": 42} for value, _ in results)
        origins = sorted(origin for _, origin in results)
        assert origins == ["computed"] + ["disk"] * (n - 1)

    def test_timeout_caps_the_wait(self, tmp_path, backend):
        # A wedged owner (lock held, never releasing) must not block a
        # waiter beyond the stale timeout.
        store = ArtifactStore(
            root=tmp_path, backend=backend, stale_lock_timeout=0.4
        )
        blocker = ArtifactStore(
            root=tmp_path, backend=backend, stale_lock_timeout=30.0
        )
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with blocker.backend.single_flight("stage", "key"):
                entered.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(timeout=5)
            t0 = time.monotonic()
            value, origin = store.fetch("stage", "key", lambda: "computed anyway")
            waited = time.monotonic() - t0
            assert value == "computed anyway"
            assert origin == "computed"
            assert 0.3 <= waited < 5.0  # bounded: timeout, not a wedge
        finally:
            release.set()
            holder.join(timeout=10)


class TestUniformBackendStats:
    """All backends report the same hit/miss/eviction key set (D12)."""

    KEYS = {
        "artifacts",
        "total_bytes",
        "hits",
        "misses",
        "puts",
        "evictions",
        "flights",
        "flight_waits",
    }

    @pytest.mark.parametrize("backend", ["disk", "sqlite"])
    def test_key_set_is_uniform(self, tmp_path, backend):
        b = create_artifact_backend(backend, root=tmp_path, max_bytes=1 << 20)
        assert set(b.stats().as_dict()) == self.KEYS

    @pytest.mark.parametrize("backend", ["disk", "sqlite"])
    def test_counters_track_operations(self, tmp_path, backend):
        b = create_artifact_backend(backend, root=tmp_path, max_bytes=1 << 20)
        assert b.get("s", "missing") is None
        b.put("s", "k", b"v")
        assert b.get("s", "k") == b"v"
        with b.single_flight("s", "k"):
            pass
        stats = b.stats().as_dict()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["puts"] == 1
        assert stats["flights"] == 1
        assert stats["flight_waits"] == 0

    @pytest.mark.parametrize("backend", ["disk", "sqlite"])
    def test_evictions_counted(self, tmp_path, backend):
        b = create_artifact_backend(backend, root=tmp_path, max_bytes=5_000)
        payload = b"x" * 4000
        b.put("s", "a", payload)
        b.put("s", "b", payload)  # pushes past the bound -> evicts LRU
        assert b.stats().evictions >= 1

    def test_default_counter_values_are_zero(self, tmp_path):
        stats = BackendStats(artifacts=0, total_bytes=0)
        assert stats.as_dict() == {key: 0 for key in self.KEYS}


def test_runtime_tag_shape():
    tag = runtime_tag()
    assert tag.startswith("cpython-")
    assert "-numpy-" in tag
