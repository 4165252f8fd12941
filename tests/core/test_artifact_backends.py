"""Tests of the artifact store's disk layer (DESIGN.md D10).

Layer-level behavior — thread-level single flight and the operation
counters — lives here; the multi-*process* contracts (the N=8
single-flight acceptance test, the put/get/evict stress test,
crashed-owner recovery) are in
:mod:`tests.core.test_artifact_concurrency`.
"""

import threading
import time

import pytest

from repro.core.artifact_backends import BackendStats, DiskArtifactBackend, runtime_tag
from repro.core.artifacts import ArtifactStore


class TestThreadSingleFlight:
    def test_concurrent_cold_fetch_computes_once(self, tmp_path):
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
                store = ArtifactStore(root=tmp_path)
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

    def test_timeout_caps_the_wait(self, tmp_path):
        # A wedged owner (lock held, never releasing) must not block a
        # waiter beyond the stale timeout.
        store = ArtifactStore(root=tmp_path, stale_lock_timeout=0.4)
        blocker = ArtifactStore(root=tmp_path, stale_lock_timeout=30.0)
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
    """The disk layer reports the stable hit/miss/eviction key set (D12)."""

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

    def test_key_set_is_uniform(self, tmp_path):
        b = DiskArtifactBackend(root=tmp_path, max_bytes=1 << 20)
        assert set(b.stats().as_dict()) == self.KEYS

    def test_counters_track_operations(self, tmp_path):
        b = DiskArtifactBackend(root=tmp_path, max_bytes=1 << 20)
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

    def test_evictions_counted(self, tmp_path):
        b = DiskArtifactBackend(root=tmp_path, max_bytes=5_000)
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
