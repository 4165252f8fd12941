"""Tests for the content-addressed artifact store."""

import os
import pickle

import numpy as np
import pytest

from repro.core.artifacts import (
    MISS,
    ArtifactStore,
    canonical_key,
    dataset_digest,
    default_artifact_dir,
    source_digest,
)
from repro.core.config import GloveConfig, StretchConfig
from repro.core.dataset import FingerprintDataset

from tests.conftest import make_fp


class TestCanonicalKey:
    def test_key_order_independent(self):
        a = canonical_key("stage", {"x": 1, "y": "two"})
        b = canonical_key("stage", {"y": "two", "x": 1})
        assert a == b

    def test_distinguishes_values_and_stages(self):
        base = canonical_key("stage", {"x": 1})
        assert canonical_key("stage", {"x": 2}) != base
        assert canonical_key("other", {"x": 1}) != base

    def test_dataclass_fields_enter_the_key(self):
        a = canonical_key("s", {"config": GloveConfig(k=2)})
        b = canonical_key("s", {"config": GloveConfig(k=3)})
        assert a != b
        # Nested dataclass fields too.
        c = canonical_key("s", {"config": StretchConfig(phi_max_sigma_m=10_000.0)})
        d = canonical_key("s", {"config": StretchConfig(phi_max_sigma_m=20_000.0)})
        assert c != d

    def test_distinguishes_dataclass_types_with_equal_fields(self):
        # Two different config types must never collide just because
        # their field dicts happen to match.
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class First:
            x: int = 1

        @dataclass(frozen=True)
        class Second:
            x: int = 1

        assert canonical_key("s", {"c": First()}) != canonical_key("s", {"c": Second()})

    def test_rejects_unhashable_parameter_types(self):
        with pytest.raises(TypeError):
            canonical_key("s", {"x": object()})

    def test_float_params_keep_precision(self):
        a = canonical_key("s", {"x": 0.1 + 0.2})
        b = canonical_key("s", {"x": 0.3})
        assert a != b


class TestDatasetDigest:
    def test_identical_content_same_digest(self, small_civ):
        clone = FingerprintDataset(list(small_civ), name="other-name")
        assert dataset_digest(small_civ) == dataset_digest(clone)

    def test_name_excluded_data_included(self):
        a = FingerprintDataset([make_fp("u", [(0.0, 0.0, 0.0)])], name="a")
        b = FingerprintDataset([make_fp("u", [(0.0, 0.0, 1.0)])], name="a")
        assert dataset_digest(a) != dataset_digest(b)

    def test_count_and_members_included(self):
        rows = [(0.0, 0.0, 0.0)]
        a = FingerprintDataset([make_fp("u", rows)])
        b = FingerprintDataset([make_fp("u", rows, count=2, members=("u", "v"))])
        assert dataset_digest(a) != dataset_digest(b)


class TestSourceDigest:
    def test_stable_within_process(self):
        assert source_digest("repro.core") == source_digest("repro.core")

    def test_different_scopes_differ(self):
        assert source_digest("repro.core") != source_digest("repro.cdr")

    def test_accepts_plain_files(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("x = 1\n")
        assert source_digest(str(f))

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            source_digest("no.such.module")


class TestArtifactStore:
    def test_round_trip_through_disk(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        value = {"arr": np.arange(5.0)}
        store.put("stage", "k1", value)
        store.clear_memo()
        loaded = store.get("stage", "k1")
        assert np.array_equal(loaded["arr"], value["arr"])

    def test_miss_sentinel(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        assert store.get("stage", "missing") is MISS
        assert not store.contains("stage", "missing")

    def test_memo_only_without_root(self):
        store = ArtifactStore(root=None)
        store.put("stage", "k", 42)
        assert store.get("stage", "k") == 42
        assert not store.disk_enabled

    def test_fetch_reports_origin(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert store.fetch("s", "k", compute) == ("value", "computed")
        assert store.fetch("s", "k", compute) == ("value", "memo")
        store.clear_memo()
        assert store.fetch("s", "k", compute) == ("value", "disk")
        assert len(calls) == 1

    def test_corrupted_artifact_degrades_to_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put("s", "k", [1, 2, 3])
        store.clear_memo()
        (path,) = list(tmp_path.rglob("k.pkl"))
        path.write_bytes(b"not a pickle")
        assert store.get("s", "k") is MISS
        assert store.fetch("s", "k", lambda: "recomputed") == ("recomputed", "computed")

    def test_oversized_artifacts_stay_memo_only(self, tmp_path):
        store = ArtifactStore(root=tmp_path, max_artifact_bytes=64)
        store.put("s", "big", np.zeros(1000))
        assert list(tmp_path.rglob("*.pkl")) == []
        assert store.get("s", "big") is not MISS  # memo still serves it
        store.clear_memo()
        assert store.get("s", "big") is MISS

    def test_lru_eviction_keeps_recently_used(self, tmp_path):
        payload = os.urandom(4000)
        store = ArtifactStore(root=tmp_path, max_bytes=10_000)
        store.put("s", "a", payload)
        store.put("s", "b", payload)
        # Refresh 'a' so 'b' is the least recently used...
        os.utime(store.backend.path("s", "b"), (1, 1))
        store.clear_memo()
        store.get("s", "a")
        # ...then push past the bound.
        store.put("s", "c", payload)
        store.clear_memo()
        assert store.get("s", "a") is not MISS
        assert store.get("s", "c") is not MISS
        assert store.get("s", "b") is MISS

    def test_from_env_cache_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        store = ArtifactStore.from_env()
        assert not store.disk_enabled

    def test_from_env_artifact_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "store"))
        assert default_artifact_dir() == tmp_path / "store"
        store = ArtifactStore.from_env()
        store.put("s", "k", 1)
        assert list((tmp_path / "store").rglob("k.pkl"))

    def test_unpicklable_values_stay_memo_only(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        value = lambda: None  # noqa: E731 - deliberately unpicklable
        store.put("s", "k", value)
        assert store.get("s", "k") is value
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_reput_does_not_inflate_size_accounting(self, tmp_path):
        # Regression: put() used to add len(payload) on every write
        # without subtracting the replaced artifact, so re-putting one
        # key drifted the estimate upward until it crossed max_bytes
        # and evicted a store that was nowhere near full.
        payload = os.urandom(2000)
        store = ArtifactStore(root=tmp_path, max_bytes=100_000)
        for _ in range(100):
            store.put("s", "same-key", payload)
        actual = store.disk_bytes()
        assert store.backend._approx_bytes == actual
        # 100 re-puts of a ~2 KB pickle must not approach the bound...
        assert actual < 10_000
        # ...and nothing may have been evicted.
        store.clear_memo()
        assert store.get("s", "same-key") is not MISS

    def test_stale_tmp_files_swept_on_eviction(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put("s", "k", b"payload")
        stage_dir = store.backend.path("s", "k").parent
        stale = stage_dir / "orphanAAAA.tmp"
        stale.write_bytes(b"half-written by a killed worker")
        os.utime(stale, (1, 1))  # ancient: well past the sweep age
        fresh = stage_dir / "orphanBBBB.tmp"
        fresh.write_bytes(b"another writer, mid-flight right now")
        store.evict()
        assert not stale.exists()  # orphan swept
        assert fresh.exists()  # in-flight writer untouched
        store.clear_memo()
        assert store.get("s", "k") is not MISS


class TestFromEnvDegradation:
    def test_malformed_size_knobs_fall_back_with_warning(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "lots")
        monkeypatch.setenv("REPRO_CACHE_MAX_ARTIFACT_MB", "64MB")
        store = ArtifactStore.from_env(root=tmp_path)  # must not raise
        assert store.max_bytes == 512 * 1024 * 1024
        assert store.max_artifact_bytes == 64 * 1024 * 1024
        err = capsys.readouterr().err
        assert "REPRO_CACHE_MAX_MB" in err
        assert "REPRO_CACHE_MAX_ARTIFACT_MB" in err

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
    def test_non_finite_knobs_fall_back_with_warning(
        self, monkeypatch, tmp_path, capsys, raw
    ):
        # float() parses these; a byte budget or a timeout cannot use them.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for name in (
            "REPRO_CACHE_MAX_MB", "REPRO_CACHE_MAX_ARTIFACT_MB", "REPRO_CACHE_STALE_LOCK_S"
        ):
            monkeypatch.setenv(name, raw)
        store = ArtifactStore.from_env(root=tmp_path)  # must not raise
        assert store.max_bytes == 512 * 1024 * 1024
        assert store.max_artifact_bytes == 64 * 1024 * 1024
        assert store.stale_lock_timeout == 300.0
        err = capsys.readouterr().err
        assert err.count("warning: ignoring malformed") == 3

    def test_malformed_stale_lock_knob_falls_back(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_STALE_LOCK_S", "five minutes")
        store = ArtifactStore.from_env(root=tmp_path)
        assert store.stale_lock_timeout == 300.0
        assert "REPRO_CACHE_STALE_LOCK_S" in capsys.readouterr().err

    def test_unknown_backend_falls_back_to_disk(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for name in ("etcd", "redis", "sqlite"):
            monkeypatch.setenv("REPRO_ARTIFACT_BACKEND", name)
            store = ArtifactStore.from_env(root=tmp_path)
            assert store.backend.name == "disk"
            assert "REPRO_ARTIFACT_BACKEND" in capsys.readouterr().err


class TestSourceDigestRelativePaths:
    def _make_package(self, root, body_a, body_b):
        """A tiny package with two same-basename modules in different
        subpackages — the shape the basename-only digest conflated."""
        pkg = root / "digestpkg"
        for sub in ("alpha", "beta"):
            (pkg / sub).mkdir(parents=True)
            (pkg / sub / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "alpha" / "mod.py").write_text(body_a)
        (pkg / "beta" / "mod.py").write_text(body_b)
        return pkg

    def test_moving_a_module_changes_the_digest(self, tmp_path, monkeypatch):
        # Regression: only path.name entered the hash, so moving a
        # module between subpackages (same basename, same bytes) kept
        # the digest stable and could serve stale artifacts.
        import importlib
        import sys

        monkeypatch.syspath_prepend(str(tmp_path))
        self._make_package(tmp_path, "A = 1\n", "B = 2\n")
        importlib.invalidate_caches()
        from repro.core import artifacts

        monkeypatch.setattr(artifacts, "_SOURCE_DIGESTS", {})
        before = source_digest("digestpkg")
        # Swap the two files: identical byte *set*, different layout.
        a = (tmp_path / "digestpkg" / "alpha" / "mod.py").read_text()
        b = (tmp_path / "digestpkg" / "beta" / "mod.py").read_text()
        (tmp_path / "digestpkg" / "alpha" / "mod.py").write_text(b)
        (tmp_path / "digestpkg" / "beta" / "mod.py").write_text(a)
        monkeypatch.setattr(artifacts, "_SOURCE_DIGESTS", {})
        after = source_digest("digestpkg")
        sys.modules.pop("digestpkg", None)
        assert before != after
