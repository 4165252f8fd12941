"""Content-addressed artifact store for the compute-once pipeline.

The paper's evaluation measures the *same* anonymized datasets under
many lenses (Figs. 3-11, Table 2); production telemetry pipelines solve
the analogous problem with staged, content-addressed datasets.  This
module provides the storage half of that discipline:

* :func:`canonical_key` -- a stable hash of a stage name plus its
  parameter dict (canonical JSON, key-order independent);
* :func:`dataset_digest` -- a content hash of a
  :class:`~repro.core.dataset.FingerprintDataset`, so derived stages
  (GLOVE runs, pairwise matrices) are keyed by *what the data is*, not
  by how it was obtained — a CSV-loaded dataset and a synthesized one
  with identical records share every downstream artifact;
* :func:`source_digest` -- a hash of the source files a stage's output
  depends on, folded into every key so editing the algorithms
  invalidates exactly the artifacts they produce (see DESIGN.md D6);
* :class:`ArtifactStore` -- the two-layer store: a bounded in-process
  memo (zero-copy hits within a run) over a persistent disk layer
  (hits across runs and processes, DESIGN.md D10).

The persistent layer is the local-disk LRU of
:class:`~repro.core.artifact_backends.DiskArtifactBackend`, and every
cold ``fetch()`` runs under its **single-flight** lock: N concurrent
requests for the same missing key, across threads or processes,
compute the value exactly once while the others block and are then
served from the store.  A stale-lock timeout bounds the wait, so a
crashed owner costs duplicate work, not a wedged pipeline.

Environment knobs (all read at store construction; malformed values
degrade to the documented defaults with a warning, never an error):

* ``REPRO_ARTIFACT_DIR`` -- persistent root (default
  ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``);
* ``REPRO_CACHE=0`` -- disable the persistent layer entirely;
* ``REPRO_CACHE_MAX_MB`` -- LRU bound on the total stored size
  (default 512);
* ``REPRO_CACHE_MAX_ARTIFACT_MB`` -- artifacts serializing above this
  are memo-only, never persisted (default 64);
* ``REPRO_CACHE_STALE_LOCK_S`` -- single-flight stale-lock timeout
  (default 300).

Artifacts are pickles segregated by interpreter and numpy version;
any read failure (corruption, version skew, a disk error) degrades to
a cache miss and the value is recomputed.  ``REPRO_ARTIFACT_BACKEND``
is read only to warn that a value other than ``disk`` is ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from collections import OrderedDict
from dataclasses import is_dataclass, asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.artifact_backends import (
    DEFAULT_STALE_LOCK_S,
    STORE_VERSION,
    DiskArtifactBackend,
)
from repro.core.config import env_float

__all__ = [
    "ArtifactStore",
    "MISS",
    "STORE_VERSION",
    "canonical_key",
    "dataset_digest",
    "default_artifact_dir",
    "source_digest",
]

_MISS = object()


def _jsonable(value: Any) -> Any:
    """Reduce a key parameter to canonical JSON-compatible primitives."""
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__, **_jsonable(asdict(value))}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips float64 exactly; avoids 0.1+0.2 style drift
        # from JSON re-parsing on the read side (keys are write-only).
        return repr(value)
    raise TypeError(
        f"artifact key parameters must be JSON-like primitives or "
        f"dataclasses, got {type(value).__name__}"
    )


def canonical_key(stage: str, params: Dict[str, Any]) -> str:
    """Hex digest identifying one artifact: stage + canonical params.

    Key-order independent (canonical JSON with sorted keys); two
    parameter dicts differing in any value — including nested dataclass
    fields — produce different keys.
    """
    payload = json.dumps(
        {"stage": stage, "params": _jsonable(params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dataset_digest(dataset) -> str:
    """Content hash of a fingerprint dataset (order-sensitive).

    Covers every record field that downstream stages can observe: uid,
    group count, member list and the raw float64 sample array.  The
    dataset *name* is deliberately excluded — it is presentation
    metadata and two identically-recorded datasets must share their
    derived artifacts.
    """
    h = hashlib.sha256()
    for fp in dataset:
        h.update(fp.uid.encode("utf-8"))
        h.update(b"\x00")
        h.update(str(fp.count).encode("ascii"))
        for member in fp.members:
            h.update(b"\x00")
            h.update(member.encode("utf-8"))
        h.update(b"\x01")
        h.update(str(fp.data.shape).encode("ascii"))
        h.update(fp.data.tobytes())
    return h.hexdigest()


_SOURCE_DIGESTS: Dict[Tuple[str, ...], str] = {}


def source_digest(*modules: str) -> str:
    """Hash of the ``.py`` sources of the named modules/packages.

    Folded into artifact keys so a cached value is only ever served
    while the code that produced it is unchanged (DESIGN.md D6).  A
    package name digests every ``*.py`` beneath it; extra plain file
    paths may be passed directly.  Files are labelled by their
    *package-relative* path (not the basename): moving a module
    between subpackages changes the digest even when its content does
    not, so a refactor can never serve stale artifacts.  Memoized per
    process (sources cannot change under a running interpreter).
    """
    cache_key = tuple(modules)
    cached = _SOURCE_DIGESTS.get(cache_key)
    if cached is not None:
        return cached
    entries: Dict[Path, str] = {}
    for name in modules:
        as_path = Path(name)
        if as_path.suffix == ".py" and as_path.exists():
            entries.setdefault(as_path, as_path.name)
            continue
        import importlib.util

        try:
            spec = importlib.util.find_spec(name)
        except ModuleNotFoundError:
            spec = None
        if spec is None or spec.origin is None:
            raise ValueError(f"cannot locate sources of {name!r}")
        origin = Path(spec.origin)
        if origin.name == "__init__.py":
            pkg_root = origin.parent
            for path in sorted(pkg_root.rglob("*.py")):
                rel = path.relative_to(pkg_root).as_posix()
                entries.setdefault(path, f"{name}/{rel}")
        else:
            entries.setdefault(origin, name)
    h = hashlib.sha256()
    for path, label in sorted(entries.items(), key=lambda kv: (kv[1], str(kv[0]))):
        h.update(label.encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x01")
    digest = h.hexdigest()
    _SOURCE_DIGESTS[cache_key] = digest
    return digest


def default_artifact_dir() -> Path:
    """Resolve the persistent root from the environment."""
    override = os.environ.get("REPRO_ARTIFACT_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ArtifactStore:
    """Two-layer content-addressed store: in-process memo over disk.

    Parameters
    ----------
    root:
        Persistent root directory; ``None`` disables the persistent
        layer (the store becomes memo-only).
    max_bytes:
        LRU bound on the total persisted artifact size; least-
        recently-*used* artifacts (reads refresh the clock) are
        evicted first.
    max_artifact_bytes:
        Values serializing above this stay memo-only — e.g. the
        pairwise matrix of a 10k-fingerprint ``glove measure`` run is
        ~800 MB and must not wash the cache out.
    memo_entries:
        Bound on the in-process memo (plain LRU on entry count).
    stale_lock_timeout:
        Upper bound, in seconds, that a cold ``fetch()`` waits on
        another worker's single-flight lock before computing anyway.
        Computations longer than this may be duplicated (safe, just
        wasted work); it exists so a crashed owner never wedges the
        pipeline.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: int = 512 * 1024 * 1024,
        max_artifact_bytes: int = 64 * 1024 * 1024,
        memo_entries: int = 64,
        stale_lock_timeout: float = DEFAULT_STALE_LOCK_S,
    ):
        self.root = Path(root) if root is not None else None
        self.max_bytes = int(max_bytes)
        self.max_artifact_bytes = int(max_artifact_bytes)
        self.memo_entries = int(memo_entries)
        self.stale_lock_timeout = float(stale_lock_timeout)
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        self._backend: Optional[DiskArtifactBackend] = (
            DiskArtifactBackend(self.root, self.max_bytes, self.stale_lock_timeout)
            if self.root is not None
            else None
        )

    @classmethod
    def from_env(
        cls,
        root: Optional[os.PathLike] = None,
        enabled: Optional[bool] = None,
    ) -> "ArtifactStore":
        """Build a store honouring the ``REPRO_CACHE*`` environment.

        ``root``/``enabled`` override the environment (CLI flags use
        them); with the persistent layer gated off the store is
        memo-only.  Env knobs degrade, never error (DESIGN.md D6):
        malformed sizes fall back to the defaults with a warning, and a
        ``REPRO_ARTIFACT_BACKEND`` other than ``disk`` (a retired
        backend's name) is ignored with a warning.
        """
        if enabled is None:
            enabled = os.environ.get("REPRO_CACHE", "1") != "0"
        max_mb = env_float("REPRO_CACHE_MAX_MB", 512.0)
        max_artifact_mb = env_float("REPRO_CACHE_MAX_ARTIFACT_MB", 64.0)
        stale_s = env_float("REPRO_CACHE_STALE_LOCK_S", DEFAULT_STALE_LOCK_S)
        backend = os.environ.get("REPRO_ARTIFACT_BACKEND", "disk")
        if backend != "disk":
            print(
                f"warning: ignoring REPRO_ARTIFACT_BACKEND={backend!r}; "
                "the artifact store is 'disk' only",
                file=sys.stderr,
            )
        return cls(
            root=(Path(root) if root is not None else default_artifact_dir()) if enabled else None,
            max_bytes=int(max_mb * 1024 * 1024),
            max_artifact_bytes=int(max_artifact_mb * 1024 * 1024),
            stale_lock_timeout=stale_s,
        )

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def backend(self) -> Optional[DiskArtifactBackend]:
        """The persistent disk layer, or ``None`` for a memo-only store."""
        return self._backend

    @property
    def disk_enabled(self) -> bool:
        """Whether the persistent layer is active."""
        return self._backend is not None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, stage: str, key: str) -> Any:
        """The stored value, or the :data:`MISS` sentinel."""
        memo_key = f"{stage}/{key}"
        if memo_key in self._memo:
            self._memo.move_to_end(memo_key)
            return self._memo[memo_key]
        if self._backend is None:
            return _MISS
        try:
            payload = self._backend.get(stage, key)
        except Exception:
            payload = None
        if payload is None:
            return _MISS
        try:
            value = pickle.loads(payload)
        except Exception:
            # Any unreadable artifact — truncated stream, bit rot,
            # version skew in a pickled class — is a miss, never an
            # error (DESIGN.md D6); the value is simply recomputed.
            return _MISS
        self._memoize(memo_key, value)
        return value

    def put(self, stage: str, key: str, value: Any) -> None:
        """Store a value in the memo and (size permitting) the backend."""
        self._memoize(f"{stage}/{key}", value)
        if self._backend is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable values stay memo-only
        if len(payload) > self.max_artifact_bytes:
            return
        try:
            self._backend.put(stage, key, payload)
        except Exception:
            return  # a failing backend degrades to memo-only

    def fetch(self, stage: str, key: str, compute: Callable[[], Any]) -> Tuple[Any, str]:
        """Value for ``key``, computing on miss — under single flight.

        Returns ``(value, origin)`` with origin one of ``"memo"``,
        ``"disk"`` or ``"computed"``.  On a cold key the compute runs
        inside the backend's single-flight lock: concurrent callers
        (threads or processes) serialize, the first computes and
        stores, the rest re-check the store on admission and are
        served the stored bytes (origin ``"disk"``).  If the stored
        value cannot be persisted (oversized, unpicklable, write
        failure), waiters compute their own copy — one at a time.
        """
        memo_key = f"{stage}/{key}"
        if memo_key in self._memo:
            self._memo.move_to_end(memo_key)
            return self._memo[memo_key], "memo"
        value = self.get(stage, key)
        if value is not _MISS:
            return value, "disk"
        if self._backend is None:
            value = compute()
            self.put(stage, key, value)
            return value, "computed"
        with self._backend.single_flight(stage, key):
            # The previous flight owner may have stored it while we
            # waited; re-check before paying for the computation.
            value = self.get(stage, key)
            if value is not _MISS:
                return value, "disk"
            value = compute()
            self.put(stage, key, value)
            return value, "computed"

    def contains(self, stage: str, key: str) -> bool:
        """Whether the key is resolvable without computing."""
        return self.get(stage, key) is not _MISS

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _memoize(self, memo_key: str, value: Any) -> None:
        self._memo[memo_key] = value
        self._memo.move_to_end(memo_key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    def disk_bytes(self) -> int:
        """Total bytes currently held by the persistent layer."""
        if self._backend is None:
            return 0
        return self._backend.stats().total_bytes

    def evict(self) -> None:
        """Enforce the size bound now (normally automatic on put)."""
        if self._backend is not None:
            self._backend.evict()

    def clear_memo(self) -> None:
        """Drop the in-process memo layer (persisted artifacts survive)."""
        self._memo.clear()


#: Public alias for the miss sentinel (``store.get(...) is MISS``).
MISS = _MISS
