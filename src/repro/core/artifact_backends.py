"""The persistent layer of the artifact store (DESIGN.md D10).

:class:`~repro.core.artifacts.ArtifactStore` keeps the in-process memo
and the pickling; everything durable behind it — payload bytes, LRU
eviction, cross-process single-flight claims — is the
:class:`DiskArtifactBackend`: one ``<key>.pkl`` file per artifact under
the store root, with advisory file locks (``fcntl.flock`` where
available, exclusive-create lockfiles otherwise) for single flight.

Single-flight contract: :meth:`DiskArtifactBackend.single_flight` is a
context manager admitting callers one at a time per (stage, key) —
across threads and processes — so ``fetch()`` can re-check the store
after admission and compute only when the artifact is still missing.
The lock is advisory and *bounded*: no caller waits longer than
``stale_lock_timeout`` seconds; on timeout (a crashed or wedged owner)
it proceeds without the lock, trading duplicate work for liveness.
Disk errors degrade the same way — a cache layer may never fail a
computation (DESIGN.md D6).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import get_metrics

try:  # POSIX advisory locks; the kernel releases them on process death
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Store layout version: bump to orphan every existing artifact when
#: the serialization format *or the keying scheme* changes.  v2: keys
#: fold package-relative source paths (not basenames) into digests.
STORE_VERSION = "v2"

#: How long a single-flight waiter blocks on another worker's claim
#: before assuming the owner crashed and computing anyway.  Bounds the
#: damage of a dead owner to one timeout, never a wedged pipeline.
DEFAULT_STALE_LOCK_S = 300.0

#: Age after which an orphaned ``*.tmp`` file (a writer killed between
#: ``mkstemp`` and ``os.replace``) is swept during eviction.
DEFAULT_TMP_MAX_AGE_S = 3600.0

_POLL_S = 0.02


def runtime_tag() -> str:
    """Interpreter + numpy segment of every artifact namespace.

    Numpy upgrades may change bit-level results (RNG streams, reduction
    order), and cached bytes must always match what ``--no-cache``
    would produce on the current stack.
    """
    import numpy

    return (
        f"cpython-{sys.version_info.major}.{sys.version_info.minor}"
        f"-numpy-{numpy.__version__}"
    )


@dataclass(frozen=True)
class BackendStats:
    """Snapshot of the store's persistent layer (D12).

    The measured size of the durable layer plus this process's
    operation counters, one key set for every caller (the CLI, the
    metrics registry, tests).  The counters are process-local and
    monotonic: ``hits``/``misses`` split every ``get``, ``puts`` counts
    stores, ``evictions`` counts artifacts dropped by the size bound,
    and ``flights``/``flight_waits`` count single-flight admissions and
    how many of them had to wait behind another worker's claim.
    """

    artifacts: int
    total_bytes: int
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    flights: int = 0
    flight_waits: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The snapshot as a plain dict (stable, JSON-able)."""
        return asdict(self)


class DiskArtifactBackend:
    """The one-file-per-artifact LRU store.

    Layout: ``root/v2/cpython-X.Y-numpy-Z/<stage>/<key>.pkl``, written
    atomically via ``mkstemp`` + ``os.replace``.  Least-recently-*used*
    files are evicted first (reads refresh the mtime clock).  Size
    accounting is a running estimate — one directory scan on the first
    write, then incremental updates — so puts stay O(1); eviction
    re-measures before acting.  Payloads are raw bytes: serialization,
    the memo and the oversize gate stay in ``ArtifactStore``.

    Every operation counts itself into the :class:`BackendStats`
    counters and mirrors the count into the metrics registry as
    ``artifact_backend.disk.<counter>``.

    Single flight prefers ``fcntl.flock`` on a per-key ``.lock`` file:
    the kernel drops the lock when the owner dies, so a crashed worker
    never blocks waiters beyond its death.  Without ``fcntl`` an
    exclusive-create lockfile is used instead, broken by waiters once
    its mtime exceeds the stale timeout.  Lock files are never swept
    while the store lives (unlinking a contended lock file could admit
    two owners); they are empty and one per computed key.
    """

    name = "disk"

    def __init__(
        self,
        root: os.PathLike,
        max_bytes: int,
        stale_lock_timeout: float = DEFAULT_STALE_LOCK_S,
        tmp_max_age_s: float = DEFAULT_TMP_MAX_AGE_S,
    ):
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.stale_lock_timeout = float(stale_lock_timeout)
        self.tmp_max_age_s = float(tmp_max_age_s)
        self._approx_bytes: Optional[int] = None
        self._counter_lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("hits", "misses", "puts", "evictions", "flights", "flight_waits"), 0
        )

    def _count(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to one operation counter and its registry mirror."""
        with self._counter_lock:
            self._counts[counter] += n
        get_metrics().counter(f"artifact_backend.{self.name}.{counter}").inc(n)

    # -- layout --------------------------------------------------------
    def _stage_dir(self, stage: str) -> Path:
        return self.root / STORE_VERSION / runtime_tag() / stage

    def path(self, stage: str, key: str) -> Path:
        """On-disk location of one artifact."""
        return self._stage_dir(stage) / f"{key}.pkl"

    def _artifact_files(self) -> List[Path]:
        if not self.root.exists():
            return []
        return [p for p in self.root.rglob("*.pkl") if p.is_file()]

    # -- access --------------------------------------------------------
    def get(self, stage: str, key: str) -> Optional[bytes]:
        """The stored payload, or ``None`` on a miss.  Refreshes LRU."""
        path = self.path(stage, key)
        try:
            with open(path, "rb") as f:
                payload = f.read()
        except OSError:
            self._count("misses")
            return None
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass
        self._count("hits")
        return payload

    def put(self, stage: str, key: str, payload: bytes) -> None:
        """Store a payload, evicting if the size bound is crossed."""
        import tempfile

        path = self.path(stage, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # A re-put overwrites via os.replace: subtract the replaced
            # artifact's size or the estimate drifts upward forever and
            # triggers premature eviction in long-running processes.
            try:
                old_size = path.stat().st_size
            except OSError:
                old_size = 0
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(payload)
                os.replace(tmp, path)  # atomic under concurrent writers
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            if self._approx_bytes is None:
                self._approx_bytes = self._measure()[1]
            else:
                self._approx_bytes += len(payload) - old_size
            if self._approx_bytes > self.max_bytes:
                self.evict()
        except OSError:
            pass  # a read-only or full disk degrades to memo-only
        self._count("puts")

    def evict(self) -> int:
        """Drop LRU artifacts past ``max_bytes`` and sweep orphaned tmps.

        Returns the number of artifacts dropped.
        """
        now = time.time()
        if self.root.exists():
            # Writers killed between mkstemp and os.replace leave *.tmp
            # orphans that no *.pkl glob ever sees; sweep old ones.
            for p in self.root.rglob("*.tmp"):
                try:
                    if now - p.stat().st_mtime > self.tmp_max_age_s:
                        p.unlink()
                except OSError:
                    continue
        sized = []
        total = 0
        dropped = 0
        for p in self._artifact_files():
            try:
                st = p.stat()
            except OSError:
                continue
            sized.append((st.st_mtime, st.st_size, str(p)))
            total += st.st_size
        if total > self.max_bytes:
            for _, size, p in sorted(sized):
                try:
                    os.unlink(p)
                except OSError:
                    continue
                dropped += 1
                total -= size
                if total <= self.max_bytes:
                    break
        self._approx_bytes = total
        if dropped:
            self._count("evictions", dropped)
        return dropped

    def _measure(self) -> Tuple[int, int]:
        """Measured ``(artifact count, total payload bytes)``."""
        files = self._artifact_files()
        total = 0
        for p in files:
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return len(files), total

    def stats(self) -> BackendStats:
        """The size + operation-counter snapshot."""
        artifacts, total_bytes = self._measure()
        with self._counter_lock:
            return BackendStats(artifacts=artifacts, total_bytes=total_bytes, **self._counts)

    # -- single flight -------------------------------------------------
    def _count_flight(self, waited: bool) -> None:
        """Record one single-flight admission (``waited``: behind a claim)."""
        self._count("flights")
        if waited:
            self._count("flight_waits")

    @contextmanager
    def single_flight(self, stage: str, key: str) -> Iterator[None]:
        """Admit callers one at a time per (stage, key); see module doc."""
        lock_path = self._stage_dir(stage) / f"{key}.lock"
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            self._count_flight(waited=False)
            yield  # unwritable store: no lock, just compute
            return
        if fcntl is not None:
            yield from self._flock_flight(lock_path)
        else:  # pragma: no cover - exercised only on non-POSIX hosts
            yield from self._lockfile_flight(lock_path)

    def _flock_flight(self, lock_path: Path) -> Iterator[None]:
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            self._count_flight(waited=False)
            yield
            return
        acquired = False
        waited = False
        try:
            deadline = time.monotonic() + self.stale_lock_timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    # Held elsewhere.  The kernel releases a dead
                    # owner's flock, so polling sees crashes promptly;
                    # the deadline only caps a *wedged* (alive, stuck)
                    # owner, after which we duplicate work instead of
                    # hanging the pipeline.
                    if time.monotonic() >= deadline:
                        break
                    waited = True
                    time.sleep(_POLL_S)
            self._count_flight(waited)
            yield
        finally:
            if acquired:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:
                    pass
            os.close(fd)

    def _lockfile_flight(self, lock_path: Path) -> Iterator[None]:
        # Portable fallback: exclusive-create, stale by mtime.  A
        # crashed owner's file is broken by the first waiter to see it
        # exceed the stale timeout.
        acquired = False
        waited = False
        deadline = time.monotonic() + self.stale_lock_timeout
        while True:
            try:
                fd = os.open(lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                acquired = True
                break
            except FileExistsError:
                waited = True
                try:
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    continue  # released between attempts; retry now
                if age > self.stale_lock_timeout:
                    try:
                        lock_path.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    break
                time.sleep(_POLL_S)
            except OSError:
                break  # unwritable store: proceed without the lock
        self._count_flight(waited)
        try:
            yield
        finally:
            if acquired:
                try:
                    lock_path.unlink()
                except OSError:
                    pass
