"""Pluggable persistence backends of the artifact store (DESIGN.md D10).

:class:`~repro.core.artifacts.ArtifactStore` keeps the in-process memo
and the pickling; everything durable behind it — payload bytes, LRU
eviction, cross-process single-flight claims — is an
:class:`ArtifactBackend`.  Two implementations ship:

* ``disk`` (default) — one ``<key>.pkl`` file per artifact under the
  store root, the same layout as before the backend split; advisory
  file locks (``fcntl.flock`` where available, exclusive-create
  lockfiles otherwise) implement single flight.
* ``sqlite`` — every artifact in one WAL-mode database file, safe for
  concurrent multi-process access on one host without per-artifact
  files; single flight is a claim row.  Uses only the standard
  library.

Single-flight contract (all backends): :meth:`ArtifactBackend.
single_flight` is a context manager admitting callers one at a time
per (stage, key) — across threads and processes — so ``fetch()`` can
re-check the store after admission and compute only when the artifact
is still missing.  The lock is advisory and *bounded*: no caller waits
longer than ``stale_lock_timeout`` seconds; on timeout (a crashed or
wedged owner) it proceeds without the lock, trading duplicate work for
liveness.  Backend errors degrade the same way — a cache layer may
never fail a computation (DESIGN.md D6).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
    """Uniform snapshot of one backend's persistent layer (D12).

    Every backend reports exactly this key set — the measured size of
    the durable layer plus this process's operation counters — so
    callers (the CLI, the metrics registry, tests) never branch on the
    backend kind.  The counters are process-local and monotonic:
    ``hits``/``misses`` split every ``get``, ``puts`` counts stores,
    ``evictions`` counts artifacts dropped by the size bound, and
    ``flights``/``flight_waits`` count single-flight admissions and how
    many of them had to wait behind another worker's claim.
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


class ArtifactBackend:
    """Protocol of a persistent artifact layer.

    Implementations deal in raw payload bytes — serialization, the
    memo layer and the oversize gate stay in ``ArtifactStore``.
    Eviction policy is deliberately per-backend: what "least recently
    used" and "total size" mean depends on the medium (file mtimes vs
    an ``atime`` column).

    The public ``get``/``put``/``evict``/``stats`` methods are template
    methods: they maintain the uniform :class:`BackendStats` operation
    counters (and mirror them into the metrics registry) around the
    per-medium ``_get``/``_put``/``_evict``/``_measure`` hooks, so
    every backend reports the same hit/miss/eviction key set by
    construction.  Subclass ``__init__`` must call ``super().__init__()``.
    """

    name: str = "?"

    def __init__(self):
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._flights = 0
        self._flight_waits = 0

    # -- template methods (uniform counting) ---------------------------
    def get(self, stage: str, key: str) -> Optional[bytes]:
        """The stored payload, or ``None`` on a miss.  Refreshes LRU."""
        payload = self._get(stage, key)
        field = "misses" if payload is None else "hits"
        with self._counter_lock:
            if payload is None:
                self._misses += 1
            else:
                self._hits += 1
        get_metrics().counter(f"artifact_backend.{self.name}.{field}").inc()
        return payload

    def put(self, stage: str, key: str, payload: bytes) -> None:
        """Store a payload, evicting if the size bound is crossed."""
        self._put(stage, key, payload)
        with self._counter_lock:
            self._puts += 1
        get_metrics().counter(f"artifact_backend.{self.name}.puts").inc()

    def evict(self) -> int:
        """Enforce the size bound now; returns artifacts dropped."""
        dropped = self._evict()
        if dropped:
            with self._counter_lock:
                self._evictions += dropped
            get_metrics().counter(f"artifact_backend.{self.name}.evictions").inc(dropped)
        return dropped

    def stats(self) -> BackendStats:
        """The uniform size + operation-counter snapshot."""
        artifacts, total_bytes = self._measure()
        with self._counter_lock:
            return BackendStats(
                artifacts=artifacts,
                total_bytes=total_bytes,
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                flights=self._flights,
                flight_waits=self._flight_waits,
            )

    def _count_flight(self, waited: bool) -> None:
        """Record one single-flight admission (``waited``: behind a claim)."""
        with self._counter_lock:
            self._flights += 1
            if waited:
                self._flight_waits += 1
        metrics = get_metrics()
        metrics.counter(f"artifact_backend.{self.name}.flights").inc()
        if waited:
            metrics.counter(f"artifact_backend.{self.name}.flight_waits").inc()

    # -- per-medium hooks ----------------------------------------------
    def _get(self, stage: str, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def _put(self, stage: str, key: str, payload: bytes) -> None:
        raise NotImplementedError

    def _evict(self) -> int:
        raise NotImplementedError

    def _measure(self) -> Tuple[int, int]:
        """Measured ``(artifact count, total payload bytes)``."""
        raise NotImplementedError

    @contextmanager
    def single_flight(self, stage: str, key: str) -> Iterator[None]:
        """Admit callers one at a time per (stage, key); see module doc."""
        self._count_flight(waited=False)
        yield


class DiskArtifactBackend(ArtifactBackend):
    """The original one-file-per-artifact LRU store.

    Layout: ``root/v2/cpython-X.Y-numpy-Z/<stage>/<key>.pkl``, written
    atomically via ``mkstemp`` + ``os.replace``.  Least-recently-*used*
    files are evicted first (reads refresh the mtime clock).  Size
    accounting is a running estimate — one directory scan on the first
    write, then incremental updates — so puts stay O(1); eviction
    re-measures before acting.

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
        super().__init__()
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.stale_lock_timeout = float(stale_lock_timeout)
        self.tmp_max_age_s = float(tmp_max_age_s)
        self._approx_bytes: Optional[int] = None

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
    def _get(self, stage: str, key: str) -> Optional[bytes]:
        path = self.path(stage, key)
        try:
            with open(path, "rb") as f:
                payload = f.read()
        except OSError:
            return None
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass
        return payload

    def _put(self, stage: str, key: str, payload: bytes) -> None:
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
            return  # a read-only or full disk degrades to memo-only

    def _evict(self) -> int:
        """Drop LRU artifacts past ``max_bytes``; sweep orphaned tmps."""
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
        return dropped

    def _measure(self) -> Tuple[int, int]:
        files = self._artifact_files()
        total = 0
        for p in files:
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return len(files), total

    # -- single flight -------------------------------------------------
    @contextmanager
    def single_flight(self, stage: str, key: str) -> Iterator[None]:
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


class SQLiteArtifactBackend(ArtifactBackend):
    """All artifacts in one WAL-mode SQLite file.

    Safe for concurrent readers/writers across processes on one host:
    WAL gives readers a consistent snapshot while one writer commits,
    and ``busy_timeout`` serializes writer collisions.  Artifacts are
    keyed by ``(runtime, stage, key)`` so one file serves every
    interpreter/numpy stack, and LRU state is an ``atime`` column
    updated on read.  ``stats().total_bytes`` is the *logical* payload
    total (``SUM(size)``) — the bound eviction enforces; the database
    file itself only shrinks on VACUUM, which is deliberately never
    issued on the hot path.

    Single flight is a claim row in the ``flights`` table: the first
    ``INSERT OR IGNORE`` to land owns the computation, waiters poll,
    and claims older than the stale timeout are deleted by waiters so
    a crashed owner never wedges anyone.
    """

    name = "sqlite"

    def __init__(
        self,
        root: os.PathLike,
        max_bytes: int,
        stale_lock_timeout: float = DEFAULT_STALE_LOCK_S,
        busy_timeout_s: float = 10.0,
    ):
        super().__init__()
        self.root = Path(root)
        self.db_path = self.root / f"artifacts-{STORE_VERSION}.sqlite"
        self.max_bytes = int(max_bytes)
        self.stale_lock_timeout = float(stale_lock_timeout)
        self.busy_timeout_s = float(busy_timeout_s)
        self._runtime = runtime_tag()
        self.root.mkdir(parents=True, exist_ok=True)
        self._create_schema()

    def _create_schema(self) -> None:
        """Switch a fresh file to WAL and create the tables.

        Switching journal mode needs an exclusive lock, and SQLite
        reports a concurrent switch by another connection as busy at
        once, without waiting out ``busy_timeout``.  Stores opened
        together over a fresh root therefore retry here until the
        timeout runs out, instead of failing all but one opener.
        """
        import sqlite3

        deadline = time.monotonic() + self.busy_timeout_s
        while True:
            try:
                with self._tx() as conn:
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS artifacts ("
                        " runtime TEXT NOT NULL, stage TEXT NOT NULL,"
                        " key TEXT NOT NULL, payload BLOB NOT NULL,"
                        " size INTEGER NOT NULL, atime REAL NOT NULL,"
                        " PRIMARY KEY (runtime, stage, key))"
                    )
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS flights ("
                        " runtime TEXT NOT NULL, stage TEXT NOT NULL,"
                        " key TEXT NOT NULL, owner TEXT NOT NULL,"
                        " claimed_at REAL NOT NULL,"
                        " PRIMARY KEY (runtime, stage, key))"
                    )
                return
            except sqlite3.OperationalError as exc:
                # SQLITE_BUSY reads "database is locked"; any other
                # error (unreadable root, ...) is not worth a retry.
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(_POLL_S)

    @contextmanager
    def _tx(self):
        import sqlite3

        conn = sqlite3.connect(self.db_path, timeout=self.busy_timeout_s)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:  # one transaction, committed on success
                yield conn
        finally:
            conn.close()

    def _ident(self, stage: str, key: str):
        return (self._runtime, stage, key)

    # -- access --------------------------------------------------------
    def _get(self, stage: str, key: str) -> Optional[bytes]:
        import sqlite3

        try:
            with self._tx() as conn:
                row = conn.execute(
                    "SELECT payload FROM artifacts"
                    " WHERE runtime=? AND stage=? AND key=?",
                    self._ident(stage, key),
                ).fetchone()
                if row is None:
                    return None
                conn.execute(
                    "UPDATE artifacts SET atime=?"
                    " WHERE runtime=? AND stage=? AND key=?",
                    (time.time(), *self._ident(stage, key)),
                )
                return row[0]
        except sqlite3.Error:
            return None

    def _put(self, stage: str, key: str, payload: bytes) -> None:
        import sqlite3

        try:
            with self._tx() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO artifacts"
                    " (runtime, stage, key, payload, size, atime)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (*self._ident(stage, key), payload, len(payload), time.time()),
                )
                total = conn.execute(
                    "SELECT COALESCE(SUM(size), 0) FROM artifacts"
                ).fetchone()[0]
            if total > self.max_bytes:
                self.evict()
        except sqlite3.Error:
            return

    def _evict(self) -> int:
        import sqlite3

        dropped = 0
        try:
            with self._tx() as conn:
                total = conn.execute(
                    "SELECT COALESCE(SUM(size), 0) FROM artifacts"
                ).fetchone()[0]
                if total > self.max_bytes:
                    victims = conn.execute(
                        "SELECT rowid, size FROM artifacts ORDER BY atime"
                    ).fetchall()
                    for rowid, size in victims:
                        conn.execute("DELETE FROM artifacts WHERE rowid=?", (rowid,))
                        dropped += 1
                        total -= size
                        if total <= self.max_bytes:
                            break
                conn.execute(
                    "DELETE FROM flights WHERE claimed_at < ?",
                    (time.time() - self.stale_lock_timeout,),
                )
        except sqlite3.Error:
            return dropped
        return dropped

    def _measure(self) -> Tuple[int, int]:
        import sqlite3

        try:
            with self._tx() as conn:
                count, total = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM artifacts"
                ).fetchone()
            return count, total
        except sqlite3.Error:
            return 0, 0

    # -- single flight -------------------------------------------------
    @contextmanager
    def single_flight(self, stage: str, key: str) -> Iterator[None]:
        import sqlite3

        owner = f"{os.getpid()}-{threading.get_ident()}"
        acquired = False
        waited = False
        deadline = time.monotonic() + self.stale_lock_timeout
        try:
            while True:
                try:
                    with self._tx() as conn:
                        conn.execute(
                            "DELETE FROM flights WHERE runtime=? AND stage=?"
                            " AND key=? AND claimed_at < ?",
                            (*self._ident(stage, key),
                             time.time() - self.stale_lock_timeout),
                        )
                        cur = conn.execute(
                            "INSERT OR IGNORE INTO flights"
                            " (runtime, stage, key, owner, claimed_at)"
                            " VALUES (?, ?, ?, ?, ?)",
                            (*self._ident(stage, key), owner, time.time()),
                        )
                        if cur.rowcount == 1:
                            acquired = True
                except sqlite3.Error:
                    break  # degrade: compute without the claim
                if acquired or time.monotonic() >= deadline:
                    break
                waited = True
                time.sleep(_POLL_S)
            self._count_flight(waited)
            yield
        finally:
            if acquired:
                try:
                    with self._tx() as conn:
                        conn.execute(
                            "DELETE FROM flights WHERE runtime=? AND stage=?"
                            " AND key=? AND owner=?",
                            (*self._ident(stage, key), owner),
                        )
                except sqlite3.Error:
                    pass


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Callable[..., ArtifactBackend]] = {
    "disk": DiskArtifactBackend,
    "sqlite": SQLiteArtifactBackend,
}


def available_artifact_backends() -> List[str]:
    """Registered backend names, CLI-choice ordered."""
    return sorted(_BACKENDS)


def create_artifact_backend(
    name: str,
    root: os.PathLike,
    max_bytes: int,
    stale_lock_timeout: float = DEFAULT_STALE_LOCK_S,
) -> ArtifactBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown artifact backend {name!r}; "
            f"available: {', '.join(available_artifact_backends())}"
        ) from None
    return factory(root=root, max_bytes=max_bytes, stale_lock_timeout=stale_lock_timeout)
