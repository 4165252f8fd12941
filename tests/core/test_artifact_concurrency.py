"""Multi-process contracts of the artifact store (DESIGN.md D10).

Three guarantees of the disk store:

* **single flight** — N concurrent cold ``fetch()`` calls for one key,
  from separate processes, compute exactly once; everyone receives
  byte-identical values (the PR's acceptance criterion);
* **stress** — workers hammering overlapping put/get/evict on a tiny
  size bound never raise, never serve a torn pickle, and end within
  the byte bound;
* **liveness** — a killed flight owner never wedges a waiter beyond
  the stale-lock timeout.

Workers are module-level functions (fork *and* spawn picklable); the
fork start method is preferred for speed and skipped cleanly where the
platform lacks it.
"""

import hashlib
import multiprocessing as mp
import os
import pickle
import random
import signal
import time

import pytest

from repro.core.artifacts import MISS, ArtifactStore

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="needs the fork start method",
)

_CTX = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else None


def _single_flight_worker(root, counter_path, barrier, out_q):
    """One of N contenders for the same cold key."""
    store = ArtifactStore(root=root)

    def compute():
        # O_APPEND writes are atomic at this size: one line per compute,
        # visible across processes without any coordination of our own.
        fd = os.open(counter_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        time.sleep(0.3)  # a visibly expensive computation
        return {"table": list(range(256)), "who": "first"}

    barrier.wait()  # line everyone up on the cold key
    value, origin = store.fetch("stage", "contended-key", compute)
    digest = hashlib.sha256(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()
    out_q.put((origin, digest))


def test_eight_process_cold_fetch_computes_exactly_once(tmp_path):
    """The acceptance criterion: N=8 processes, 1 compute, identical bytes."""
    n = 8
    counter = tmp_path / "computes.log"
    barrier = _CTX.Barrier(n, timeout=60)
    out_q = _CTX.Queue()
    procs = [
        _CTX.Process(
            target=_single_flight_worker,
            args=(str(tmp_path / "store"), str(counter), barrier, out_q),
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    outs = [out_q.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0
    compute_lines = counter.read_text().splitlines()
    assert len(compute_lines) == 1  # exactly one process paid for it
    origins = sorted(origin for origin, _ in outs)
    assert origins == ["computed"] + ["disk"] * (n - 1)
    assert len({digest for _, digest in outs}) == 1  # byte-identical


def _stress_worker(root, max_bytes, seed, barrier, out_q):
    """Random overlapping put/get/evict traffic against a shared store."""
    store = ArtifactStore(root=root, max_bytes=max_bytes)
    rng = random.Random(seed)
    keys = [f"key{i}" for i in range(8)]
    torn = errors = 0
    barrier.wait()
    try:
        for _ in range(60):
            key = rng.choice(keys)
            op = rng.random()
            if op < 0.5:
                # Deterministic per-key payload: any reader can verify
                # integrity without coordinating with the writer.
                store.put("s", key, key * 500)
            elif op < 0.9:
                store.clear_memo()  # force a real backend read
                value = store.get("s", key)
                if value is not MISS and value != key * 500:
                    torn += 1
            else:
                store.evict()
    except Exception:
        errors += 1
    out_q.put((errors, torn))


def test_multiprocess_stress_never_tears_and_stays_bounded(tmp_path):
    workers, max_bytes = 4, 32_000
    barrier = _CTX.Barrier(workers, timeout=60)
    out_q = _CTX.Queue()
    procs = [
        _CTX.Process(
            target=_stress_worker,
            args=(str(tmp_path / "store"), max_bytes, seed, barrier, out_q),
        )
        for seed in range(workers)
    ]
    for p in procs:
        p.start()
    outs = [out_q.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0
    assert sum(errors for errors, _ in outs) == 0
    assert sum(torn for _, torn in outs) == 0
    # The bound is enforced on the *final* state (concurrent writers can
    # transiently overshoot between a put and its eviction pass).
    store = ArtifactStore(root=tmp_path / "store", max_bytes=max_bytes)
    store.evict()
    assert store.disk_bytes() <= max_bytes


def _crashing_owner(root, barrier):
    """Acquire the flight for a key, signal readiness, then die hard."""
    store = ArtifactStore(root=root, stale_lock_timeout=60.0)
    with store.backend.single_flight("stage", "key"):
        barrier.wait()
        time.sleep(60)  # never reached: killed while holding the lock


def test_killed_owner_never_wedges_waiters(tmp_path):
    barrier = _CTX.Barrier(2, timeout=60)
    owner = _CTX.Process(target=_crashing_owner, args=(str(tmp_path / "store"), barrier))
    owner.start()
    barrier.wait(timeout=30)  # the owner holds the flight now
    os.kill(owner.pid, signal.SIGKILL)
    owner.join(timeout=30)
    # The kernel releases a dead owner's flock immediately.
    store = ArtifactStore(root=tmp_path / "store", stale_lock_timeout=1.0)
    t0 = time.monotonic()
    value, origin = store.fetch("stage", "key", lambda: "recovered")
    waited = time.monotonic() - t0
    assert (value, origin) == ("recovered", "computed")
    assert waited < 10.0  # bounded recovery, not a 60 s wedge
