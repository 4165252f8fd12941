"""Sharded GLOVE: partition, anonymize concurrently, repair boundaries.

The paper reaches millions of subscribers by offloading the
O(|M|^2 n-bar^2) Eq. 10 workload to a GPU (Section 6.3).  The pruned
greedy loop of :mod:`repro.core.glove` removed the dense-matrix memory
wall, but one in-memory population still pays the full quadratic merge
search.  This module adds the scale-out tier anticipated by DESIGN.md
D4's ``register_backend()`` extension point:

1. **Partition** the input population into shards — by activity-time
   locality (fingerprints whose recording midpoints are close land in
   the same shard) or by a deterministic uid hash;
2. **Anonymize** every shard independently with the pruned greedy loop
   of Alg. 1, concurrently across a process pool — the quadratic cost
   drops from O(n^2) to O(s * (n/s)^2) = O(n^2 / s) exact-kernel work;
3. **Repair the boundaries**: the per-shard greedy loops can each leave
   at most one non-anonymous fingerprint behind (the Alg. 1 loop stops
   below two pending), so the cross-shard pass folds every such
   leftover into the globally nearest finished group, restoring the
   paper's "k-anonymity by design" guarantee with extra stretch
   bounded by one extra merge per shard.

Selected as the ``sharded`` entry of the engine's backend registry:
kernel-level calls (k-gap matrix builds) run the ``auto`` tier pick,
while whole ``glove()`` runs are taken over through
:func:`repro.core.engine.register_glove_driver`.  With one shard the
driver is byte-identical to the unsharded path; invariants live in
DESIGN.md D5 and are enforced by ``tests/core/test_shard.py`` and
``tests/properties/test_k_anonymity.py``.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from math import ceil
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ComputeConfig, GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import (
    DISPATCH_COUNTERS,
    StretchEngine,
    auto_backend,
    create_backend,
    get_default_compute,
    register_backend,
    register_glove_driver,
)
from repro.core.fingerprint import Fingerprint
from repro.core.glove import (
    GloveResult,
    GloveStats,
    _fold_leftover,
    _greedy_merge,
    finalize_result,
    glove,
    validate_population,
)
from repro.core.merge import merge_fingerprints
from repro.core.pairwise import PaddedFingerprints
from repro.core.reshape import reshape_fingerprint
from repro.core.sample import DT, T

#: Fingerprints per shard the auto rule (``ComputeConfig.shards=None``)
#: aims for: below this scale the per-shard quadratic loop is cheap
#: enough that further splitting only costs utility.
AUTO_SHARD_TARGET = 768

#: Cap on the auto-selected shard count.
AUTO_SHARD_CAP = 32


def _effective_workers(compute: ComputeConfig) -> int:
    if compute.workers is not None:
        return compute.workers
    return min(os.cpu_count() or 1, 8)


def resolve_shards(compute: ComputeConfig, n: int) -> int:
    """Effective shard count for a population of ``n`` fingerprints.

    An explicit :attr:`~repro.core.config.ComputeConfig.shards` wins
    (clamped to the population size); otherwise one shard per
    :data:`AUTO_SHARD_TARGET` fingerprints, at most
    :data:`AUTO_SHARD_CAP`.
    """
    if compute.shards is not None:
        return max(1, min(compute.shards, n))
    return max(1, min(AUTO_SHARD_CAP, ceil(n / AUTO_SHARD_TARGET)))


def partition_indices(
    fps: Sequence[Fingerprint], shards: int, strategy: str = "time"
) -> List[np.ndarray]:
    """Split a population into at most ``shards`` non-empty index groups.

    ``"time"`` sorts fingerprints by the midpoint of their recording
    activity and cuts contiguous, balanced runs, so each shard holds
    temporally local fingerprints — the cheapest merge candidates under
    Eq. 10's temporal term.  ``"hash"`` buckets by a deterministic CRC
    of the uid: locality-free, but stable under any reordering or
    subsetting of the input (the fallback when activity times are
    degenerate or adversarial).  Both rules are deterministic; empty
    hash buckets are dropped.
    """
    n = len(fps)
    shards = max(1, min(shards, n))
    if shards == 1:
        return [np.arange(n, dtype=np.int64)]
    if strategy == "time":
        mids = np.array(
            [
                0.5 * (float(fp.data[0, T]) + float((fp.data[:, T] + fp.data[:, DT]).max()))
                for fp in fps
            ]
        )
        order = np.argsort(mids, kind="stable").astype(np.int64)
        return [part for part in np.array_split(order, shards) if part.size]
    if strategy == "hash":
        buckets = np.array(
            [zlib.crc32(fp.uid.encode("utf-8")) % shards for fp in fps], dtype=np.int64
        )
        return [
            np.flatnonzero(buckets == b).astype(np.int64)
            for b in range(shards)
            if (buckets == b).any()
        ]
    raise ValueError(f"unknown shard strategy {strategy!r}")


#: The ``GloveStats`` fields of a shard's counter tuple, in order: the
#: loop's own three, then the backend's ``dispatch_counters()``.
_COUNTER_FIELDS = (
    "n_merges",
    "n_exact_evaluations",
    "n_pruned_evaluations",
    *DISPATCH_COUNTERS,
)


def _add_counters(stats: GloveStats, counters: tuple) -> None:
    """Add one engine's counter tuple into the run's ``stats``."""
    for name, value in zip(_COUNTER_FIELDS, counters):
        setattr(stats, name, getattr(stats, name) + value)


def _shard_task(args) -> Tuple[List[Fingerprint], Optional[Fingerprint], tuple]:
    """Run the pruned greedy loop on one shard (process-pool safe).

    Returns the finished group fingerprints, the at-most-one
    non-anonymous leftover, and the shard's evaluation counters.
    Leftovers are *not* folded locally — a shard may lack any finished
    group to absorb them; the cross-shard repair pass owns that step.
    """
    fps, config, compute = args
    stats = GloveStats(n_input_fingerprints=len(fps))
    with StretchEngine(fps, stretch=config.stretch, compute=compute) as engine:
        finished, leftover, _ = _greedy_merge(engine, fps, config, stats)
        finished_fps = [engine.store.fps[s] for s in finished]
        leftover_fp = engine.store.fps[leftover] if leftover is not None else None
        dispatch = engine.backend.dispatch_counters()
    counters = (
        stats.n_merges,
        stats.n_exact_evaluations,
        stats.n_pruned_evaluations,
        *dispatch,
    )
    return finished_fps, leftover_fp, counters


def _boundary_repair(
    finished: List[Fingerprint],
    leftovers: List[Fingerprint],
    config: GloveConfig,
    compute: ComputeConfig,
    stats: GloveStats,
) -> None:
    """Re-merge per-shard leftovers so global k-anonymity holds.

    Each leftover (one non-anonymous fingerprint at most per shard) is
    folded into the globally nearest finished group under the same
    Eq. 10 effort, mirroring the unsharded leftover rule (DESIGN.md D2)
    across shard boundaries, scored on ``compute``'s backend (the
    sharded driver passes the ``auto`` tier pick: the compiled kernel
    when it is bound; the bytes are the same on every tier, DESIGN.md
    D9).  When *no* shard produced a
    finished group (every shard's subscriber total was below ``k``),
    the leftovers are greedy-merged with each other instead — the input
    validation guarantees their combined count reaches ``k``.  Mutates
    ``finished`` in place.
    """
    if not leftovers:
        return
    stats.boundary_repaired = len(leftovers)
    if not finished:
        sub = GloveStats(n_input_fingerprints=len(leftovers))
        with StretchEngine(leftovers, stretch=config.stretch, compute=compute) as engine:
            fin, leftover, nn = _greedy_merge(engine, leftovers, config, sub)
            if leftover is not None:
                _fold_leftover(engine, nn, fin, leftover, config, sub)
            finished.extend(engine.store.fps[s] for s in fin)
            dispatch = engine.backend.dispatch_counters()
        _add_counters(
            stats,
            (sub.n_merges, sub.n_exact_evaluations, sub.n_pruned_evaluations, *dispatch),
        )
        stats.leftover_merged = stats.leftover_merged or sub.leftover_merged
        return
    # The backend's own crossing count is not harvested: each leftover
    # counts one crossing and one probe here.
    backend = create_backend(compute, config.stretch)
    packed = PaddedFingerprints(finished)
    targets = np.arange(len(finished), dtype=np.int64)
    for fp in leftovers:
        efforts = backend.one_vs_all(fp.data, fp.count, packed, targets)
        stats.n_exact_evaluations += efforts.shape[0]
        stats.n_boundary_crossings += 1
        stats.n_probe_dispatches += 1
        target = int(efforts.argmin())
        # The same bytes as StretchEngine.merge_step, outside an engine.
        merged = merge_fingerprints(fp, finished[target], config.stretch)
        if config.reshape:
            merged = reshape_fingerprint(merged)
        finished[target] = merged
        # In-place row refresh: a merge product never outgrows its
        # shorter parent, so it always fits the absorbing group's slot.
        m = merged.m
        packed.data[target, :m] = merged.data
        packed.data[target, m:] = 0.0
        packed.mask[target, :m] = True
        packed.mask[target, m:] = False
        packed.lengths[target] = m
        packed.counts[target] = merged.count
        stats.n_merges += 1
        stats.leftover_merged = True


def sharded_glove(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    compute: Optional[ComputeConfig] = None,
) -> GloveResult:
    """k-anonymize a dataset with the sharded GLOVE tier.

    The glove driver of the ``sharded`` backend (normally reached via
    ``glove(dataset, config, ComputeConfig(backend="sharded"))``):
    partitions the population per
    :attr:`~repro.core.config.ComputeConfig.shard_strategy`, anonymizes
    the shards concurrently (shard-level process pool of
    :attr:`~repro.core.config.ComputeConfig.workers`), and repairs the
    shard boundaries.  With an effective shard count of 1 the result is
    byte-identical to the unsharded ``numpy`` path; with more shards
    every output group still hides at least ``config.k`` subscribers
    and covers every input exactly once, at a bounded utility cost
    (DESIGN.md D5).
    """
    compute = compute if compute is not None else get_default_compute()
    fps = list(dataset)
    k = config.k
    validate_population(fps, k)
    # Inside shards the kernels run the ``auto`` tier pick — the
    # compiled kernels when an accelerated binding exists, the NumPy
    # reference otherwise (byte-identical either way); ``workers``
    # only sizes the shard pool below.
    inner = replace(compute, backend="auto", shards=None)

    n_shards = resolve_shards(compute, len(fps))
    if n_shards == 1:
        # Single shard: delegate to the unsharded path itself — the
        # golden byte-identity guarantee holds by construction.
        return glove(dataset, config, inner)

    stats = GloveStats(n_input_fingerprints=len(fps))
    name = f"{dataset.name}-glove-k{k}"
    parts = partition_indices(fps, n_shards, compute.shard_strategy)
    stats.shards_used = len(parts)
    tasks = [([fps[int(i)] for i in part], config, inner) for part in parts]
    workers = min(_effective_workers(compute), len(parts))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shard_results = list(pool.map(_shard_task, tasks))
    else:
        shard_results = [_shard_task(task) for task in tasks]

    finished: List[Fingerprint] = []
    leftovers: List[Fingerprint] = []
    for shard_finished, shard_leftover, counters in shard_results:
        finished.extend(shard_finished)
        if shard_leftover is not None:
            leftovers.append(shard_leftover)
        _add_counters(stats, counters)

    _boundary_repair(finished, leftovers, config, inner, stats)

    out = FingerprintDataset(name=name)
    for fp in finished:
        out.add(fp)
    stats.n_output_fingerprints = len(out)
    return finalize_result(out, stats, config)


# Kernel-level calls (k-gap matrix builds) have no population to
# partition: they run the ``auto`` tier pick.
register_backend("sharded", auto_backend)
register_glove_driver("sharded", sharded_glove)
