"""The pre-engine dense-matrix GLOVE loop, preserved as a benchmark baseline.

This is the seed repository's `glove()` control flow: a dense
``(2n, 2n)`` stretch matrix over all slot pairs, full one-vs-all row
recomputation after every merge, and free argmin refreshes against the
cached rows.  The production implementation in
:mod:`repro.core.glove` replaced the matrix with O(n) per-slot state
plus lower-bound pruning; this module exists so ``BENCH_glove.json``
can keep measuring the engine against the original path (and assert
that both produce identical outputs) from PR 1 onward.

Not part of the public API — benchmark/regression harness only.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.config import GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import SlotStore
from repro.core.fingerprint import Fingerprint
from repro.core.glove import GloveResult, GloveStats
from repro.core.merge import merge_sample_arrays
from repro.core.pairwise import one_vs_all
from repro.core.reshape import has_temporal_overlap, reshape_sample_array
from repro.core.suppression import SuppressionStats, suppress_dataset


def seed_glove(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    chunk: int = 256,
) -> GloveResult:
    """k-anonymize with the original dense-matrix greedy loop."""
    fps = list(dataset)
    k = config.k
    n = len(fps)
    total_users = sum(fp.count for fp in fps)
    if total_users < k:
        raise ValueError(f"dataset hides {total_users} users in total, cannot reach k={k}")
    if any(fp.m == 0 for fp in fps):
        raise ValueError("input contains empty fingerprints; screen the dataset first")

    stats = GloveStats(n_input_fingerprints=n)
    work = SlotStore(fps)
    capacity = work.capacity
    cfg = config.stretch

    stretch = np.full((capacity, capacity), np.inf, dtype=np.float64)
    pending = np.zeros(capacity, dtype=bool)
    pending[:n] = work.counts[:n] < k
    finished: List[int] = [slot for slot in range(n) if not pending[slot]]

    pending_idx = np.flatnonzero(pending)
    for pos, i in enumerate(pending_idx[:-1]):
        targets = pending_idx[pos + 1 :]
        vals = one_vs_all(work.fps[i].data, work.fps[i].count, work, cfg, targets, chunk)
        stretch[i, targets] = vals
        stretch[targets, i] = vals
    stats.n_exact_evaluations += (pending_idx.size * (pending_idx.size - 1)) // 2

    best_val = np.full(capacity, np.inf)
    best_idx = np.full(capacity, -1, dtype=np.int64)

    def _refresh_best(slot: int) -> None:
        live = pending.copy()
        live[slot] = False
        if not live.any():
            best_val[slot] = np.inf
            best_idx[slot] = -1
            return
        row = np.where(live, stretch[slot], np.inf)
        j = int(row.argmin())
        best_val[slot] = row[j]
        best_idx[slot] = j

    for i in np.flatnonzero(pending):
        _refresh_best(int(i))

    def _merge_pair(i: int, j: int):
        # The NumPy bodies, never the native merge-product entries that
        # merge_fingerprints/reshape_fingerprint pick on a bound tier:
        # the seed path stays an independent oracle for them.
        a, b = work.fps[i], work.fps[j]
        long_fp, short_fp = (a, b) if a.m >= b.m else (b, a)
        merged = Fingerprint(
            f"{a.uid}+{b.uid}",
            merge_sample_arrays(
                long_fp.data, short_fp.data, long_fp.count, short_fp.count, cfg
            ),
            count=a.count + b.count,
            members=a.members + b.members,
        )
        if config.reshape and has_temporal_overlap(merged.data):
            merged = merged.with_samples(reshape_sample_array(merged.data))
        return merged

    while pending.sum() >= 2:
        candidates = np.where(pending, best_val, np.inf)
        i = int(candidates.argmin())
        j = int(best_idx[i])
        merged = _merge_pair(i, j)
        stats.n_merges += 1

        pending[i] = False
        pending[j] = False
        stretch[i, :] = np.inf
        stretch[:, i] = np.inf
        stretch[j, :] = np.inf
        stretch[:, j] = np.inf
        best_val[i] = best_val[j] = np.inf

        slot = work.append(merged)
        if merged.count >= k:
            finished.append(slot)
        else:
            pending[slot] = True
            targets = np.flatnonzero(pending)
            targets = targets[targets != slot]
            if targets.size:
                vals = one_vs_all(merged.data, merged.count, work, cfg, targets, chunk)
                stretch[slot, targets] = vals
                stretch[targets, slot] = vals
                stats.n_exact_evaluations += targets.size
            _refresh_best(slot)

        for r in np.flatnonzero(pending):
            r = int(r)
            if r == slot:
                continue
            if best_idx[r] in (i, j):
                _refresh_best(r)
            elif pending[slot] and stretch[r, slot] < best_val[r]:
                best_val[r] = stretch[r, slot]
                best_idx[r] = slot

    leftover = np.flatnonzero(pending)
    if leftover.size == 1:
        lo = int(leftover[0])
        if not finished:
            raise RuntimeError("no finished group to absorb the leftover fingerprint")
        targets = np.array(finished, dtype=np.int64)
        vals = one_vs_all(work.fps[lo].data, work.fps[lo].count, work, cfg, targets, chunk)
        stats.n_exact_evaluations += targets.size
        tgt = int(targets[int(vals.argmin())])
        merged = _merge_pair(lo, tgt)
        stats.n_merges += 1
        stats.leftover_merged = True
        slot = work.append(merged)
        finished[finished.index(tgt)] = slot
        pending[lo] = False

    out = FingerprintDataset(name=f"{dataset.name}-glove-k{k}")
    for slot in finished:
        out.add(work.fps[slot])
    stats.n_output_fingerprints = len(out)

    if config.suppression.enabled:
        out, supp = suppress_dataset(out, config.suppression)
        stats.suppression = supp
    else:
        stats.suppression = SuppressionStats(
            total_samples=out.n_samples, discarded_samples=0, discarded_fingerprints=0
        )
    return GloveResult(dataset=out, stats=stats, config=config)
