"""Pluggable stretch-compute engine: the substrate of the GLOVE hot loop.

The paper offloads GLOVE's O(|M|^2 n-bar^2) Eq. 10 evaluations to a
CUDA GPU (Section 6.3).  This module makes the compute substrate a
first-class, swappable subsystem instead of logic inlined into the
algorithm:

* :class:`SlotStore` owns the padded fingerprint tensors and the slot
  lifecycle (append/retire) shared by every backend;
* :class:`StretchBackend` implementations execute the bulk Eq. 10
  kernels — ``numpy`` (blocked NumPy kernels) and ``compiled``
  (system-cc scalar kernels); ``auto`` picks the
  compiled tier when a binding is bound and ``numpy`` otherwise; new
  tiers (sharded, GPU) register through :func:`register_backend`;
* :class:`StretchEngine` ties a store to a backend and keeps the cheap
  bounding-box summaries behind the lower bounds that let every
  backend's bounded pair prune exact evaluations which provably cannot
  beat a current best.

All backends run the identical kernel per (probe, target) pair, so
results are byte-identical regardless of backend or chunking; see
DESIGN.md for the invariants.
"""

from __future__ import annotations

import abc
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.config import ComputeConfig, StretchConfig
from repro.core.fingerprint import Fingerprint
from repro.core.merge import merge_fingerprints
from repro.core.pairwise import (
    PaddedFingerprints,
    bucket_lower_bounds,
    hull_lower_bounds,
    many_vs_some,
    one_vs_all,
    sample_columns,
)
from repro.core.reshape import ATOL, reshape_fingerprint
from repro.core.sample import DT, DX, DY, NCOLS, T, X, Y

# ----------------------------------------------------------------------
# Process-wide default compute configuration
# ----------------------------------------------------------------------
_default_compute = ComputeConfig()


def get_default_compute() -> ComputeConfig:
    """The process-wide :class:`ComputeConfig` used when none is given."""
    return _default_compute


def set_default_compute(compute: ComputeConfig) -> ComputeConfig:
    """Install a new process-wide default compute config; returns the old one.

    Entry points (``glove-repro``, the ``glove`` CLI, the benchmark
    suite) call this once at start-up so that every internal
    :func:`repro.core.glove.glove` / k-gap matrix build picks up the
    selected backend without threading a parameter through the thirteen
    experiment modules.
    """
    global _default_compute
    old = _default_compute
    _default_compute = compute
    return old


def grow_array(arr: np.ndarray, capacity: int, fill=0) -> np.ndarray:
    """Return ``arr`` grown to ``capacity`` rows, new rows set to ``fill``.

    Shared by the slot store, the engine's pruning summaries and the
    GLOVE nearest-neighbour cache so capacity growth follows one policy.
    """
    if arr.shape[0] >= capacity:
        return arr
    out = np.full((capacity,) + arr.shape[1:], fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


# ----------------------------------------------------------------------
# Slot store: padded tensors + slot lifecycle
# ----------------------------------------------------------------------
class SlotStore:
    """Growable padded tensor of fingerprints with slot lifecycle.

    Duck-types the :class:`repro.core.pairwise.PaddedFingerprints`
    interface (``data``, ``mask``, ``lengths``, ``counts``) so the bulk
    kernels can address live slots directly while slots are filled
    (merge products, :meth:`StretchEngine.merge_step`) and retired
    (merged-away parents).

    Merged fingerprints never have more samples than their shorter
    parent, so the per-slot sample capacity ``m_max`` is fixed by the
    initial population; the slot capacity grows geometrically on demand.
    """

    def __init__(self, fingerprints: Sequence[Fingerprint]):
        fps = list(fingerprints)
        if not fps:
            raise ValueError("cannot build a slot store from zero fingerprints")
        if any(fp.m == 0 for fp in fps):
            raise ValueError("cannot store fingerprints with zero samples")
        n = len(fps)
        # n inputs + at most n-1 merge products + one leftover fold.
        capacity = 2 * n
        m_max = max(fp.m for fp in fps)
        self.data = np.zeros((capacity, m_max, NCOLS), dtype=np.float64)
        self.mask = np.zeros((capacity, m_max), dtype=bool)
        self.lengths = np.zeros(capacity, dtype=np.int64)
        self.counts = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.fps: List[Optional[Fingerprint]] = [None] * capacity
        self.size = 0
        for fp in fps:
            self.append(fp)

    @property
    def capacity(self) -> int:
        """Currently allocated slot capacity."""
        return self.data.shape[0]

    @property
    def m_max(self) -> int:
        """Per-slot sample capacity."""
        return self.data.shape[1]

    def grow(self) -> None:
        """Grow the slot capacity geometrically; the new slots are empty."""
        new_cap = max(self.capacity + 1, self.capacity * 3 // 2)
        for name in ("data", "mask", "lengths", "counts", "alive"):
            setattr(self, name, grow_array(getattr(self, name), new_cap))
        self.fps.extend([None] * (new_cap - len(self.fps)))

    def append(self, fp: Fingerprint) -> int:
        """Store a fingerprint in the next free slot; returns the slot id."""
        if fp.m > self.m_max:
            raise ValueError(
                f"fingerprint {fp.uid!r} has {fp.m} samples, exceeding the "
                f"per-slot capacity {self.m_max}"
            )
        if self.size == self.capacity:
            self.grow()
        slot = self.size
        self.data[slot, : fp.m] = fp.data
        self.mask[slot, : fp.m] = True
        self.lengths[slot] = fp.m
        self.counts[slot] = fp.count
        return self.commit(fp)

    def commit(self, fp: Fingerprint) -> int:
        """Make the next slot live as ``fp``; returns the slot id.

        Its row, length, count and mask must already hold ``fp``.
        """
        slot = self.size
        self.alive[slot] = True
        self.fps[slot] = fp
        self.size += 1
        return slot

    def retire(self, slot: int) -> None:
        """Mark a slot dead (its fingerprint was merged away)."""
        if not self.alive[slot]:
            raise ValueError(f"slot {slot} is not alive")
        self.alive[slot] = False

    def probe(self, slot: int) -> np.ndarray:
        """The trimmed ``(m, 6)`` sample array of a slot."""
        return self.data[slot, : self.lengths[slot]]

    def view(self) -> "PaddedFingerprints":
        """A packed view of the first ``size`` slots (shared memory)."""
        packed = PaddedFingerprints.__new__(PaddedFingerprints)
        packed.data = self.data[: self.size]
        packed.mask = self.mask[: self.size]
        packed.lengths = self.lengths[: self.size]
        packed.counts = self.counts[: self.size]
        packed.uids = [fp.uid if fp is not None else "" for fp in self.fps[: self.size]]
        return packed

    def __len__(self) -> int:
        return self.size


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
#: A backend's dispatch counters, in :meth:`StretchBackend.dispatch_counters`
#: order.  Each is also the name of the ``GloveStats``, ``WindowStats``
#: and ``StreamStats`` field it feeds, and ``engine.<name without n_>``
#: is its metric.
DISPATCH_COUNTERS = (
    "n_boundary_crossings",
    "n_probe_dispatches",
    "n_batched_probes",
    "n_bound_pruned",
    "n_lb1_evaluations",
    "n_exact_memo_hits",
    "n_lb1_memo_hits",
)


class StretchBackend(abc.ABC):
    """Executes bulk Eq. 10 evaluations against a packed store.

    Implementations must be *value-transparent*: every (probe, target)
    pair goes through the same floating-point kernel, so any two
    backends return byte-identical arrays for the same inputs.

    The bounded pair (:meth:`bounded_many_vs_all` /
    :meth:`bounded_many_vs_some`) is the only contract between the GLOVE
    loop and a backend (DESIGN.md D13); :meth:`one_vs_all` and
    :meth:`pairwise_matrix` serve k-gap matrices and exact references.
    """

    name: str = "?"

    def __init__(self, compute: ComputeConfig, stretch: StretchConfig):
        self.compute = compute
        self.stretch = stretch
        #: Python→kernel transitions: one per kernel call made from
        #: Python (a batched native call moving P probes, or the native
        #: greedy loop with all its sweeps, still counts one).
        self.n_boundary_crossings = 0
        #: Probe rows dispatched, across all entry points.
        self.n_probe_dispatches = 0
        #: Probe rows that went through a *batched* native multi-probe
        #: entry; zero on the NumPy tier, whose walk enters the chunked
        #: kernel once per probe and round.
        self.n_batched_probes = 0
        #: (probe, target) pairs whose exact evaluation the bounded
        #: entries skipped because a lower bound ruled them out.
        self.n_bound_pruned = 0
        #: (probe, target) pairs of the bounded entries that reached the
        #: level-1 bound: each then ran the exact kernel or was pruned
        #: by level 1.
        self.n_lb1_evaluations = 0
        #: Exact efforts and level-1 bounds of those pairs that the
        #: engine's pair memo served instead of the kernel (DESIGN.md
        #: D13, "The pair memo").
        self.n_exact_memo_hits = 0
        self.n_lb1_memo_hits = 0

    def dispatch_counters(self) -> Tuple[int, ...]:
        """The :data:`DISPATCH_COUNTERS`, in order."""
        return tuple(getattr(self, name) for name in DISPATCH_COUNTERS)

    def new_memo(self):
        """A fresh pair memo for an engine on this backend, or ``None``.

        The engine binds it through its Resident, and this backend's
        bounded pair reads it there (DESIGN.md D13, "The pair memo").
        """
        return None

    def _args(self) -> Tuple[float, float, float, float]:
        """The stretch configuration as the kernels and memos take it."""
        cfg = self.stretch
        return cfg.w_sigma, cfg.w_tau, cfg.phi_max_sigma_m, cfg.phi_max_tau_min

    @abc.abstractmethod
    def one_vs_all(
        self,
        probe_data: np.ndarray,
        probe_count: int,
        packed,
        targets: np.ndarray,
    ) -> np.ndarray:
        """Eq. 10 efforts from one probe to the given target slots."""

    @abc.abstractmethod
    def pairwise_matrix(self, packed) -> np.ndarray:
        """Full symmetric ``Delta`` matrix with ``+inf`` diagonal."""

    @abc.abstractmethod
    def bounded_many_vs_all(
        self, probe_slots, store, bounds, targets, thresholds
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bounded argmin per probe slot over one shared target set.

        ``store`` holds the slots; ``bounds`` is the engine's
        :class:`~repro.core.kernels.Resident`, whose ``hull``,
        ``bucket_hull`` and ``bucket_occ`` are the bound summaries and
        whose ``address`` the native entries read them by.  Returns
        ``(best, best_idx, pruned)``: the lowest-id minimum of the
        probe's exact efforts when it is strictly below
        ``thresholds[p]``, ``(thresholds[p], -1)`` otherwise, and the
        number of pairs a bound pruned.  A probe skips its own slot
        without counting it as pruned.
        """

    @abc.abstractmethod
    def bounded_many_vs_some(
        self, probe_slots, store, bounds, targets_list, thresholds,
        reverse_list, best_vals,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Bounded ragged rows: probe ``p`` against ``targets_list[p]``.

        Returns ``(rows, pruned)``.  ``rows[p]`` holds the exact effort
        at every evaluated position and ``+inf`` where a bound pruned
        the pair.  A pair is pruned only when its bound exceeds the
        probe's running best (seeded from ``thresholds[p]``) and, for
        ``reverse_list[p]``-flagged targets, is at least the target's
        ``best_vals`` entry, so reverse propagation sees every pair
        that could update it.
        """


#: Candidates of the NumPy bounded walk's first exact round; each later
#: round doubles them, up to :data:`_SCAN_BATCH` (4, 8, 16, 32, 32, ...).
_FIRST_ROUND = 4
_SCAN_BATCH = 32

#: The two kinds of :class:`WalkMemo` entry, as the native memo numbers them.
_EXACT, _LEVEL1 = 0, 1


class WalkMemo:
    """The NumPy walk's pair memo (DESIGN.md D13, "The pair memo").

    The dict-backed counterpart of :class:`~repro.core.kernels.PairMemo`,
    with its keys, budget and lifetime: exact efforts keyed by the
    unordered slot pair, level-1 bounds by the ordered one (both as
    ``a << 32 | b``), at most ``per_slot`` entries of each kind per slot
    of store capacity, then no more inserts.  Its values belong to the
    stretch configuration ``stretch_args``.  It has no native table
    (``address`` is ``None``), so the native sweeps never read it.
    """

    address = None

    def __init__(self, stretch_args, per_slot: int = kernels.MEMO_PER_SLOT):
        self.stretch_args, self.per_slot = tuple(stretch_args), per_slot
        self.tables: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})

    def entries(self) -> Tuple[int, int]:
        """``(exact, level_1)``: the entries held of each kind."""
        return len(self.tables[_EXACT]), len(self.tables[_LEVEL1])

    def recall(self, kind: int, keys: List[int]) -> np.ndarray:
        """The values held under ``keys``, NaN where there is none."""
        table = self.tables[kind]
        return np.fromiter(map(table.get, keys, repeat(np.nan)), np.float64, len(keys))

    def record(self, kind: int, keys: List[int], vals: np.ndarray, cap: int) -> None:
        """Hold ``vals`` under ``keys`` while the table is below its
        budget for a store of ``cap`` slots."""
        table = self.tables[kind]
        room = self.per_slot * cap - len(table)
        if room > 0:
            table.update(zip(keys[:room], vals[:room].tolist()))


class NumpyBackend(StretchBackend):
    """Single-process NumPy backend (the reference tier)."""

    name = "numpy"

    def new_memo(self) -> WalkMemo:
        return WalkMemo(self._args())

    def one_vs_all(self, probe_data, probe_count, packed, targets):
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += 1
        return one_vs_all(
            probe_data,
            probe_count,
            packed,
            self.stretch,
            indices=targets,
            chunk=self.compute.chunk,
        )

    def many_vs_some(self, probes, probe_counts, packed, targets_list):
        """Ragged rows: entry ``p`` is :meth:`one_vs_all` of probe ``p``
        against ``targets_list[p]``, bitwise; one crossing per probe."""
        self.n_boundary_crossings += len(probes)
        self.n_probe_dispatches += len(probes)
        return many_vs_some(
            probes, probe_counts, packed, targets_list,
            self.stretch, chunk=self.compute.chunk,
        )

    def bounded_many_vs_all(self, probe_slots, store, bounds, targets, thresholds):
        """The row walk without reverse targets, reduced to an argmin."""
        probe_slots = np.asarray(probe_slots, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        t_lists = [targets[targets != a] for a in probe_slots]
        # No target is reverse-flagged, so no cached best is ever read.
        rows, pruned = self.bounded_many_vs_some(
            probe_slots, store, bounds, t_lists, thresholds,
            [np.zeros(t.size, dtype=bool) for t in t_lists], np.empty(0),
        )
        best = np.array(thresholds, dtype=np.float64)
        best_idx = np.full(probe_slots.size, -1, dtype=np.int64)
        for p, (row, tgts) in enumerate(zip(rows, t_lists)):
            vmin = row.min(initial=np.inf)
            if vmin < best[p]:
                best[p], best_idx[p] = vmin, tgts[row == vmin].min()
        return best, best_idx, pruned

    def bounded_many_vs_some(
        self, probe_slots, store, bounds, targets_list, thresholds,
        reverse_list, best_vals,
    ):
        """The vectorized bounded walk (DESIGN.md D13).

        Each probe visits its targets in stable level-0 bound order, in
        rounds of 4, 8, 16 and then :data:`_SCAN_BATCH` candidates.  Per
        round it keeps the candidates whose level-0, then level-1 bound
        could still beat its running best (or a reverse target's cached
        best); while that best is ``+inf`` no bound can prune, so the
        level-1 bounds are skipped.  A probe's sample columns are built
        once per walk, at its first level-1 bound.  Exact efforts and level-1 bounds
        the engine's :class:`WalkMemo` holds are recalled, and all
        probes' other survivors go to one :meth:`many_vs_some` dispatch.
        The running best tightens per round rather than per candidate,
        so the evaluated set is a superset of the native sweep's with
        the same values.
        """
        probe_slots = np.asarray(probe_slots, dtype=np.int64)
        cfg = self.stretch
        memo = bounds.memo
        if not (isinstance(memo, WalkMemo) and memo.stretch_args == self._args()):
            memo = None
        t_lists = [np.asarray(t, dtype=np.int64) for t in targets_list]
        rows = [np.full(t.size, np.inf) for t in t_lists]
        best = np.array(thresholds, dtype=np.float64)
        pruned = np.array([t.size for t in t_lists], dtype=np.int64)
        walks, cols = [], {}
        for p, (a, tgts, rev) in enumerate(zip(probe_slots, t_lists, reverse_list)):
            if tgts.size == 0:
                continue
            lb0 = hull_lower_bounds(bounds.hull, a, tgts, cfg)
            # A pair may also run to update a reverse target's cached
            # best: ``lb < cap`` folds that test into one comparison.
            rev = np.asarray(rev, dtype=bool)
            cap = np.full(tgts.size, -np.inf)
            cap[rev] = best_vals[tgts[rev]]
            walks.append((p, a, tgts, lb0, np.argsort(lb0, kind="stable"), cap))
        pos, size = 0, _FIRST_ROUND
        while walks:
            live, batch = [], []
            for walk in walks:
                p, a, tgts, lb0, order, cap = walk
                rest = order[pos:]
                if rest.size == 0:
                    continue
                if lb0[rest[0]] > best[p] and not (lb0[rest] < cap[rest]).any():
                    continue
                live.append(walk)
                sub = rest[:size]
                sub = sub[(lb0[sub] <= best[p]) | (lb0[sub] < cap[sub])]
                if sub.size == 0:
                    continue
                self.n_lb1_evaluations += sub.size
                if best[p] < np.inf:
                    if p not in cols:
                        cols[p] = sample_columns(store.data[a, : store.lengths[a]])
                    lb1 = self._level1(memo, store, bounds, a, tgts[sub], cols[p])
                    sub = sub[(lb1 <= best[p]) | (lb1 < cap[sub])]
                pruned[p] -= sub.size
                keys = None
                if memo is not None and sub.size:
                    sub, keys, recalled = self._recall_exact(memo, a, tgts[sub], sub, rows[p])
                    best[p] = min(best[p], recalled)
                if sub.size:
                    batch.append((p, a, tgts, sub, keys))
            if batch:
                vals = self.many_vs_some(
                    [store.data[a, : store.lengths[a]] for _, a, _, _, _ in batch],
                    [int(store.counts[a]) for _, a, _, _, _ in batch],
                    store, [tgts[sub] for _, _, tgts, sub, _ in batch],
                )
                for (p, _, _, sub, keys), v in zip(batch, vals):
                    rows[p][sub] = v
                    best[p] = min(best[p], v.min())
                    if keys is not None:
                        memo.record(_EXACT, keys, v, bounds.cap)
            walks = live
            pos += size
            size = min(2 * size, _SCAN_BATCH)
        self.n_bound_pruned += int(pruned.sum())
        return rows, pruned

    def _level1(self, memo, store, bounds, a, t, cols) -> np.ndarray:
        """Level-1 bounds of probe ``a`` (sample columns ``cols``) against
        targets ``t``, recalled from the memo under ordered keys or
        computed and recorded."""
        if memo is None:
            return bucket_lower_bounds(
                store, bounds.bucket_hull, bounds.bucket_occ, a, t, self.stretch, cols
            )
        keys = ((a << 32) | t).tolist()
        lb1 = memo.recall(_LEVEL1, keys)
        miss = np.flatnonzero(np.isnan(lb1))
        self.n_lb1_memo_hits += t.size - miss.size
        if miss.size:
            lb1[miss] = vals = bucket_lower_bounds(
                store, bounds.bucket_hull, bounds.bucket_occ, a, t[miss], self.stretch, cols
            )
            memo.record(_LEVEL1, [keys[i] for i in miss.tolist()], vals, bounds.cap)
        return lb1

    def _recall_exact(self, memo, a, t, sub, row):
        """Fill ``row`` at the positions ``sub`` (targets ``t``) whose
        exact effort the memo holds under unordered keys.  Returns the
        other positions and their keys, for the kernel to run, and the
        least value recalled (``+inf`` for none)."""
        keys = np.where(t < a, (t << 32) | a, (a << 32) | t).tolist()
        v = memo.recall(_EXACT, keys)
        miss = np.isnan(v)
        n_hit = sub.size - int(np.count_nonzero(miss))
        if n_hit == 0:
            return sub, keys, np.inf
        self.n_exact_memo_hits += n_hit
        hit = ~miss
        row[sub[hit]] = v[hit]
        keys = [k for k, m in zip(keys, miss.tolist()) if m]
        return sub[miss], keys, v[hit].min()

    def pairwise_matrix(self, packed):
        n = len(packed)
        mat = np.full((n, n), np.inf, dtype=np.float64)
        for i in range(n - 1):
            targets = np.arange(i + 1, n)
            vals = self.one_vs_all(
                packed.data[i, : packed.lengths[i]], int(packed.counts[i]), packed, targets
            )
            mat[i, i + 1 :] = vals
            mat[i + 1 :, i] = vals
        return mat


class CompiledBackend(StretchBackend):
    """Compiled kernel tier over the same padded tensor layout.

    Wraps the accelerated :mod:`repro.core.kernels` binding — a
    shared library built with the system C compiler (the ``cc`` tier,
    see :mod:`repro.core._ckernel`).  Byte-identical to the NumPy
    reference by construction — the scalar kernel replicates the
    NumPy kernel's operation order including NumPy's pairwise
    summation (DESIGN.md D9) — so selecting it changes wall time only,
    never a single output bit.
    """

    name = "compiled"

    def __init__(self, compute: ComputeConfig, stretch: StretchConfig):
        super().__init__(compute, stretch)
        if not kernels.COMPILED_AVAILABLE:
            raise RuntimeError(
                "backend 'compiled' has no accelerated binding "
                f"({kernels.FALLBACK_REASON}); select the 'numpy' / 'auto' "
                "backend instead"
            )

    def new_memo(self) -> kernels.PairMemo:
        return kernels.PairMemo(self._args())

    def _count(self, pruned, lb1, hits) -> None:
        """Add one native sweep's pruned, level-1 and memo-hit counts."""
        # Summed as lists: a NumPy reduce costs ~1.5 µs a call on these
        # few-probe arrays, and the stream runs thousands of calls.
        self.n_bound_pruned += sum(pruned.tolist())
        self.n_lb1_evaluations += sum(lb1.tolist())
        exact_hits, lb1_hits = hits.tolist()
        self.n_exact_memo_hits += exact_hits
        self.n_lb1_memo_hits += lb1_hits

    def greedy_merge(
        self, bounds, size, k, pending, best_val, best_idx, reshape, summarize
    ) -> Tuple[np.ndarray, int, int]:
        """One engine's whole greedy loop as one native call.

        ``kernels.greedy_merge`` runs the loop's sweeps and merges on the
        store and summaries of the Resident ``bounds``, updating
        ``pending``, ``best_val`` and ``best_idx`` in place.  Returns the
        ``(i, j, dst)`` merge log and the ``(probe, target)`` pairs its
        searches covered and a bound pruned; the call counts one
        crossing, and its sweeps' probes, prunes, level-1 pairs and memo
        hits count as the bounded pair's would.
        """
        self.n_boundary_crossings += 1
        log, counts = kernels.greedy_merge(
            bounds, size, k, pending, best_val, best_idx, reshape, ATOL, summarize,
            *self._args(),
        )
        pairs, pruned, lb1, exact_hits, lb1_hits, probes = counts.tolist()
        self.n_probe_dispatches += probes
        self.n_batched_probes += probes
        self.n_bound_pruned += pruned
        self.n_lb1_evaluations += lb1
        self.n_exact_memo_hits += exact_hits
        self.n_lb1_memo_hits += lb1_hits
        return log, pairs, pruned

    def one_vs_all(self, probe_data, probe_count, packed, targets):
        targets = np.asarray(targets, dtype=np.int64)
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += 1
        return kernels.one_vs_all_arrays(
            np.ascontiguousarray(probe_data), float(probe_count),
            packed.data, packed.lengths, packed.counts, targets, *self._args(),
        )

    def pairwise_matrix(self, packed):
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += len(packed)
        return kernels.pairwise_matrix_arrays(
            packed.data, packed.lengths, packed.counts, *self._args()
        )

    def bounded_many_vs_all(self, probe_slots, store, bounds, targets, thresholds):
        """Native argmin sweep: bounds, sort and walk in one call.

        The running best tightens per candidate (DESIGN.md D13).
        """
        probe_slots = np.ascontiguousarray(probe_slots, dtype=np.int64)
        P = probe_slots.shape[0]
        if P == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += P
        self.n_batched_probes += P
        best, best_idx, pruned, lb1, hits = kernels.bounded_many_vs_all_arrays(
            bounds, probe_slots, targets, thresholds, *self._args()
        )
        self._count(pruned, lb1, hits)
        return best, best_idx, pruned

    def bounded_many_vs_some(
        self, probe_slots, store, bounds, targets_list, thresholds,
        reverse_list, best_vals,
    ):
        """Native ragged row sweep over the CSR-flattened target lists."""
        probe_slots = np.ascontiguousarray(probe_slots, dtype=np.int64)
        P = probe_slots.shape[0]
        pruned = np.zeros(P, dtype=np.int64)
        if P == 0:
            return [], pruned
        t_arrays = [np.asarray(t, dtype=np.int64) for t in targets_list]
        offsets = np.zeros(P + 1, dtype=np.int64)
        np.cumsum([t.size for t in t_arrays], out=offsets[1:])
        flat_out = np.empty(int(offsets[-1]), dtype=np.float64)
        if flat_out.size:
            self.n_boundary_crossings += 1
            flat_out, pruned, lb1, hits = kernels.bounded_many_vs_some_arrays(
                bounds, probe_slots, np.concatenate(t_arrays), offsets, thresholds,
                np.concatenate([np.asarray(r, dtype=bool) for r in reverse_list]),
                best_vals, *self._args(),
            )
            self._count(pruned, lb1, hits)
        self.n_probe_dispatches += P
        self.n_batched_probes += P
        return [flat_out[offsets[p] : offsets[p + 1]] for p in range(P)], pruned


def auto_backend(compute: ComputeConfig, stretch: StretchConfig) -> StretchBackend:
    """The ``auto`` tier pick.

    The compiled tier when the system-cc binding is bound, the NumPy
    reference otherwise.  Both are byte-identical (DESIGN.md D9), so the
    pick changes wall time only.
    """
    if kernels.COMPILED_AVAILABLE:
        return CompiledBackend(compute, stretch)
    return NumpyBackend(compute, stretch)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
BackendFactory = Callable[[ComputeConfig, StretchConfig], StretchBackend]

_BACKENDS: Dict[str, BackendFactory] = {
    "numpy": NumpyBackend,
    "compiled": CompiledBackend,
    "auto": auto_backend,
}


def available_backends() -> List[str]:
    """Names of the registered compute backends."""
    return sorted(_BACKENDS)


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Register a compute backend under ``name``.

    ``factory(compute, stretch)`` must return a :class:`StretchBackend`.
    This is the extension point for future tiers (sharded, GPU): a
    registered backend is selectable by name through
    :class:`~repro.core.config.ComputeConfig` everywhere — CLI,
    experiment runner, benchmarks.
    """
    if not overwrite and name in _BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


# Algorithm-level drivers: a backend may take over whole glove() runs
# (the sharded tier partitions the population before any kernel runs,
# which cannot be expressed at the one_vs_all/pairwise_matrix level).
_GLOVE_DRIVERS: Dict[str, Callable] = {}


def register_glove_driver(name: str, driver: Callable, overwrite: bool = False) -> None:
    """Route ``glove()`` runs of backend ``name`` to an algorithm driver.

    ``driver(dataset, config, compute)`` must return a
    :class:`repro.core.glove.GloveResult`.  Kernel-level calls (k-gap
    matrix builds, one-vs-all rows) still go through the backend
    registered under the same name via :func:`register_backend`.
    """
    if not overwrite and name in _GLOVE_DRIVERS:
        raise ValueError(f"glove driver {name!r} is already registered")
    _GLOVE_DRIVERS[name] = driver


def get_glove_driver(name: str) -> Optional[Callable]:
    """The glove driver registered for a backend name, if any."""
    return _GLOVE_DRIVERS.get(name)


def create_backend(
    compute: ComputeConfig, stretch: StretchConfig = StretchConfig()
) -> StretchBackend:
    """Instantiate the backend selected by ``compute.backend``."""
    try:
        factory = _BACKENDS[compute.backend]
    except KeyError:
        raise ValueError(
            f"unknown compute backend {compute.backend!r}; "
            f"registered: {', '.join(available_backends())}"
        ) from None
    return factory(compute, stretch)


def compute_pairwise_matrix(
    fingerprints: Sequence[Fingerprint],
    config: StretchConfig = StretchConfig(),
    compute: Optional[ComputeConfig] = None,
) -> np.ndarray:
    """Full pairwise ``Delta`` matrix through the selected backend.

    The backend-aware counterpart of
    :func:`repro.core.pairwise.pairwise_matrix`; values are
    byte-identical across backends.
    """
    compute = compute if compute is not None else get_default_compute()
    packed = PaddedFingerprints(list(fingerprints))
    return create_backend(compute, config).pairwise_matrix(packed)


# ----------------------------------------------------------------------
# The engine: store + backend + bound summaries
# ----------------------------------------------------------------------
#: A neutral hull: every interval spans the whole line, so every gap —
#: and with it both bound levels — is 0 and no pair is ever pruned.
_NEUTRAL_HULL = np.array([-np.inf, np.inf] * 3)


class StretchEngine:
    """Stretch-compute subsystem driving one GLOVE (or k-gap) workload.

    Owns a :class:`SlotStore`, a backend instance, and per-slot
    bounding-box summaries behind two levels of lower bounds on the
    fingerprint stretch effort (Eq. 10), which the backends' bounded
    pair evaluates (:func:`repro.core.pairwise.hull_lower_bounds`,
    :func:`~repro.core.pairwise.bucket_lower_bounds` and their C
    counterparts in :mod:`repro.core._ckernel`):

    * **level 0**: the spatiotemporal gap between two slots' global
      bounding boxes, O(1) per pair;
    * **level 1**: the probe's samples against the target's
      per-time-bucket spatial hulls (and vice versa, following Eq. 10's
      longer-side rule), O(m·B) per pair with ``B`` a small constant.

    Both bounds never exceed the exact effort (see DESIGN.md for the
    proof sketch), so the bounded pair may skip the exact kernel for
    any candidate whose bound is already worse than its current best.
    With ``pruning`` off every summary is neutral: both bounds are 0
    and the same entries evaluate every pair.

    The store's arrays and the summaries are the engine's *resident*
    arrays: a :class:`~repro.core.kernels.Resident` validates them at
    construction and after every growth, and the native entries read
    them by its address (DESIGN.md D9, "Binding by address").  The engine
    also owns the pair memo its backend makes
    (:meth:`StretchBackend.new_memo`: a
    :class:`~repro.core.kernels.PairMemo` on the compiled tier, a
    :class:`WalkMemo` on the NumPy walk), bound through each Resident
    it builds, so the bounded pair computes a slot pair's exact effort
    or level-1 bound once and recalls it after (DESIGN.md D13, "The
    pair memo"); :meth:`close` releases it.
    """

    def __init__(
        self,
        fingerprints: Sequence[Fingerprint],
        stretch: StretchConfig = StretchConfig(),
        compute: Optional[ComputeConfig] = None,
    ):
        self.compute = compute if compute is not None else get_default_compute()
        self.stretch = stretch
        self.store = SlotStore(fingerprints)
        self.backend = create_backend(self.compute, stretch)
        self.pruning = self.compute.pruning
        self._memo = self.backend.new_memo()
        self._init_bounds()

    # -- slot lifecycle -------------------------------------------------
    def merge_step(self, i: int, j: int, reshape: bool = True) -> int:
        """Merge slots ``i`` and ``j`` into the next slot; returns its id.

        One merge of Alg. 1: the two-stage merge of Eq. 12-13 (the
        longer slot leads, ``i`` on equal lengths), the reshape when
        ``reshape``, the product's row, length, count and mask, and its
        bound summaries.  On a bound kernel tier that is one native call
        (``kernels.merge_step``) whose bytes are those of
        :func:`~repro.core.merge.merge_fingerprints` followed by
        :func:`~repro.core.reshape.reshape_fingerprint` (DESIGN.md D9,
        "The merge step"); without one it is that chain.  The product's
        :class:`Fingerprint` is built once; the parents stay alive until
        :meth:`retire`.
        """
        store = self.store
        dst = self._next_slot()
        if not kernels.COMPILED_AVAILABLE:
            fp = merge_fingerprints(store.fps[i], store.fps[j], self.stretch)
            if reshape:
                fp = reshape_fingerprint(fp)
            store.append(fp)
            if self.pruning:
                self._summarize(dst)
            return dst
        cfg = self.stretch
        kernels.merge_step(
            self._resident, i, j, dst, reshape, ATOL, self.pruning,
            cfg.w_sigma, cfg.w_tau, cfg.phi_max_sigma_m, cfg.phi_max_tau_min,
        )
        return self.commit_product(i, j)

    def commit_product(self, i: int, j: int) -> int:
        """Make the next slot live as the product of slots ``i`` and ``j``.

        A native merge has written its row, length, count and mask; its
        :class:`Fingerprint` is ``"<uid of i>+<uid of j>"`` with the
        summed count and the joined members.  Returns the slot id.
        """
        store = self.store
        a, b = store.fps[i], store.fps[j]
        dst = store.size
        return store.commit(
            Fingerprint(
                f"{a.uid}+{b.uid}", store.data[dst, : store.lengths[dst]],
                count=a.count + b.count, members=a.members + b.members,
            )
        )

    def _next_slot(self) -> int:
        """The slot the next product fills, making room for it first."""
        self.reserve(1)
        return self.store.size

    def reserve(self, n: int) -> None:
        """Make room for ``n`` more slots, growing the store and the
        summaries (and rebinding them) when it lacks them."""
        store = self.store
        if store.capacity - store.size >= n:
            return
        while store.capacity - store.size < n:
            store.grow()
        self._grow_bounds()

    def greedy_merge(self, k: int, pending, best_val, best_idx, reshape: bool):
        """The greedy loop of Alg. 1 in one native call (DESIGN.md D9,
        "The loop"): :meth:`CompiledBackend.greedy_merge` on this engine's
        resident arrays, its products filling the slots from the next one
        on, for which :meth:`reserve` must have made room."""
        return self.backend.greedy_merge(
            self._resident, self.store.size, k, pending, best_val, best_idx,
            reshape, self.pruning,
        )

    def retire(self, slot: int) -> None:
        """Retire a slot whose fingerprint was merged away."""
        self.store.retire(slot)

    # -- exact evaluation ----------------------------------------------
    def row(self, slot: int, targets: np.ndarray) -> np.ndarray:
        """Exact Eq. 10 efforts from a live slot to the target slots."""
        targets = np.asarray(targets, dtype=np.int64)
        return self.backend.one_vs_all(
            self.store.probe(slot), int(self.store.counts[slot]), self.store, targets
        )

    def pairwise_matrix(self) -> np.ndarray:
        """Full matrix over the currently stored slots."""
        return self.backend.pairwise_matrix(self.store.view())

    # -- bounded dispatch (DESIGN.md D13) --------------------------------
    def _thresholds(self, n: int, thresholds) -> np.ndarray:
        if thresholds is None:
            return np.full(n, np.inf, dtype=np.float64)
        return np.ascontiguousarray(thresholds, dtype=np.float64)

    def bounded_argmin(
        self, slots: Sequence[int], targets: np.ndarray, thresholds=None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bounded ``(min, argmin, pruned)`` per probe slot over ``targets``.

        Self-pairs are skipped; a probe whose exact minimum is not
        strictly below its threshold reports ``(threshold, -1)``.
        Without thresholds (``+inf``) the result is bitwise the
        lowest-index argmin of the exact :meth:`row` — the running best
        only prunes pairs that cannot win (DESIGN.md D13).
        """
        slots_arr = np.ascontiguousarray(slots, dtype=np.int64)
        return self.backend.bounded_many_vs_all(
            slots_arr, self.store, self._resident,
            targets, self._thresholds(slots_arr.size, thresholds),
        )

    def bounded_rows_some(
        self,
        slots: Sequence[int],
        targets_list: Sequence[np.ndarray],
        reverse_list: Sequence[np.ndarray],
        best_vals: np.ndarray,
        thresholds=None,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Bounded ragged rows with ``+inf`` sentinels at pruned positions.

        Entry ``p`` equals :meth:`row` of ``slots[p]`` at every
        evaluated position; a pair is pruned only when its bound exceeds
        the probe's running best *and* — for ``reverse``-flagged
        targets — is at least the target's cached best in
        ``best_vals``, so reverse propagation sees every pair that
        could update it.
        """
        slots_arr = np.ascontiguousarray(slots, dtype=np.int64)
        return self.backend.bounded_many_vs_some(
            slots_arr, self.store, self._resident, targets_list,
            self._thresholds(slots_arr.size, thresholds), reverse_list, best_vals,
        )

    # -- bound summaries -------------------------------------------------
    def _init_bounds(self) -> None:
        store = self.store
        n = store.size
        cap = store.capacity
        if not self.pruning:
            self._hull = np.repeat(_NEUTRAL_HULL[:, None], cap, axis=1)
            self._bucket_hull = np.tile(_NEUTRAL_HULL, (cap, 1, 1))
            self._bucket_occ = np.ones((cap, 1), dtype=bool)
            self._bucket_edges = _NEUTRAL_HULL[:2].copy()
            self._bind()
            return
        live = store.mask[:n]
        t = store.data[:n, :, T]
        t_lo = float(t[live].min())
        t_hi = float((t + store.data[:n, :, DT])[live].max())
        span = max(t_hi - t_lo, 1e-9)
        n_buckets = int(np.ceil(span / self.compute.lb_bucket_minutes))
        n_buckets = int(np.clip(n_buckets, 1, self.compute.lb_max_buckets))
        self._bucket_edges = np.linspace(t_lo, t_hi, n_buckets + 1)
        # Component-major (struct-of-arrays) layout: row c holds one
        # hull component for every slot, so the level-0 bound sweep
        # gathers six contiguous vectors instead of strided columns.
        self._hull = np.zeros((6, cap), dtype=np.float64)
        self._bucket_hull = np.zeros((cap, n_buckets, 6), dtype=np.float64)
        self._bucket_occ = np.zeros((cap, n_buckets), dtype=bool)
        self._bind()
        self._summarize_slots(np.arange(n))

    def _bind(self) -> None:
        """Validate the resident arrays and take their addresses (D9)."""
        self._resident = kernels.Resident(
            self.store, self._hull, self._bucket_hull, self._bucket_occ,
            self._bucket_edges, self._memo,
        )

    def _grow_bounds(self) -> None:
        cap = self.store.capacity
        # The SoA hull grows along columns (slots are axis 1); the
        # shared grow_array helper only grows rows.  New slots start
        # neutral until summarized.
        hull = np.repeat(_NEUTRAL_HULL[:, None], cap, axis=1)
        hull[:, : self._hull.shape[1]] = self._hull
        self._hull = hull
        self._bucket_hull = grow_array(self._bucket_hull, cap, _NEUTRAL_HULL)
        self._bucket_occ = grow_array(self._bucket_occ, cap, True)
        self._bind()

    def _summarize_slots(self, slots) -> None:
        """Summarize slots: one native call on a bound kernel tier
        (``kernels.summarize_arrays``, bitwise :meth:`_summarize`),
        the NumPy body per slot otherwise."""
        if kernels.COMPILED_AVAILABLE:
            kernels.summarize_arrays(self._resident, slots)
        else:
            for slot in slots:
                self._summarize(slot)

    def _summarize(self, slot: int) -> None:
        """Compute the hull and per-bucket hulls of a slot (NumPy body)."""
        d = self.store.probe(slot)
        x_lo, x_hi = d[:, X], d[:, X] + d[:, DX]
        y_lo, y_hi = d[:, Y], d[:, Y] + d[:, DY]
        t_lo, t_hi = d[:, T], d[:, T] + d[:, DT]
        self._hull[:, slot] = (
            x_lo.min(), x_hi.max(), y_lo.min(), y_hi.max(), t_lo.min(), t_hi.max()
        )
        edges = self._bucket_edges
        # A sample belongs to every bucket its time interval touches
        # (closed bounds, so boundary samples are never orphaned).
        overlap = (t_lo[:, None] <= edges[1:][None, :]) & (t_hi[:, None] >= edges[:-1][None, :])
        occ = overlap.any(axis=0)
        inf = np.inf

        def bucket_min(v):
            return np.where(overlap, v[:, None], inf).min(axis=0)

        bh = self._bucket_hull[slot]
        bh[:, 0] = bucket_min(x_lo)
        bh[:, 1] = -bucket_min(-x_hi)
        bh[:, 2] = bucket_min(y_lo)
        bh[:, 3] = -bucket_min(-y_hi)
        # Clamp occupied time ranges to the bucket: tighter, still valid.
        bh[:, 4] = np.maximum(bucket_min(t_lo), edges[:-1])
        bh[:, 5] = np.minimum(-bucket_min(-t_hi), edges[1:])
        self._bucket_occ[slot] = occ

    # -- resource management -------------------------------------------
    def close(self) -> None:
        """Release the pair memo.

        The engine stays usable, without a memo; a memo a caller still
        reaches through an older Resident lives as long as that one.
        """
        if self._memo is not None:
            self._memo = None
            self._bind()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
