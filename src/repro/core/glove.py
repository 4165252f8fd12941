"""The GLOVE k-anonymization algorithm (paper Alg. 1, Section 6).

GLOVE greedily merges the two not-yet-anonymized fingerprints at
minimum fingerprint stretch effort (Eq. 10) until every fingerprint
hides at least ``k`` subscribers:

1. find, for every fingerprint, its nearest not-yet-anonymized
   neighbour under the stretch effort;
2. repeatedly pick the globally closest pair, merge it through
   specialized generalization (Eq. 12-13 with two-stage matching), and
   re-insert the merged fingerprint;
3. a merged fingerprint reaching ``count >= k`` is final and leaves the
   working set.

The loop of Alg. 1 ends when fewer than two non-anonymized fingerprints
remain.  With unfavourable group-size arithmetic a single non-anonymous
fingerprint can be left over; to honour the paper's "k-anonymity of all
fingerprints by design" guarantee, the leftover is merged into its
nearest *finished* group (documented design decision, see DESIGN.md).

Complexity is O(|M|^2 n-bar^2) as in the paper's Section 6.3.  All bulk
Eq. 10 evaluations run on the pluggable
:class:`repro.core.engine.StretchEngine` (the reproduction's stand-in
for the paper's CUDA offload); instead of materializing a dense
``(2n, 2n)`` stretch matrix, the loop keeps one cached nearest
neighbour per live slot (O(n) state) and asks the engine's bounded
pair, whose bounding-box lower bounds prune exact evaluations that
provably cannot beat a current best.  The pruning is exact: results
are identical, merge for merge, to an exhaustive search (see
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import ComputeConfig, GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import (
    DISPATCH_COUNTERS,
    CompiledBackend,
    StretchEngine,
    get_default_compute,
    get_glove_driver,
    grow_array,
)
from repro.core.fingerprint import Fingerprint
from repro.core.suppression import SuppressionStats, suppress_dataset
from repro.obs import get_metrics


@dataclass
class GloveStats:
    """Bookkeeping of one GLOVE run.

    Attributes
    ----------
    n_input_fingerprints:
        Fingerprints in the input dataset.
    n_output_fingerprints:
        Groups in the anonymized output.
    n_merges:
        Pairwise merge operations performed.
    leftover_merged:
        Whether a final non-anonymous leftover had to be folded into an
        already-finished group.
    shards_used:
        Population partitions the run was split into (1 for the
        unsharded path; the ``sharded`` backend records its effective
        shard count here).
    boundary_repaired:
        Per-shard non-anonymous leftovers that the sharded tier's
        cross-shard boundary-repair pass had to re-merge (0 for
        unsharded runs).
    n_exact_evaluations:
        Exact Eq. 10 fingerprint-pair evaluations executed.
    n_pruned_evaluations:
        Candidate pairs skipped because a lower bound proved they could
        not beat the current best (0 when pruning is disabled).  Every
        search runs through the backend's bounded pair, so this equals
        ``n_bound_pruned``.
    n_boundary_crossings:
        Python→kernel transitions the run's backend performed: one per
        kernel call made from Python (a batched native call moving a
        whole probe batch counts one).  On the compiled tier an
        engine's whole greedy loop is one native call, so an unsharded
        run makes ``1 + leftover_merged``.  The dispatch-efficiency
        denominator: a run that silently falls back to the Python loop
        or to per-probe dispatch shows up here rather than only in wall
        time.
    n_probe_dispatches:
        Probe rows dispatched through the backend, across all entry
        points, the native greedy loop's sweeps included.
        ``n_probe_dispatches / n_boundary_crossings`` is the mean
        probes-per-crossing of the run.
    n_batched_probes:
        Probe rows that went through a batched native multi-probe
        entry; 0 on the NumPy tier, whose walk enters the chunked
        kernel once per probe and round.
    n_bound_pruned:
        (probe, target) pairs whose exact evaluation the backend's
        bounded pair skipped (DESIGN.md D13), as the backend counted
        them; equal to ``n_pruned_evaluations`` on every backend.
    n_lb1_evaluations:
        (probe, target) pairs of the bounded pair that reached the
        level-1 bound (DESIGN.md D13): each ran the exact kernel or was
        pruned by level 1, so the count is the search's exact
        evaluations plus its level-1 prunes.  With pruning off every
        pair the search visits reaches it.
    n_exact_memo_hits, n_lb1_memo_hits:
        Exact efforts and level-1 bounds of those pairs that the
        engine's pair memo served instead of the kernel (DESIGN.md D13,
        "The pair memo"): the exact kernel ran ``n_exact_evaluations -
        n_exact_memo_hits`` times in the bounded pair.
    suppression:
        Sample-suppression statistics (zero counts when disabled).
    """

    n_input_fingerprints: int = 0
    n_output_fingerprints: int = 0
    n_merges: int = 0
    leftover_merged: bool = False
    shards_used: int = 1
    boundary_repaired: int = 0
    n_exact_evaluations: int = 0
    n_pruned_evaluations: int = 0
    n_boundary_crossings: int = 0
    n_probe_dispatches: int = 0
    n_batched_probes: int = 0
    n_bound_pruned: int = 0
    n_lb1_evaluations: int = 0
    n_exact_memo_hits: int = 0
    n_lb1_memo_hits: int = 0
    suppression: Optional[SuppressionStats] = None

    def record_metrics(self, registry) -> None:
        """Accumulate this run's counters into a metrics registry (D12).

        Uses ``inc`` (not absolute writes): one process may run many
        GLOVE invocations (every stream window, every shard), and the
        registry keeps the process-wide totals across them.
        """
        registry.counter("glove.runs").inc()
        registry.counter("glove.merges").inc(self.n_merges)
        registry.counter("glove.exact_evaluations").inc(self.n_exact_evaluations)
        registry.counter("glove.pruned_evaluations").inc(self.n_pruned_evaluations)
        for name in DISPATCH_COUNTERS:
            registry.counter("engine." + name[2:]).inc(getattr(self, name))


@dataclass(frozen=True)
class GloveResult:
    """Anonymized dataset plus run statistics."""

    dataset: FingerprintDataset
    stats: GloveStats
    config: GloveConfig


#: Probe slots per multi-probe block in the triangular initial build.
#: Larger blocks coalesce more dispatches but see staler candidate
#: bests (more non-prunable evaluations); 8 balances the two.
_BUILD_BLOCK = 8


class _NearestNeighbours:
    """Lazy per-slot nearest-neighbour cache over a stretch engine.

    For every pending slot ``r`` it caches ``best_val[r]`` /
    ``best_idx[r]``: the minimum stretch effort to any other pending
    slot and that slot's id (ties broken toward the lowest id, exactly
    like an exhaustive ``argmin``).  The cache is repaired lazily: a
    slot is re-scanned only when its cached neighbour is merged away.
    Every search goes through the engine's bounded pair
    (:meth:`~repro.core.engine.StretchEngine.bounded_argmin` /
    :meth:`~repro.core.engine.StretchEngine.bounded_rows_some`), which
    runs the exact Eq. 10 kernel only where a lower bound does not
    already rule a candidate out (DESIGN.md D13).
    """

    def __init__(self, engine: StretchEngine, stats: GloveStats):
        self.engine = engine
        self.stats = stats
        cap = engine.store.capacity
        self.best_val = np.full(cap, np.inf, dtype=np.float64)
        self.best_idx = np.full(cap, -1, dtype=np.int64)

    def ensure_capacity(self) -> None:
        """Grow the cache arrays alongside the slot store."""
        cap = self.engine.store.capacity
        self.best_val = grow_array(self.best_val, cap, np.inf)
        self.best_idx = grow_array(self.best_idx, cap, -1)

    def drop(self, slot: int) -> None:
        """Forget a retired slot's cached neighbour."""
        self.best_val[slot] = np.inf
        self.best_idx[slot] = -1

    def _count(self, n_pairs: int, pruned: np.ndarray) -> None:
        n_pruned = int(pruned.sum())
        self.stats.n_exact_evaluations += n_pairs - n_pruned
        self.stats.n_pruned_evaluations += n_pruned

    def scan(self, slot: int, candidates: np.ndarray) -> tuple:
        """Nearest candidate of a slot: ``(value, candidate_slot)``.

        ``candidates`` must not contain ``slot``; ties in the effort
        resolve to the lowest slot id.
        """
        cands = np.asarray(candidates, dtype=np.int64)
        if cands.size == 0:
            return np.inf, -1
        best, best_idx, pruned = self.engine.bounded_argmin([slot], cands)
        self._count(cands.size, pruned)
        return float(best[0]), int(best_idx[0])

    def refresh_many(self, slots: np.ndarray, candidates: np.ndarray) -> None:
        """Re-derive several slots' cached neighbours in one batched pass.

        ``candidates`` is the shared pending set; the argmin entry skips
        each probe's own slot, so the set goes down unmasked.
        """
        slots = np.asarray(slots, dtype=np.int64)
        cands = np.asarray(candidates, dtype=np.int64)
        best, best_idx, pruned = self.engine.bounded_argmin(slots, cands)
        self._count(int((cands[None, :] != slots[:, None]).sum()), pruned)
        self.best_val[slots] = best
        self.best_idx[slots] = best_idx

    def build(self, initial: np.ndarray) -> None:
        """Triangular initial build in multi-probe blocks.

        Each slot scans only the slots before it and propagates the
        directed value back, so every unordered pair is evaluated at
        most once — like the seed path's upper-triangle build.  Each
        block of ``_BUILD_BLOCK`` probes is one bounded row dispatch;
        results are bitwise identical to a sequential
        ``insert()``-per-slot build: the block's own results are
        assigned first and its reverse proposals (minimum value, ties
        to the lowest probe slot) resolved afterwards, which reproduces
        the sequential strict-improvement order.  A pruned pair has a
        bound above the probe's running best (it cannot change the
        probe's argmin) and at least the target's cached best (it
        cannot win a proposal, which applies only on strict
        improvement).
        """
        self.ensure_capacity()
        initial = np.asarray(initial, dtype=np.int64)
        engine = self.engine
        for s in range(0, initial.size, _BUILD_BLOCK):
            block = initial[s : s + _BUILD_BLOCK]
            # Probe q (global position s+q) sees exactly its prefix.
            t_lists = [initial[: s + q] for q in range(block.size)]
            rev_lists = [np.ones(t.size, dtype=bool) for t in t_lists]
            rows, pruned = engine.bounded_rows_some(
                block, t_lists, rev_lists, self.best_val
            )
            self._count(sum(t.size for t in t_lists), pruned)
            proposals: dict = {}
            best = np.full(block.size, np.inf)
            best_idx = np.full(block.size, -1, dtype=np.int64)
            for q in range(block.size):
                vals, tgts = rows[q], t_lists[q]
                ev = vals < np.inf
                if not ev.any():
                    continue
                vmin = float(vals.min())
                best[q] = vmin
                best_idx[q] = int(tgts[vals == vmin].min())
                p_slot = int(block[q])
                for t, v in zip(tgts[ev].tolist(), vals[ev].tolist()):
                    cur = proposals.get(t)
                    if cur is None or v < cur[0] or (v == cur[0] and p_slot < cur[1]):
                        proposals[t] = (v, p_slot)
            self.best_val[block] = best
            self.best_idx[block] = best_idx
            for tgt, (val, probe) in proposals.items():
                if val < self.best_val[tgt]:
                    self.best_val[tgt] = val
                    self.best_idx[tgt] = probe

    def insert(self, slot: int, candidates: np.ndarray, reverse: np.ndarray) -> None:
        """Find a fresh slot's neighbour and propagate it into others.

        Combines two searches the dense-matrix formulation did with one
        row: finding the new slot's own nearest candidate, and updating
        every candidate ``r`` whose cached best the new slot strictly
        beats.  ``reverse`` masks which candidates may receive that
        propagation (slots queued for a full refresh hold stale values
        and are excluded).  Ties resolve to the lowest slot id.
        """
        self.ensure_capacity()
        cands = np.asarray(candidates, dtype=np.int64)
        if cands.size == 0:
            self.best_val[slot], self.best_idx[slot] = np.inf, -1
            return
        rows, pruned = self.engine.bounded_rows_some(
            [slot], [cands], [reverse], self.best_val
        )
        vals = rows[0]
        self._count(cands.size, pruned)
        # +inf sentinels at pruned positions lose both comparisons
        # below by construction (bound > running best, and for reverse
        # targets bound >= their cached best).
        upd = reverse & (vals < self.best_val[cands])
        tgt = cands[upd]
        self.best_val[tgt] = vals[upd]
        self.best_idx[tgt] = slot
        vmin = float(vals.min())
        self.best_val[slot], self.best_idx[slot] = vmin, int(cands[vals == vmin].min())


def glove(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    compute: Optional[ComputeConfig] = None,
) -> GloveResult:
    """k-anonymize a fingerprint dataset with GLOVE.

    Parameters
    ----------
    dataset:
        Input movement micro-data; every fingerprint must be non-empty
        and represent a single subscriber (``count == 1``) or an
        already-formed group.
    config:
        Anonymity level, stretch metric, suppression, reshaping.
    compute:
        Compute-substrate selection (backend, chunking, workers,
        pruning); defaults to the process-wide
        :func:`repro.core.engine.get_default_compute`.  Backends with a
        registered glove driver (e.g. ``sharded``) take over the whole
        run; for plain kernel backends the choice never changes
        results, only how fast they arrive.

    Returns
    -------
    :class:`GloveResult` whose dataset contains one fingerprint per
    group, each hiding at least ``config.k`` subscribers.
    """
    compute = compute if compute is not None else get_default_compute()
    driver = get_glove_driver(compute.backend)
    if driver is not None:
        return driver(dataset, config, compute)

    fps = list(dataset)
    k = config.k
    validate_population(fps, k)
    stats = GloveStats(n_input_fingerprints=len(fps))
    with StretchEngine(fps, stretch=config.stretch, compute=compute) as engine:
        out = _anonymize(engine, fps, config, stats, name=f"{dataset.name}-glove-k{k}")
        for name, value in zip(DISPATCH_COUNTERS, engine.backend.dispatch_counters()):
            setattr(stats, name, value)
    return finalize_result(out, stats, config)


def validate_population(fps: List[Fingerprint], k: int) -> None:
    """Reject inputs that cannot be k-anonymized (shared with the sharded tier)."""
    total_users = sum(fp.count for fp in fps)
    if total_users < k:
        raise ValueError(f"dataset hides {total_users} users in total, cannot reach k={k}")
    if any(fp.m == 0 for fp in fps):
        raise ValueError("input contains empty fingerprints; screen the dataset first")


def finalize_result(
    out: FingerprintDataset, stats: GloveStats, config: GloveConfig
) -> GloveResult:
    """Apply output suppression and package a :class:`GloveResult`.

    Every anonymization path funnels through here — batch, sharded and
    per-stream-window — so this is also where a run's counters join the
    process-wide metrics registry (a no-op unless one is installed).
    """
    if config.suppression.enabled:
        out, supp = suppress_dataset(out, config.suppression)
        stats.suppression = supp
    else:
        stats.suppression = SuppressionStats(
            total_samples=out.n_samples, discarded_samples=0, discarded_fingerprints=0
        )
    stats.record_metrics(get_metrics())
    return GloveResult(dataset=out, stats=stats, config=config)


def _anonymize(
    engine: StretchEngine,
    fps: List[Fingerprint],
    config: GloveConfig,
    stats: GloveStats,
    name: str,
) -> FingerprintDataset:
    """Full Alg. 1 on a stretch engine: greedy loop plus leftover fold."""
    finished, leftover, nn = _greedy_merge(engine, fps, config, stats)
    if leftover is not None:
        _fold_leftover(engine, nn, finished, leftover, config, stats)
    out = FingerprintDataset(name=name)
    for slot in finished:
        out.add(engine.store.fps[slot])
    stats.n_output_fingerprints = len(out)
    return out


def _greedy_merge(
    engine: StretchEngine,
    fps: List[Fingerprint],
    config: GloveConfig,
    stats: GloveStats,
) -> tuple:
    """The greedy merge loop of Alg. 1 on top of a stretch engine.

    Runs until fewer than two non-anonymized fingerprints remain and
    returns ``(finished_slots, leftover_slot, nn)``: the slots of the
    groups that reached ``count >= k``, the at-most-one still
    non-anonymous slot (``None`` when the arithmetic worked out), and
    the nearest-neighbour cache for callers that need further scans.
    The sharded tier uses this entry point per shard and handles
    leftovers in its cross-shard boundary-repair pass instead of the
    local fold of :func:`_fold_leftover`.

    On the compiled tier the loop is one native call
    (:func:`_native_greedy_merge`); on any other backend it is
    :func:`_python_greedy_merge`, the native loop's reference.
    """
    # A CompiledBackend subclass may redefine the bounded pair, which
    # the native loop would bypass: only the tier itself takes it.
    if type(engine.backend) is CompiledBackend:
        return _native_greedy_merge(engine, fps, config, stats)
    return _python_greedy_merge(engine, fps, config, stats)


def _native_greedy_merge(
    engine: StretchEngine,
    fps: List[Fingerprint],
    config: GloveConfig,
    stats: GloveStats,
) -> tuple:
    """:func:`_python_greedy_merge` as one native call (DESIGN.md D9,
    "The loop").

    ``kernels.greedy_merge`` runs the build and every iteration in C and
    returns the merge log; this replays it in merge order — each
    product's :class:`Fingerprint` committed, both parents retired —
    and returns what the Python loop returns, its counters included.
    """
    store = engine.store
    k = config.k
    n = len(fps)
    initial = store.counts[:n] < k
    # The loop makes at most one product fewer than it has pending slots.
    engine.reserve(int(initial.sum()) - 1)
    pending = np.zeros(store.capacity, dtype=np.uint8)
    pending[:n] = initial
    finished: List[int] = np.flatnonzero(~initial).tolist()
    nn = _NearestNeighbours(engine, stats)
    log, pairs, pruned = engine.greedy_merge(
        k, pending, nn.best_val, nn.best_idx, config.reshape
    )
    for i, j, slot in log.tolist():
        engine.commit_product(i, j)
        engine.retire(i)
        engine.retire(j)
        if store.counts[slot] >= k:
            finished.append(slot)
    stats.n_merges += len(log)
    stats.n_exact_evaluations += pairs - pruned
    stats.n_pruned_evaluations += pruned
    leftover = np.flatnonzero(pending)
    return finished, (int(leftover[0]) if leftover.size else None), nn


def _python_greedy_merge(
    engine: StretchEngine,
    fps: List[Fingerprint],
    config: GloveConfig,
    stats: GloveStats,
) -> tuple:
    """The greedy loop of :func:`_greedy_merge` in Python: the NumPy
    tier's loop and the reference of the native one."""
    store = engine.store
    k = config.k
    n = len(fps)

    pending = np.zeros(store.capacity, dtype=bool)
    pending[:n] = store.counts[:n] < k
    finished: List[int] = [s for s in range(n) if not pending[s]]
    nn = _NearestNeighbours(engine, stats)

    # Triangular initial build, dispatched in multi-probe blocks (every
    # unordered pair evaluated at most once, bitwise identical to the
    # sequential insert()-per-slot build — see _NearestNeighbours.build).
    nn.build(np.flatnonzero(pending))

    while pending.sum() >= 2:
        live = np.flatnonzero(pending)
        i = int(live[nn.best_val[live].argmin()])
        j = int(nn.best_idx[i])
        slot = engine.merge_step(i, j, config.reshape)
        stats.n_merges += 1

        pending[i] = pending[j] = False
        engine.retire(i)
        engine.retire(j)
        nn.drop(i)
        nn.drop(j)
        # Slots whose cached neighbour just died need a full re-scan;
        # everyone else at most adopts the merge product (below).
        bi = nn.best_idx[live]
        invalidated = live[((bi == i) | (bi == j)) & (live != i) & (live != j)]

        pending = grow_array(pending, store.capacity, False)
        nn.ensure_capacity()
        if store.counts[slot] >= k:
            finished.append(slot)
        else:
            pending[slot] = True
            targets = np.flatnonzero(pending)
            targets = targets[targets != slot]
            reverse = np.ones(targets.size, dtype=bool)
            if invalidated.size:
                reverse = ~np.isin(targets, invalidated)
            nn.insert(slot, targets, reverse)

        if invalidated.size:
            # One candidate scan per iteration (not per invalidated
            # slot), and all refresh walks batched into multi-probe
            # dispatches.
            nn.refresh_many(invalidated, np.flatnonzero(pending))

    leftover = np.flatnonzero(pending)
    return finished, (int(leftover[0]) if leftover.size else None), nn


def _fold_leftover(
    engine: StretchEngine,
    nn: "_NearestNeighbours",
    finished: List[int],
    leftover: int,
    config: GloveConfig,
    stats: GloveStats,
) -> None:
    """Fold a single non-anonymous leftover into the nearest finished
    group so every subscriber ends up in a crowd of >= k (DESIGN.md D2).

    Mutates ``finished`` in place: the absorbing group's slot is
    replaced by the merge product's.
    """
    if not finished:
        raise RuntimeError("no finished group to absorb the leftover fingerprint")
    _, tgt = nn.scan(leftover, np.array(sorted(finished), dtype=np.int64))
    slot = engine.merge_step(leftover, tgt, config.reshape)
    stats.n_merges += 1
    stats.leftover_merged = True
    engine.retire(leftover)
    engine.retire(tgt)
    finished[finished.index(tgt)] = slot
