"""Bulk, vectorized fingerprint stretch-effort kernels.

The paper offloads the O(|M|^2) evaluations of Eq. 10 to a CUDA GPU
(Section 6.3).  This module is the reproduction's equivalent substrate:
fingerprints are packed into a padded ``(N, m_max, 6)`` tensor with a
validity mask, and one-vs-all stretch efforts are computed per probe
over blocks of targets whose valid samples are laid end to end, so
every elementwise step runs over unpadded rows with the samples axis
innermost.  The two lower bounds that let the GLOVE search prune exact
evaluations live here too, as plain functions over the same packed
arrays.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import DEFAULT_CHUNK, StretchConfig
from repro.core.fingerprint import Fingerprint
from repro.core.sample import DT, DX, DY, NCOLS, T, X, Y


class PaddedFingerprints:
    """Fingerprints packed into a padded tensor for bulk kernels.

    Attributes
    ----------
    data:
        ``(N, m_max, 6)`` float64 tensor; rows beyond a fingerprint's
        length are zero-filled and masked out.
    mask:
        ``(N, m_max)`` boolean validity mask.
    lengths:
        ``(N,)`` sample counts per fingerprint.
    counts:
        ``(N,)`` subscribers hidden per fingerprint (Eq. 4 weights).
    """

    def __init__(self, fingerprints: Sequence[Fingerprint]):
        fps = list(fingerprints)
        if not fps:
            raise ValueError("cannot pack an empty fingerprint collection")
        if any(fp.m == 0 for fp in fps):
            raise ValueError("cannot pack fingerprints with zero samples")
        self.uids: List[str] = [fp.uid for fp in fps]
        self.lengths = np.array([fp.m for fp in fps], dtype=np.int64)
        self.counts = np.array([fp.count for fp in fps], dtype=np.int64)
        m_max = int(self.lengths.max())
        n = len(fps)
        self.data = np.zeros((n, m_max, NCOLS), dtype=np.float64)
        self.mask = np.zeros((n, m_max), dtype=bool)
        for i, fp in enumerate(fps):
            self.data[i, : fp.m] = fp.data
            self.mask[i, : fp.m] = True

    def __len__(self) -> int:
        return self.data.shape[0]


#: Cells of one kernel plane: an exact-kernel ``(ma, T)`` buffer or a
#: level-1 fold block holds at most this many values (but a block is at
#: least one target wide), which bounds a call's peak memory whatever the
#: store's longest fingerprint.
_BLOCK_CELLS = 1 << 18


def _blocks(lengths: np.ndarray, max_targets: int, max_cells: int) -> List[tuple]:
    """``(start, stop, n_samples)`` runs of consecutive targets, each of
    at most ``max_targets`` targets and ``max_cells`` samples (but at
    least one target), in order."""
    ends = np.cumsum(lengths)
    if lengths.size <= max_targets and ends[-1] <= max_cells:
        return [(0, lengths.size, int(ends[-1]))]
    runs, start, base = [], 0, 0
    while start < lengths.size:
        stop = min(
            start + max_targets,
            max(start + 1, int(np.searchsorted(ends, base + max_cells, side="right"))),
        )
        runs.append((start, stop, int(ends[stop - 1]) - base))
        start, base = stop, int(ends[stop - 1])
    return runs


def _ragged(packed, sel: np.ndarray, lengths: np.ndarray):
    """The valid samples of targets ``sel`` laid end to end.

    Returns their component-major ``(6, T)`` columns, the segment
    starts and, per column, its target's position in ``sel`` and its
    sample index (the scatter map back to padded rows).
    """
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(sel.size), lengths)
    within = np.arange(owner.size) - starts[owner]
    cols = np.ascontiguousarray(packed.data[sel[owner], within].T)
    return cols, starts, owner, within


def _probe_efforts(
    a: np.ndarray,
    n_a,
    packed,
    targets: np.ndarray,
    config: StretchConfig,
    chunk: int,
) -> np.ndarray:
    """Eq. 10 efforts of one probe against ``targets`` (the exact kernel).

    Each block of at most ``chunk`` targets lays its targets' valid
    samples end to end, and Eq. 10 runs over unpadded ``(ma, T)``
    planes with the samples axis innermost.  Per-probe-sample minima
    are reduced over each target's segment, per-target-sample minima
    over the probe's samples; both are exact.  Both directional means
    sum a zero-padded width-``pad_width`` row whose width is fixed by
    the *store* (``max(ma, m_max)``), not the block, so every value is
    bitwise independent of the block composition and the target order.
    NumPy's pairwise summation groups operands by row length, so the
    shared width also keeps the kernel bitwise symmetric under a
    probe/target role swap.
    """
    ma = a.shape[0]
    if ma == 0:
        raise ValueError("probe fingerprint has no samples")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    out = np.empty(targets.size, dtype=np.float64)
    if targets.size == 0:
        return out
    pad_width = max(ma, packed.data.shape[1])
    lengths = packed.lengths[targets]
    n_b = packed.counts[targets].astype(np.float64)
    w_a = n_a / (n_a + n_b)
    w_b = n_b / (n_a + n_b)
    ax, ay, at = a[:, X, None], a[:, Y, None], a[:, T, None]
    ahx, ahy, aht = ax + a[:, DX, None], ay + a[:, DY, None], at + a[:, DT, None]
    a_ext = a[:, DX, None] + a[:, DY, None]
    adt = a[:, DT, None]

    blocks = _blocks(lengths, chunk, max(1, _BLOCK_CELLS // ma))
    bufs = np.empty((3, ma * max(n for _, _, n in blocks)))
    for start, stop, n_cols in blocks:
        L = lengths[start:stop]
        b, starts, owner, within = _ragged(packed, targets[start:stop], L)
        u, v, s = (buf[: ma * n_cols].reshape(ma, n_cols) for buf in bufs)
        bx, by, bt = b[X], b[Y], b[T]
        wa, wb = w_a[start:stop][owner], w_b[start:stop][owner]

        # Union extents; the weighted own-extent terms are summed before
        # subtracting so the expression is bitwise symmetric under a
        # probe/target role swap (addition commutes exactly; chained
        # subtraction doesn't).  Clamped at zero against cancellation.
        np.subtract(np.maximum(ahx, bx + b[DX], out=u), np.minimum(ax, bx, out=s), out=u)
        np.subtract(np.maximum(ahy, by + b[DY], out=v), np.minimum(ay, by, out=s), out=v)
        np.add(u, v, out=u)
        np.add(np.multiply(wa, a_ext, out=v), wb * (b[DX] + b[DY]), out=v)
        np.maximum(np.subtract(u, v, out=u), 0.0, out=u)
        np.minimum(np.divide(u, config.phi_max_sigma_m, out=u), 1.0, out=u)
        np.multiply(config.w_sigma, u, out=u)

        np.subtract(np.maximum(aht, bt + b[DT], out=v), np.minimum(at, bt, out=s), out=v)
        np.add(np.multiply(wa, adt, out=s), wb * b[DT], out=s)
        np.maximum(np.subtract(v, s, out=v), 0.0, out=v)
        np.minimum(np.divide(v, config.phi_max_tau_min, out=v), 1.0, out=v)
        delta = np.add(u, np.multiply(config.w_tau, v, out=v), out=u)

        per = np.zeros((2, stop - start, pad_width))
        # Case ma > mb: for each probe sample, nearest target sample.
        per[0, :, :ma] = np.minimum.reduceat(delta, starts, axis=1).T
        # Case mb > ma: for each target sample, nearest probe sample.
        per[1, owner, within] = delta.min(axis=0)
        mean_long_a, mean_long_b = per.sum(axis=2)
        mean_long_a /= ma
        mean_long_b /= L
        # Equal lengths: average both directions (symmetric tie rule,
        # see repro.core.stretch.fingerprint_stretch).
        out[start:stop] = np.where(
            ma > L,
            mean_long_a,
            np.where(L > ma, mean_long_b, (mean_long_a + mean_long_b) / 2.0),
        )
    return out


def one_vs_all(
    a_data: np.ndarray,
    n_a: int,
    packed: PaddedFingerprints,
    config: StretchConfig = StretchConfig(),
    indices: Optional[np.ndarray] = None,
    chunk: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Fingerprint stretch efforts (Eq. 10) from one fingerprint to many.

    Parameters
    ----------
    a_data:
        ``(ma, 6)`` sample array of the probe fingerprint.
    n_a:
        Subscribers hidden in the probe fingerprint.
    packed:
        Target fingerprints, packed.
    indices:
        Optional subset of target indices to evaluate; defaults to all.
    chunk:
        Targets per block.

    Returns
    -------
    Float64 array of ``Delta_ab`` values, aligned with ``indices``.
    """
    if indices is None:
        indices = np.arange(len(packed))
    indices = np.asarray(indices, dtype=np.int64)
    return _probe_efforts(a_data, n_a, packed, indices, config, chunk)


def many_vs_some(
    probes: Sequence[np.ndarray],
    probe_counts: Sequence[int],
    packed: PaddedFingerprints,
    targets_list: Sequence[np.ndarray],
    config: StretchConfig = StretchConfig(),
    chunk: int = DEFAULT_CHUNK,
) -> List[np.ndarray]:
    """Ragged multi-probe dispatch: probe ``p`` vs its own target subset.

    Entry ``p`` of the result is bitwise equal to
    ``one_vs_all(probes[p], ..., indices=targets_list[p])`` — per-pair
    values are block-composition-independent (see
    :func:`_probe_efforts`).
    """
    if len(probes) != len(probe_counts) or len(probes) != len(targets_list):
        raise ValueError("probes, probe_counts and targets_list must align")
    outs = []
    for p_data, p_count, targets in zip(probes, probe_counts, targets_list):
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            outs.append(np.empty(0, dtype=np.float64))
            continue
        outs.append(_probe_efforts(p_data, int(p_count), packed, targets, config, chunk))
    return outs


# ----------------------------------------------------------------------
# Lower bounds on the stretch effort (DESIGN.md D4)
# ----------------------------------------------------------------------
# The references of the C sweep's ``hull_bound`` / ``bucket_bound``
# (``_ckernel``), over a packed store and the engine's bound summaries:
# a ``(6, cap)`` component-major hull, ``(cap, B, 6)`` per-time-bucket
# hulls and a ``(cap, B)`` bucket occupancy mask.
def _interval_gap(a_lo, a_hi, b_lo, b_hi):
    """Separation between intervals ``[a_lo, a_hi]`` and ``[b_lo, b_hi]``."""
    return np.maximum(0.0, np.maximum(a_lo - b_hi, b_lo - a_hi))


def _gap_effort(gx, gy, gt, config: StretchConfig):
    """Eq. 10's saturating per-sample effort applied to gaps."""
    return config.w_sigma * np.minimum((gx + gy) / config.phi_max_sigma_m, 1.0) + (
        config.w_tau * np.minimum(gt / config.phi_max_tau_min, 1.0)
    )


def hull_lower_bounds(
    hull: np.ndarray, slot: int, targets: np.ndarray, config: StretchConfig
) -> np.ndarray:
    """Level-0 bound: gap between global bounding boxes, O(1)/pair."""
    h = hull[:, slot]
    H = hull[:, targets]
    return _gap_effort(
        _interval_gap(h[0], h[1], H[0], H[1]),
        _interval_gap(h[2], h[3], H[2], H[3]),
        _interval_gap(h[4], h[5], H[4], H[5]),
        config,
    )


def sample_columns(d: np.ndarray) -> np.ndarray:
    """The ``(6, m)`` columns x, x+dx, y, y+dy, t, t+dt of ``(m, 6)`` samples."""
    cols = np.empty((NCOLS, d.shape[0]))
    cols[0::2] = d.T[0::2]
    np.add(d.T[0::2], d.T[1::2], out=cols[1::2])
    return cols


def bucket_lower_bounds(
    packed,
    bucket_hull: np.ndarray,
    bucket_occ: np.ndarray,
    slot: int,
    targets: np.ndarray,
    config: StretchConfig,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Level-1 bound: samples vs per-time-bucket hulls, O(m·B)/pair.

    Follows Eq. 10's direction rule: the mean runs over the longer
    fingerprint's samples (both directions averaged on equal lengths),
    so each direction is bounded with the corresponding side's samples
    against the other side's bucket hulls.  ``cols`` are the probe's
    :func:`sample_columns`, built here when not given.
    """
    targets = np.asarray(targets, dtype=np.int64)
    ma = int(packed.lengths[slot])
    if cols is None:
        cols = sample_columns(packed.data[slot, :ma])
    len_t = packed.lengths[targets]
    a_side = ma >= len_t  # probe is the longer (or equal) side
    b_side = len_t >= ma  # target is the longer (or equal) side
    la = np.zeros(targets.size)
    lb = np.zeros(targets.size)
    if a_side.any():
        la[a_side] = _lb_probe_samples(cols, bucket_hull, bucket_occ, targets[a_side], config)
    if b_side.any():
        hulls = bucket_hull[slot][bucket_occ[slot]]
        lb[b_side] = _lb_target_samples(packed, hulls, targets[b_side], config)
    return np.where(ma > len_t, la, np.where(len_t > ma, lb, (la + lb) / 2.0))


def _fold_buckets(s, h, config: StretchConfig) -> np.ndarray:
    """The sample/bucket-hull gap efforts of one level-1 block.

    ``s`` and ``h`` are component-major (x, x+dx, y, y+dy, t, t+dt)
    stacks of sample columns and bucket hulls whose trailing axes
    broadcast to the block; the x, y and t gaps run stacked.  Every
    cell is :func:`_gap_effort` of its :func:`_interval_gap` triple,
    and the callers fold the bucket axis with exact minima, so the
    block's layout cannot change a bit (the NumPy image of the C tier's
    ``fold_buckets``).
    """
    g = np.subtract(s[0::2], h[1::2])
    np.maximum(g, np.subtract(h[0::2], s[1::2]), out=g)
    np.maximum(0.0, g, out=g)
    np.add(g[0], g[1], out=g[1])
    s_term, t_term = g[1], g[2]
    np.divide(s_term, config.phi_max_sigma_m, out=s_term)
    np.divide(t_term, config.phi_max_tau_min, out=t_term)
    np.minimum(g[1:], 1.0, out=g[1:])
    np.multiply(config.w_sigma, s_term, out=s_term)
    np.multiply(config.w_tau, t_term, out=t_term)
    return np.add(s_term, t_term, out=s_term)


def _lb_probe_samples(cols, bucket_hull, bucket_occ, targets, config):
    """Mean over probe samples of the min bound to target buckets.

    One ``(ma, B, C)`` block per run of targets folds the probe's
    sample columns against the targets' bucket hulls, taken
    component-major; unoccupied buckets read ``+inf``, as in the C
    tier's skip.
    """
    ma = cols.shape[1]
    out = np.empty(targets.size)
    block = max(1, _BLOCK_CELLS // (ma * bucket_hull.shape[1]))
    for start in range(0, targets.size, block):
        sel = targets[start : start + block]
        h = np.ascontiguousarray(bucket_hull[sel].T)  # (6, B, C)
        lb = _fold_buckets(cols[:, :, None, None], h[:, None], config)
        lb[:, ~bucket_occ[sel].T] = np.inf
        mins = np.ascontiguousarray(lb.min(axis=1).T)  # (C, ma)
        out[start : start + sel.size] = mins.sum(axis=1) / ma
    return out


def _lb_target_samples(packed, hulls, targets, config):
    """Mean over target samples of the min bound to the probe's
    occupied bucket ``hulls``.

    Each run of targets lays its valid samples end to end against the
    probe's buckets; the mean still sums a zero-padded width-``m_max``
    row per target, so every bound value is bitwise independent of the
    block composition (same argument as :func:`_probe_efforts`).
    """
    h = hulls.T[:, :, None]  # (6, Bo, 1)
    m_max = packed.data.shape[1]
    out = np.empty(targets.size)
    block = max(1, _BLOCK_CELLS // max(m_max * h.shape[1], 1))
    for start in range(0, targets.size, block):
        sel = targets[start : start + block]
        lengths = packed.lengths[sel]
        b, _, owner, within = _ragged(packed, sel, lengths)
        per_sample = np.zeros((sel.size, m_max))
        per_sample[owner, within] = _fold_buckets(
            sample_columns(b.T)[:, None, :], h, config
        ).min(axis=0)
        out[start : start + sel.size] = per_sample.sum(axis=1) / lengths
    return out


def pairwise_matrix(
    fingerprints: Sequence[Fingerprint],
    config: StretchConfig = StretchConfig(),
    chunk: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Full symmetric ``Delta_ab`` matrix for a fingerprint collection.

    The diagonal is set to ``+inf`` so that row-wise minima directly give
    nearest-neighbour efforts.
    """
    fps = list(fingerprints)
    packed = PaddedFingerprints(fps)
    n = len(fps)
    mat = np.full((n, n), np.inf, dtype=np.float64)
    for i, fp in enumerate(fps):
        if i + 1 >= n:
            break
        targets = np.arange(i + 1, n)
        vals = one_vs_all(fp.data, fp.count, packed, config, indices=targets, chunk=chunk)
        mat[i, i + 1 :] = vals
        mat[i + 1 :, i] = vals
    return mat


def k_nearest(
    matrix: np.ndarray,
    k_minus_1: int,
) -> tuple:
    """Indices and efforts of each row's ``k-1`` nearest fingerprints.

    Parameters
    ----------
    matrix:
        Symmetric ``Delta`` matrix with ``+inf`` diagonal.
    k_minus_1:
        Crowd size minus one (the ``k-1`` of Eq. 11).

    Returns
    -------
    ``(indices, efforts)`` with shapes ``(n, k-1)``; each row's entries
    are sorted by increasing effort.
    """
    n = matrix.shape[0]
    if k_minus_1 < 1:
        raise ValueError(f"k-1 must be at least 1, got {k_minus_1}")
    if k_minus_1 > n - 1:
        raise ValueError(f"k-1={k_minus_1} exceeds available neighbours ({n - 1})")
    part = np.argpartition(matrix, k_minus_1 - 1, axis=1)[:, :k_minus_1]
    efforts = np.take_along_axis(matrix, part, axis=1)
    order = np.argsort(efforts, axis=1, kind="stable")
    return np.take_along_axis(part, order, axis=1), np.take_along_axis(efforts, order, axis=1)
