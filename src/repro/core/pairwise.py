"""Bulk, vectorized fingerprint stretch-effort kernels.

The paper offloads the O(|M|^2) evaluations of Eq. 10 to a CUDA GPU
(Section 6.3).  This module is the reproduction's equivalent substrate:
fingerprints are packed into a padded ``(N, m_max, 6)`` tensor with a
validity mask, and one-vs-all stretch efforts are computed with NumPy
broadcasting, chunked to bound peak memory.  The two lower bounds that
let the GLOVE search prune exact evaluations live here too, as plain
functions over the same packed arrays.
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


class _ProbeViews:
    """Broadcast-ready views of one probe fingerprint, built once per call."""

    __slots__ = ("ma", "n_a", "ax", "adx", "ay", "ady", "at", "adt", "a_ext_s")

    def __init__(self, a_data: np.ndarray, n_a: int):
        if a_data.shape[0] == 0:
            raise ValueError("probe fingerprint has no samples")
        self.ma = a_data.shape[0]
        self.n_a = n_a
        self.ax = a_data[:, X][None, :, None]
        self.adx = a_data[:, DX][None, :, None]
        self.ay = a_data[:, Y][None, :, None]
        self.ady = a_data[:, DY][None, :, None]
        self.at = a_data[:, T][None, :, None]
        self.adt = a_data[:, DT][None, :, None]
        self.a_ext_s = self.adx + self.ady


def _chunk_efforts(
    probe: _ProbeViews,
    b: np.ndarray,
    mask: np.ndarray,
    len_b: np.ndarray,
    n_b: np.ndarray,
    pad_width: int,
    config: StretchConfig,
) -> np.ndarray:
    """Eq. 10 efforts of one probe against one gathered target chunk.

    ``b``/``mask`` may be sliced to the chunk's own maximum sample count:
    every per-pair value is an elementwise function of valid cells only,
    and both directional means are summed over a zero-padded
    ``(C, pad_width)`` array whose width is fixed by the *store* (not the
    chunk), so results are bitwise independent of chunk composition.
    ``pad_width`` must be ``max(ma, m_max)`` of the packed store;
    NumPy's pairwise summation groups operands by array length, so the
    shared width keeps the kernel bitwise symmetric under a probe/target
    role swap.
    """
    ma = probe.ma
    w_a = (probe.n_a / (probe.n_a + n_b))[:, None, None]
    w_b = (n_b / (probe.n_a + n_b))[:, None, None]

    bx = b[:, :, X][:, None, :]
    bdx = b[:, :, DX][:, None, :]
    by = b[:, :, Y][:, None, :]
    bdy = b[:, :, DY][:, None, :]
    bt = b[:, :, T][:, None, :]
    bdt = b[:, :, DT][:, None, :]

    ux = np.maximum(probe.ax + probe.adx, bx + bdx) - np.minimum(probe.ax, bx)
    uy = np.maximum(probe.ay + probe.ady, by + bdy) - np.minimum(probe.ay, by)
    ut = np.maximum(probe.at + probe.adt, bt + bdt) - np.minimum(probe.at, bt)

    # Clamped at zero against floating-point cancellation noise.
    # The weighted own-extent terms are summed before subtracting so
    # the expression is bitwise symmetric under a probe/target role
    # swap (addition commutes exactly; chained subtraction doesn't).
    raw_s = np.maximum((ux + uy) - (w_a * probe.a_ext_s + w_b * (bdx + bdy)), 0.0)
    raw_t = np.maximum(ut - (w_a * probe.adt + w_b * bdt), 0.0)

    delta = config.w_sigma * np.minimum(raw_s / config.phi_max_sigma_m, 1.0)
    delta += config.w_tau * np.minimum(raw_t / config.phi_max_tau_min, 1.0)

    # Mask out padding: invalid target samples must never be matched.
    delta = np.where(mask[:, None, :], delta, np.inf)

    # Case ma > mb: for each probe sample, nearest target sample.
    per_a = delta.min(axis=2)  # (C, ma)
    padded = np.zeros((per_a.shape[0], pad_width), dtype=per_a.dtype)
    padded[:, : per_a.shape[1]] = per_a
    mean_long_a = padded.sum(axis=1) / ma

    # Case mb > ma: for each *valid* target sample, nearest probe sample.
    per_b = delta.min(axis=1)  # (C, W)
    per_b = np.where(mask, per_b, 0.0)
    padded = np.zeros((per_b.shape[0], pad_width), dtype=per_b.dtype)
    padded[:, : per_b.shape[1]] = per_b
    mean_long_b = padded.sum(axis=1) / len_b

    # Equal lengths: average both directions (symmetric tie rule,
    # see repro.core.stretch.fingerprint_stretch).
    return np.where(
        ma > len_b,
        mean_long_a,
        np.where(len_b > ma, mean_long_b, (mean_long_a + mean_long_b) / 2.0),
    )


def _length_sorted(packed: PaddedFingerprints, indices: np.ndarray) -> np.ndarray:
    """Positions of ``indices`` in ascending target-length order.

    Grouping similar-length targets into the same chunk lets the bulk
    kernel slice its broadcast tensors to each chunk's own maximum
    length instead of the store-wide padding, without changing a single
    output bit (per-pair values are chunk-independent, see
    :func:`_chunk_efforts`).
    """
    if indices.shape[0] <= 1:
        return np.arange(indices.shape[0])
    return np.argsort(packed.lengths[indices], kind="stable")


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
        Targets per broadcast chunk.

    Returns
    -------
    Float64 array of ``Delta_ab`` values, aligned with ``indices``.
    """
    probe = _ProbeViews(a_data, n_a)
    if indices is None:
        indices = np.arange(len(packed))
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty(indices.shape[0], dtype=np.float64)
    pad_width = max(probe.ma, packed.data.shape[1])

    order = _length_sorted(packed, indices)
    for start in range(0, indices.shape[0], chunk):
        pos = order[start : start + chunk]
        sel = indices[pos]
        len_b = packed.lengths[sel]
        width = int(len_b.max())
        b = packed.data[sel, :width]
        mask = packed.mask[sel, :width]
        n_b = packed.counts[sel].astype(np.float64)
        out[pos] = _chunk_efforts(probe, b, mask, len_b, n_b, pad_width, config)
    return out


def many_vs_some(
    probes: Sequence[np.ndarray],
    probe_counts: Sequence[int],
    packed: PaddedFingerprints,
    targets_list: Sequence[np.ndarray],
    config: StretchConfig = StretchConfig(),
    chunk: int = DEFAULT_CHUNK,
) -> List[np.ndarray]:
    """Ragged multi-probe dispatch: probe ``p`` vs its own target subset.

    The union of all subsets is gathered from the padded store once;
    each probe then addresses its own targets inside that (much
    smaller) snapshot.  Entry ``p`` of the result is bitwise equal to
    ``one_vs_all(probes[p], ..., indices=targets_list[p])`` — per-pair
    values are chunk- and batch-composition-independent (see
    :func:`_chunk_efforts`).
    """
    if len(probes) != len(probe_counts) or len(probes) != len(targets_list):
        raise ValueError("probes, probe_counts and targets_list must align")
    targets_list = [np.asarray(t, dtype=np.int64) for t in targets_list]
    nonempty = [t for t in targets_list if t.size]
    if not nonempty:
        return [np.empty(0, dtype=np.float64) for _ in targets_list]
    union = np.unique(np.concatenate(nonempty))
    w_u = int(packed.lengths[union].max())
    b_u = packed.data[union, :w_u]
    mask_u = packed.mask[union, :w_u]
    len_u = packed.lengths[union]
    n_u = packed.counts[union].astype(np.float64)
    m_max = packed.data.shape[1]

    outs = []
    for p_data, p_count, targets in zip(probes, probe_counts, targets_list):
        if targets.size == 0:
            outs.append(np.empty(0, dtype=np.float64))
            continue
        probe = _ProbeViews(p_data, int(p_count))
        pad_width = max(probe.ma, m_max)
        pos_u = np.searchsorted(union, targets)
        out = np.empty(targets.shape[0], dtype=np.float64)
        order = (
            np.argsort(len_u[pos_u], kind="stable")
            if targets.shape[0] > 1
            else np.arange(targets.shape[0])
        )
        for start in range(0, targets.shape[0], chunk):
            pos = order[start : start + chunk]
            sel = pos_u[pos]
            len_b = len_u[sel]
            width = int(len_b.max())
            out[pos] = _chunk_efforts(
                probe, b_u[sel, :width], mask_u[sel, :width],
                len_b, n_u[sel], pad_width, config,
            )
        outs.append(out)
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


def bucket_lower_bounds(
    packed,
    bucket_hull: np.ndarray,
    bucket_occ: np.ndarray,
    slot: int,
    targets: np.ndarray,
    config: StretchConfig,
) -> np.ndarray:
    """Level-1 bound: samples vs per-time-bucket hulls, O(m·B)/pair.

    Follows Eq. 10's direction rule: the mean runs over the longer
    fingerprint's samples (both directions averaged on equal lengths),
    so each direction is bounded with the corresponding side's samples
    against the other side's bucket hulls.
    """
    targets = np.asarray(targets, dtype=np.int64)
    ma = int(packed.lengths[slot])
    len_t = packed.lengths[targets]
    a_side = ma >= len_t  # probe is the longer (or equal) side
    b_side = len_t >= ma  # target is the longer (or equal) side
    la = np.zeros(targets.size)
    lb = np.zeros(targets.size)
    if a_side.any():
        la[a_side] = _lb_probe_samples(
            packed, bucket_hull, bucket_occ, slot, targets[a_side], config
        )
    if b_side.any():
        lb[b_side] = _lb_target_samples(
            packed, bucket_hull, bucket_occ, slot, targets[b_side], config
        )
    return np.where(ma > len_t, la, np.where(len_t > ma, lb, (la + lb) / 2.0))


def _sample_bucket_lb(s_lo, s_hi, hulls, occ, config: StretchConfig):
    """Per-(sample, bucket) bound; ``inf`` on unoccupied buckets.

    ``s_lo``/``s_hi`` are ``(..., 3)`` interval bounds (x, y, t) and
    ``hulls`` is ``(..., B, 6)``; broadcasting aligns the rest.
    """
    lb = _gap_effort(
        _interval_gap(s_lo[..., 0], s_hi[..., 0], hulls[..., 0], hulls[..., 1]),
        _interval_gap(s_lo[..., 1], s_hi[..., 1], hulls[..., 2], hulls[..., 3]),
        _interval_gap(s_lo[..., 2], s_hi[..., 2], hulls[..., 4], hulls[..., 5]),
        config,
    )
    return np.where(occ, lb, np.inf)


def _sample_intervals(d: np.ndarray):
    """``(lo, hi)`` stacks of the (x, y, t) sample intervals of ``d``."""
    lo = np.stack([d[..., X], d[..., Y], d[..., T]], axis=-1)
    hi = np.stack(
        [d[..., X] + d[..., DX], d[..., Y] + d[..., DY], d[..., T] + d[..., DT]], axis=-1
    )
    return lo, hi


def _lb_probe_samples(packed, bucket_hull, bucket_occ, slot, targets, config):
    """Mean over probe samples of the min bound to target buckets."""
    d = packed.data[slot, : packed.lengths[slot]]
    s_lo, s_hi = _sample_intervals(d)
    ma = d.shape[0]
    n_buckets = bucket_hull.shape[1]
    out = np.empty(targets.size)
    block = max(1, (1 << 21) // max(ma * n_buckets, 1))
    for start in range(0, targets.size, block):
        sel = targets[start : start + block]
        hulls = bucket_hull[sel][:, None, :, :]  # (C, 1, B, 6)
        occ = bucket_occ[sel][:, None, :]  # (C, 1, B)
        lb = _sample_bucket_lb(
            s_lo[None, :, None, :], s_hi[None, :, None, :], hulls, occ, config
        )  # (C, ma, B)
        out[start : start + sel.size] = lb.min(axis=2).mean(axis=1)
    return out


def _lb_target_samples(packed, bucket_hull, bucket_occ, slot, targets, config):
    """Masked mean over target samples of the min bound to probe buckets.

    Targets are grouped by length so the broadcast work is sliced to
    each block's own maximum sample count; the final mean still sums a
    zero-padded width-``m_max`` array, so every bound value is bitwise
    independent of the block composition (same argument as
    :func:`_chunk_efforts`).
    """
    hulls = bucket_hull[slot][bucket_occ[slot]]  # (Bo, 6)
    m_max = packed.data.shape[1]
    out = np.empty(targets.size)
    order = _length_sorted(packed, targets)
    block = max(1, (1 << 21) // max(m_max * hulls.shape[0], 1))
    for start in range(0, targets.size, block):
        pos = order[start : start + block]
        sel = targets[pos]
        width = int(packed.lengths[sel].max())
        s_lo, s_hi = _sample_intervals(packed.data[sel, :width])  # (C, W, 3)
        lb = _sample_bucket_lb(
            s_lo[:, :, None, :], s_hi[:, :, None, :], hulls[None, None, :, :], True, config
        )  # (C, W, Bo)
        per_sample = np.zeros((sel.size, m_max), dtype=np.float64)
        per_sample[:, :width] = np.where(packed.mask[sel, :width], lb.min(axis=2), 0.0)
        out[pos] = per_sample.sum(axis=1) / packed.lengths[sel]
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
