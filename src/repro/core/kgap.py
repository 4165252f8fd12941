"""The k-gap anonymizability measure (paper Eq. 11 and Section 5).

The *k-gap* of subscriber ``a`` is the average fingerprint stretch
effort between ``a`` and the ``k-1`` users whose fingerprints are the
cheapest to merge with ``a``'s.  A k-gap of 0 means ``a`` is already
k-anonymous; a k-gap of 1 means k-anonymizing ``a`` would render all his
samples uninformative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ComputeConfig, StretchConfig
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.pairwise import PaddedFingerprints, k_nearest, one_vs_all, pairwise_matrix
from repro.core.stretch import matched_stretch_components


@dataclass(frozen=True)
class KGapResult:
    """k-gap evaluation of a dataset.

    Attributes
    ----------
    k:
        Anonymity level the gaps refer to.
    uids:
        Fingerprint identifiers, aligned with ``gaps`` rows.
    gaps:
        ``(n,)`` array of k-gap values in ``[0, 1]``.
    neighbor_indices:
        ``(n, k-1)`` indices (into ``uids``) of each user's nearest
        ``k-1`` fingerprints (the set ``N_a^{k-1}`` of Eq. 11).
    neighbor_efforts:
        ``(n, k-1)`` fingerprint stretch efforts to those neighbours.
    """

    k: int
    uids: List[str]
    gaps: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_efforts: np.ndarray

    @property
    def n(self) -> int:
        """Number of fingerprints evaluated."""
        return self.gaps.shape[0]

    def fraction_anonymous(self, atol: float = 1e-12) -> float:
        """Fraction of users whose k-gap is (numerically) zero.

        These users are already k-anonymous: merging them with their
        ``k-1`` nearest fingerprints costs nothing, which only happens
        when the fingerprints are identical.
        """
        return float(np.mean(self.gaps <= atol))

    def quantile(self, q: float) -> float:
        """Quantile of the k-gap distribution (e.g. ``q=0.5`` -> median)."""
        return float(np.quantile(self.gaps, q))


def kgap(
    dataset: FingerprintDataset,
    k: int = 2,
    config: StretchConfig = StretchConfig(),
    matrix: Optional[np.ndarray] = None,
    compute: Optional[ComputeConfig] = None,
) -> KGapResult:
    """Compute the k-gap of every fingerprint in a dataset (Eq. 11).

    Parameters
    ----------
    dataset:
        Fingerprints to evaluate; all must be non-empty.
    k:
        Target anonymity level (>= 2).
    config:
        Stretch-effort parameters.
    matrix:
        Optional precomputed pairwise ``Delta`` matrix (e.g. from
        :func:`repro.core.pairwise.pairwise_matrix`), reused across
        different ``k`` values as in the paper's Fig. 3b.
    compute:
        Compute-substrate selection for the matrix build (ignored when
        ``matrix`` is given); defaults to the process-wide
        :func:`repro.core.engine.get_default_compute`.  The
        ``sharded`` backend's kernels run the ``auto`` tier pick
        (matrix builds have no population to partition), so ``--backend
        sharded`` is safe end-to-end through ``glove measure``.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    fps = list(dataset)
    if len(fps) < k:
        raise ValueError(f"dataset has {len(fps)} fingerprints, cannot assess k={k}")
    if matrix is None:
        from repro.core.engine import compute_pairwise_matrix

        matrix = compute_pairwise_matrix(fps, config, compute)
    idx, efforts = k_nearest(matrix, k - 1)
    gaps = efforts.mean(axis=1)
    return KGapResult(
        k=k,
        uids=[fp.uid for fp in fps],
        gaps=gaps,
        neighbor_indices=idx,
        neighbor_efforts=efforts,
    )


def kgap_sweep(
    dataset: FingerprintDataset,
    ks: Sequence[int],
    config: StretchConfig = StretchConfig(),
    matrix: Optional[np.ndarray] = None,
    compute: Optional[ComputeConfig] = None,
) -> Dict[int, KGapResult]:
    """k-gap of every fingerprint at several anonymity levels at once.

    Equivalent to calling :func:`kgap` once per level (the Fig. 3b /
    Fig. 8 k-sweeps) but sharing the quadratic work across the sweep:
    the pairwise ``Delta`` matrix is built once, and the neighbour
    search runs once at ``max(ks)`` — because :func:`k_nearest` returns
    each row sorted by increasing effort, the smaller levels'
    ``k-1``-nearest sets are prefixes of the largest one's.  Every
    level's ``gaps`` therefore match an independent :func:`kgap` call
    exactly; on exact effort ties the neighbour *identities* may be
    picked differently than the standalone call would, but the efforts
    — and hence the gaps — are identical.
    """
    levels = sorted(set(int(k) for k in ks))
    if not levels:
        raise ValueError("ks must be non-empty")
    if levels[0] < 2:
        raise ValueError(f"k must be at least 2, got {levels[0]}")
    fps = list(dataset)
    k_max = levels[-1]
    if len(fps) < k_max:
        raise ValueError(f"dataset has {len(fps)} fingerprints, cannot assess k={k_max}")
    if matrix is None:
        from repro.core.engine import compute_pairwise_matrix

        matrix = compute_pairwise_matrix(fps, config, compute)
    uids = [fp.uid for fp in fps]
    idx, efforts = k_nearest(matrix, k_max - 1)
    out: Dict[int, KGapResult] = {}
    for k in levels:
        eff_k = efforts[:, : k - 1].copy()
        out[k] = KGapResult(
            k=k,
            uids=uids,
            gaps=eff_k.mean(axis=1),
            neighbor_indices=idx[:, : k - 1].copy(),
            neighbor_efforts=eff_k,
        )
    return out


@dataclass(frozen=True)
class StretchDecomposition:
    """Per-user spatial/temporal stretch sets of Section 5.3.

    For user ``a``, the matched per-sample stretch efforts toward all
    neighbours in ``N_a^{k-1}``, decomposed into total (``delta``),
    spatial (``w_sigma * phi_sigma``, the set ``S_a``) and temporal
    (``w_tau * phi_tau``, the set ``T_a``) contributions.
    """

    uid: str
    delta: np.ndarray
    spatial: np.ndarray
    temporal: np.ndarray

    @property
    def temporal_to_spatial_ratio(self) -> float:
        """Share of the temporal component in the total stretch effort.

        Computed as ``sum(T_a) / (sum(S_a) + sum(T_a))``, i.e. the
        fraction of the anonymization cost attributable to time; 0.5
        means equal split, 1.0 means the cost is fully temporal (this is
        the quantity plotted in the paper's Fig. 5b).
        """
        total = float(self.spatial.sum() + self.temporal.sum())
        if total == 0.0:
            return 0.5
        return float(self.temporal.sum()) / total


class StretchComponentCache:
    """Memo of matched per-sample stretch components (Section 5.3).

    A k-sweep evaluates :func:`stretch_decomposition` at several
    anonymity levels; since a smaller level's neighbour set is a prefix
    of a larger one's (both sorted by effort, see :func:`kgap_sweep`),
    the per-pair matched component triplets are shared work.  The cache
    memoizes :func:`~repro.core.stretch.matched_stretch_components` per
    *ordered* fingerprint-index pair (the decomposition is directional:
    it walks the longer fingerprint's samples, and equal-length pairs
    break the tie by argument order), so each pair's Eq. 1 component
    matrix is built at most once per sweep.  Bound to one dataset and
    one stretch configuration; indices follow the dataset's iteration
    order, matching ``KGapResult.neighbor_indices``.
    """

    def __init__(self, fps: Sequence[Fingerprint], config: StretchConfig = StretchConfig()):
        self._fps = list(fps)
        self._config = config
        self._memo: Dict[
            Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        #: Number of cache lookups answered from the memo.
        self.hits = 0

    @property
    def n_pairs(self) -> int:
        """Number of distinct ordered pairs computed so far."""
        return len(self._memo)

    def components(self, i: int, j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matched ``(delta, spatial, temporal)`` triplet of pair ``(i, j)``."""
        key = (i, j)
        hit = self._memo.get(key)
        if hit is None:
            a, b = self._fps[i], self._fps[j]
            hit = matched_stretch_components(a.data, b.data, a.count, b.count, self._config)
            self._memo[key] = hit
        else:
            self.hits += 1
        return hit


def stretch_decomposition(
    dataset: FingerprintDataset,
    result: KGapResult,
    config: StretchConfig = StretchConfig(),
    cache: Optional[StretchComponentCache] = None,
) -> List[StretchDecomposition]:
    """Decompose each user's anonymization cost into space and time parts.

    Re-walks the nearest-neighbour sets of a :func:`kgap` result and
    collects the matched sample stretch components of Eq. 1, feeding the
    TWI analysis (Fig. 5a) and the component-ratio analysis (Fig. 5b).
    Pass a :class:`StretchComponentCache` (bound to the same dataset and
    config) to share the per-pair component work across repeated
    decompositions — several k levels, or the two Fig. 5 analyses.
    """
    fps = list(dataset)
    if cache is None:
        cache = StretchComponentCache(fps, config)
    out: List[StretchDecomposition] = []
    for i, fp in enumerate(fps):
        deltas, spatials, temporals = [], [], []
        for j in result.neighbor_indices[i]:
            d, s, t = cache.components(i, int(j))
            deltas.append(d)
            spatials.append(s)
            temporals.append(t)
        out.append(
            StretchDecomposition(
                uid=fp.uid,
                delta=np.concatenate(deltas),
                spatial=np.concatenate(spatials),
                temporal=np.concatenate(temporals),
            )
        )
    return out
