"""W4M-LC: Wait-for-Me anonymization with LST distance and chunking.

Reimplementation of the Table 2 comparator (Abul, Bonchi & Nanni,
Information Systems 2010).  W4M enforces ``(k, delta)``-anonymity: it
clusters trajectories into groups of at least ``k`` and edits each
group's members until they all fit within a spatiotemporal cylinder of
diameter ``delta``.  Unlike GLOVE it may *create* synthetic samples
(linear-interpolation resampling onto a common timeline) and *delete*
samples (trashing and timeline replacement) — operations that violate
the paper's PPDP truthfulness principle P2, which is precisely the
qualitative point Table 2 makes.

Pipeline per cluster:

1. pick the medoid trajectory (minimum summed LST distance);
2. time translation ("wait for me"): each member is shifted along the
   time axis by the offset that best aligns its path with the medoid's;
3. resample every member onto the medoid's timeline via linear
   interpolation ("waiting" semantics outside the member's own span) —
   timeline instants absent from the member's original trace are
   *created* samples, original instants absent from the timeline are
   *deleted*;
4. spatial editing: at every timeline instant, members farther than
   ``delta / 2`` from the cluster centroid are pulled onto the cylinder
   boundary.

Error accounting matches provenance: the published sample derived from
an original sample at time ``t`` is the timeline instant nearest to
``t + shift``; its position error is the spatial displacement applied
by interpolation and editing, and its time error is the absolute
difference between the claimed and the actual instant (which includes
the whole time translation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.w4m_cluster import ClusteringOutcome, chunk_indices, greedy_k_clusters
from repro.baselines.w4m_distance import (
    DEFAULT_SYNC_POINTS,
    PointTrajectory,
    lst_distance,
    lst_distance_matrix,
)
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.sample import DEFAULT_DT_MIN, DEFAULT_DX_M, DEFAULT_DY_M, NCOLS


@dataclass(frozen=True)
class W4MConfig:
    """W4M-LC parameters (paper Section 7.2 uses delta=2 km, 10% trash).

    Attributes
    ----------
    k:
        Minimum cluster size.
    delta_m:
        Cylinder diameter in metres.
    trash_fraction:
        Maximum fraction of trajectories trashed per chunk.
    chunk_size:
        Trajectories per chunk (the "LC" scalability device).
    sync_points:
        Discretization of the common window in the LST distance.
    timestamp_tolerance_min:
        Two timestamps closer than this count as the same instant when
        tallying created/deleted samples.
    """

    k: int = 2
    delta_m: float = 2_000.0
    trash_fraction: float = 0.10
    chunk_size: int = 1_000
    sync_points: int = DEFAULT_SYNC_POINTS
    timestamp_tolerance_min: float = 0.5
    max_time_shift_min: float = 720.0
    time_shift_step_min: float = 30.0
    creation_window_min: float = 30.0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0 < self.delta_m < math.inf:
            raise ValueError(f"delta_m must be positive and finite, got {self.delta_m}")
        if not 0.0 <= self.trash_fraction < 1.0:
            raise ValueError("trash_fraction must be in [0, 1)")
        if self.chunk_size < 2:
            raise ValueError("chunk_size must be at least 2")


@dataclass
class W4MStats:
    """Bookkeeping of one W4M-LC run (the Table 2 counters).

    Attributes
    ----------
    discarded_fingerprints:
        Trajectories trashed by the clustering stage.
    created_samples:
        Synthetic samples fabricated by timeline resampling.
    deleted_samples:
        Original samples absent from the published timelines.
    total_original_samples:
        Samples in the input dataset.
    n_clusters:
        Clusters formed.
    """

    discarded_fingerprints: int = 0
    created_samples: int = 0
    deleted_samples: int = 0
    total_original_samples: int = 0
    n_clusters: int = 0
    position_errors_m: List[float] = field(default_factory=list)
    time_errors_min: List[float] = field(default_factory=list)
    #: Cluster membership as uid tuples — the (k, delta) anonymity
    #: groups, auditable with the shared k-anonymity harness.
    group_members: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def mean_position_error_m(self) -> float:
        """Mean displacement between original and published samples."""
        if not self.position_errors_m:
            return 0.0
        return float(np.mean(self.position_errors_m))

    @property
    def mean_time_error_min(self) -> float:
        """Mean claimed-vs-actual time difference of published samples."""
        if not self.time_errors_min:
            return 0.0
        return float(np.mean(self.time_errors_min))

    @property
    def created_fraction(self) -> float:
        """Created samples over original samples."""
        if self.total_original_samples == 0:
            return 0.0
        return self.created_samples / self.total_original_samples

    @property
    def deleted_fraction(self) -> float:
        """Deleted samples over original samples."""
        if self.total_original_samples == 0:
            return 0.0
        return self.deleted_samples / self.total_original_samples


@dataclass(frozen=True)
class W4MResult:
    """Anonymized dataset plus run statistics."""

    dataset: FingerprintDataset
    stats: W4MStats
    config: W4MConfig


def _trajectory_to_samples(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rows = np.empty((t.shape[0], NCOLS), dtype=np.float64)
    rows[:, 0] = x - DEFAULT_DX_M / 2.0
    rows[:, 1] = DEFAULT_DX_M
    rows[:, 2] = y - DEFAULT_DY_M / 2.0
    rows[:, 3] = DEFAULT_DY_M
    rows[:, 4] = t - DEFAULT_DT_MIN / 2.0
    rows[:, 5] = DEFAULT_DT_MIN
    return rows


def _anonymize_cluster(
    trajs: List[PointTrajectory],
    members: np.ndarray,
    distance: np.ndarray,
    config: W4MConfig,
    stats: W4MStats,
    out: FingerprintDataset,
) -> None:
    cluster = [trajs[int(i)] for i in members]
    sub = distance[np.ix_(members, members)]
    finite = np.where(np.isfinite(sub), sub, 0.0)
    medoid_pos = int(finite.sum(axis=1).argmin())
    medoid = cluster[medoid_pos]
    timeline = medoid.t
    medoid_path = np.column_stack([medoid.x, medoid.y])

    # Time translation: shift each member along the time axis to best
    # align its path with the medoid's (the "wait for me" operation).
    shifts = np.zeros(len(cluster))
    candidates = np.arange(
        -config.max_time_shift_min,
        config.max_time_shift_min + config.time_shift_step_min / 2,
        config.time_shift_step_min,
    )
    for g, tr in enumerate(cluster):
        if g == medoid_pos:
            continue
        best_shift, best_cost = 0.0, np.inf
        for shift in candidates:
            pos = tr.positions_at(timeline - shift)
            cost = float(
                np.hypot(pos[:, 0] - medoid_path[:, 0], pos[:, 1] - medoid_path[:, 1]).mean()
            )
            if cost < best_cost - 1e-9:
                best_shift, best_cost = float(shift), cost
        shifts[g] = best_shift

    # Resample everyone onto the medoid timeline (after translation),
    # then pull into the delta-cylinder around the per-instant centroid.
    positions = np.stack(
        [tr.positions_at(timeline - shifts[g]) for g, tr in enumerate(cluster)]
    )  # (g, m, 2)
    centroid = positions.mean(axis=0)  # (m, 2)
    offsets = positions - centroid[None, :, :]
    dist = np.hypot(offsets[..., 0], offsets[..., 1])
    radius = config.delta_m / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(dist > radius, radius / np.where(dist > 0, dist, 1.0), 1.0)
    edited = centroid[None, :, :] + offsets * scale[..., None]

    window = config.creation_window_min
    for g, tr in enumerate(cluster):
        shifted_t = tr.t + shifts[g]
        # Created: timeline instants claiming activity when the
        # (shifted) member had none anywhere near.
        gaps = np.abs(timeline[:, None] - shifted_t[None, :]).min(axis=1)
        stats.created_samples += int((gaps > window).sum())
        # Deleted: original samples falling outside the published
        # timeline's span — resampling cannot represent them at all.
        inside = (shifted_t >= timeline[0] - window) & (shifted_t <= timeline[-1] + window)
        stats.deleted_samples += int((~inside).sum())
        # Provenance-matched errors of the represented samples.
        if inside.any():
            j = np.abs(shifted_t[inside, None] - timeline[None, :]).argmin(axis=1)
            stats.position_errors_m.extend(
                np.hypot(
                    edited[g, j, 0] - tr.x[inside], edited[g, j, 1] - tr.y[inside]
                ).tolist()
            )
            stats.time_errors_min.extend(np.abs(timeline[j] - tr.t[inside]).tolist())
        rows = _trajectory_to_samples(timeline, edited[g, :, 0], edited[g, :, 1])
        out.add(Fingerprint(tr.uid, rows, count=1, members=(tr.uid,)))
    stats.n_clusters += 1
    stats.group_members.append(tuple(tr.uid for tr in cluster))


def w4m_lc(dataset: FingerprintDataset, config: W4MConfig = W4MConfig()) -> W4MResult:
    """Anonymize a fingerprint dataset with W4M-LC.

    The output contains one fingerprint per surviving subscriber (W4M
    publishes per-object edited trajectories, not merged group records;
    its guarantee is ``(k, delta)``-anonymity, not exact k-anonymity).
    """
    trajs = [PointTrajectory.from_fingerprint(fp) for fp in dataset]
    stats = W4MStats(total_original_samples=dataset.n_samples)
    out = FingerprintDataset(name=f"{dataset.name}-w4m-k{config.k}")

    for chunk in chunk_indices(len(trajs), config.chunk_size):
        chunk_trajs = [trajs[int(i)] for i in chunk]
        distance = lst_distance_matrix(chunk_trajs, config.sync_points)
        outcome = greedy_k_clusters(distance, config.k, config.trash_fraction)
        for local_trash in outcome.trashed:
            stats.discarded_fingerprints += 1
            stats.deleted_samples += chunk_trajs[int(local_trash)].m
        for members in outcome.clusters:
            _anonymize_cluster(chunk_trajs, members, distance, config, stats, out)
    return W4MResult(dataset=out, stats=stats, config=config)
