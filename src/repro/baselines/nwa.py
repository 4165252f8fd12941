"""NWA — "Never Walk Alone" (Abul, Bonchi, Nanni, ICDE 2008).

W4M's predecessor and the paper's related-work exemplar of techniques
"intended for datasets where the positions of all users are sampled
with identical periodicity": NWA enforces ``(k, delta)``-anonymity on
*synchronized* trajectories, so the anonymization concerns only the
spatial dimension.  CDR data violates the synchronization premise, and
this module exists to demonstrate that quantitatively: to run NWA at
all, every fingerprint must first be resampled onto one global uniform
timeline — fabricating synthetic positions for almost every published
instant and discarding the genuine event times entirely.

Pipeline:

1. build the global timeline (uniform period over the dataset span);
2. resample every trajectory onto it (linear interpolation with
   clamping — the synchronization step NWA presumes already done);
3. greedy k-member clustering under summed Euclidean distance on the
   synchronized matrix, with trashing;
4. per-instant delta-cylinder spatial editing, as in W4M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.w4m_cluster import greedy_k_clusters
from repro.baselines.w4m_distance import PointTrajectory
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.sample import DEFAULT_DT_MIN, DEFAULT_DX_M, DEFAULT_DY_M, NCOLS


@dataclass(frozen=True)
class NWAConfig:
    """NWA parameters.

    Attributes
    ----------
    k:
        Minimum cluster size.
    delta_m:
        Cylinder diameter in metres.
    period_min:
        Sampling period of the global synchronized timeline.
    trash_fraction:
        Fraction of trajectories trashed as outliers.
    """

    k: int = 2
    delta_m: float = 2_000.0
    period_min: float = 60.0
    trash_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0 < self.delta_m < math.inf:
            raise ValueError(f"delta_m must be positive and finite, got {self.delta_m}")
        if not 0 < self.period_min < math.inf:
            raise ValueError(
                f"period_min must be positive and finite, got {self.period_min}"
            )
        if not 0.0 <= self.trash_fraction < 1.0:
            raise ValueError("trash_fraction must be in [0, 1)")


@dataclass
class NWAStats:
    """Bookkeeping of one NWA run.

    Attributes
    ----------
    discarded_fingerprints:
        Trajectories trashed by clustering.
    created_samples:
        Synchronized instants with no original event nearby — on CDR
        data, the overwhelming majority of the output.
    deleted_samples:
        Original samples without a published counterpart within half a
        period.
    total_original_samples:
        Input size.
    position_errors_m / time_errors_min:
        Provenance-matched errors of represented samples.
    """

    discarded_fingerprints: int = 0
    created_samples: int = 0
    deleted_samples: int = 0
    total_original_samples: int = 0
    position_errors_m: List[float] = field(default_factory=list)
    time_errors_min: List[float] = field(default_factory=list)
    #: Cluster membership as uid tuples — the (k, delta) anonymity
    #: groups, auditable with the shared k-anonymity harness.
    group_members: List[Tuple[str, ...]] = field(default_factory=list)

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

    @property
    def mean_position_error_m(self) -> float:
        """Mean displacement of represented samples."""
        if not self.position_errors_m:
            return 0.0
        return float(np.mean(self.position_errors_m))

    @property
    def mean_time_error_min(self) -> float:
        """Mean claimed-vs-actual time difference."""
        if not self.time_errors_min:
            return 0.0
        return float(np.mean(self.time_errors_min))


@dataclass(frozen=True)
class NWAResult:
    """Anonymized dataset plus run statistics."""

    dataset: FingerprintDataset
    stats: NWAStats
    config: NWAConfig


def _rows_from_track(timeline: np.ndarray, track: np.ndarray) -> np.ndarray:
    rows = np.empty((timeline.shape[0], NCOLS))
    rows[:, 0] = track[:, 0] - DEFAULT_DX_M / 2.0
    rows[:, 1] = DEFAULT_DX_M
    rows[:, 2] = track[:, 1] - DEFAULT_DY_M / 2.0
    rows[:, 3] = DEFAULT_DY_M
    rows[:, 4] = timeline - DEFAULT_DT_MIN / 2.0
    rows[:, 5] = DEFAULT_DT_MIN
    return rows


def nwa(dataset: FingerprintDataset, config: NWAConfig = NWAConfig()) -> NWAResult:
    """Anonymize a fingerprint dataset with NWA.

    The synchronization step is performed internally (NWA presumes
    GPS-like input); its cost shows up as the ``created_samples``
    counter, which on CDR data dwarfs the dataset itself.
    """
    trajs = [PointTrajectory.from_fingerprint(fp) for fp in dataset]
    stats = NWAStats(total_original_samples=dataset.n_samples)
    out = FingerprintDataset(name=f"{dataset.name}-nwa-k{config.k}")

    t_min, t_max = dataset.time_extent()
    timeline = np.arange(t_min, t_max + config.period_min, config.period_min)

    tracks = np.stack([tr.positions_at(timeline) for tr in trajs])  # (n, m, 2)

    n = len(trajs)
    distance = np.full((n, n), np.inf)
    for i in range(n):
        diff = tracks[i + 1 :] - tracks[i][None, :, :]
        if diff.size:
            d = np.hypot(diff[..., 0], diff[..., 1]).mean(axis=1)
            distance[i, i + 1 :] = d
            distance[i + 1 :, i] = d

    outcome = greedy_k_clusters(distance, config.k, config.trash_fraction)
    for trash in outcome.trashed:
        stats.discarded_fingerprints += 1
        stats.deleted_samples += trajs[int(trash)].m

    radius = config.delta_m / 2.0
    half_period = config.period_min / 2.0
    for members in outcome.clusters:
        stats.group_members.append(tuple(trajs[int(i)].uid for i in members))
        cluster_tracks = tracks[members]
        centroid = cluster_tracks.mean(axis=0)
        offsets = cluster_tracks - centroid[None, :, :]
        dist = np.hypot(offsets[..., 0], offsets[..., 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(dist > radius, radius / np.where(dist > 0, dist, 1.0), 1.0)
        edited = centroid[None, :, :] + offsets * scale[..., None]

        for g, idx in enumerate(members):
            tr = trajs[int(idx)]
            gaps = np.abs(timeline[:, None] - tr.t[None, :]).min(axis=1)
            stats.created_samples += int((gaps > half_period).sum())
            provenance = np.abs(tr.t[:, None] - timeline[None, :])
            j = provenance.argmin(axis=1)
            orig_gaps = provenance[np.arange(tr.m), j]
            represented = orig_gaps <= half_period
            stats.deleted_samples += int((~represented).sum())
            if represented.any():
                jj = j[represented]
                stats.position_errors_m.extend(
                    np.hypot(
                        edited[g, jj, 0] - tr.x[represented],
                        edited[g, jj, 1] - tr.y[represented],
                    ).tolist()
                )
                stats.time_errors_min.extend(
                    np.abs(timeline[jj] - tr.t[represented]).tolist()
                )
            out.add(
                Fingerprint(
                    tr.uid, _rows_from_track(timeline, edited[g]), count=1,
                    members=(tr.uid,),
                )
            )
    return NWAResult(dataset=out, stats=stats, config=config)
