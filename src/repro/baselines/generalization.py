"""Legacy uniform spatiotemporal generalization (paper Fig. 4).

The classic defence against uniqueness: reduce the granularity of
*every* sample identically, snapping positions to a coarse spatial grid
and times to coarse intervals.  The paper sweeps six levels, from the
original granularity (0.1 km, 1 min) to an uninformative one (20 km,
480 min), and shows the approach fails — which motivates GLOVE's
per-sample specialized generalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.sample import DT, DX, DY, T, X, Y


@dataclass(frozen=True)
class GeneralizationLevel:
    """One uniform generalization level.

    Attributes
    ----------
    spatial_m:
        Spatial bin side in metres.
    temporal_min:
        Temporal bin length in minutes.
    """

    spatial_m: float
    temporal_min: float

    def __post_init__(self) -> None:
        if not (0 < self.spatial_m < math.inf and 0 < self.temporal_min < math.inf):
            raise ValueError(
                "generalization bins must be positive and finite, got "
                f"spatial_m={self.spatial_m}, temporal_min={self.temporal_min}"
            )

    @property
    def label(self) -> str:
        """The paper's "km-min" tag, e.g. ``"2.5-60"``."""
        km = self.spatial_m / 1000.0
        return f"{km:g}-{self.temporal_min:g}"

    def __str__(self) -> str:
        return self.label


#: The six levels of the paper's Fig. 4, labeled in km-min.
PAPER_LEVELS: Tuple[GeneralizationLevel, ...] = (
    GeneralizationLevel(100.0, 1.0),
    GeneralizationLevel(1_000.0, 30.0),
    GeneralizationLevel(2_500.0, 60.0),
    GeneralizationLevel(5_000.0, 120.0),
    GeneralizationLevel(10_000.0, 240.0),
    GeneralizationLevel(20_000.0, 480.0),
)


def generalize_sample_array(data: np.ndarray, level: GeneralizationLevel) -> np.ndarray:
    """Snap every sample to the level's space/time bins.

    Each sample's lower corner moves to its bin origin and its extents
    become the bin sizes; samples falling in the same (x, y, t) bin
    collapse into one.  The output stays truthful: every original
    rectangle/interval is contained in its bin because original extents
    never exceed bin sizes in the paper's sweep (coarsening only).
    """
    out = data.copy()
    out[:, X] = np.floor(out[:, X] / level.spatial_m) * level.spatial_m
    out[:, Y] = np.floor(out[:, Y] / level.spatial_m) * level.spatial_m
    out[:, T] = np.floor(out[:, T] / level.temporal_min) * level.temporal_min
    out[:, DX] = level.spatial_m
    out[:, DY] = level.spatial_m
    out[:, DT] = level.temporal_min
    return np.unique(out, axis=0)


def generalize_dataset(
    dataset: FingerprintDataset, level: GeneralizationLevel
) -> FingerprintDataset:
    """Uniformly generalized copy of a dataset."""
    out = FingerprintDataset(name=f"{dataset.name}-gen-{level.label}")
    for fp in dataset:
        out.add(fp.with_samples(generalize_sample_array(fp.data, level)))
    return out
