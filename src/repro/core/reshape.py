"""Reshaping: resolution of temporal overlaps in merged fingerprints.

Merging may produce samples whose time intervals overlap while their
geographic areas differ (paper Fig. 6b): formally correct but hard to
read or analyze.  Reshaping sweeps the samples in time order and
replaces every run of temporally-overlapping samples with a single new
sample covering the union of their time intervals and of their
geographic areas (Eq. 12-13 applied to the run).

Reshaping costs spatial granularity but improves usability; GLOVE runs
it by default after every merge, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.merge import generalize_rows
from repro.core.sample import DT, NCOLS, T

#: Start-before-end tolerance of an overlap, minutes.
ATOL = 1e-9


def has_temporal_overlap(data: np.ndarray, atol: float = ATOL) -> bool:
    """Whether any two sample intervals of a time-sorted array overlap.

    Samples that merely touch (one ends exactly when the next starts)
    are not considered overlapping.
    """
    if data.shape[0] < 2:
        return False
    order = np.argsort(data[:, T], kind="stable")
    starts = data[order, T]
    ends = starts + data[order, DT]
    return bool((starts[1:] < np.maximum.accumulate(ends[:-1]) - atol).any())


def reshape_sample_array(data: np.ndarray, atol: float = ATOL) -> np.ndarray:
    """Merge every run of temporally-overlapping samples into one sample.

    Returns a new time-sorted ``(m', 6)`` array, ``m' <= m``, whose
    intervals are pairwise non-overlapping.  Idempotent.
    """
    if data.shape[0] < 2:
        return data.copy()
    order = np.argsort(data[:, T], kind="stable")
    rows = data[order]

    groups = []
    current = [rows[0]]
    current_end = rows[0, T] + rows[0, DT]
    for row in rows[1:]:
        if row[T] < current_end - atol:
            current.append(row)
            current_end = max(current_end, row[T] + row[DT])
        else:
            groups.append(current)
            current = [row]
            current_end = row[T] + row[DT]
    groups.append(current)

    out = np.empty((len(groups), NCOLS), dtype=np.float64)
    for i, group in enumerate(groups):
        if len(group) == 1:
            out[i] = group[0]
        else:
            out[i] = generalize_rows(np.vstack(group))
    return out


def reshape_fingerprint(fp: Fingerprint) -> Fingerprint:
    """Reshaped copy of a fingerprint (``fp`` itself if no overlaps exist)."""
    if not has_temporal_overlap(fp.data):
        return fp
    return fp.with_samples(reshape_sample_array(fp.data))
