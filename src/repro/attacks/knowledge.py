"""Adversary knowledge models for record-linkage attacks.

An adversary's side information about a target is a set of
spatiotemporal constraints: "the target was inside this area during
this interval".  Two generators mirror the literature the paper builds
on:

* :func:`top_locations_knowledge` -- the target's ``n`` most frequented
  locations (Zang & Bolot's attack [5]); purely spatial.
* :func:`random_sample_knowledge` -- ``n`` random spatiotemporal
  samples of the target's fingerprint (de Montjoye et al.'s attack
  [6]).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.sample import DT, DX, DY, T, X, Y


@dataclass(frozen=True)
class SpatialConstraint:
    """"The target visits the rectangle ``[x, x+dx] x [y, y+dy]``"."""

    x: float
    dx: float
    y: float
    dy: float


@dataclass(frozen=True)
class SpatioTemporalConstraint:
    """"The target was in the rectangle during ``[t, t+dt]``"."""

    x: float
    dx: float
    y: float
    dy: float
    t: float
    dt: float


def top_locations_knowledge(
    fp: Fingerprint, n: int = 3
) -> List[SpatialConstraint]:
    """The ``n`` most frequently sampled locations of a fingerprint.

    Locations are identified by their exact spatial rectangle; ties are
    broken by earliest appearance, matching what an observer counting
    sightings would produce.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    keys = [tuple(row) for row in fp.data[:, [X, DX, Y, DY]]]
    counts = Counter(keys)
    first_seen = {}
    for i, key in enumerate(keys):
        first_seen.setdefault(key, i)
    ranked = sorted(counts, key=lambda key: (-counts[key], first_seen[key]))
    return [SpatialConstraint(*key) for key in ranked[:n]]


def random_sample_knowledge(
    fp: Fingerprint, n: int = 4, rng: Optional[np.random.Generator] = None
) -> List[SpatioTemporalConstraint]:
    """``n`` random spatiotemporal samples of a fingerprint.

    When the fingerprint has fewer than ``n`` samples, all of them are
    returned.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    take = min(n, fp.m)
    idx = rng.choice(fp.m, size=take, replace=False)
    return [
        SpatioTemporalConstraint(
            x=row[X], dx=row[DX], y=row[Y], dy=row[DY], t=row[T], dt=row[DT]
        )
        for row in fp.data[np.sort(idx)]
    ]


def constraint_matches_fingerprint(constraint, fp: Fingerprint) -> bool:
    """Whether some sample of ``fp`` is consistent with the constraint.

    A published (possibly generalized) sample is consistent when its
    spatial rectangle overlaps the constraint's rectangle and — for
    spatiotemporal constraints — its time interval overlaps the
    constraint's interval.  Overlap (not containment) is the sound
    test: the adversary cannot exclude a candidate whose published
    region intersects the known one.
    """
    data = fp.data
    spatial = (
        (data[:, X] <= constraint.x + constraint.dx + 1e-9)
        & (constraint.x <= data[:, X] + data[:, DX] + 1e-9)
        & (data[:, Y] <= constraint.y + constraint.dy + 1e-9)
        & (constraint.y <= data[:, Y] + data[:, DY] + 1e-9)
    )
    if isinstance(constraint, SpatialConstraint):
        return bool(spatial.any())
    temporal = (
        (data[:, T] <= constraint.t + constraint.dt + 1e-9)
        & (constraint.t <= data[:, T] + data[:, DT] + 1e-9)
    )
    return bool((spatial & temporal).any())
