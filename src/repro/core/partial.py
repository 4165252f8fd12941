"""Partial-fingerprint k-anonymization (paper Section 7, extension).

Full-length anonymization is the paper's headline because it assumes
nothing about the adversary.  The paper notes that when higher ``k`` is
needed, "one may try to simplify the problem, by, e.g., making
assumptions about the attacker's knowledge ... [and] target partial
fingerprint anonymization, which is less expensive to achieve".

This module implements that suggested relaxation.  A *knowledge model*
selects, for every user, the sub-fingerprint the adversary is assumed
able to observe; GLOVE then k-anonymizes the dataset of
sub-fingerprints, and the generalization learned on each user's
sub-fingerprint is transferred to his remaining samples (which the
adversary, by assumption, never sees — they keep original granularity,
boosting utility).

Two knowledge models from the literature are provided:

* :func:`top_locations_model` — the adversary knows activity at the
  user's ``n`` most frequented locations (Zang & Bolot [5]);
* :func:`time_window_model` — the adversary can only observe a given
  daily time window (e.g. working hours).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.glove import GloveResult, glove
from repro.core.sample import DT, DX, DY, T, X, Y

#: A knowledge model maps a fingerprint to a boolean mask over its
#: samples: True where the adversary can observe.
KnowledgeModel = Callable[[Fingerprint], np.ndarray]

MINUTES_PER_DAY = 24 * 60


def top_locations_model(n: int = 3) -> KnowledgeModel:
    """Adversary observes samples at the user's top-``n`` locations."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def model(fp: Fingerprint) -> np.ndarray:
        keys = [tuple(row) for row in fp.data[:, [X, DX, Y, DY]]]
        counts = Counter(keys)
        top = {key for key, _ in counts.most_common(n)}
        return np.array([key in top for key in keys], dtype=bool)

    return model


def time_window_model(start_hour: int, end_hour: int) -> KnowledgeModel:
    """Adversary observes samples starting within ``[start, end)`` hours."""
    if not 0 <= start_hour < 24 or not 0 < end_hour <= 24 or start_hour >= end_hour:
        raise ValueError("need 0 <= start_hour < end_hour <= 24")

    def model(fp: Fingerprint) -> np.ndarray:
        hours = (fp.data[:, T] % MINUTES_PER_DAY) / 60.0
        return (hours >= start_hour) & (hours < end_hour)

    return model


@dataclass(frozen=True)
class PartialResult:
    """Outcome of partial k-anonymization.

    Attributes
    ----------
    dataset:
        Published dataset: one fingerprint per group over the *exposed*
        samples (generalized), with every user's unexposed samples
        appended at original granularity.
    exposed_result:
        The underlying full GLOVE result on the exposed
        sub-fingerprints.
    exposed_fraction:
        Share of original samples that were exposed (and generalized).
    n_users_without_exposure:
        Users whose knowledge-model mask selected no samples; they are
        trivially safe and published untouched.
    """

    dataset: FingerprintDataset
    exposed_result: GloveResult
    exposed_fraction: float
    n_users_without_exposure: int


def partial_glove(
    dataset: FingerprintDataset,
    model: KnowledgeModel,
    config: GloveConfig = GloveConfig(),
) -> PartialResult:
    """k-anonymize only the adversary-visible part of each fingerprint.

    The privacy guarantee is *conditional on the knowledge model*: an
    adversary whose side information is confined to the exposed samples
    cannot narrow any user below ``k`` candidates.  An adversary with
    broader knowledge may still re-identify users — this is exactly the
    trade-off the paper warns about, and why full-length anonymization
    is the default.
    """
    exposed_fps: List[Fingerprint] = []
    hidden_parts: Dict[str, np.ndarray] = {}
    untouched: List[Fingerprint] = []
    exposed_samples = 0
    total_samples = 0

    for fp in dataset:
        if fp.count != 1:
            raise ValueError("partial_glove expects per-subscriber input fingerprints")
        mask = np.asarray(model(fp), dtype=bool)
        if mask.shape != (fp.m,):
            raise ValueError(f"knowledge model returned bad mask for {fp.uid!r}")
        total_samples += fp.m
        exposed_samples += int(mask.sum())
        if not mask.any():
            untouched.append(fp)
            continue
        exposed_fps.append(Fingerprint(fp.uid, fp.data[mask]))
        hidden_parts[fp.uid] = fp.data[~mask]

    if len(exposed_fps) < config.k:
        raise ValueError(
            f"only {len(exposed_fps)} users have exposed samples; cannot reach k={config.k}"
        )

    exposed_result = glove(FingerprintDataset(exposed_fps, name="exposed"), config)

    out = FingerprintDataset(name=f"{dataset.name}-partial-k{config.k}")
    for group in exposed_result.dataset:
        # The group's generalized samples protect the exposed parts;
        # each member's hidden samples are re-attached untouched.
        hidden = [hidden_parts[m] for m in group.members if hidden_parts[m].size]
        rows = [group.data] + hidden
        out.add(
            Fingerprint(
                group.uid,
                np.vstack(rows),
                count=group.count,
                members=group.members,
            )
        )
    for fp in untouched:
        out.add(fp)

    return PartialResult(
        dataset=out,
        exposed_result=exposed_result,
        exposed_fraction=exposed_samples / total_samples if total_samples else 0.0,
        n_users_without_exposure=len(untouched),
    )