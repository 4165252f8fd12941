"""Mobile fingerprints.

The *mobile fingerprint* of a subscriber is the complete, time-ordered
set of spatiotemporal samples logged for that subscriber during the
recording period (paper Section 2.1).  After GLOVE merging, one
fingerprint may represent a whole *group* of subscribers whose
fingerprints have been made identical; the ``count`` attribute tracks
the group size (the ``n_a`` weight of Eq. 4 and the ``a.k`` counter of
Alg. 1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.sample import DT, NCOLS, T, Sample, samples_array, validate_sample_array


class Fingerprint:
    """A (possibly generalized) mobile fingerprint.

    Parameters
    ----------
    uid:
        Pseudo-identifier of the subscriber, or a tuple-joined label for
        merged groups.
    samples:
        Either an ``(m, 6)`` float64 array (columns ``x, dx, y, dy, t,
        dt``) or an iterable of :class:`~repro.core.sample.Sample`.
        Samples are stored sorted by interval start time, with every
        ``-0.0`` stored as ``+0.0``.
    count:
        Number of subscribers hidden in this fingerprint (>= 1).
    members:
        Pseudo-identifiers of all subscribers represented; defaults to
        ``(uid,)``.
    """

    __slots__ = ("uid", "data", "count", "members")

    def __init__(
        self,
        uid: str,
        samples,
        count: int = 1,
        members: Sequence[str] = None,
    ):
        if isinstance(samples, np.ndarray):
            data = validate_sample_array(samples)
        else:
            data = validate_sample_array(samples_array(samples))
        if count < 1 or int(count) != count:
            raise ValueError(f"count must be a positive integer, got {count}")
        order = np.argsort(data[:, T], kind="stable")
        self.uid = str(uid)
        self.data = data[order]
        # -0.0 + 0.0 is +0.0: no stored zero carries a sign bit, so the
        # native kernels' sequential min/max folds agree with NumPy's,
        # which break a +-0.0 tie by SIMD lane (DESIGN.md D9).  The
        # sorted copy is ours; the caller's array keeps its bits.
        self.data += 0.0
        self.count = int(count)
        self.members: Tuple[str, ...] = tuple(members) if members is not None else (str(uid),)
        if len(self.members) != self.count:
            raise ValueError(
                f"fingerprint {uid!r}: count={count} but {len(self.members)} members listed"
            )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.data.shape[0]

    def __iter__(self) -> Iterator[Sample]:
        for row in self.data:
            yield Sample.from_row(row)

    def __getitem__(self, i: int) -> Sample:
        return Sample.from_row(self.data[i])

    def __repr__(self) -> str:
        return f"Fingerprint(uid={self.uid!r}, m={len(self)}, count={self.count})"

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of samples (the fingerprint cardinality ``m_a`` of Eq. 10)."""
        return self.data.shape[0]

    @property
    def timespan_min(self) -> float:
        """Minutes between the start of the first and end of the last sample."""
        if self.m == 0:
            return 0.0
        return float(self.data[-1, T] + self.data[-1, DT] - self.data[0, T])

    def samples(self) -> List[Sample]:
        """All samples as scalar :class:`Sample` objects (time-ordered)."""
        return list(self)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def same_trace(self, other: "Fingerprint", atol: float = 1e-6) -> bool:
        """Whether two fingerprints have identical sample arrays.

        Used to verify k-anonymity: after GLOVE, every member of a group
        shares one sample array, and two published fingerprints are
        indistinguishable iff ``same_trace`` holds.
        """
        if self.m != other.m:
            return False
        return bool(np.allclose(self.data, other.data, atol=atol, rtol=0.0))

    def trace_key(self, decimals: int = 6) -> bytes:
        """Hashable canonical encoding of the sample array.

        Two fingerprints with equal ``trace_key`` are indistinguishable
        at ``10**-decimals`` precision.
        """
        return np.round(self.data, decimals).tobytes()

    # ------------------------------------------------------------------
    # Derived fingerprints
    # ------------------------------------------------------------------
    def restrict_time(self, t_min: float, t_max: float, uid: str = None) -> "Fingerprint":
        """Fingerprint restricted to samples starting in ``[t_min, t_max)``."""
        mask = (self.data[:, T] >= t_min) & (self.data[:, T] < t_max)
        return Fingerprint(
            uid if uid is not None else self.uid,
            self.data[mask],
            count=self.count,
            members=self.members,
        )

    def with_samples(self, data: np.ndarray) -> "Fingerprint":
        """Copy of this fingerprint with a replaced sample array."""
        return Fingerprint(self.uid, data, count=self.count, members=self.members)
