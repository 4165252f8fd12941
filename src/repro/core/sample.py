"""Spatiotemporal samples.

A sample records that a subscriber was somewhere inside a geographical
rectangle during a time interval (paper Section 4.1):

* spatial part  ``sigma = (x, dx, y, dy)`` -- the rectangle
  ``[x, x+dx] x [y, y+dy]`` in metres on the projected plane;
* temporal part ``tau = (t, dt)`` -- the interval ``[t, t+dt]`` in
  minutes from the dataset epoch.

In the original (non-generalized) datasets every sample has
``dx = dy = 100 m`` and ``dt = 1 min``.

For vectorized processing, a fingerprint stores its samples as a float64
array of shape ``(m, 6)`` whose columns are indexed by the ``X .. DT``
constants below.  The :class:`Sample` dataclass is the scalar,
user-facing view of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Column indices of the (m, 6) sample array.
X, DX, Y, DY, T, DT = 0, 1, 2, 3, 4, 5

#: Number of columns in a sample array.
NCOLS = 6

#: The paper's finest granularities.
DEFAULT_DX_M = 100.0
DEFAULT_DY_M = 100.0
DEFAULT_DT_MIN = 1.0


@dataclass(frozen=True)
class Sample:
    """One spatiotemporal sample (scalar view).

    Attributes
    ----------
    x, y:
        Lower-left corner of the bounding rectangle, metres.
    dx, dy:
        Rectangle extents, metres (>= 0).
    t:
        Start of the time interval, minutes from the dataset epoch.
    dt:
        Interval length, minutes (>= 0).
    """

    x: float
    y: float
    t: float
    dx: float = DEFAULT_DX_M
    dy: float = DEFAULT_DY_M
    dt: float = DEFAULT_DT_MIN

    def __post_init__(self) -> None:
        if self.dx < 0 or self.dy < 0:
            raise ValueError("spatial extents dx, dy must be non-negative")
        if self.dt < 0:
            raise ValueError("temporal extent dt must be non-negative")

    @property
    def x_max(self) -> float:
        """Right edge of the rectangle."""
        return self.x + self.dx

    @property
    def y_max(self) -> float:
        """Top edge of the rectangle."""
        return self.y + self.dy

    @property
    def t_end(self) -> float:
        """End of the time interval."""
        return self.t + self.dt

    @property
    def center(self) -> tuple:
        """Spatial center ``(x, y)`` of the rectangle."""
        return (self.x + self.dx / 2.0, self.y + self.dy / 2.0)

    @property
    def t_mid(self) -> float:
        """Midpoint of the time interval."""
        return self.t + self.dt / 2.0

    def to_row(self) -> np.ndarray:
        """Render the sample as one row of a sample array."""
        return np.array([self.x, self.dx, self.y, self.dy, self.t, self.dt], dtype=np.float64)

    @classmethod
    def from_row(cls, row: np.ndarray) -> "Sample":
        """Build a sample from one row of a sample array."""
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (NCOLS,):
            raise ValueError(f"expected a row of {NCOLS} values, got shape {row.shape}")
        return cls(x=row[X], dx=row[DX], y=row[Y], dy=row[DY], t=row[T], dt=row[DT])

    def covers(self, other: "Sample") -> bool:
        """Whether this sample's rectangle and interval contain ``other``'s."""
        return (
            self.x <= other.x
            and self.x_max >= other.x_max
            and self.y <= other.y
            and self.y_max >= other.y_max
            and self.t <= other.t
            and self.t_end >= other.t_end
        )


def samples_array(samples) -> np.ndarray:
    """Stack an iterable of :class:`Sample` (or rows) into an ``(m, 6)`` array.

    An empty iterable yields a ``(0, 6)`` array.
    """
    rows = []
    for s in samples:
        if isinstance(s, Sample):
            rows.append(s.to_row())
        else:
            row = np.asarray(s, dtype=np.float64)
            if row.shape != (NCOLS,):
                raise ValueError(f"expected rows of {NCOLS} values, got shape {row.shape}")
            rows.append(row)
    if not rows:
        return np.empty((0, NCOLS), dtype=np.float64)
    return np.vstack(rows)


def validate_sample_array(arr: np.ndarray) -> np.ndarray:
    """Check that ``arr`` is a well-formed ``(m, 6)`` sample array.

    Returns the array as contiguous float64.  Raises ``ValueError`` on
    wrong shape, NaNs, or negative extents.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != NCOLS:
        raise ValueError(f"sample array must have shape (m, {NCOLS}), got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("sample array contains non-finite values")
    # Columns DX, DY and DT are 1, 3 and 5: one strided view, no copy.
    if arr.size and arr[:, DX::2].min() < 0:
        raise ValueError("sample extents dx, dy, dt must be non-negative")
    return arr
