"""CSV serialization of CDR events and fingerprint datasets.

Two formats are supported:

* **event CSV** -- one row per original-granularity sample
  (``uid,t_min,x_m,y_m``), the closest analogue of a raw CDR dump;
* **fingerprint CSV** -- one row per (possibly generalized) sample
  (``uid,count,x,dx,y,dy,t,dt``), capable of round-tripping GLOVE
  output including group counts.

Both formats are plain text so anonymized datasets can be published and
inspected without this library.  The readers report malformed input as
a ``ValueError`` naming the file, and the line of a bad row:
``<path>:<line>: <reason>``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.sample import DEFAULT_DT_MIN, DEFAULT_DX_M, DEFAULT_DY_M, NCOLS

PathLike = Union[str, Path]

EVENT_HEADER = ["uid", "t_min", "x_m", "y_m"]
FINGERPRINT_HEADER = ["uid", "count", "x", "dx", "y", "dy", "t", "dt"]


def write_events_csv(dataset: FingerprintDataset, path: PathLike) -> int:
    """Write original-granularity samples as an event CSV; returns row count.

    Raises ``ValueError`` when a fingerprint is generalized (extent
    differing from the original 100 m / 1 min granularity), since the
    event format cannot represent it.
    """
    n = 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EVENT_HEADER)
        for fp in dataset:
            for row in fp.data:
                x, dx, y, dy, t, dt = row
                if dx != DEFAULT_DX_M or dy != DEFAULT_DY_M or dt != DEFAULT_DT_MIN:
                    raise ValueError(
                        f"fingerprint {fp.uid!r} is generalized; "
                        "use write_fingerprints_csv instead"
                    )
                writer.writerow([fp.uid, f"{t:.0f}", f"{x:.1f}", f"{y:.1f}"])
                n += 1
    return n


def _check_header(reader, expected: List[str], kind: str, path: PathLike) -> None:
    """Consume the header row; an empty or undecodable file fails here."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    except UnicodeDecodeError as exc:  # decoding runs ahead of the rows
        raise ValueError(f"{path}: {exc}") from None
    if header != expected:
        raise ValueError(f"{path}: unexpected {kind} CSV header: {header}")


def _fingerprint(path: PathLike, uid: str, rows, **kwargs) -> Fingerprint:
    """One user's fingerprint; a rejected value names the file and user."""
    try:
        return Fingerprint(uid, np.asarray(rows, dtype=np.float64), **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: user {uid}: {exc}") from None


def read_events_csv(path: PathLike, name: str = None) -> FingerprintDataset:
    """Read an event CSV back into a fingerprint dataset."""
    by_user: Dict[str, List[List[float]]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        _check_header(reader, EVENT_HEADER, "event", path)
        try:
            for rec in reader:
                uid, t, x, y = rec
                by_user.setdefault(uid, []).append(
                    [float(x), DEFAULT_DX_M, float(y), DEFAULT_DY_M, float(t), DEFAULT_DT_MIN]
                )
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    dataset = FingerprintDataset(name=name or Path(path).stem)
    for uid in sorted(by_user):
        dataset.add(_fingerprint(path, uid, by_user[uid]))
    return dataset


def write_fingerprints_csv(dataset: FingerprintDataset, path: PathLike) -> int:
    """Write a (generalized) fingerprint dataset; returns row count."""
    n = 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(FINGERPRINT_HEADER)
        for fp in dataset:
            for row in fp.data:
                x, dx, y, dy, t, dt = row
                writer.writerow(
                    [fp.uid, fp.count]
                    + [f"{v:.3f}" for v in (x, dx, y, dy, t, dt)]
                )
                n += 1
    return n


def read_fingerprints_csv(path: PathLike, name: str = None) -> FingerprintDataset:
    """Read a fingerprint CSV produced by :func:`write_fingerprints_csv`.

    Group membership lists are not serialized; each row group is
    restored with synthetic member labels ``<uid>#0 .. <uid>#count-1``.
    """
    rows_by_user: Dict[str, List[List[float]]] = {}
    counts: Dict[str, int] = {}
    order: List[str] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        _check_header(reader, FINGERPRINT_HEADER, "fingerprint", path)
        try:
            for rec in reader:
                uid, count, x, dx, y, dy, t, dt = rec
                if uid not in rows_by_user:
                    order.append(uid)
                rows_by_user.setdefault(uid, []).append(
                    [float(x), float(dx), float(y), float(dy), float(t), float(dt)]
                )
                counts[uid] = int(count)
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    dataset = FingerprintDataset(name=name or Path(path).stem)
    for uid in order:
        count = counts[uid]
        members = tuple(f"{uid}#{i}" for i in range(count)) if count > 1 else (uid,)
        dataset.add(
            _fingerprint(path, uid, rows_by_user[uid], count=count, members=members)
        )
    return dataset
