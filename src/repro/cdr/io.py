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
import itertools
import sys
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.sample import (
    DEFAULT_DT_MIN, DEFAULT_DX_M, DEFAULT_DY_M, DT, DX, DY, NCOLS, T, X, Y,
)

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
    except (UnicodeDecodeError, csv.Error) as exc:
        # Decoding runs ahead of the rows, and a csv.Error is no ValueError.
        raise ValueError(f"{path}: {exc}") from None
    if header != expected:
        raise ValueError(f"{path}: unexpected {kind} CSV header: {header}")


def _fingerprint(path: PathLike, uid: str, rows, **kwargs) -> Fingerprint:
    """One user's fingerprint; a rejected value names the file and user."""
    try:
        return Fingerprint(uid, np.asarray(rows, dtype=np.float64), **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: user {uid}: {exc}") from None


#: ``csv.reader`` rejects a NUL before Python 3.11; ``loadtxt`` keeps one
#: inside a uid, so there a uid holding a NUL goes to the row loop.
_CSV_READS_NUL = sys.version_info >= (3, 11)

#: One event CSV row as ``np.loadtxt`` tokenizes it.  ``uid`` is an
#: object field: a fixed-width ``U`` field would drop trailing NULs.
_EVENT_DTYPE = np.dtype([("uid", object), ("t", "f8"), ("x", "f8"), ("y", "f8")])


def read_events_csv(path: PathLike, name: str = None) -> FingerprintDataset:
    """Read an event CSV back into a fingerprint dataset.

    Users come in sorted-uid order, each user's rows in file order
    before :class:`Fingerprint` sorts them by time.  The rows are
    tokenized in one ``np.loadtxt`` pass; :func:`_event_rows`, the
    ``csv.reader`` loop, runs only where that pass cannot give its
    answer (DESIGN.md D14).
    """
    with open(path, newline="") as f:
        _check_header(csv.reader(f), EVENT_HEADER, "event", path)
        table = _tokenize_events(f)
    if table is None:
        uids, x, y, t = _event_rows(path)
    else:
        uids, x, y, t = table["uid"], table["x"], table["y"], table["t"]
    dataset = FingerprintDataset(name=name or Path(path).stem)
    n = len(uids)
    if n == 0:
        return dataset
    # A user's rows mostly come in one run, so the sort for the sorted
    # uid order runs over run heads only.
    heads = np.flatnonzero(np.concatenate(([True], uids[1:] != uids[:-1])))
    keys, run_key = np.unique(uids[heads], return_inverse=True)
    key = np.repeat(run_key, np.diff(np.append(heads, n)))
    order = np.argsort(key, kind="stable")
    data = np.empty((n, NCOLS))
    data[:, X], data[:, Y], data[:, T] = x[order], y[order], t[order]
    data[:, DX], data[:, DY], data[:, DT] = DEFAULT_DX_M, DEFAULT_DY_M, DEFAULT_DT_MIN
    stops = np.cumsum(np.bincount(key)).tolist()
    for uid, start, stop in zip(keys.tolist(), [0] + stops, stops):
        dataset.add(_fingerprint(path, uid, data[start:stop]))
    return dataset


def _tokenize_events(f):
    """The rows after the header as one ``np.loadtxt`` table, or ``None``
    where only the row loop gives the reader's answer.

    That is a row NumPy rejects (a bad row, or a number only ``float()``
    spells, such as ``1_000``), and a blank record, which ``loadtxt``
    skips silently where the loop rejects it: the table must hold one
    row per line read.  A quoted field across lines also falls back.
    ``loadtxt`` has no field-size limit, so a field longer than
    ``csv.field_size_limit()`` reads here where the loop rejects it.
    """
    first = next(f, "")
    if not first.rstrip("\r\n"):  # no rows, or a blank first record
        return None
    lines = itertools.count()
    try:
        table = np.loadtxt(
            map(itemgetter(0), zip(itertools.chain((first,), f), lines)),
            dtype=_EVENT_DTYPE, delimiter=",", comments=None, quotechar='"', ndmin=1,
        )
    except ValueError:  # UnicodeDecodeError included
        return None
    if len(table) != next(lines):
        return None
    if not _CSV_READS_NUL and "\x00" in "".join(table["uid"].tolist()):
        return None
    return table


def _event_rows(path: PathLike):
    """The ``csv.reader`` loop: ``(uids, x, y, t)`` in file order.

    A bad row raises ``<path>:<line>: <reason>``.  Fields convert x,
    then y, then t, so a row's error names the first bad one of those.
    """
    uids, rows = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        _check_header(reader, EVENT_HEADER, "event", path)
        try:
            for rec in reader:
                uid, t, x, y = rec
                rows.append((float(x), float(y), float(t)))
                uids.append(uid)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    xyt = np.array(rows, dtype=np.float64).reshape(-1, 3)
    return np.array(uids, dtype=object), xyt[:, 0], xyt[:, 1], xyt[:, 2]


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
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    dataset = FingerprintDataset(name=name or Path(path).stem)
    for uid in order:
        count = counts[uid]
        members = tuple(f"{uid}#{i}" for i in range(count)) if count > 1 else (uid,)
        dataset.add(
            _fingerprint(path, uid, rows_by_user[uid], count=count, members=members)
        )
    return dataset
