"""Tests for CSV serialization."""

import csv
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cdr import io as cdr_io
from repro.cdr.io import (
    read_events_csv,
    read_fingerprints_csv,
    write_events_csv,
    write_fingerprints_csv,
)
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from tests.conftest import make_fp
from tests.test_cli import _FUZZ_EVENTS, _mutate


class TestEventCSV:
    def test_roundtrip(self, small_civ, tmp_path):
        path = tmp_path / "events.csv"
        n = write_events_csv(small_civ, path)
        assert n == small_civ.n_samples
        back = read_events_csv(path)
        assert sorted(back.uids) == sorted(small_civ.uids)
        for uid in small_civ.uids:
            np.testing.assert_allclose(back[uid].data, small_civ[uid].data)

    def test_rejects_generalized_data(self, tmp_path):
        fp = make_fp("g", [(0.0, 0.0, 0.0, 500.0, 500.0, 60.0)])
        with pytest.raises(ValueError, match="generalized"):
            write_events_csv(FingerprintDataset([fp]), tmp_path / "x.csv")

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_events_csv(path)


class TestFingerprintCSV:
    def test_roundtrip_with_groups(self, tmp_path):
        ds = FingerprintDataset(
            [
                make_fp(
                    "g1",
                    [(0.0, 0.0, 0.0, 500.0, 500.0, 60.0)],
                    count=2,
                    members=("a", "b"),
                ),
                make_fp("g2", [(1.0, 2.0, 3.0)]),
            ]
        )
        path = tmp_path / "fps.csv"
        n = write_fingerprints_csv(ds, path)
        assert n == 2
        back = read_fingerprints_csv(path)
        assert back["g1"].count == 2
        assert len(back["g1"].members) == 2
        np.testing.assert_allclose(back["g1"].data, ds["g1"].data, atol=1e-3)

    def test_glove_output_roundtrip(self, small_civ, tmp_path):
        from repro.core.config import GloveConfig
        from repro.core.glove import glove

        result = glove(small_civ, GloveConfig(k=2))
        path = tmp_path / "anon.csv"
        write_fingerprints_csv(result.dataset, path)
        back = read_fingerprints_csv(path)
        assert back.n_users == small_civ.n_users
        assert back.is_k_anonymous(2)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("uid,count\nx,1\n")
        with pytest.raises(ValueError, match="header"):
            read_fingerprints_csv(path)

    def test_preserves_order(self, tmp_path):
        ds = FingerprintDataset(
            [make_fp("z", [(0.0, 0.0, 0.0)]), make_fp("a", [(1.0, 1.0, 1.0)])]
        )
        path = tmp_path / "order.csv"
        write_fingerprints_csv(ds, path)
        assert read_fingerprints_csv(path).uids == ["z", "a"]


class TestByteStableRoundTrip:
    """write -> read -> write must be a byte-level fixed point.

    The CSV is the publication format: once a dataset has passed
    through it, re-serializing the parsed records must reproduce the
    file exactly, so published artifacts can be round-tripped (and
    content-addressed) without drift.
    """

    def test_anonymized_dataset_round_trips_byte_for_byte(self, small_civ, tmp_path):
        from repro.core.config import GloveConfig
        from repro.core.glove import glove

        result = glove(small_civ, GloveConfig(k=2))
        first = tmp_path / "anon1.csv"
        second = tmp_path / "anon2.csv"
        write_fingerprints_csv(result.dataset, first)
        back = read_fingerprints_csv(first)
        write_fingerprints_csv(back, second)
        assert first.read_bytes() == second.read_bytes()
        # Record-level identity too: every row group survives intact.
        assert back.uids == result.dataset.uids
        for uid in back.uids:
            assert back[uid].count == result.dataset[uid].count
            assert back[uid].data.shape == result.dataset[uid].data.shape

    def test_event_csv_round_trips_byte_for_byte(self, small_civ, tmp_path):
        first = tmp_path / "events1.csv"
        second = tmp_path / "events2.csv"
        write_events_csv(small_civ, first)
        write_events_csv(read_events_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_cli_anonymize_output_round_trips_byte_for_byte(self, tmp_path):
        from repro.cli import main

        raw = tmp_path / "raw.csv"
        published = tmp_path / "published.csv"
        rewritten = tmp_path / "rewritten.csv"
        assert main(
            ["generate", "synth-civ", "--users", "30", "--days", "2", "--seed", "4",
             "-o", str(raw), "--no-cache"]
        ) == 0
        assert main(
            ["anonymize", str(raw), "-k", "2", "--suppress", "15000", "360",
             "-o", str(published), "--no-cache"]
        ) == 0
        back = read_fingerprints_csv(published)
        write_fingerprints_csv(back, rewritten)
        assert published.read_bytes() == rewritten.read_bytes()
        assert back.is_k_anonymous(2)


def _read_outcome(path):
    """Each user's uid and data bytes in dataset order, or the error text."""
    try:
        dataset = read_events_csv(path)
    except ValueError as exc:
        return str(exc)
    return [(fp.uid, fp.data.tobytes()) for fp in dataset]


#: Event CSV bodies (after the header) at the edges of the CSV grammar,
#: and where each one's error must point (``None``: the file reads).
_EDGE_EVENTS = {
    "blank-line": (b"u1,0,1.0,2.0\n\nu2,1,3.0,4.0\n", ":3: "),
    "blank-last-line": (b"u1,0,1.0,2.0\n\n", ":3: "),
    "blank-only": (b"\r\n", ":2: "),
    "whitespace-line": (b"u1,0,1.0,2.0\n \nu2,1,3.0,4.0\n", ":3: "),
    "crlf": (b"u1,0,1.0,2.0\r\nu2,1,3.0,4.0\r\nu1,2,5.0,6.0\r\n", None),
    "cr-only": (b"u1,0,1.0,2.0\ru2,1,3.0,4.0\ru1,2,5.0,6.0\r", None),
    "no-final-newline": (b"u1,0,1.0,2.0\nu2,1,3.0,4.0", None),
    "quoted-uids": (b'"u,1",0,1.0,2.0\n"u""2",1,3.0,4.0\n"u\n3",2,5.0,6.0\n', None),
    "quoted-on-one-line": (b'"u,1",0,1.0,2.0\n"u""2",1,3.0,4.0\n"u1","3",7.0,8.0\n', None),
    # csv.reader reads a NUL from Python 3.11 on.
    "trailing-nul": (
        b"u1\x00,0,1.0,2.0\nu1,1,3.0,4.0\n",
        None if sys.version_info >= (3, 11) else ":2: line contains NUL",
    ),
    "underscore": (b"u1,1_000,1.0,2.0\nu2,5,3_0.5,4.0\n", None),
    "nan": (b"u1,0,nan,2.0\nu2,1,3.0,4.0\n", ": user u1: "),
    "short-row": (b"u1,0,1.0,2.0\nu1,1,3.0\n", ":3: "),
    "long-row": (b"u1,0,1.0,2.0\nu1,1,3.0,4.0,5.0\n", ":3: "),
    "duplicated-header": (b"uid,t_min,x_m,y_m\nu1,0,1.0,2.0\n", ":2: "),
    # A row's error names its first bad field in x, y, t order.
    "bad-t-and-x": (
        b"u1,0,1.0,2.0\nu1,abc,xyz,2.0\n", ":3: could not convert string to float: 'xyz'"
    ),
    "bad-t-and-y": (b"u1,abc,1.0,xyz\n", ":2: could not convert string to float: 'xyz'"),
    "header-only": (b"", None),
}


class TestTokenizerMatchesRowLoop:
    """The ``np.loadtxt`` pass gives what the ``csv.reader`` loop gives:
    the same uids, order and data bytes, or the same error."""

    @staticmethod
    def _loop_outcome(path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(cdr_io, "_tokenize_events", lambda f: None)
            return _read_outcome(path)

    def test_fuzz_mutants(self, tmp_path, monkeypatch):
        rng = random.Random("glove-io-differential")
        tokenized = []
        tokenize = cdr_io._tokenize_events

        def counted(f):
            table = tokenize(f)
            tokenized.append(table is not None)
            return table

        monkeypatch.setattr(cdr_io, "_tokenize_events", counted)
        for n in range(500):
            path = tmp_path / f"mutant-{n}.csv"
            path.write_bytes(_mutate(rng, _FUZZ_EVENTS))
            fast = _read_outcome(path)
            assert fast == self._loop_outcome(path, monkeypatch), path.read_bytes()
        # Most mutants keep a valid header; the fast pass must take a
        # real share of them, not fall back on everything.
        assert sum(tokenized) >= 150

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(_EDGE_EVENTS))
    def test_edge_cases(self, tmp_path, monkeypatch, case):
        body, where = _EDGE_EVENTS[case]
        path = tmp_path / f"{case}.csv"
        path.write_bytes(b"uid,t_min,x_m,y_m\n" + body)
        fast = _read_outcome(path)
        assert fast == self._loop_outcome(path, monkeypatch)
        if where is None:
            assert isinstance(fast, list)
        else:
            assert fast.startswith(f"{path}{where}")

    @pytest.mark.parametrize("reads_nul", [True, False])
    def test_nul_uid_goes_to_the_row_loop_where_csv_rejects_nul(
        self, tmp_path, monkeypatch, reads_nul
    ):
        path = tmp_path / "nul.csv"
        path.write_bytes(b"uid,t_min,x_m,y_m\n" + _EDGE_EVENTS["trailing-nul"][0])
        monkeypatch.setattr(cdr_io, "_CSV_READS_NUL", reads_nul)
        with open(path, newline="") as f:
            next(f)
            tokenized = cdr_io._tokenize_events(f) is not None
        assert tokenized == reads_nul

    def test_underscore_digits_read_through_the_row_loop(self, tmp_path):
        # NumPy's float parser refuses "1_000"; float() reads it.
        path = tmp_path / "underscore.csv"
        path.write_bytes(b"uid,t_min,x_m,y_m\n" + _EDGE_EVENTS["underscore"][0])
        dataset = read_events_csv(path)
        assert dataset["u1"].data[0, 4] == 1000.0
        assert dataset["u2"].data[0, 0] == 30.5

    def test_bad_utf8_past_the_first_read_names_the_file(self, tmp_path, monkeypatch):
        # The header's read decodes the first 8 KB; the bad byte lies past it.
        rows = b"".join(b"u%d,%d,1.0,2.0\n" % (i % 7, i) for i in range(1000))
        path = tmp_path / "late-latin1.csv"
        path.write_bytes(b"uid,t_min,x_m,y_m\n" + rows + b"u\xe9,0,1.0,2.0\n")
        assert path.stat().st_size > 8192
        fast = _read_outcome(path)
        assert fast == self._loop_outcome(path, monkeypatch)
        assert fast.startswith(f"{path}:") and "'utf-8' codec" in fast

    def test_users_sorted_rows_in_file_order(self, tmp_path):
        # Interleaved users and tied times: the sorted-uid order and,
        # within a user, file order before the stable sort by time.
        rows = [("b", 5, 1.0, 2.0), ("a", 9, 3.0, 4.0), ("b", 5, 7.0, 8.0),
                ("c", 1, 0.0, 0.0), ("a", 2, 5.0, 6.0), ("b", 0, 9.0, 9.0)]
        path = tmp_path / "interleaved.csv"
        path.write_text("uid,t_min,x_m,y_m\n" + "".join(
            f"{uid},{t},{x},{y}\n" for uid, t, x, y in rows))
        dataset = read_events_csv(path)
        assert dataset.uids == ["a", "b", "c"]
        for fp in dataset:
            own = [(x, y, float(t)) for uid, t, x, y in rows if uid == fp.uid]
            assert fp.data.tobytes() == make_fp(fp.uid, own).data.tobytes()


def test_csv_errors_name_the_file_and_line(tmp_path):
    # csv.reader raises csv.Error, which is no ValueError, on a field over
    # its size limit.  The event file's blank line sends it to the row
    # loop: the NumPy pass has no such limit.
    uid = "u" * (csv.field_size_limit() + 1)
    events = tmp_path / "events.csv"
    events.write_text(f"uid,t_min,x_m,y_m\n{uid},0,1.0,2.0\n\n")
    with pytest.raises(ValueError, match=f"^{events}:2: field larger than field limit"):
        read_events_csv(events)
    fingerprints = tmp_path / "fingerprints.csv"
    fingerprints.write_text(f"uid,count,x,dx,y,dy,t,dt\n{uid},1,0,100,0,100,0,1\n")
    with pytest.raises(ValueError, match=f"^{fingerprints}:2: field larger than field limit"):
        read_fingerprints_csv(fingerprints)
    header = tmp_path / "header.csv"
    header.write_text(f"{uid},t_min,x_m,y_m\n")
    with pytest.raises(ValueError, match=f"^{header}: field larger than field limit"):
        read_events_csv(header)


def test_reading_loads_no_scipy(tmp_path):
    """Importing the CLI and reading an event CSV load no scipy; the
    generator and TWI still import it where they use it."""
    path = tmp_path / "events.csv"
    path.write_text(_FUZZ_EVENTS)
    body = f"""
        import sys

        import numpy as np

        import repro.cli
        from repro.cdr.io import read_events_csv

        def scipy_loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        assert len(read_events_csv({str(path)!r})) == 4
        assert scipy_loaded() == [], scipy_loaded()
        from repro.analysis import tail_weight_index
        assert tail_weight_index(np.arange(100.0)) > 0
        assert "scipy.stats" in scipy_loaded()
        from repro.cdr import AntennaNetwork
        from repro.geo.region import Region
        AntennaNetwork(Region("box", 0.0, 1e5, 0.0, 1e5))
        assert "scipy.spatial" in scipy_loaded()
        """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    assert proc.returncode == 0, proc.stderr
