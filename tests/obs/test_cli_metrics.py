"""End-to-end tests of the ``--metrics*`` CLI flags (DESIGN.md D12)."""

import json
import os
import socket
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core import kernels
from repro.obs import get_metrics, validate_snapshot

#: Snapshot keys a stream run must always report (the D12 acceptance
#: set: throughput, latency quantiles, suppression, carry depth,
#: cache hit/miss, engine dispatch counters).
STREAM_COUNTERS = {
    "stream.events",
    "stream.windows",
    "artifact.hits",
    "artifact.misses",
    "engine.boundary_crossings",
    "engine.probe_dispatches",
    "engine.batched_probes",
    "engine.bound_pruned",
    "engine.lb1_evaluations",
    "engine.exact_memo_hits",
    "engine.lb1_memo_hits",
}
STREAM_GAUGES = {
    "stream.events_per_sec",
    "stream.window_latency_p50_s",
    "stream.window_latency_p95_s",
    "stream.suppression_rate",
    "stream.carry_over_depth",
    "kernel.cc_bound",
}


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "raw.csv"
    assert main(
        ["generate", "synth-civ", "--users", "30", "--days", "2", "--seed", "4",
         "-o", str(path)]
    ) == 0
    return path


def _stream(raw_csv, tmp_path, *extra):
    return main(
        ["stream", str(raw_csv), "-k", "2", "--window", "720", "--max-lag", "60",
         "-o", str(tmp_path / "out.csv"), *extra]
    )


class TestMetricsFlags:
    def test_metrics_prints_table(self, raw_csv, tmp_path, capsys):
        assert _stream(raw_csv, tmp_path, "--metrics") == 0
        out = capsys.readouterr().out
        assert "metrics (repro.metrics.v1)" in out
        assert "stream.events" in out
        assert "engine.boundary_crossings" in out
        assert "engine.lb1_evaluations" in out
        assert "engine.lb1_memo_hits" in out
        assert kernels.tier_line() in out.splitlines()

    def test_metrics_json_snapshot_has_acceptance_keys(self, raw_csv, tmp_path):
        snap_path = tmp_path / "metrics.json"
        assert _stream(raw_csv, tmp_path, "--metrics-json", str(snap_path)) == 0
        snapshot = json.loads(snap_path.read_text())
        validate_snapshot(snapshot)
        assert STREAM_COUNTERS <= set(snapshot["counters"])
        assert STREAM_GAUGES <= set(snapshot["gauges"])
        assert snapshot["counters"]["stream.events"] > 0
        assert snapshot["counters"]["engine.probe_dispatches"] > 0
        assert snapshot["gauges"]["kernel.cc_bound"] == float(kernels.COMPILED_AVAILABLE)

    def test_live_install_records_the_kernel_tier(self, raw_csv, tmp_path):
        # Any subcommand's live registry carries the gauge, also one
        # that runs no kernel.
        snap_path = tmp_path / "metrics.json"
        assert main(["info", str(raw_csv), "--metrics-json", str(snap_path)]) == 0
        snapshot = json.loads(snap_path.read_text())
        validate_snapshot(snapshot)
        assert snapshot["gauges"] == {"kernel.cc_bound": float(kernels.COMPILED_AVAILABLE)}

    def test_metrics_report_why_no_tier_is_bound(self, raw_csv, tmp_path):
        # The fallback shows in the table and the gauge, as in ``info``.
        snap = tmp_path / "m.json"
        env = dict(os.environ, REPRO_CC_KERNEL="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "measure", str(raw_csv), "-k", "2",
             "--metrics", "--metrics-json", str(snap)],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "kernel tier: none (disabled by REPRO_CC_KERNEL=0)" in proc.stdout
        assert json.loads(snap.read_text())["gauges"]["kernel.cc_bound"] == 0.0

    def test_cached_run_still_reports_stream_metrics(self, raw_csv, tmp_path):
        # First run computes; second is served from the artifact store
        # yet must report identical stream aggregates.
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        assert _stream(raw_csv, tmp_path, "--metrics-json", str(first)) == 0
        assert _stream(raw_csv, tmp_path, "--metrics-json", str(second)) == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        for key in STREAM_COUNTERS - {"artifact.hits", "artifact.misses"}:
            assert a["counters"][key] == b["counters"][key], key

    def test_registry_restored_after_run(self, raw_csv, tmp_path):
        assert _stream(raw_csv, tmp_path, "--metrics") == 0
        assert get_metrics().enabled is False

    def test_without_flags_no_registry_is_installed(self, raw_csv, tmp_path):
        assert _stream(raw_csv, tmp_path) == 0
        assert get_metrics().enabled is False

    @pytest.mark.parametrize("endpoint", ["closed-port", "no-scheme"])
    def test_otlp_unreachable_collector_exits_2(self, raw_csv, capsys, endpoint):
        if endpoint == "closed-port":
            with socket.socket() as s:
                s.bind(("127.0.0.1", 0))
                endpoint = f"http://127.0.0.1:{s.getsockname()[1]}"
        else:
            endpoint = "localhost:4318"
        assert main(["info", str(raw_csv), "--metrics-otlp", endpoint]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {endpoint}: ")
        assert "Traceback" not in err


class TestMetricsOnEverySubcommand:
    def test_generate(self, tmp_path):
        snap = tmp_path / "m.json"
        assert main(
            ["generate", "synth-civ", "--users", "10", "--days", "1", "--seed", "1",
             "-o", str(tmp_path / "g.csv"), "--metrics-json", str(snap)]
        ) == 0
        snapshot = json.loads(snap.read_text())
        validate_snapshot(snapshot)
        assert any(k.startswith("pipeline.dataset") for k in snapshot["counters"])

    def test_measure(self, raw_csv, tmp_path):
        snap = tmp_path / "m.json"
        assert main(
            ["measure", str(raw_csv), "-k", "2", "--metrics-json", str(snap)]
        ) == 0
        validate_snapshot(json.loads(snap.read_text()))

    def test_anonymize_reports_dispatch_counters(self, raw_csv, tmp_path):
        snap = tmp_path / "m.json"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "-o", str(tmp_path / "p.csv"),
             "--metrics-json", str(snap)]
        ) == 0
        snapshot = json.loads(snap.read_text())
        validate_snapshot(snapshot)
        assert snapshot["counters"]["engine.probe_dispatches"] > 0
        assert snapshot["counters"]["engine.lb1_evaluations"] > 0
        # Run again: the anonymize stage is cached, yet dispatch
        # counters must still be reported (harvested from the result).
        snap2 = tmp_path / "m2.json"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "-o", str(tmp_path / "p.csv"),
             "--metrics-json", str(snap2)]
        ) == 0
        cached = json.loads(snap2.read_text())
        for name in (
            "engine.probe_dispatches", "engine.lb1_evaluations",
            "engine.exact_memo_hits", "engine.lb1_memo_hits",
        ):
            assert cached["counters"][name] == snapshot["counters"][name]

    def test_attack(self, raw_csv, tmp_path):
        published = tmp_path / "p.csv"
        assert main(
            ["anonymize", str(raw_csv), "-k", "2", "-o", str(published)]
        ) == 0
        snap = tmp_path / "m.json"
        assert main(
            ["attack", str(raw_csv), str(published), "-k", "2",
             "--metrics-json", str(snap)]
        ) == 0
        validate_snapshot(json.loads(snap.read_text()))

    def test_info(self, raw_csv, tmp_path, capsys):
        assert main(["info", str(raw_csv), "--metrics"]) == 0
        assert "metrics (repro.metrics.v1)" in capsys.readouterr().out
