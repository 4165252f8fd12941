"""Tests of the snapshot renderers and the OTLP bridge."""

import http.server
import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    dump_json,
    export_otlp,
    render_table,
    snapshot_to_otlp,
    validate_snapshot,
)


@pytest.fixture
def snapshot():
    registry = MetricsRegistry(enabled=True)
    registry.counter("stream.events").inc(880)
    registry.gauge("stream.events_per_sec").set(9445.6)
    registry.histogram("stream.window_wall_s", boundaries=[0.1, 1.0]).observe(0.3)
    return registry.snapshot()


class TestRenderTable:
    def test_lists_every_instrument(self, snapshot):
        table = render_table(snapshot)
        assert "repro.metrics.v1" in table
        assert "stream.events" in table
        assert "stream.events_per_sec" in table
        assert "stream.window_wall_s" in table
        assert "p95" in table

    def test_empty_registry_renders(self):
        table = render_table(MetricsRegistry(enabled=True).snapshot())
        assert "no instruments" in table

    def test_rejects_invalid_snapshot(self):
        with pytest.raises(ValueError):
            render_table({"schema": "nope"})


class TestDumpJson:
    def test_round_trips_and_validates(self, snapshot, tmp_path):
        path = dump_json(snapshot, tmp_path / "deep" / "metrics.json")
        assert path.exists()
        loaded = json.loads(path.read_text())
        validate_snapshot(loaded)
        assert loaded == snapshot


class TestOtlpConversion:
    def test_counter_maps_to_monotonic_sum(self, snapshot):
        payload = snapshot_to_otlp(snapshot, time_unix_nano=123)
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        by_name = {m["name"]: m for m in metrics}
        counter = by_name["stream.events"]["sum"]
        assert counter["isMonotonic"] is True
        assert counter["dataPoints"][0] == {"timeUnixNano": 123, "asInt": 880}

    def test_gauge_and_histogram_shapes(self, snapshot):
        payload = snapshot_to_otlp(snapshot, time_unix_nano=123)
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        by_name = {m["name"]: m for m in metrics}
        gauge = by_name["stream.events_per_sec"]["gauge"]["dataPoints"][0]
        assert gauge["asDouble"] == pytest.approx(9445.6)
        hist = by_name["stream.window_wall_s"]["histogram"]["dataPoints"][0]
        assert hist["count"] == 1
        assert hist["explicitBounds"] == [0.1, 1.0]
        assert hist["bucketCounts"] == [0, 1, 0]

    def test_payload_is_json_serializable(self, snapshot):
        json.dumps(snapshot_to_otlp(snapshot, time_unix_nano=123))

    def test_service_name_resource(self, snapshot):
        payload = snapshot_to_otlp(snapshot, time_unix_nano=123)
        attrs = payload["resourceMetrics"][0]["resource"]["attributes"]
        assert {"key": "service.name", "value": {"stringValue": "glove-repro"}} in attrs


class TestOtlpExport:
    def test_posts_the_counters_to_v1_metrics(self, snapshot):
        received = []

        class Collector(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                received.append((self.path, self.headers["Content-Type"], json.loads(body)))
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Collector)
        server.timeout = 10
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        try:
            export_otlp(snapshot, f"http://127.0.0.1:{server.server_port}/")
        finally:
            thread.join(timeout=20)
            server.server_close()
        assert not thread.is_alive()
        ((path, content_type, payload),) = received
        assert path == "/v1/metrics"
        assert content_type == "application/json"
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        counters = {
            m["name"]: m["sum"]["dataPoints"][0]["asInt"] for m in metrics if "sum" in m
        }
        assert counters == snapshot["counters"]
