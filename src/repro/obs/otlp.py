"""OTLP bridge for metrics snapshots, gated behind the ``[otel]`` extra.

Two layers, split so the conversion stays testable without the
dependency installed:

* :func:`snapshot_to_otlp` — pure stdlib translation of a
  ``repro.metrics.v1`` snapshot into an OTLP/JSON
  ``ExportMetricsServiceRequest``-shaped dict (resourceMetrics →
  scopeMetrics → metrics with sum/gauge/histogram data points).
* :func:`export_otlp` — POSTs that payload to a collector endpoint via
  the ``opentelemetry`` SDK's exporter.  Importing the SDK happens here
  and only here; without it the call degrades to a ``RuntimeError``
  naming the ``pip install "glove-repro[otel]"`` fix, the way the
  ``compiled`` backend names its ``[compiled]`` extra.
"""

from __future__ import annotations

import time
from typing import Dict, List

from .registry import validate_snapshot

__all__ = ["snapshot_to_otlp", "export_otlp", "OTEL_INSTALL_HINT"]

OTEL_INSTALL_HINT = (
    "OTLP export requires the opentelemetry SDK, which is not installed. "
    "Install the optional extra with: pip install 'glove-repro[otel]'"
)

_SCOPE = {"name": "repro.obs", "version": "1"}


def snapshot_to_otlp(snapshot: Dict[str, object], time_unix_nano: int = 0) -> Dict[str, object]:
    """Convert a v1 snapshot to an OTLP/JSON metrics payload (pure stdlib)."""
    validate_snapshot(snapshot)
    ts = int(time_unix_nano) or time.time_ns()
    metrics: List[Dict[str, object]] = []
    for name, value in snapshot["counters"].items():  # type: ignore[union-attr]
        metrics.append(
            {
                "name": name,
                "sum": {
                    "aggregationTemporality": 2,  # CUMULATIVE
                    "isMonotonic": True,
                    "dataPoints": [{"timeUnixNano": ts, "asInt": int(value)}],
                },
            }
        )
    for name, value in snapshot["gauges"].items():  # type: ignore[union-attr]
        metrics.append(
            {
                "name": name,
                "gauge": {
                    "dataPoints": [{"timeUnixNano": ts, "asDouble": float(value)}],
                },
            }
        )
    for name, hist in snapshot["histograms"].items():  # type: ignore[union-attr]
        metrics.append(
            {
                "name": name,
                "histogram": {
                    "aggregationTemporality": 2,
                    "dataPoints": [
                        {
                            "timeUnixNano": ts,
                            "count": int(hist["count"]),
                            "sum": float(hist["sum"]),
                            "min": float(hist["min"]),
                            "max": float(hist["max"]),
                            "explicitBounds": [float(b) for b in hist["boundaries"]],
                            "bucketCounts": [int(c) for c in hist["bucket_counts"]],
                        }
                    ],
                },
            }
        )
    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [
                        {
                            "key": "service.name",
                            "value": {"stringValue": "glove-repro"},
                        }
                    ]
                },
                "scopeMetrics": [{"scope": dict(_SCOPE), "metrics": metrics}],
            }
        ]
    }


def export_otlp(snapshot: Dict[str, object], endpoint: str) -> None:
    """Push ``snapshot`` to an OTLP/HTTP collector at ``endpoint``.

    Raises ``RuntimeError`` with install guidance when the
    ``opentelemetry`` SDK is missing (the ``[otel]`` extra).
    """
    payload = snapshot_to_otlp(snapshot)
    try:
        import opentelemetry  # noqa: F401
        from opentelemetry.exporter.otlp.proto.http import Compression  # noqa: F401
    except ImportError as exc:
        raise RuntimeError(OTEL_INSTALL_HINT) from exc
    import json
    import urllib.request

    req = urllib.request.Request(
        endpoint.rstrip("/") + "/v1/metrics",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:  # pragma: no cover - needs collector
        resp.read()
