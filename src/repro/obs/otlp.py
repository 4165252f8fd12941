"""OTLP bridge for metrics snapshots, stdlib only.

* :func:`snapshot_to_otlp` — translation of a ``repro.metrics.v1``
  snapshot into an OTLP/JSON ``ExportMetricsServiceRequest``-shaped dict
  (resourceMetrics → scopeMetrics → metrics with sum/gauge/histogram
  data points).
* :func:`export_otlp` — POSTs that payload to a collector's OTLP/HTTP
  ``/v1/metrics`` endpoint with :mod:`urllib`.
"""

from __future__ import annotations

import time
from typing import Dict, List

from .registry import validate_snapshot

__all__ = ["snapshot_to_otlp", "export_otlp"]

_SCOPE = {"name": "repro.obs", "version": "1"}


def snapshot_to_otlp(snapshot: Dict[str, object], time_unix_nano: int = 0) -> Dict[str, object]:
    """Convert a v1 snapshot to an OTLP/JSON metrics payload."""
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
    """POST ``snapshot`` as OTLP/JSON to ``<endpoint>/v1/metrics``.

    An unreachable or refusing collector raises :class:`OSError`
    (``urllib.error.URLError`` and ``HTTPError`` are subclasses), an
    endpoint that is not an http(s) URL :class:`ValueError`.
    """
    # Imported here: urllib.request pulls in ssl and http.client, an
    # import cost that every run importing repro.obs would otherwise pay.
    import json
    import urllib.request

    req = urllib.request.Request(
        endpoint.rstrip("/") + "/v1/metrics",
        data=json.dumps(snapshot_to_otlp(snapshot)).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        resp.read()
