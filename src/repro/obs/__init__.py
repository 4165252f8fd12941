"""Zero-dependency observability layer (metrics registry + exporters).

See DESIGN.md D12.  Core modules import :func:`get_metrics` from here;
the registry defaults to a disabled no-op, so instrumentation is free
until a CLI ``--metrics*`` flag (or a test) installs a live registry
via :func:`set_metrics`.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    DEFAULT_LATENCY_BOUNDARIES_S,
    get_metrics,
    set_metrics,
    validate_snapshot,
)
from .render import dump_json, render_table
from .otlp import export_otlp, snapshot_to_otlp

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "DEFAULT_LATENCY_BOUNDARIES_S",
    "get_metrics",
    "set_metrics",
    "validate_snapshot",
    "dump_json",
    "render_table",
    "export_otlp",
    "snapshot_to_otlp",
]
