"""Zero-dependency in-process metrics registry (DESIGN.md D12).

The streaming tier turned the reproduction into a long-running service
whose health is invisible between CLI summary lines; this module is the
observability substrate the ROADMAP's anonymization-as-a-service item
needs: named counters, gauges and fixed-boundary histograms with
``span()`` timing contexts, collected into one stable, JSON-able
snapshot.  Everything is standard library, the OTLP bridge in
:mod:`repro.obs.otlp` included.

Design constraints (the D12 contract):

* **Always-on-cheap.**  The process-wide registry defaults to a
  *disabled* instance: every instrument accessor returns a shared
  no-op singleton without taking a lock or touching a dict, so
  instrumented hot paths cost one attribute check when nobody asked
  for metrics.  The BENCH_glove.json ``metrics_overhead`` row pins the
  enabled-path overhead below 5 % on the stream and glove-500
  workloads.
* **Thread-safe.**  Instrument creation and every update are guarded;
  concurrent ``span()``/``inc()`` from worker threads never lose
  updates (covered by ``tests/obs/test_registry.py``).
* **Stable snapshot schema.**  ``snapshot()`` always produces the
  ``repro.metrics.v1`` shape below; consumers (the CLI table, the JSON
  dump, the OTLP bridge, the CI ``metrics-smoke`` validator) share
  :func:`validate_snapshot`::

      {"schema": "repro.metrics.v1", "enabled": bool,
       "counters":   {name: int},
       "gauges":     {name: float},
       "histograms": {name: {"count", "sum", "min", "max",
                             "boundaries", "bucket_counts",
                             "p50", "p95"}}}
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
]

#: Version tag of the snapshot dict; bump on any shape change so JSON
#: consumers (CI validators, dashboards) fail loudly instead of
#: misreading silently.
SNAPSHOT_SCHEMA = "repro.metrics.v1"

#: Default histogram boundaries for wall-time observations, in seconds.
#: Roughly log-spaced from 1 ms to 30 s — per-window GLOVE latencies on
#: the stream scenarios land mid-range, whole-stage wall times at the
#: top; values beyond the last edge go to an implicit +inf bucket.
DEFAULT_LATENCY_BOUNDARIES_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically growing named count, thread-safe."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        with self._lock:
            self._value += n

    def set_to(self, value: int) -> None:
        """Overwrite with an absolute value.

        For harvesting counters kept elsewhere (engine dispatch totals,
        backend hit/miss tallies): harvest code may run once per window
        *and* once at exit, and an absolute write keeps repeats
        idempotent where ``inc`` would double-count.
        """
        with self._lock:
            self._value = int(value)

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named point-in-time value, thread-safe."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is the new maximum."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary bucket histogram with sum/count/min/max.

    ``boundaries`` are the inclusive upper edges of the finite buckets;
    one implicit overflow bucket catches everything beyond the last
    edge, so ``len(bucket_counts) == len(boundaries) + 1``.  Quantiles
    are estimated by linear interpolation inside the bucket where the
    rank falls, clamped to the observed min/max — exact at the extremes
    and within one bucket width elsewhere, which is the standard
    fixed-boundary trade (no per-sample storage, O(1) memory).
    """

    __slots__ = ("name", "boundaries", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDARIES_S):
        edges = tuple(float(b) for b in boundaries)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram boundaries must be non-empty and increasing")
        self.name = name
        self.boundaries = edges
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def _bucket(self, value: float) -> int:
        lo, hi = 0, len(self.boundaries)
        while lo < hi:  # first edge >= value (bisect, inclusive upper edges)
            mid = (lo + hi) // 2
            if self.boundaries[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._counts[self._bucket(value)] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of the observations; 0.0 when empty."""
        q = min(max(float(q), 0.0), 1.0)
        with self._lock:
            if self._count == 0:
                return 0.0
            if self._count == 1:
                return self._min
            rank = q * self._count
            seen = 0
            for i, c in enumerate(self._counts):
                if c == 0:
                    continue
                if seen + c >= rank:
                    lo = self.boundaries[i - 1] if i > 0 else self._min
                    hi = self.boundaries[i] if i < len(self.boundaries) else self._max
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo or c == 0:
                        return float(hi)
                    frac = (rank - seen) / c
                    return float(lo + (hi - lo) * min(max(frac, 0.0), 1.0))
                seen += c
            return float(self._max)

    def _snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo = self._min if count else 0.0
            hi = self._max if count else 0.0
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "boundaries": list(self.boundaries),
            "bucket_counts": counts,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class _NullInstrument:
    """Shared no-op twin of every instrument, handed out when disabled.

    Also a no-op context manager so ``with registry.span(...)`` costs
    two trivial method calls on a disabled registry.
    """

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set_to(self, value: int) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullInstrument()


class _Span:
    """Times a ``with`` block into a histogram (seconds)."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._hist.observe(time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms.

    A *disabled* registry (``enabled=False``, the process-wide default)
    is a guaranteed no-op: accessors return shared null instruments,
    ``snapshot()`` reports empty instrument maps, and no state is ever
    allocated — the always-on-cheap half of the D12 contract.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) ---------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDARIES_S
    ) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, boundaries)
            return inst

    def span(self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDARIES_S):
        """A context manager timing its block into histogram ``name``."""
        if not self.enabled:
            return _NULL
        return _Span(self.histogram(name, boundaries))

    # -- snapshot -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The stable ``repro.metrics.v1`` view of every instrument."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "schema": SNAPSHOT_SCHEMA,
            "enabled": self.enabled,
            "counters": {c.name: c.value for c in sorted(counters, key=lambda i: i.name)},
            "gauges": {g.name: g.value for g in sorted(gauges, key=lambda i: i.name)},
            "histograms": {
                h.name: h._snapshot() for h in sorted(histograms, key=lambda i: i.name)
            },
        }


#: The disabled default: instrumented code paths pay one attribute
#: check and a null-instrument call until someone installs a live
#: registry (``glove ... --metrics`` does).
_NULL_REGISTRY = MetricsRegistry(enabled=False)
_metrics: MetricsRegistry = _NULL_REGISTRY


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (a disabled no-op unless installed)."""
    return _metrics


def set_metrics(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install a process-wide registry; returns the previous one.

    ``None`` restores the disabled default.
    """
    global _metrics
    old = _metrics
    _metrics = registry if registry is not None else _NULL_REGISTRY
    return old


# ----------------------------------------------------------------------
# Snapshot validation (shared by tests, the CLI and CI metrics-smoke)
# ----------------------------------------------------------------------
_HIST_KEYS = frozenset(
    {"count", "sum", "min", "max", "boundaries", "bucket_counts", "p50", "p95"}
)


def validate_snapshot(snapshot: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``snapshot`` matches the v1 schema."""
    if not isinstance(snapshot, dict):
        raise ValueError("snapshot must be a dict")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"unknown snapshot schema {snapshot.get('schema')!r}; "
            f"expected {SNAPSHOT_SCHEMA!r}"
        )
    if not isinstance(snapshot.get("enabled"), bool):
        raise ValueError("snapshot['enabled'] must be a bool")
    for kind in ("counters", "gauges", "histograms"):
        section = snapshot.get(kind)
        if not isinstance(section, dict):
            raise ValueError(f"snapshot[{kind!r}] must be a dict")
    for name, value in snapshot["counters"].items():  # type: ignore[union-attr]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"counter {name!r} must be a non-negative int")
    for name, value in snapshot["gauges"].items():  # type: ignore[union-attr]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"gauge {name!r} must be a number")
    for name, hist in snapshot["histograms"].items():  # type: ignore[union-attr]
        if not isinstance(hist, dict) or set(hist) != _HIST_KEYS:
            raise ValueError(
                f"histogram {name!r} must have exactly the keys "
                f"{sorted(_HIST_KEYS)}"
            )
        edges = hist["boundaries"]
        counts = hist["bucket_counts"]
        if not isinstance(edges, list) or not isinstance(counts, list):
            raise ValueError(f"histogram {name!r} boundaries/buckets must be lists")
        if len(counts) != len(edges) + 1:
            raise ValueError(
                f"histogram {name!r} needs len(boundaries)+1 bucket counts"
            )
        if sum(counts) != hist["count"]:
            raise ValueError(f"histogram {name!r} bucket counts do not sum to count")
