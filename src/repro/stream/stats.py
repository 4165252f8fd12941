"""Per-window and stream-level accounting of the streaming tier.

The batch tier reports one :class:`~repro.core.glove.GloveStats` per
run; the streaming tier must make the privacy guarantee *reportable
per window* (every window is a separate publication, DESIGN.md D7) and
additionally expose the serving metrics a feed consumer cares about:
events per second and the per-window processing latency distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.engine import DISPATCH_COUNTERS
from repro.core.suppression import SuppressionStats
from repro.obs import get_metrics


@dataclass
class WindowStats:
    """Bookkeeping of one emitted (or deferred) window.

    Attributes
    ----------
    index, start_min, end_min:
        Window identity and nominal bounds (minutes from epoch).
    n_events:
        Events routed into the window (including redirected late ones).
    n_late_events:
        Events that joined this window through the ``redirect`` late
        policy after their nominal window had closed.
    n_native_fingerprints:
        Subscribers whose events formed a fresh fingerprint in this
        window (after absorption into carried groups).
    n_carried_in:
        Under-populated groups carried into this window's population
        from earlier windows.
    n_carried_in_members:
        Subscribers hidden in those carried groups.
    n_absorbed:
        Native fingerprints absorbed into a carried group because the
        group already claimed their uid (DESIGN.md D7).
    deferred:
        The window's whole population was below ``k`` and was carried
        forward instead of being anonymized (nothing emitted).
    residual:
        The window was synthesized at end of stream from the remaining
        carry pool rather than closed by the watermark.
    n_groups:
        Groups emitted for this window.
    n_merges:
        Pairwise merges performed while anonymizing the window.
    carried_out_members:
        Subscribers left under-populated by this window and carried
        into the next one (0 when carry-over is off).
    suppression:
        Sample-suppression statistics of the emitted window.
    wall_s:
        Processing latency of the window (assembly + GLOVE + output).
    n_boundary_crossings, n_probe_dispatches, n_batched_probes, n_bound_pruned,
    n_lb1_evaluations, n_exact_memo_hits, n_lb1_memo_hits:
        Stretch-backend dispatch counters harvested from the window's
        engine (zero for deferred windows, which run no merges).
    """

    index: int
    start_min: float
    end_min: float
    n_events: int = 0
    n_late_events: int = 0
    n_native_fingerprints: int = 0
    n_carried_in: int = 0
    n_carried_in_members: int = 0
    n_absorbed: int = 0
    deferred: bool = False
    residual: bool = False
    n_groups: int = 0
    n_merges: int = 0
    carried_out_members: int = 0
    suppression: Optional[SuppressionStats] = None
    wall_s: float = 0.0
    n_boundary_crossings: int = 0
    n_probe_dispatches: int = 0
    n_batched_probes: int = 0
    n_bound_pruned: int = 0
    n_lb1_evaluations: int = 0
    n_exact_memo_hits: int = 0
    n_lb1_memo_hits: int = 0


@dataclass
class StreamStats:
    """Aggregate statistics of one streaming run.

    ``events_per_sec`` measures end-to-end throughput (feed iteration,
    windowing, anonymization); the latency quantiles describe the
    per-window processing cost distribution over *emitted* windows.
    ``n_unpublished_members`` counts subscribers whose end-of-stream
    residue stayed below ``k`` with no emitted window to fold them
    into — possible only when the run itself was lossy (late events
    discarded under the ``drop`` policy); their data is suppressed.
    """

    n_events: int = 0
    n_users: int = 0
    n_windows: int = 0
    n_emitted_windows: int = 0
    n_deferred_windows: int = 0
    n_late_redirected: int = 0
    n_late_dropped: int = 0
    n_unpublished_members: int = 0
    n_groups: int = 0
    n_merges: int = 0
    max_carried_members: int = 0
    wall_s: float = 0.0
    window_wall_s: List[float] = field(default_factory=list)
    n_boundary_crossings: int = 0
    n_probe_dispatches: int = 0
    n_batched_probes: int = 0
    n_bound_pruned: int = 0
    n_lb1_evaluations: int = 0
    n_exact_memo_hits: int = 0
    n_lb1_memo_hits: int = 0
    suppression_total_samples: int = 0
    suppression_discarded_samples: int = 0
    suppression_discarded_fingerprints: int = 0

    @property
    def events_per_sec(self) -> float:
        """End-to-end event throughput of the run."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_events / self.wall_s

    @property
    def suppression_rate(self) -> float:
        """Fraction of published samples discarded by output suppression."""
        if self.suppression_total_samples <= 0:
            return 0.0
        return self.suppression_discarded_samples / self.suppression_total_samples

    def latency_quantile(self, q: float) -> float:
        """Per-window processing latency quantile, in seconds.

        Robust at the edges: with no emitted windows every quantile is
        0.0, with a single emitted window every quantile is that
        window's latency, and ``q`` is clamped into ``[0, 1]`` rather
        than propagating to a raising ``np.quantile`` call.
        """
        if not self.window_wall_s:
            return 0.0
        q = min(max(float(q), 0.0), 1.0)
        if len(self.window_wall_s) == 1:
            return float(self.window_wall_s[0])
        return float(np.quantile(np.asarray(self.window_wall_s), q))

    @property
    def latency_p50_s(self) -> float:
        """Median per-window processing latency."""
        return self.latency_quantile(0.5)

    @property
    def latency_p95_s(self) -> float:
        """95th-percentile per-window processing latency."""
        return self.latency_quantile(0.95)

    def record_window(self, window: WindowStats) -> None:
        """Fold one window's bookkeeping into the aggregates."""
        self.n_windows += 1
        if window.deferred:
            self.n_deferred_windows += 1
        else:
            self.n_emitted_windows += 1
            self.window_wall_s.append(window.wall_s)
            # Live-run view only; the canonical p50/p95 gauges are
            # re-derived from window_wall_s at harvest time, so cached
            # runs (which never pass here) still report latency.
            get_metrics().histogram("stream.window_wall_s").observe(window.wall_s)
        self.n_groups += window.n_groups
        self.n_merges += window.n_merges
        self.max_carried_members = max(self.max_carried_members, window.carried_out_members)
        for name in DISPATCH_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(window, name))
        if window.suppression is not None:
            self.suppression_total_samples += window.suppression.total_samples
            self.suppression_discarded_samples += window.suppression.discarded_samples
            self.suppression_discarded_fingerprints += (
                window.suppression.discarded_fingerprints
            )

    def record_metrics(self, registry) -> None:
        """Publish the aggregates into a metrics registry (D12).

        Uses absolute writes (``set_to``/``set``) throughout, so the
        harvest is idempotent — the CLI calls this on the final stats
        object whether the run executed live or was served from the
        artifact cache, and a repeated call never double-counts.
        """
        counters = {
            "stream.events": self.n_events,
            "stream.users": self.n_users,
            "stream.windows": self.n_windows,
            "stream.windows_emitted": self.n_emitted_windows,
            "stream.windows_deferred": self.n_deferred_windows,
            "stream.late_redirected": self.n_late_redirected,
            "stream.late_dropped": self.n_late_dropped,
            "stream.unpublished_members": self.n_unpublished_members,
            "stream.groups": self.n_groups,
            "stream.merges": self.n_merges,
            "stream.suppressed_samples": self.suppression_discarded_samples,
            "stream.suppressed_fingerprints": self.suppression_discarded_fingerprints,
            **{"engine." + name[2:]: getattr(self, name) for name in DISPATCH_COUNTERS},
        }
        for name, value in counters.items():
            registry.counter(name).set_to(value)
        gauges = {
            "stream.events_per_sec": self.events_per_sec,
            "stream.window_latency_p50_s": self.latency_p50_s,
            "stream.window_latency_p95_s": self.latency_p95_s,
            "stream.suppression_rate": self.suppression_rate,
            "stream.carry_over_depth": float(self.max_carried_members),
            "stream.wall_s": self.wall_s,
        }
        for name, value in gauges.items():
            registry.gauge(name).set(value)
