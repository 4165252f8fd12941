"""Tests of the streaming statistics layer and its metrics harvest.

Includes the satellite regression tests for
``StreamStats.latency_quantile`` edge cases and the timing-free guard
that instrumentation does not change what the stream computes.
"""

import pytest

from repro.core.config import GloveConfig
from repro.core.suppression import SuppressionStats
from repro.obs import MetricsRegistry, set_metrics
from repro.stream.driver import stream_glove
from repro.stream.stats import StreamStats, WindowStats
from repro.stream.windows import StreamConfig


class TestLatencyQuantileEdgeCases:
    def test_empty_window_list_returns_zero(self):
        stats = StreamStats()
        assert stats.latency_quantile(0.5) == 0.0
        assert stats.latency_quantile(0.95) == 0.0
        assert stats.latency_p50_s == 0.0
        assert stats.latency_p95_s == 0.0

    def test_single_sample_is_every_quantile(self):
        stats = StreamStats(window_wall_s=[0.123])
        for q in (0.0, 0.5, 0.95, 1.0):
            assert stats.latency_quantile(q) == pytest.approx(0.123)

    def test_q_outside_unit_interval_is_clamped(self):
        stats = StreamStats(window_wall_s=[0.1, 0.2, 0.3])
        assert stats.latency_quantile(-0.5) == pytest.approx(0.1)
        assert stats.latency_quantile(1.5) == pytest.approx(0.3)

    def test_interior_quantiles_unchanged(self):
        stats = StreamStats(window_wall_s=[0.1, 0.2, 0.3])
        assert stats.latency_quantile(0.5) == pytest.approx(0.2)

    def test_deferred_only_run_has_zero_latency(self):
        # Deferred windows never enter window_wall_s.
        stats = StreamStats()
        stats.record_window(WindowStats(index=0, start_min=0, end_min=10, deferred=True))
        assert stats.window_wall_s == []
        assert stats.latency_p95_s == 0.0


class TestRecordWindow:
    def test_folds_engine_counters(self):
        stats = StreamStats()
        stats.record_window(
            WindowStats(
                index=0, start_min=0, end_min=10,
                n_boundary_crossings=5, n_probe_dispatches=9, n_batched_probes=7,
            )
        )
        stats.record_window(
            WindowStats(
                index=1, start_min=10, end_min=20,
                n_boundary_crossings=2, n_probe_dispatches=3, n_batched_probes=1,
            )
        )
        assert stats.n_boundary_crossings == 7
        assert stats.n_probe_dispatches == 12
        assert stats.n_batched_probes == 8

    def test_folds_suppression_totals(self):
        stats = StreamStats()
        stats.record_window(
            WindowStats(
                index=0, start_min=0, end_min=10,
                suppression=SuppressionStats(
                    total_samples=100, discarded_samples=10, discarded_fingerprints=1
                ),
            )
        )
        stats.record_window(
            WindowStats(
                index=1, start_min=10, end_min=20,
                suppression=SuppressionStats(
                    total_samples=300, discarded_samples=30, discarded_fingerprints=2
                ),
            )
        )
        assert stats.suppression_total_samples == 400
        assert stats.suppression_discarded_samples == 40
        assert stats.suppression_discarded_fingerprints == 3
        assert stats.suppression_rate == pytest.approx(0.1)

    def test_suppression_rate_zero_when_nothing_published(self):
        assert StreamStats().suppression_rate == 0.0


class TestRecordMetrics:
    def test_publishes_the_acceptance_key_set(self):
        registry = MetricsRegistry(enabled=True)
        stats = StreamStats(
            n_events=100, n_users=10, wall_s=2.0, window_wall_s=[0.1, 0.2],
            n_boundary_crossings=5, n_probe_dispatches=9, n_batched_probes=7,
            max_carried_members=3,
        )
        stats.record_metrics(registry)
        snap = registry.snapshot()
        assert snap["counters"]["stream.events"] == 100
        assert snap["counters"]["engine.boundary_crossings"] == 5
        assert snap["gauges"]["stream.events_per_sec"] == pytest.approx(50.0)
        assert snap["gauges"]["stream.window_latency_p50_s"] == pytest.approx(0.15)
        assert snap["gauges"]["stream.carry_over_depth"] == 3.0
        assert snap["gauges"]["stream.suppression_rate"] == 0.0

    def test_harvest_is_idempotent(self):
        registry = MetricsRegistry(enabled=True)
        stats = StreamStats(n_events=100, n_boundary_crossings=5)
        stats.record_metrics(registry)
        stats.record_metrics(registry)  # e.g. driver + CLI both harvest
        snap = registry.snapshot()
        assert snap["counters"]["stream.events"] == 100
        assert snap["counters"]["engine.boundary_crossings"] == 5


class TestInstrumentationParity:
    """Timing-free guard: metrics must not change what is computed."""

    def test_dispatch_counters_match_uninstrumented_baseline(self, small_civ):
        config = GloveConfig(k=2)
        stream = StreamConfig(window_min=720.0, max_lag_min=30.0)
        baseline = stream_glove(small_civ, config, stream)

        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            instrumented = stream_glove(small_civ, config, stream)
        finally:
            set_metrics(previous)

        a, b = baseline.stats, instrumented.stats
        assert a.n_boundary_crossings == b.n_boundary_crossings
        assert a.n_probe_dispatches == b.n_probe_dispatches
        assert a.n_batched_probes == b.n_batched_probes
        assert a.n_merges == b.n_merges
        assert a.n_groups == b.n_groups
        assert a.n_events == b.n_events
        # ...and the registry saw exactly the run's totals.
        snap = registry.snapshot()
        assert snap["counters"]["engine.probe_dispatches"] == b.n_probe_dispatches
        assert snap["counters"]["engine.lb1_evaluations"] == b.n_lb1_evaluations
        assert snap["counters"]["engine.exact_memo_hits"] == b.n_exact_memo_hits
        assert snap["counters"]["engine.lb1_memo_hits"] == b.n_lb1_memo_hits
        assert snap["counters"]["stream.merges"] == b.n_merges

    def test_stream_run_harvests_dispatch_counters(self, small_civ):
        # The carry-over path runs _greedy_merge directly; its engine
        # counters must still reach StreamStats (PR 8 gap).
        result = stream_glove(
            small_civ, GloveConfig(k=2), StreamConfig(window_min=720.0, max_lag_min=30.0)
        )
        assert result.stats.n_probe_dispatches > 0
        assert result.stats.n_boundary_crossings > 0
        per_window = sum(w.stats.n_probe_dispatches for w in result.windows)
        assert per_window == result.stats.n_probe_dispatches
        assert result.stats.n_lb1_evaluations > 0
        assert result.stats.n_lb1_evaluations == sum(
            w.stats.n_lb1_evaluations for w in result.windows
        )
        for name in ("n_exact_memo_hits", "n_lb1_memo_hits"):
            assert getattr(result.stats, name) == sum(
                getattr(w.stats, name) for w in result.windows
            )
