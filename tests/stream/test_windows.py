"""Tests for the window manager (:mod:`repro.stream.windows`)."""

import numpy as np
import pytest

from repro.stream.feed import StreamEvent
from repro.stream.windows import ClosedWindow, StreamConfig, WindowManager


def ev(uid, t):
    row = np.array([0.0, 100.0, 0.0, 100.0, float(t), 1.0])
    return StreamEvent(uid=uid, t=float(t), row=row)


def drain(manager, events):
    closed = []
    for event in events:
        closed.extend(manager.push(event))
    closed.extend(manager.flush())
    return closed


class TestStreamConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(window_min=0), "window must be positive"),
            (dict(window_min=-10), "window must be positive"),
            (dict(window_min=10, slide_min=0), "slide must be positive"),
            (dict(window_min=10, slide_min=-1), "slide must be positive"),
            (dict(window_min=10, slide_min=11), "slide must not exceed window"),
            (dict(window_min=10, max_lag_min=-1), "max-lag must be non-negative"),
            (dict(window_min=10, late_policy="teleport"), "late_policy"),
            # NaN fails every comparison, so a `<= 0` check lets it by.
            (dict(window_min=float("nan")), "window must be positive"),
            (dict(window_min=float("inf")), "window must be positive"),
            (dict(window_min=10, slide_min=float("nan")), "slide must be positive"),
            (dict(window_min=10, max_lag_min=float("nan")), "max-lag must be non-negative"),
            (dict(window_min=10, max_lag_min=float("inf")), "max-lag must be non-negative"),
        ],
    )
    def test_rejects_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            StreamConfig(**kwargs)

    def test_tumbling_default(self):
        cfg = StreamConfig(window_min=60.0)
        assert cfg.slide == 60.0
        assert StreamConfig(window_min=60.0, slide_min=20.0).slide == 20.0


class TestTumblingWindows:
    def test_partitions_events(self):
        manager = WindowManager(StreamConfig(window_min=10.0))
        closed = drain(manager, [ev("a", t) for t in (0, 1, 9, 10, 15, 29)])
        assert [w.index for w in closed] == [0, 1, 2]
        assert [w.n_events for w in closed] == [3, 2, 1]
        assert closed[0].start == 0.0 and closed[0].end == 10.0
        assert closed[2].start == 20.0 and closed[2].end == 30.0

    def test_origin_follows_first_event(self):
        manager = WindowManager(StreamConfig(window_min=10.0))
        closed = drain(manager, [ev("a", 103), ev("a", 111)])
        assert [w.index for w in closed] == [0]
        assert closed[0].start == 103.0
        assert closed[0].n_events == 2

    def test_empty_windows_never_materialize(self):
        manager = WindowManager(StreamConfig(window_min=10.0))
        closed = drain(manager, [ev("a", 0), ev("a", 95)])
        assert [w.index for w in closed] == [0, 9]

    def test_far_future_event_closes_without_walking_the_gap(self):
        # ~5.6e12 empty windows lie between the two events: the close
        # visits the materialized windows only, so this returns at once.
        manager = WindowManager(StreamConfig(window_min=180.0))
        closed = drain(manager, [ev("a", 361), ev("a", 1e15)])
        assert [w.n_events for w in closed] == [1, 1]
        assert closed[1].index == (10**15 - 361) // 180

    def test_fingerprints_in_uid_order(self):
        manager = WindowManager(StreamConfig(window_min=100.0))
        closed = drain(manager, [ev("b", 0), ev("a", 1), ev("b", 2)])
        fps = closed[0].fingerprints()
        assert [fp.uid for fp in fps] == ["a", "b"]
        assert fps[1].m == 2


class TestSlidingWindows:
    def test_overlap_replicates_events(self):
        manager = WindowManager(StreamConfig(window_min=20.0, slide_min=10.0))
        closed = drain(manager, [ev("a", 5), ev("a", 15), ev("a", 25)])
        by_index = {w.index: w for w in closed}
        # t=15 is covered by [0, 20) and [10, 30).
        assert by_index[0].n_events == 2
        assert by_index[1].n_events == 2
        assert by_index[2].n_events == 1


class TestWatermark:
    def test_window_closes_only_past_lag(self):
        manager = WindowManager(StreamConfig(window_min=10.0, max_lag_min=5.0))
        assert manager.push(ev("a", 0)) == []
        # Watermark at 12 - 5 = 7 < 10: window 0 still open.
        assert manager.push(ev("a", 12)) == []
        closed = manager.push(ev("a", 15.1))
        assert [w.index for w in closed] == [0]

    def test_event_within_lag_joins_nominal_window(self):
        manager = WindowManager(StreamConfig(window_min=10.0, max_lag_min=5.0))
        manager.push(ev("a", 0))
        manager.push(ev("a", 12))
        closed = manager.push(ev("b", 9))  # 3 minutes late, within lag
        assert closed == []
        closed = drain(manager, [])
        w0 = next(w for w in closed if w.index == 0)
        assert w0.n_events == 2
        assert w0.n_late_events == 0
        assert "b" in w0.rows_by_uid

    def test_late_event_redirected_to_oldest_open(self):
        manager = WindowManager(StreamConfig(window_min=10.0, max_lag_min=0.0))
        manager.push(ev("a", 0))
        manager.push(ev("a", 25))  # closes windows 0 and 1
        closed = manager.push(ev("b", 9))  # nominal window 0 is gone
        assert closed == []
        assert manager.n_redirected == 1
        remaining = manager.flush()
        w2 = next(w for w in remaining if w.index == 2)
        assert "b" in w2.rows_by_uid
        assert w2.n_late_events == 1

    def test_late_event_dropped_under_drop_policy(self):
        manager = WindowManager(
            StreamConfig(window_min=10.0, max_lag_min=0.0, late_policy="drop")
        )
        manager.push(ev("a", 0))
        manager.push(ev("a", 25))
        manager.push(ev("b", 9))
        assert manager.n_dropped == 1
        remaining = manager.flush()
        assert all("b" not in w.rows_by_uid for w in remaining)

    def test_boundary_event_exactly_at_watermark(self):
        # An event recorded exactly max_lag before the newest one sits
        # right on the watermark: its window must still be open.
        manager = WindowManager(StreamConfig(window_min=10.0, max_lag_min=5.0))
        manager.push(ev("a", 0))
        manager.push(ev("a", 15))  # watermark 10: window 0 closes at >= 10
        assert manager.n_redirected == 0
        closed = manager.push(ev("b", 10))  # watermark boundary, window 1
        assert manager.n_redirected == 0
        remaining = manager.flush()
        w1 = next(w for w in remaining for _ in [0] if w.index == 1)
        assert "b" in w1.rows_by_uid

    def test_sliding_late_event_counted_once(self):
        # Both nominal windows of t=25 ([10, 30) and [20, 40)) are
        # closed: one event, one redirect — not one per missed window.
        cfg = StreamConfig(window_min=20.0, slide_min=10.0, max_lag_min=0.0)
        manager = WindowManager(cfg)
        manager.push(ev("a", 0))
        manager.push(ev("a", 60))
        manager.push(ev("b", 25))
        assert manager.n_redirected == 1
        dropper = WindowManager(
            StreamConfig(window_min=20.0, slide_min=10.0, max_lag_min=0.0, late_policy="drop")
        )
        dropper.push(ev("a", 0))
        dropper.push(ev("a", 60))
        dropper.push(ev("b", 25))
        assert dropper.n_dropped == 1

    def test_sliding_missed_replica_is_not_late(self):
        # t=35 misses the closed [20, 40) replica but lands in the open
        # [30, 50): ordinary overlap attrition, no late accounting.
        cfg = StreamConfig(window_min=20.0, slide_min=10.0, max_lag_min=0.0)
        manager = WindowManager(cfg)
        manager.push(ev("a", 0))
        manager.push(ev("a", 45))  # closes windows through [20, 40)
        manager.push(ev("b", 35))
        assert manager.n_redirected == 0 and manager.n_dropped == 0
        remaining = manager.flush()
        w3 = next(w for w in remaining if w.index == 3)
        assert "b" in w3.rows_by_uid
        assert w3.n_late_events == 0
        dropper = WindowManager(
            StreamConfig(window_min=20.0, slide_min=10.0, max_lag_min=0.0, late_policy="drop")
        )
        dropper.push(ev("a", 0))
        dropper.push(ev("a", 45))
        dropper.push(ev("b", 35))
        assert dropper.n_dropped == 0  # the event was published, not dropped

    def test_pre_origin_event_clamped_into_window_zero(self):
        manager = WindowManager(StreamConfig(window_min=10.0, max_lag_min=60.0))
        manager.push(ev("a", 50))
        manager.push(ev("b", 45))  # recorded before the origin
        closed = manager.flush()
        w0 = next(w for w in closed if w.index == 0)
        assert "b" in w0.rows_by_uid


class TestBoundedState:
    def test_open_windows_bounded_by_overlap(self):
        cfg = StreamConfig(window_min=20.0, slide_min=5.0, max_lag_min=0.0)
        manager = WindowManager(cfg)
        peak = 0
        for t in range(0, 500, 1):
            manager.push(ev("a", float(t)))
            peak = max(peak, manager.n_open)
        # ceil(window / slide) open windows, +1 for the closing edge.
        assert peak <= 5

    def test_flush_idempotent(self):
        manager = WindowManager(StreamConfig(window_min=10.0))
        manager.push(ev("a", 0))
        assert len(manager.flush()) == 1
        assert manager.flush() == []
