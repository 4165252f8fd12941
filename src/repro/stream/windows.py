"""Window management for the streaming tier.

Events are grouped into time windows ``[origin + i*slide, origin +
i*slide + window)`` over their *recorded* sample times; ``slide ==
window`` gives tumbling windows (the default), ``slide < window``
sliding windows whose overlap replicates events into every window that
covers them.  The origin is the recorded time of the first event to
arrive.

Out-of-order arrival is absorbed by a **watermark**: the largest
recorded time seen so far minus ``max_lag_min``.  A window closes —
and becomes eligible for anonymization — only once the watermark
passes its end, so any event arriving at most ``max_lag_min`` minutes
after its timestamp still lands in its nominal window.  Events later
than that hit the :attr:`StreamConfig.late_policy`:

* ``"redirect"`` (default) — the event joins the oldest still-open
  window.  Its recorded timestamp is untouched (published samples stay
  truthful); only the processing unit it is anonymized with shifts.
* ``"drop"`` — the event is discarded and counted.

An event is late only when *every* nominal window has closed; with
sliding windows, missing a closed replica while still landing in an
open one is ordinary overlap attrition, not lateness.  Events recorded
*before* the origin (possible only under reordering) are clamped into
window 0 by the same reasoning.

Memory is bounded by the open windows: ``ceil(window/slide)`` windows
of events plus the dictionary of per-user row lists, independent of
stream length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, inf
from typing import Dict, List, Optional

from repro.core.fingerprint import Fingerprint
from repro.stream.feed import StreamEvent, feed_fingerprint

#: Recognized late-event policies.
LATE_POLICIES = ("redirect", "drop")


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of the streaming anonymization tier.

    Attributes
    ----------
    window_min:
        Window length in minutes (must be positive).
    slide_min:
        Distance between consecutive window starts, minutes.  ``None``
        (the default) means tumbling windows (``slide == window``);
        must be positive and at most ``window_min``.
    max_lag_min:
        Watermark allowance: how many minutes an event may arrive
        after its recorded timestamp and still join its nominal
        window.
    carry_over:
        Carry under-populated groups (count < k) from a closed window
        into the next window's population instead of folding them
        locally, so late-arriving subscribers can still reach
        k-anonymity (DESIGN.md D7).  Disabled, every window is
        anonymized independently with full batch semantics — the
        anchor-invariant configuration.
    late_policy:
        ``"redirect"`` (late events join the oldest open window) or
        ``"drop"`` (late events are discarded and counted).
    """

    window_min: float
    slide_min: Optional[float] = None
    max_lag_min: float = 0.0
    carry_over: bool = True
    late_policy: str = "redirect"

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN, which fails every one of them.
        if not 0 < self.window_min < inf:
            raise ValueError(f"window must be positive and finite, got {self.window_min}")
        if self.slide_min is not None and not 0 < self.slide_min < inf:
            raise ValueError(f"slide must be positive and finite, got {self.slide_min}")
        if self.slide_min is not None and self.slide_min > self.window_min:
            raise ValueError(
                f"slide must not exceed window, got slide={self.slide_min} "
                f"> window={self.window_min}"
            )
        if not 0 <= self.max_lag_min < inf:
            raise ValueError(
                f"max-lag must be non-negative and finite, got {self.max_lag_min}"
            )
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, got {self.late_policy!r}"
            )

    @property
    def slide(self) -> float:
        """Effective slide (tumbling windows when ``slide_min`` is unset)."""
        return self.slide_min if self.slide_min is not None else self.window_min


def add_stream_arguments(parser) -> None:
    """Attach the windowing flags to an argparse parser.

    Mirrors :func:`repro.core.config.add_compute_arguments` so the
    streaming surface is declared once for the ``glove stream``
    subcommand (and any future streaming entry point).
    """
    import argparse

    parser.add_argument(
        "--window",
        type=float,
        required=True,
        metavar="MINUTES",
        help="window length in minutes (a window spanning the whole "
        "recording with --no-carry-over reproduces batch GLOVE exactly)",
    )
    parser.add_argument(
        "--slide",
        type=float,
        default=None,
        metavar="MINUTES",
        help="distance between window starts (default: --window, i.e. "
        "tumbling windows; must not exceed --window)",
    )
    parser.add_argument(
        "--max-lag",
        type=float,
        default=0.0,
        metavar="MINUTES",
        help="watermark allowance: how late an event may arrive and "
        "still join its nominal window (default: 0)",
    )
    parser.add_argument(
        "--carry-over",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="carry under-populated groups into the next window "
        "(--no-carry-over anonymizes every window independently)",
    )
    parser.add_argument(
        "--late-policy",
        choices=LATE_POLICIES,
        default="redirect",
        help="what to do with events later than --max-lag (default: "
        "redirect into the oldest open window)",
    )
    parser.add_argument(
        "--feed-jitter",
        type=float,
        default=0.0,
        metavar="MINUTES",
        help="simulated arrival jitter of the replayed feed (default: 0 "
        "= in-order replay)",
    )
    parser.add_argument(
        "--feed-seed", type=int, default=0, help="seed of the arrival jitter"
    )


def stream_config_from_args(args) -> StreamConfig:
    """Build a :class:`StreamConfig` from parsed windowing flags.

    Invalid values (non-positive ``--window``/``--slide``, ``--slide``
    exceeding ``--window``, negative ``--max-lag``, NaN or infinity
    anywhere) exit with status 2 and an ``error:`` line, matching the
    ``--workers``/``--shards`` validation convention of the compute
    flags.
    """
    import sys

    try:
        if not 0 <= getattr(args, "feed_jitter", 0.0) < inf:
            raise ValueError(
                f"feed-jitter must be non-negative and finite, got {args.feed_jitter}"
            )
        return StreamConfig(
            window_min=args.window,
            slide_min=args.slide,
            max_lag_min=args.max_lag,
            carry_over=args.carry_over,
            late_policy=args.late_policy,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class ClosedWindow:
    """One closed window's assembled per-user fingerprints.

    ``rows_by_uid`` maps each subscriber to their event rows in arrival
    order; :meth:`fingerprints` reassembles them in a canonical order
    independent of arrival interleaving, so any two arrival orders
    that land the same events in the same windows anonymize
    identically.  The default canonical order is lexicographic uid;
    callers that know the source dataset pass its insertion order via
    ``uid_order`` instead, which makes a whole-recording window's
    population identical to the batch input — the anchor invariant of
    DESIGN.md D7 holds for *any* dataset ordering, not only
    uid-sorted ones.
    """

    index: int
    start: float
    end: float
    rows_by_uid: Dict[str, List] = field(default_factory=dict)
    n_events: int = 0
    n_late_events: int = 0

    def add(self, event: StreamEvent, late: bool = False) -> None:
        """Record one event in this window."""
        self.rows_by_uid.setdefault(event.uid, []).append(event.row)
        self.n_events += 1
        if late:
            self.n_late_events += 1

    def fingerprints(self, uid_order: Optional[Dict[str, int]] = None) -> List[Fingerprint]:
        """Per-user fingerprints of the window, canonically ordered.

        ``uid_order`` maps uids to their source-dataset positions;
        unknown uids sort after known ones, lexicographically.
        """
        if uid_order is None:
            uids = sorted(self.rows_by_uid)
        else:
            n = len(uid_order)
            uids = sorted(self.rows_by_uid, key=lambda u: (uid_order.get(u, n), u))
        return [feed_fingerprint(uid, self.rows_by_uid[uid]) for uid in uids]


class WindowManager:
    """Assign events to windows and close them as the watermark advances.

    ``push(event)`` returns the (possibly empty) list of windows the
    event's arrival closed, oldest first; ``flush()`` closes whatever
    remains.  Windows that received no events are never materialized
    or emitted.
    """

    def __init__(self, config: StreamConfig):
        self.config = config
        self.origin: Optional[float] = None
        self._max_t = -float("inf")
        self._open: Dict[int, ClosedWindow] = {}
        self._next_to_close = 0
        self.n_redirected = 0
        self.n_dropped = 0

    # ------------------------------------------------------------------
    # Window arithmetic
    # ------------------------------------------------------------------
    def _bounds(self, index: int) -> tuple:
        slide = self.config.slide
        start = self.origin + index * slide
        return start, start + self.config.window_min

    def _nominal_indices(self, t: float) -> range:
        """Indices of every window whose span contains ``t`` (clamped at 0)."""
        slide = self.config.slide
        hi = floor((t - self.origin) / slide)
        lo = floor((t - self.origin - self.config.window_min) / slide) + 1
        return range(max(lo, 0), max(hi, 0) + 1)

    def _window(self, index: int) -> ClosedWindow:
        win = self._open.get(index)
        if win is None:
            start, end = self._bounds(index)
            win = ClosedWindow(index=index, start=start, end=end)
            self._open[index] = win
        return win

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def push(self, event: StreamEvent) -> List[ClosedWindow]:
        """Route one event; returns windows closed by the watermark advance.

        An event is *late* only when every one of its nominal windows
        has already closed; it is then redirected or dropped (and
        counted) once, per the late policy.  With sliding windows an
        event may miss a closed replica while still landing in an open
        one — that is ordinary overlap attrition, not lateness, and is
        not counted.
        """
        if self.origin is None:
            self.origin = event.t
        self._max_t = max(self._max_t, event.t)

        open_nominal = [i for i in self._nominal_indices(event.t) if i >= self._next_to_close]
        if open_nominal:
            for i in open_nominal:
                self._window(i).add(event)
        elif self.config.late_policy == "drop":
            self.n_dropped += 1
        else:
            self.n_redirected += 1
            self._window(self._next_to_close).add(event, late=True)

        return self._advance_watermark()

    def _advance_watermark(self) -> List[ClosedWindow]:
        """Close, oldest first, every window the watermark has passed."""
        watermark = self._max_t - self.config.max_lag_min
        slide = self.config.slide
        # Direct jump: the first index whose end exceeds the watermark.
        first_open = floor((watermark - self.config.window_min - self.origin) / slide) + 1
        first_open = max(first_open, self._next_to_close)
        # Visit the materialized windows, not the index range: one event
        # far in the future would otherwise walk ~t / slide empty indices.
        closed = [self._open.pop(i) for i in sorted(self._open) if i < first_open]
        self._next_to_close = first_open
        return closed

    def flush(self) -> List[ClosedWindow]:
        """Close every remaining window, oldest first."""
        closed = [self._open[i] for i in sorted(self._open)]
        self._next_to_close = max([self._next_to_close] + [w.index + 1 for w in closed])
        self._open.clear()
        return closed

    @property
    def n_open(self) -> int:
        """Materialized windows still accepting events."""
        return len(self._open)

    @property
    def next_index(self) -> int:
        """The smallest window index that has not closed yet."""
        return self._next_to_close

    @property
    def max_time(self) -> float:
        """Largest recorded event time seen (``-inf`` before any event)."""
        return self._max_t
