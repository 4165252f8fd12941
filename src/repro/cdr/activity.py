"""Event timing: when subscribers touch the cellular network.

CDR sampling is sparse, heterogeneous and bursty, and this is exactly
the property the paper traces the poor anonymizability of mobile
fingerprints to (Section 5.3: long-tailed *temporal* diversity).  The
model reproduces the three well-documented ingredients:

* a **circadian rate profile** -- activity is low at night, ramps up in
  the morning and peaks around midday and in the evening, with a
  distinct weekend shape;
* **per-user rate heterogeneity** -- daily event counts are lognormal
  across subscribers;
* **burstiness** -- events arrive in short sessions of one to a few
  correlated events (call + callback, SMS exchanges), not as a uniform
  Poisson stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

#: Relative call/SMS rate per hour of day (weekday shape).  The profile
#: is deliberately close to published CDR diurnal curves: a deep night
#: trough, a morning ramp, a midday plateau and an evening peak.
WEEKDAY_PROFILE = np.array(
    [
        0.10, 0.06, 0.04, 0.03, 0.04, 0.08,  # 00-05: night trough
        0.25, 0.55, 0.90, 1.10, 1.20, 1.30,  # 06-11: morning ramp
        1.35, 1.25, 1.20, 1.25, 1.35, 1.50,  # 12-17: daytime plateau
        1.65, 1.75, 1.60, 1.20, 0.70, 0.30,  # 18-23: evening peak
    ]
)

#: Weekend shape: later start, flatter afternoon, stronger late evening.
WEEKEND_PROFILE = np.array(
    [
        0.20, 0.12, 0.08, 0.05, 0.04, 0.05,
        0.10, 0.20, 0.45, 0.75, 1.00, 1.20,
        1.30, 1.25, 1.15, 1.10, 1.15, 1.30,
        1.50, 1.65, 1.60, 1.35, 0.95, 0.50,
    ]
)

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True)
class ActivityConfig:
    """Parameters of the event-timing model.

    Attributes
    ----------
    mean_sessions_per_day:
        Population median of the per-user daily session rate.
    rate_sigma:
        Sigma of the lognormal per-user rate multiplier (heterogeneity).
    burst_continuation:
        Probability that a session holds one more event; events per
        session are ``1 + Geometric(1 - burst_continuation)``.
    burst_gap_min:
        Mean gap in minutes between events of one session.
    max_session_events:
        Hard cap on events per session.
    week_start_day:
        Day-of-week of ``t = 0`` (0 = Monday); days 5 and 6 of each week
        use the weekend profile.
    """

    mean_sessions_per_day: float = 8.0
    rate_sigma: float = 0.6
    burst_continuation: float = 0.35
    burst_gap_min: float = 2.0
    max_session_events: int = 5
    week_start_day: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.mean_sessions_per_day < math.inf:
            raise ValueError("mean_sessions_per_day must be positive and finite")
        if not 0 <= self.rate_sigma < math.inf:
            raise ValueError("rate_sigma must be non-negative and finite")
        if not 0.0 <= self.burst_continuation < 1.0:
            raise ValueError("burst_continuation must be in [0, 1)")
        if self.max_session_events < 1:
            raise ValueError("max_session_events must be at least 1")
        if not 0 <= self.week_start_day <= 6:
            raise ValueError("week_start_day must be in 0..6")


class ActivityModel:
    """Generates per-user event times over a recording period."""

    def __init__(self, config: ActivityConfig = ActivityConfig()):
        self.config = config
        self._weekday_p = WEEKDAY_PROFILE / WEEKDAY_PROFILE.sum()
        self._weekend_p = WEEKEND_PROFILE / WEEKEND_PROFILE.sum()

    def user_rate(self, rng: np.random.Generator) -> float:
        """Draw a subscriber's daily session rate (lognormal heterogeneity)."""
        cfg = self.config
        return float(
            cfg.mean_sessions_per_day * rng.lognormal(mean=0.0, sigma=cfg.rate_sigma)
        )

    def is_weekend(self, day: int) -> bool:
        """Whether recording day ``day`` (0-based) is a Saturday or Sunday."""
        return (day + self.config.week_start_day) % 7 >= 5

    def event_times(
        self,
        rate_sessions_per_day: float,
        days: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Event times (minutes from epoch, 1-min precision, sorted, unique).

        Sessions are placed day by day: the number of sessions of a day
        is Poisson with the user's daily rate (weekends at 85%), session
        start hours follow the circadian profile, and each session emits
        a short burst of events.
        """
        if days < 1:
            raise ValueError("days must be at least 1")
        cfg = self.config
        times = []
        for day in range(days):
            weekend = self.is_weekend(day)
            profile = self._weekend_p if weekend else self._weekday_p
            day_rate = rate_sessions_per_day * (0.85 if weekend else 1.0)
            n_sessions = int(rng.poisson(day_rate))
            if n_sessions == 0:
                continue
            hours = rng.choice(24, size=n_sessions, p=profile)
            starts = day * MINUTES_PER_DAY + hours * 60 + rng.uniform(0, 60, n_sessions)
            for start in starts:
                n_events = 1 + int(
                    min(
                        rng.geometric(1.0 - cfg.burst_continuation) - 1,
                        cfg.max_session_events - 1,
                    )
                )
                gaps = rng.exponential(cfg.burst_gap_min, n_events)
                gaps[0] = 0.0
                times.append(start + np.cumsum(gaps))
        if not times:
            return np.empty(0, dtype=np.float64)
        t = np.concatenate(times)
        t = np.floor(t[t < days * MINUTES_PER_DAY])  # 1-minute precision
        return np.unique(t)
