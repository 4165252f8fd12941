"""Where each CDR event is logged: the subscriber mobility model.

Given an event time, the model decides which antenna serves the
subscriber, following a daily schedule over the user's anchor places
plus occasional exploration:

* at night the subscriber is almost surely at home;
* during weekday working hours, at work;
* otherwise, a preferential-return draw over the anchor set (Zipf
  visit frequencies) with a small exploration probability that picks a
  fresh location at a truncated power-law distance from home (the
  exploration/preferential-return picture of Song et al., 2010).

Radio-level noise is included: an event at an anchor is served by a
nearby non-anchor antenna with a small probability (cell breathing and
load balancing), which keeps fingerprints from collapsing onto a
handful of exactly repeated cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cdr.antenna import AntennaNetwork
from repro.cdr.population import User

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True)
class MobilityConfig:
    """Parameters of the event-location model.

    Attributes
    ----------
    night_home_prob:
        Probability of being at home during night hours.
    work_prob:
        Probability of being at work during weekday office hours.
    exploration_prob:
        Probability that a non-anchored event explores a new place.
    exploration_scale_m:
        Scale of the Pareto jump length for exploration.
    exploration_truncation_m:
        Maximum exploration jump length.
    handoff_prob:
        Probability that an anchored event is served by a neighbouring
        antenna instead of the anchor's.
    handoff_radius_m:
        Radius within which the neighbouring antenna is chosen.
    night_hours, work_hours:
        Inclusive-exclusive hour ranges of the two scheduled regimes.
    """

    night_home_prob: float = 0.95
    work_prob: float = 0.75
    exploration_prob: float = 0.10
    exploration_scale_m: float = 1_000.0
    exploration_truncation_m: float = 25_000.0
    handoff_prob: float = 0.20
    handoff_radius_m: float = 1_500.0
    night_hours: tuple = (0, 7)
    work_hours: tuple = (9, 18)

    def __post_init__(self) -> None:
        for p in (
            self.night_home_prob,
            self.work_prob,
            self.exploration_prob,
            self.handoff_prob,
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        if not (
            0 < self.exploration_scale_m < math.inf
            and 0 < self.exploration_truncation_m < math.inf
        ):
            raise ValueError("exploration scales must be positive and finite")


class MobilityModel:
    """Maps (user, event time) to the serving antenna."""

    def __init__(
        self,
        network: AntennaNetwork,
        config: MobilityConfig = MobilityConfig(),
        week_start_day: int = 0,
    ):
        self.network = network
        self.config = config
        self.week_start_day = week_start_day

    # ------------------------------------------------------------------
    # Schedule helpers
    # ------------------------------------------------------------------
    def hour_of_day(self, t_min: float) -> int:
        """Hour of day (0-23) of an event time in minutes from epoch."""
        return int((t_min % MINUTES_PER_DAY) // 60)

    def is_weekend(self, t_min: float) -> bool:
        """Whether the event falls on a Saturday or Sunday."""
        day = int(t_min // MINUTES_PER_DAY)
        return (day + self.week_start_day) % 7 >= 5

    # ------------------------------------------------------------------
    # Location draws
    # ------------------------------------------------------------------
    def _explore(self, user: User, rng: np.random.Generator) -> int:
        cfg = self.config
        hx, hy = self.network.positions[user.home_antenna]
        # Truncated Pareto jump (Levy-flight-like displacement).
        r = cfg.exploration_scale_m * (rng.pareto(1.8) + 1.0)
        r = min(r, cfg.exploration_truncation_m)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        px, py = self.network.region.clip(hx + r * np.cos(theta), hy + r * np.sin(theta))
        return int(self.network.nearest(px, py))

    def _handoff(self, antenna: int, rng: np.random.Generator) -> int:
        cfg = self.config
        x, y = self.network.positions[antenna]
        nearby = self.network.antennas_within(float(x), float(y), cfg.handoff_radius_m)
        if nearby.size <= 1:
            return antenna
        return int(rng.choice(nearby))

    def _preferential_return(self, user: User, rng: np.random.Generator) -> int:
        idx = rng.choice(user.anchors.shape[0], p=user.anchor_weights)
        return int(user.anchors[idx])

    def antenna_at(self, user: User, t_min: float, rng: np.random.Generator) -> int:
        """Antenna index serving ``user`` at event time ``t_min``."""
        cfg = self.config
        hour = self.hour_of_day(t_min)
        weekend = self.is_weekend(t_min)

        if cfg.night_hours[0] <= hour < cfg.night_hours[1]:
            if rng.random() < cfg.night_home_prob:
                antenna = user.home_antenna
            else:
                antenna = self._preferential_return(user, rng)
        elif not weekend and cfg.work_hours[0] <= hour < cfg.work_hours[1]:
            if rng.random() < cfg.work_prob:
                antenna = user.work_antenna
            elif rng.random() < cfg.exploration_prob:
                return self._explore(user, rng)
            else:
                antenna = self._preferential_return(user, rng)
        else:
            if rng.random() < cfg.exploration_prob:
                return self._explore(user, rng)
            antenna = self._preferential_return(user, rng)

        if rng.random() < cfg.handoff_prob:
            antenna = self._handoff(antenna, rng)
        return antenna
