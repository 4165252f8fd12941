"""Subscriber population: anchor places of each synthetic user.

Human mobility is dominated by a handful of *anchor* locations — home,
work, and a few frequently revisited places — visited with a Zipf-like
frequency profile (Gonzalez et al., Nature 2008; Song et al., Science
2010).  Each synthetic subscriber gets:

* a **home antenna**, drawn from a city chosen with probability
  proportional to city population;
* a **work antenna**, in the same city for most users and in another
  city for a commuter minority (this minority produces the long tail of
  the radius-of-gyration distribution that the paper reports: median
  around 2 km, mean around 10 km);
* a few **secondary anchors** near home, visited with decreasing
  frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cdr.antenna import AntennaNetwork


@dataclass(frozen=True)
class PopulationConfig:
    """Parameters of the synthetic subscriber population.

    Attributes
    ----------
    commuter_fraction:
        Fraction of users whose work anchor lies in a different city.
    mean_secondary_anchors:
        Mean number of secondary anchor places per user (Poisson).
    secondary_radius_m:
        Scale of the distance between home and secondary anchors.
    anchor_zipf_exponent:
        Exponent of the visit-frequency Zipf law over anchors.
    """

    commuter_fraction: float = 0.15
    mean_secondary_anchors: float = 2.0
    secondary_radius_m: float = 2_000.0
    commute_radius_m: float = 4_000.0
    anchor_zipf_exponent: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.commuter_fraction <= 1.0:
            raise ValueError("commuter_fraction must be in [0, 1]")
        if not 0 <= self.mean_secondary_anchors < math.inf:
            raise ValueError("mean_secondary_anchors must be non-negative and finite")
        if not 0 < self.secondary_radius_m < math.inf:
            raise ValueError("secondary_radius_m must be positive and finite")


@dataclass(frozen=True)
class User:
    """One synthetic subscriber.

    Attributes
    ----------
    uid:
        Pseudo-identifier.
    home_city:
        Index of the home city.
    anchors:
        Antenna indices of the user's anchor places; ``anchors[0]`` is
        home, ``anchors[1]`` is work, the rest are secondary places.
    anchor_weights:
        Zipf visit-frequency weights over ``anchors`` (sum to 1).
    """

    uid: str
    home_city: int
    anchors: np.ndarray
    anchor_weights: np.ndarray

    @property
    def home_antenna(self) -> int:
        """Antenna index of the home place."""
        return int(self.anchors[0])

    @property
    def work_antenna(self) -> int:
        """Antenna index of the work place."""
        return int(self.anchors[1])


class Population:
    """The synthetic subscriber population of one country."""

    def __init__(
        self,
        network: AntennaNetwork,
        n_users: int,
        config: PopulationConfig = PopulationConfig(),
        rng: Optional[np.random.Generator] = None,
    ):
        if n_users < 1:
            raise ValueError("n_users must be at least 1")
        if rng is None:
            rng = np.random.default_rng(0)
        self.network = network
        self.config = config
        self.users: List[User] = []

        n_cities = network.config.n_cities
        home_cities = rng.choice(n_cities, size=n_users, p=network.city_weights)
        for u in range(n_users):
            city = int(home_cities[u])
            self.users.append(self._make_user(f"u{u:06d}", city, rng))

    def _pick_city_antenna(self, city: int, rng: np.random.Generator) -> int:
        """Random antenna within a city core (uniform over the core)."""
        candidates = self.network.antennas_of_city(city)
        if candidates.size == 0:
            # Degenerate deployment: fall back to the antenna closest to
            # the city center.
            cx, cy = self.network.city_centers[city]
            return self.network.nearest(cx, cy)
        return int(rng.choice(candidates))

    def _make_user(self, uid: str, city: int, rng: np.random.Generator) -> User:
        net = self.network
        cfg = self.config
        home = self._pick_city_antenna(city, rng)

        if rng.random() < cfg.commuter_fraction and net.config.n_cities > 1:
            # Commuters work in a *nearby* city, weighted by population
            # over inverse squared distance (a gravity model); this keeps
            # the radius-of-gyration tail long but not country-spanning.
            home_center = net.city_centers[city]
            others = np.array([c for c in range(net.config.n_cities) if c != city])
            d = np.hypot(
                net.city_centers[others, 0] - home_center[0],
                net.city_centers[others, 1] - home_center[1],
            )
            w = net.city_weights[others] / np.maximum(d, 10_000.0)
            work_city = int(rng.choice(others, p=w / w.sum()))
            work = self._pick_city_antenna(work_city, rng)
        else:
            # Local workers: workplace at a short, exponentially
            # distributed commute from home (median ~3 km), which keeps
            # the radius-of-gyration median around the 2 km the paper
            # reports while commuters populate the long tail.  The
            # workplace must resolve to a *different* antenna than home
            # (a zero-length commute would merge the two anchors and
            # collapse the visit-location diversity real CDR shows).
            hx0, hy0 = net.positions[home]
            work = home
            for _ in range(8):
                r = rng.exponential(cfg.commute_radius_m)
                theta = rng.uniform(0.0, 2.0 * np.pi)
                px, py = net.region.clip(
                    hx0 + r * np.cos(theta), hy0 + r * np.sin(theta)
                )
                work = net.nearest(px, py)
                if work != home:
                    break
            if work == home:
                nearby = net.antennas_within(float(hx0), float(hy0), 30_000.0)
                others = nearby[nearby != home]
                if others.size:
                    work = int(others[0])

        n_secondary = int(rng.poisson(cfg.mean_secondary_anchors))
        anchors = [home, work]
        hx, hy = net.positions[home]
        if n_secondary:
            # Secondary anchors are *distinct* nearby antennas, chosen
            # with probability decaying in distance from home; picking
            # raw points and snapping to the nearest antenna would
            # collapse onto the home antenna at low antenna density.
            nearby = net.antennas_within(float(hx), float(hy), 4.0 * cfg.secondary_radius_m)
            candidates = np.array([a for a in nearby if a not in anchors])
            if candidates.size:
                d = np.hypot(
                    net.positions[candidates, 0] - hx,
                    net.positions[candidates, 1] - hy,
                )
                w = np.exp(-d / cfg.secondary_radius_m) + 1e-6
                take = min(n_secondary, candidates.size)
                chosen = rng.choice(
                    candidates, size=take, replace=False, p=w / w.sum()
                )
                anchors.extend(int(a) for a in chosen)

        ranks = np.arange(1, len(anchors) + 1, dtype=np.float64)
        weights = ranks ** (-cfg.anchor_zipf_exponent)
        weights /= weights.sum()
        return User(
            uid=uid,
            home_city=city,
            anchors=np.asarray(anchors, dtype=np.int64),
            anchor_weights=weights,
        )

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def __getitem__(self, i: int) -> User:
        return self.users[i]
