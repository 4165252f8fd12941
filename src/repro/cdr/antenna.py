"""Cities and antenna placement for the synthetic cellular network.

City populations follow a Zipf law (a robust empirical regularity of
urban systems), city centers are scattered over the country region, and
antennas are placed around each center with a Gaussian radial profile
whose spread grows with city population.  A small fraction of antennas
is spread uniformly over the country to model rural coverage.  All
antenna positions are snapped to the 100 m analysis grid and
deduplicated, mirroring the paper's guarantee that each grid cell holds
at most one antenna.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geo.grid import Grid
from repro.geo.region import Region


@dataclass(frozen=True)
class AntennaNetworkConfig:
    """Parameters of the synthetic radio access network.

    Attributes
    ----------
    n_cities:
        Number of urban agglomerations.
    n_antennas:
        Target antenna count (post-deduplication count may be lower).
    zipf_exponent:
        Exponent of the city-size Zipf law (1.0 is the classic value).
    city_radius_min_m, city_radius_max_m:
        Radii of the smallest and largest city footprints; intermediate
        cities interpolate with the square root of population.
    rural_fraction:
        Fraction of antennas placed uniformly outside city cores.
    """

    n_cities: int = 12
    n_antennas: int = 400
    zipf_exponent: float = 1.0
    city_radius_min_m: float = 2_000.0
    city_radius_max_m: float = 12_000.0
    rural_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.n_cities < 1:
            raise ValueError("n_cities must be at least 1")
        if self.n_antennas < self.n_cities:
            raise ValueError("need at least one antenna per city")
        if not 0.0 <= self.rural_fraction < 1.0:
            raise ValueError("rural_fraction must be in [0, 1)")
        if not 0 < self.city_radius_min_m <= self.city_radius_max_m < math.inf:
            raise ValueError("invalid city radius range")


class AntennaNetwork:
    """A synthetic nationwide antenna deployment.

    Attributes
    ----------
    region:
        Country extent on the projected plane.
    positions:
        ``(n, 2)`` antenna coordinates in metres, grid-snapped, unique.
    antenna_city:
        ``(n,)`` index of the city each antenna belongs to (-1 = rural).
    city_centers:
        ``(n_cities, 2)`` city center coordinates.
    city_weights:
        ``(n_cities,)`` normalized Zipf population weights.
    city_radii:
        ``(n_cities,)`` city footprint radii in metres.
    """

    def __init__(
        self,
        region: Region,
        config: AntennaNetworkConfig = AntennaNetworkConfig(),
        rng: Optional[np.random.Generator] = None,
        grid: Optional[Grid] = None,
    ):
        # Imported here, where it is used: a reader of CSVs never loads scipy.
        from scipy.spatial import cKDTree

        if rng is None:
            rng = np.random.default_rng(0)
        self.region = region
        self.config = config
        self.grid = grid or Grid()

        ranks = np.arange(1, config.n_cities + 1, dtype=np.float64)
        weights = ranks ** (-config.zipf_exponent)
        self.city_weights = weights / weights.sum()

        # City centers: uniform, but kept away from the region border so
        # city footprints stay mostly inside the country.
        margin_x = min(0.1 * region.width, config.city_radius_max_m)
        margin_y = min(0.1 * region.height, config.city_radius_max_m)
        cx = rng.uniform(region.x_min + margin_x, region.x_max - margin_x, config.n_cities)
        cy = rng.uniform(region.y_min + margin_y, region.y_max - margin_y, config.n_cities)
        self.city_centers = np.column_stack([cx, cy])

        scale = np.sqrt(self.city_weights / self.city_weights[0])
        self.city_radii = (
            config.city_radius_min_m
            + (config.city_radius_max_m - config.city_radius_min_m) * scale
        )

        n_rural = int(round(config.rural_fraction * config.n_antennas))
        n_urban = config.n_antennas - n_rural
        per_city = np.maximum(1, np.round(self.city_weights * n_urban).astype(int))

        xs, ys, owner = [], [], []
        for c in range(config.n_cities):
            k = int(per_city[c])
            r = np.abs(rng.normal(0.0, self.city_radii[c], k))
            theta = rng.uniform(0.0, 2.0 * np.pi, k)
            xs.append(self.city_centers[c, 0] + r * np.cos(theta))
            ys.append(self.city_centers[c, 1] + r * np.sin(theta))
            owner.append(np.full(k, c, dtype=np.int64))
        if n_rural:
            xs.append(rng.uniform(region.x_min, region.x_max, n_rural))
            ys.append(rng.uniform(region.y_min, region.y_max, n_rural))
            owner.append(np.full(n_rural, -1, dtype=np.int64))

        x = np.concatenate(xs)
        y = np.concatenate(ys)
        owner = np.concatenate(owner)
        x, y = region.clip(x, y)
        gx, gy = self.grid.snap(x, y)

        # One antenna per 100 m grid cell, as in the paper's Section 3.
        cells = np.column_stack([gx, gy])
        _, keep = np.unique(cells, axis=0, return_index=True)
        keep.sort()
        self.positions = cells[keep]
        self.antenna_city = owner[keep]
        self._tree = cKDTree(self.positions)
        self._city_antennas = [
            np.flatnonzero(self.antenna_city == c) for c in range(config.n_cities)
        ]

    @property
    def n_antennas(self) -> int:
        """Number of distinct antenna sites after grid deduplication."""
        return self.positions.shape[0]

    def nearest(self, x, y):
        """Index of the antenna serving planar point(s) ``(x, y)``."""
        pts = np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
        _, idx = self._tree.query(pts)
        if np.isscalar(x):
            return int(idx[0])
        return idx.astype(np.int64)

    def antennas_of_city(self, city: int) -> np.ndarray:
        """Indices of the antennas belonging to a city core."""
        if not 0 <= city < self.config.n_cities:
            raise ValueError(f"city index out of range: {city}")
        return self._city_antennas[city]

    def antennas_within(self, x: float, y: float, radius_m: float) -> np.ndarray:
        """Indices of antennas within ``radius_m`` of a planar point."""
        return np.asarray(self._tree.query_ball_point([x, y], radius_m), dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"AntennaNetwork(region={self.region.name!r}, antennas={self.n_antennas}, "
            f"cities={self.config.n_cities})"
        )
