"""Tests for end-to-end CDR synthesis."""

import numpy as np
import pytest

from repro.cdr.activity import ActivityConfig
from repro.cdr.antenna import AntennaNetworkConfig
from repro.cdr.generator import CDRGenerator, GeneratorConfig, generate_dataset
from repro.cdr.mobility import MobilityConfig
from repro.cdr.population import PopulationConfig
from repro.core.sample import DT, DX, DY, T, X, Y
from repro.geo.region import Region


@pytest.fixture
def config():
    return GeneratorConfig(
        name="unit",
        region=Region("unit", 0.0, 100_000.0, 0.0, 100_000.0),
        n_users=25,
        days=2,
        network=AntennaNetworkConfig(n_cities=3, n_antennas=60),
        activity=ActivityConfig(mean_sessions_per_day=6.0),
    )


class TestGeneration:
    def test_dataset_shape(self, config):
        ds = generate_dataset(config, seed=4)
        assert 0 < len(ds) <= 25
        assert ds.n_samples > 0
        assert ds.name == "unit"

    def test_original_granularity(self, config):
        ds = generate_dataset(config, seed=4)
        for fp in ds:
            assert (fp.data[:, DX] == 100.0).all()
            assert (fp.data[:, DY] == 100.0).all()
            assert (fp.data[:, DT] == 1.0).all()

    def test_grid_snapped_positions(self, config):
        ds = generate_dataset(config, seed=4)
        for fp in ds:
            assert (fp.data[:, X] % 100.0 == 0).all()
            assert (fp.data[:, Y] % 100.0 == 0).all()

    def test_integral_minutes(self, config):
        ds = generate_dataset(config, seed=4)
        for fp in ds:
            np.testing.assert_array_equal(fp.data[:, T], np.floor(fp.data[:, T]))
            assert (fp.data[:, T] < 2 * 24 * 60).all()

    def test_positions_are_antenna_sites(self, config):
        gen = CDRGenerator(config, seed=4)
        ds = gen.generate()
        sites = {tuple(p) for p in gen.network.positions}
        for fp in ds:
            for row in fp.data:
                assert (row[X], row[Y]) in sites

    def test_no_duplicate_samples(self, config):
        ds = generate_dataset(config, seed=4)
        for fp in ds:
            assert np.unique(fp.data, axis=0).shape[0] == fp.m

    def test_determinism(self, config):
        d1 = generate_dataset(config, seed=4)
        d2 = generate_dataset(config, seed=4)
        assert d1.uids == d2.uids
        for fp1, fp2 in zip(d1, d2):
            np.testing.assert_array_equal(fp1.data, fp2.data)

    def test_seed_changes_output(self, config):
        d1 = generate_dataset(config, seed=4)
        d2 = generate_dataset(config, seed=5)
        same = all(
            fp1.m == fp2.m and np.array_equal(fp1.data, fp2.data)
            for fp1, fp2 in zip(d1, d2)
            if fp1.uid == fp2.uid
        )
        assert not same


#: Each checked sub-config setting, and the start of its error message.
_NON_FINITE_FIELDS = [
    (PopulationConfig, "mean_secondary_anchors", "mean_secondary_anchors must be"),
    (PopulationConfig, "secondary_radius_m", "secondary_radius_m must be"),
    (ActivityConfig, "mean_sessions_per_day", "mean_sessions_per_day must be"),
    (ActivityConfig, "rate_sigma", "rate_sigma must be"),
    (MobilityConfig, "exploration_scale_m", "exploration scales must be"),
    (MobilityConfig, "exploration_truncation_m", "exploration scales must be"),
    (AntennaNetworkConfig, "city_radius_min_m", "invalid city radius range"),
    (AntennaNetworkConfig, "city_radius_max_m", "invalid city radius range"),
]


class TestConfigValidation:
    def test_rejects_zero_users(self, config):
        with pytest.raises(ValueError):
            GeneratorConfig(
                name="bad", region=config.region, n_users=0, days=1
            )

    def test_rejects_zero_days(self, config):
        with pytest.raises(ValueError):
            GeneratorConfig(
                name="bad", region=config.region, n_users=1, days=0
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "config_cls, field, message",
        _NON_FINITE_FIELDS,
        ids=[field for _, field, _ in _NON_FINITE_FIELDS],
    )
    def test_rejects_non_finite_settings(self, config_cls, field, message, value):
        # NaN fails every comparison, so a `<= 0` check let it through.
        with pytest.raises(ValueError, match=message):
            config_cls(**{field: value})
