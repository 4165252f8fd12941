"""Tests for the Tail Weight Index.

The paper's footnote 5 calibrates the index: Exp(1) has TWI ~1.6 and
Pareto(shape=1) has TWI ~14; these anchors pin down the definition.
"""

import numpy as np
import pytest

from repro.analysis.twi import gaussian_twi_norm, tail_weight_index


class TestCalibrationAnchors:
    def test_exponential_anchor(self):
        # Analytic quantiles of Exp(1), immune to sampling noise.
        q = lambda p: -np.log1p(-p)
        twi = ((q(0.99) - q(0.5)) / (q(0.75) - q(0.5))) / gaussian_twi_norm()
        assert twi == pytest.approx(1.6, abs=0.1)

    def test_pareto_anchor(self):
        q = lambda p: 1.0 / (1.0 - p)
        twi = ((q(0.99) - q(0.5)) / (q(0.75) - q(0.5))) / gaussian_twi_norm()
        assert twi == pytest.approx(14.0, abs=0.5)

    def test_gaussian_is_one(self, rng):
        twi = tail_weight_index(rng.normal(size=200_000))
        assert twi == pytest.approx(1.0, abs=0.05)

    def test_sampled_exponential(self, rng):
        twi = tail_weight_index(rng.exponential(size=200_000))
        assert twi == pytest.approx(1.64, abs=0.1)

    def test_sampled_pareto(self, rng):
        twi = tail_weight_index(rng.pareto(1.0, size=500_000))
        assert twi == pytest.approx(14.2, rel=0.15)


class TestOrdering:
    def test_heavier_tail_higher_twi(self, rng):
        light = tail_weight_index(rng.normal(size=50_000))
        medium = tail_weight_index(rng.exponential(size=50_000))
        heavy = tail_weight_index(rng.pareto(1.0, size=50_000))
        assert light < medium < heavy

    def test_uniform_lighter_than_gaussian(self, rng):
        uniform = tail_weight_index(rng.uniform(size=50_000))
        gaussian = tail_weight_index(rng.normal(size=50_000))
        assert uniform < gaussian

    def test_scale_invariant(self, rng):
        x = rng.exponential(size=20_000)
        assert tail_weight_index(x) == pytest.approx(tail_weight_index(100.0 * x))

    def test_shift_invariant(self, rng):
        x = rng.exponential(size=20_000)
        assert tail_weight_index(x) == pytest.approx(tail_weight_index(x + 5.0))


class TestDegenerate:
    def test_too_few_points(self):
        assert tail_weight_index(np.array([1.0, 2.0, 3.0])) == 0.0

    def test_constant_distribution(self):
        assert tail_weight_index(np.full(100, 7.0)) == 0.0

    def test_mass_at_median(self):
        # More than 75% of mass on one value: body spread is zero.
        values = np.concatenate([np.zeros(80), np.ones(20)])
        assert tail_weight_index(values) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_subnormal_body_spread(self):
        # Q(0.75) - Q(0.5) = 5e-324 overflows the ratio: a zero spread at
        # float resolution, so the index is 0 and nothing warns.
        assert tail_weight_index(np.array([0.0, 0.0, 0.0, 5e-324, 1e6])) == 0.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            tail_weight_index(np.zeros((4, 4)))
