"""Tests for configuration dataclasses."""

import pytest

from repro.core.config import GloveConfig, StretchConfig, SuppressionConfig


class TestStretchConfig:
    def test_paper_defaults(self):
        cfg = StretchConfig()
        assert cfg.phi_max_sigma_m == 20_000.0
        assert cfg.phi_max_tau_min == 480.0
        assert cfg.w_sigma == 0.5
        assert cfg.w_tau == 0.5

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="equal 1"):
            StretchConfig(w_sigma=0.7, w_tau=0.7)

    def test_asymmetric_weights_allowed(self):
        cfg = StretchConfig(w_sigma=0.3, w_tau=0.7)
        assert cfg.w_sigma == 0.3

    def test_rejects_non_positive_thresholds(self):
        with pytest.raises(ValueError):
            StretchConfig(phi_max_sigma_m=0.0)
        with pytest.raises(ValueError):
            StretchConfig(phi_max_tau_min=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                StretchConfig(phi_max_sigma_m=bad)
            with pytest.raises(ValueError):
                StretchConfig(phi_max_tau_min=bad)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            StretchConfig(w_sigma=-0.5, w_tau=1.5)
        with pytest.raises(ValueError):
            StretchConfig(w_sigma=float("nan"))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            StretchConfig().w_sigma = 0.9


class TestGloveConfig:
    def test_defaults(self):
        cfg = GloveConfig()
        assert cfg.k == 2
        assert cfg.reshape is True
        assert not cfg.suppression.enabled

    def test_rejects_k_1(self):
        with pytest.raises(ValueError):
            GloveConfig(k=1)

    def test_nested_configs(self):
        cfg = GloveConfig(
            k=5,
            stretch=StretchConfig(phi_max_sigma_m=10_000.0),
            suppression=SuppressionConfig(spatial_threshold_m=5_000.0),
        )
        assert cfg.stretch.phi_max_sigma_m == 10_000.0
        assert cfg.suppression.enabled
