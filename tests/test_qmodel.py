"""Tests for the §6.1.2 traffic-modeling formulas."""

import pytest

from repro.core import appenzeller_loss_probability, appenzeller_sigma


class TestAppenzellerModel:
    def test_sigma_shrinks_with_flows(self):
        few = appenzeller_sigma(0.05, 1000, 100, 4)
        many = appenzeller_sigma(0.05, 1000, 100, 400)
        assert many == pytest.approx(few / 10)

    def test_loss_probability_decreases_with_buffer(self):
        sigma = appenzeller_sigma(0.05, 1000, 100, 16)
        small = appenzeller_loss_probability(50, sigma)
        large = appenzeller_loss_probability(500, sigma)
        assert large < small

    def test_loss_probability_in_unit_interval(self):
        sigma = appenzeller_sigma(0.05, 1000, 50, 8)
        p = appenzeller_loss_probability(50, sigma)
        assert 0.0 <= p <= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            appenzeller_sigma(0.05, 1000, 100, 0)
        with pytest.raises(ValueError):
            appenzeller_loss_probability(10, 0)

    def test_model_too_coarse_for_detection(self):
        """The paper's conclusion: the analytic prediction misses the
        simulated loss rate by a wide margin (§6.1.2)."""
        from repro.eval.experiments import traffic_modeling_comparison
        comparison = traffic_modeling_comparison()
        assert comparison.relative_error > 0.5
