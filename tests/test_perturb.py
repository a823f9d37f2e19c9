"""Utility sampling, the theta/rate map, and pathwise derivatives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochinv import (
    InvalidParameterError,
    ThetaVector,
    ks_exponential,
    sample_utilities,
    sample_utilities_matrix,
)
from stochinv.perturb import Utilities, unit_exponential


class TestThetaVector:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(InvalidParameterError):
            ThetaVector(("a", "a"), [0.0, 0.0])

    def test_nonfinite_unmasked_rejected(self):
        with pytest.raises(InvalidParameterError):
            ThetaVector(("a", "b"), [0.0, np.inf])

    def test_nonfinite_masked_allowed_only_when_masked(self):
        theta = ThetaVector(("a", "b"), [0.0, np.nan], [False, True])
        assert theta.mask[1]

    def test_replace_keeps_mask(self):
        theta = ThetaVector(("a", "b"), [0.0, 0.0], [False, True])
        new = theta.replace([1.0, 2.0])
        assert new.mask.tolist() == [False, True]
        assert new.theta.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("masked", [-800.0, np.inf, -np.inf, np.nan])
    def test_rates_are_zero_on_masked_keys_without_exponentiating(self, masked):
        values = [0.5, masked, -3.0, 760.0]
        theta = ThetaVector(("a", "b", "c", "d"), values, [False, True, False, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = theta.rates()
        expected = [math.exp(-0.5), 0.0, math.exp(3.0), 0.0]
        assert rates.dtype == np.float64 and rates.tolist() == expected
        assert ThetaVector((), []).rates().dtype == np.float64


class TestUtilities:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -1.0])
    def test_nonfinite_or_negative_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="'b'"):
            Utilities(("a", "b", "c"), [0.5, bad, 2.0])

    def test_overflowing_draw_names_the_key(self):
        # The named error is all the caller sees: numpy warns of nothing.
        theta = ThetaVector(("a", "b", "c"), [0.0, 760.0, 0.0])
        for draw in (sample_utilities, lambda theta, rng: sample_utilities_matrix(theta, 4, rng)):
            with warnings.catch_warnings(), pytest.raises(InvalidParameterError, match="'b'"):
                warnings.simplefilter("error")
                draw(theta, np.random.default_rng(0))

    @pytest.mark.parametrize("values", [[-0.0], [], [0.0, 5e-324, 1e308]])
    def test_negative_zero_empty_and_extremes_accepted(self, values):
        u = Utilities(tuple(range(len(values))), values)
        assert u.values.tolist() == values


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        theta = ThetaVector(tuple(range(5)), np.linspace(-2, 2, 5))
        a = sample_utilities(theta, np.random.default_rng(7))
        b = sample_utilities(theta, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)

    def test_masked_keys_exactly_zero(self):
        theta = ThetaVector(("a", "b", "c"), [0.0, 1.0, -1.0], [False, True, True])
        for seed in range(20):
            e = sample_utilities(theta, np.random.default_rng(seed))
            assert e.values[1] == 0.0 and e.values[2] == 0.0

    def test_unit_rate_mean(self, rng):
        theta = ThetaVector(("a",), [0.0])
        values = sample_utilities_matrix(theta, 10**5, rng)
        assert values.mean() == pytest.approx(1.0, abs=0.02)

    def test_scale_follows_theta(self, rng):
        # E = eps * exp(theta): doubling the rate halves the sample.
        theta = ThetaVector(("a",), [-math.log(2.0)])
        values = sample_utilities_matrix(theta, 10**5, rng)
        assert values.mean() == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("theta_value", [-1.2, 0.0, 2.5])
    def test_marginal_law_ks(self, theta_value):
        theta = ThetaVector(("a",), [theta_value])
        values = sample_utilities_matrix(theta, 10**5, np.random.default_rng(3))
        _stat, p = ks_exponential(values[:, 0], math.exp(-theta_value))
        assert p > 1e-3

    def test_noise_is_finite_and_nonnegative(self, rng):
        eps = unit_exponential(rng, 10**5)
        assert np.all(eps >= 0) and np.all(np.isfinite(eps))

    def test_matrix_matches_columns(self, rng):
        theta = ThetaVector(tuple(range(3)), [0.5, -0.5, 0.0], [False, False, True])
        values = sample_utilities_matrix(theta, 100, rng)
        assert values.shape == (100, 3)
        assert np.all(values[:, 2] == 0.0)


class TestReparamDiag:
    def test_matches_frozen_noise_finite_differences(self):
        # E(theta) = eps * exp(theta) with eps frozen; central differences.
        rng = np.random.default_rng(5)
        eps = unit_exponential(rng, 6)
        theta0 = np.linspace(-1, 1, 6)
        h = 1e-6
        up = eps * np.exp(theta0 + h)
        down = eps * np.exp(theta0 - h)
        fd = (up - down) / (2 * h)
        analytic = eps * np.exp(theta0)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4)

    @given(st.floats(-30, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sample_map_is_noise_times_scale(self, theta_value, seed):
        theta = ThetaVector(("a",), [theta_value])
        eps = unit_exponential(np.random.default_rng(seed), 1)[0]
        expected = eps * math.exp(theta_value)
        sampled = sample_utilities(theta, np.random.default_rng(seed)).values[0]
        assert sampled == pytest.approx(expected, rel=1e-12, abs=1e-300)
