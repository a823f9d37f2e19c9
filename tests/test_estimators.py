"""Gradient estimators: exact identities, unbiasedness, variance ordering."""

import warnings

import numpy as np
import pytest

from stochinv import (
    ControlVariate,
    InvalidArgumentError,
    InvalidControlVariateError,
    InvalidParameterError,
    SpanningTree,
    ThetaVector,
    TopK,
    Utilities,
    enumerate_distribution,
    exact_gradient,
    grad_e_reinforce,
    grad_loo,
    grad_relax,
    grad_t_reinforce,
    hamming_distance,
    quadratic_control_variate,
    sample_utilities,
    utility_score,
    zero_control_variate,
)
from conftest import complete_graph, seeded_theta


def subset_loss(target):
    return lambda x: float(hamming_distance(x, frozenset(target)))


class TestExactIdentities:
    def test_constant_zero_loss_gives_exact_zero(self):
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 0)
        for fn in (grad_e_reinforce, grad_t_reinforce):
            report = fn(sdef, theta, lambda x: 0.0, 50, 1)
            assert np.all(report.gradient.values == 0.0)

    def test_single_sample_unit_loss_is_the_raw_score(self):
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 1)
        report = grad_e_reinforce(sdef, theta, lambda x: 1.0, 1, 5)
        rng = np.random.default_rng(5).spawn(1)[0]
        e = sample_utilities(theta, rng)
        np.testing.assert_array_equal(report.gradient.values, utility_score(theta, e))

    def test_loo_identical_losses_give_bitwise_zero(self):
        sdef = TopK(4, 2)
        theta = seeded_theta(sdef, 2)
        report = grad_loo(sdef, theta, lambda x: 2.25, 4, "trace", 3, n_batches=8)
        assert np.all(report.gradient.values == 0.0)

    def test_loo_needs_two_samples(self):
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 3)
        with pytest.raises(InvalidParameterError):
            grad_loo(sdef, theta, lambda x: 0.0, 1, "trace", 0)
        with pytest.raises(InvalidParameterError):
            grad_loo(sdef, theta, lambda x: 0.0, 4, "nonsense", 0)

    def test_relax_with_zero_cv_equals_t_reinforce_per_sample(self):
        sdef = SpanningTree(range(4), complete_graph(4))
        theta = seeded_theta(sdef, 4)
        loss = lambda x: float(hamming_distance(x, frozenset({(0, 1), (1, 2), (2, 3)})))  # noqa: E731
        a = grad_t_reinforce(sdef, theta, loss, 64, 9, keep_per_sample=True)
        b = grad_relax(
            sdef, theta, loss, zero_control_variate(), 9,
            n_samples=64, keep_per_sample=True,
        )
        np.testing.assert_array_equal(a.per_sample, b.per_sample)

    def test_relax_with_loss_matching_cv_kills_leading_term(self):
        # c == L everywhere makes (L - c) vanish sample-wise, leaving only
        # the two control-variate gradient terms.
        sdef = TopK(2, 1)
        theta = ThetaVector.constant(sdef.key_labels)
        const = 4.0
        cv = ControlVariate(lambda u: (const, np.zeros(2)))
        report = grad_relax(
            sdef, theta, lambda x: const, cv, 11, n_samples=16, keep_per_sample=True
        )
        np.testing.assert_array_equal(report.per_sample, np.zeros((16, 2)))

    def test_report_bookkeeping(self):
        sdef = TopK(3, 2)
        theta = seeded_theta(sdef, 5)
        report = grad_loo(
            sdef, theta, lambda x: 1.0, 4, "utility", 7,
            n_batches=5, keep_per_sample=True,
        )
        assert report.per_sample.shape == (5, 3)
        np.testing.assert_allclose(
            report.gradient.values, report.per_sample.mean(axis=0), atol=1e-15
        )


class TestArgumentChecks:
    def test_utility_score_with_other_keys_raises(self):
        # A score was returned for utilities keyed unlike theta.
        theta = ThetaVector.constant((0, 1, 2))
        with pytest.raises(InvalidArgumentError, match="utility keys do not match theta"):
            utility_score(theta, Utilities(("a", "b", "c"), [1.0, 1.0, 1.0]))

    def test_control_variate_gradient_of_the_wrong_shape_raises(self):
        cv = ControlVariate(lambda u: (0.0, np.zeros(len(u.keys) + 1)))
        with pytest.raises(InvalidControlVariateError, match=r"shape \(4,\), expected \(3,\)"):
            cv(Utilities((0, 1, 2), [1.0, 1.0, 1.0]))

    def test_quadratic_coefficients_for_other_keys_raise(self):
        # numpy's matmul raised its own ValueError, directly and through grad_relax.
        cv = quadratic_control_variate(np.ones(2))
        sdef = TopK(3, 1)
        match = "2 coefficients for 3 utilities"
        with pytest.raises(InvalidArgumentError, match=match):
            cv(Utilities((0, 1, 2), [1.0, 1.0, 1.0]))
        with pytest.raises(InvalidArgumentError, match=match):
            grad_relax(sdef, seeded_theta(sdef, 6), lambda x: 0.0, cv, 2, n_samples=4)

    @pytest.mark.parametrize(
        "estimate, match",
        [(lambda sdef, theta: grad_t_reinforce(sdef, theta, len, 0, 0), "n_samples"),
         (lambda sdef, theta: grad_loo(sdef, theta, len, 2, "trace", 0, n_batches=0),
          "n_batches")],
        ids=["t_reinforce_no_samples", "loo_no_batches"],
    )
    def test_empty_budget_raises(self, estimate, match):
        sdef = TopK(3, 1)
        with pytest.raises(InvalidParameterError, match=f"{match} must be at least 1"):
            estimate(sdef, ThetaVector.constant(sdef.key_labels))

    @pytest.mark.parametrize(
        "estimate, name",
        [(lambda sdef, theta, c: grad_e_reinforce(sdef, theta, len, c, 0), "n_samples"),
         (lambda sdef, theta, c: grad_t_reinforce(sdef, theta, len, c, 0), "n_samples"),
         (lambda sdef, theta, c: grad_relax(sdef, theta, len, zero_control_variate(), 0,
                                            n_samples=c), "n_samples"),
         (lambda sdef, theta, c: grad_loo(sdef, theta, len, c, "trace", 0), "k_samples"),
         (lambda sdef, theta, c: grad_loo(sdef, theta, len, 2, "utility", 0, n_batches=c),
          "n_batches")],
        ids=["e_reinforce", "t_reinforce", "relax", "loo_k_samples", "loo_n_batches"],
    )
    @pytest.mark.parametrize("count", [2.5, np.float64(3.7), True],
                             ids=["float", "numpy_float", "bool"])
    def test_count_that_is_no_integer_raises(self, estimate, name, count):
        # numpy's spawn drew 2 samples for 2.5, 3 for 3.7 and 1 for True;
        # grad_loo's own arithmetic raised a bare TypeError on 2.5.
        sdef = TopK(3, 1)
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer, got "):
            estimate(sdef, ThetaVector.constant(sdef.key_labels), count)

    def test_numpy_integer_counts_draw_as_ints_do(self):
        sdef = TopK(3, 1)
        theta, loss = seeded_theta(sdef, 7), subset_loss([0])
        for estimate in (
            lambda c, b: grad_e_reinforce(sdef, theta, loss, c * b, 3, keep_per_sample=True),
            lambda c, b: grad_loo(sdef, theta, loss, c, "trace", 3, n_batches=b,
                                  keep_per_sample=True),
        ):
            expected = estimate(2, 3).per_sample
            actual = estimate(np.int64(2), np.int32(3)).per_sample
            assert actual.tobytes() == expected.tobytes()


class TestControlVariates:
    def test_quadratic_self_test_passes(self):
        cv = quadratic_control_variate(np.array([0.1, 0.2, 0.3]))
        theta = ThetaVector.constant((0, 1, 2))
        e = sample_utilities(theta, np.random.default_rng(0))
        assert cv.self_test(e)

    def test_wrong_gradient_fails_self_test_and_raises(self):
        bad = ControlVariate(
            lambda u: (float(u.values.sum()), np.zeros(len(u.keys)))
        )
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 6)
        e = sample_utilities(theta, np.random.default_rng(1))
        assert not bad.self_test(e)
        with pytest.raises(InvalidControlVariateError):
            grad_relax(sdef, theta, lambda x: 0.0, bad, 2)

    def test_self_test_runs_once_per_control_variate(self):
        # The check cost 2 * n_keys + 1 evaluations on every call.
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 7)
        quadratic = quadratic_control_variate(np.array([0.1, 0.2, 0.3]))
        evaluations = []

        def counting(u):
            evaluations.append(1)
            return quadratic.value_and_grad(u)

        cv = ControlVariate(counting)
        spent = []
        for seed in (0, 1):
            before = len(evaluations)
            grad_relax(sdef, theta, lambda x: 0.0, cv, seed, n_samples=4)
            spent.append(len(evaluations) - before)
        assert spent[0] - spent[1] == 2 * sdef.n_keys + 1

    def test_failing_control_variate_raises_on_every_call(self):
        bad = ControlVariate(lambda u: (float(u.values.sum()), np.zeros(len(u.keys))))
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 6)
        for seed in (2, 3):
            with pytest.raises(InvalidControlVariateError):
                grad_relax(sdef, theta, lambda x: 0.0, bad, seed)

    @pytest.mark.parametrize("cv", [
        ControlVariate(lambda u: (0.0, np.full(len(u.keys), np.nan))),
        ControlVariate(lambda u: (np.nan, np.zeros(len(u.keys)))),
        ControlVariate(lambda u: (np.inf, np.zeros(len(u.keys)))),
        quadratic_control_variate(np.full(4, 1e308)),
    ], ids=["nan_gradient", "nan_value", "inf_value", "overflowing_quadratic"])
    def test_non_finite_control_variate_raises(self, cv):
        # NaN compared false against the tolerance: the self-test passed
        # and grad_relax returned an all-NaN gradient.
        sdef = TopK(4, 1)
        theta = seeded_theta(sdef, 6)
        e = sample_utilities(theta, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidControlVariateError, match="not finite"):
                cv.self_test(e)
            with pytest.raises(InvalidControlVariateError, match="not finite"):
                grad_relax(sdef, theta, lambda x: 0.0, cv, 2, n_samples=4)
        assert not cv.self_tested

    @pytest.mark.parametrize("scale", [1.0, 1e13])
    def test_self_test_resolves_large_utilities(self, scale):
        # An absolute step vanishes next to 1e13: the difference was 0/0,
        # NaN compared false and a doubled gradient passed.
        coeffs = np.array([0.1, 0.2, 0.3])
        true = quadratic_control_variate(coeffs)
        doubled = ControlVariate(
            lambda u: (float(coeffs @ u.values**2), 4.0 * coeffs * u.values)
        )
        e = Utilities((0, 1, 2), np.array([0.5, 1.2, 2.0]) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert true.self_test(e)
            assert not doubled.self_test(e)


@pytest.fixture(scope="module")
def problem():
    sdef = TopK(3, 1)
    theta = ThetaVector(sdef.key_labels, [0.3, -0.2, 0.1])
    loss = subset_loss({1})
    dist = enumerate_distribution(sdef, theta)
    gstar = exact_gradient(dist, sdef, theta, loss).values
    return sdef, theta, loss, gstar


class TestUnbiasedness:
    def _check(self, report, gstar, sigmas=6.0):
        per = report.per_sample
        se = per.std(axis=0, ddof=1) / np.sqrt(per.shape[0])
        np.testing.assert_array_less(
            np.abs(report.gradient.values - gstar), sigmas * se + 1e-12
        )

    def test_e_reinforce(self, problem):
        sdef, theta, loss, gstar = problem
        self._check(
            grad_e_reinforce(sdef, theta, loss, 30000, 13, keep_per_sample=True),
            gstar,
        )

    def test_t_reinforce(self, problem):
        sdef, theta, loss, gstar = problem
        self._check(
            grad_t_reinforce(sdef, theta, loss, 30000, 14, keep_per_sample=True),
            gstar,
        )

    def test_loo_both_spaces(self, problem):
        sdef, theta, loss, gstar = problem
        for space, seed in (("trace", 15), ("utility", 16)):
            self._check(
                grad_loo(
                    sdef, theta, loss, 4, space, seed,
                    n_batches=7500, keep_per_sample=True,
                ),
                gstar,
            )

    def test_relax_quadratic(self, problem):
        sdef, theta, loss, gstar = problem
        cv = quadratic_control_variate(np.full(3, 0.1))
        self._check(
            grad_relax(
                sdef, theta, loss, cv, 17, n_samples=30000, keep_per_sample=True
            ),
            gstar,
        )


class TestVarianceOrdering:
    def test_trace_score_never_noisier_than_utility_score(self):
        # Shared per-sample streams make the comparison paired.
        sdef = TopK(5, 2)
        loss = subset_loss({0, 1})
        for seed in range(3):
            theta = seeded_theta(sdef, 20 + seed)
            ge = grad_e_reinforce(sdef, theta, loss, 4000, 99, keep_per_sample=True)
            gt = grad_t_reinforce(sdef, theta, loss, 4000, 99, keep_per_sample=True)
            var_e = ge.per_sample.var(axis=0, ddof=1).sum()
            var_t = gt.per_sample.var(axis=0, ddof=1).sum()
            assert var_t <= var_e

    def test_loo_reduces_variance_at_matched_budget(self):
        sdef = TopK(5, 2)
        theta = seeded_theta(sdef, 30)
        loss = subset_loss({0, 1})
        plain = grad_t_reinforce(sdef, theta, loss, 8000, 31, keep_per_sample=True)
        loo = grad_loo(
            sdef, theta, loss, 4, "trace", 31, n_batches=2000, keep_per_sample=True
        )
        # variance of the final mean estimate at equal total budget
        var_plain = plain.per_sample.var(axis=0, ddof=1).sum() / 8000
        var_loo = loo.per_sample.var(axis=0, ddof=1).sum() / 2000
        assert var_loo < var_plain
