"""Score-function gradient estimators over structured distributions.

All estimators target the gradient of E[L(X)] in theta coordinates and are
unbiased.  They differ in which random variable carries the score:

* utility-space REINFORCE scores the raw exponential sample (score
  ``-1 + e_k * rate_k`` per unmasked key);
* trace-space REINFORCE scores the trace, which marginalizes the residual
  utility noise out and never has larger variance;
* the leave-one-out variants subtract the K-sample mean loss as a
  baseline;
* the conditional-reparameterization estimator subtracts a caller-supplied
  control variate evaluated at a fresh sample of the utilities given the
  trace, correcting the bias through the frozen-noise Jacobian of the
  conditional build.

Per-sample randomness comes from child streams spawned from ``rng``, so a
sample's draw depends only on the seed sequence and the spawn index, not
on how the work would be scheduled.  Estimators given the same int seed
see identical utility samples; a shared Generator or SeedSequence hands
each call the next children, so consecutive calls draw disjoint samples
(the rows of the CLI's ``variance`` do).  The mean is reduced in a fixed
deterministic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    StructureDefinition,
    cond_jacobian_vjp,
    cond_sample,
    run_struct,
    trace_score,
)
from .errors import (
    InvalidArgumentError,
    InvalidControlVariateError,
    InvalidParameterError,
    as_count,
)
from .perturb import GradientVector, ThetaVector, Utilities, sample_utilities

SELF_TEST_STEP = 1e-6        # finite-difference step, relative to the utility
SELF_TEST_TOLERANCE = 1e-4   # allowed gap to the analytic gradient, relative


@dataclass
class EstimatorReport:
    """A gradient estimate and how it was produced.

    ``gradient`` is the arithmetic mean of the per-sample (or per-batch)
    contributions; ``per_sample`` retains those contributions as an
    (n, n_keys) array when requested.
    """

    gradient: GradientVector
    per_sample: Optional[np.ndarray] = None


class ControlVariate:
    """A baseline c(e) with an analytic gradient in utility space.

    ``value_and_grad(utilities)`` must return (c(e), dc/de), both finite,
    with the gradient aligned to the utility keys; calling the object raises
    InvalidControlVariateError otherwise.  ``self_test`` compares the
    gradient against central finite differences within ``SELF_TEST_TOLERANCE``;
    the conditional-reparameterization estimator runs it the first time it
    uses a control variate and sets ``self_tested`` once it passes, so each
    object is checked once however many calls use it.
    """

    def __init__(self, value_and_grad: Callable):
        self.value_and_grad = value_and_grad
        self.self_tested = False

    def __call__(self, utilities: Utilities):
        value, grad = self.value_and_grad(utilities)
        value, grad = float(value), np.asarray(grad, dtype=np.float64)
        if grad.shape != (len(utilities.keys),):
            raise InvalidControlVariateError(
                f"gradient has shape {grad.shape}, expected ({len(utilities.keys)},)")
        if not (math.isfinite(value) and np.isfinite(grad).all()):
            raise InvalidControlVariateError("control variate value or gradient is not finite")
        return value, grad

    def self_test(self, utilities: Utilities) -> bool:
        """Check the gradient by central differences.

        Key i moves by ``SELF_TEST_STEP`` relative to its utility (absolute
        below 1), so the difference stays resolvable however large the
        utility is; the lower point is clamped at 0.
        """
        _, grad = self(utilities)
        base = utilities.values
        for i in range(len(base)):
            h = SELF_TEST_STEP * max(1.0, abs(base[i]))
            up = base.copy()
            up[i] += h
            down = base.copy()
            down[i] = max(down[i] - h, 0.0)
            v_up, _ = self(Utilities(utilities.keys, up))
            v_down, _ = self(Utilities(utilities.keys, down))
            fd = (v_up - v_down) / (up[i] - down[i])
            if not abs(fd - grad[i]) <= SELF_TEST_TOLERANCE * (1.0 + abs(grad[i])):
                return False
        return True


def quadratic_control_variate(coeffs) -> ControlVariate:
    """c(e) = sum_k a_k e_k^2, the fixed quadratic baseline."""
    coeffs = np.asarray(coeffs, dtype=np.float64)

    def value_and_grad(utilities: Utilities):
        e = utilities.values
        if e.shape != coeffs.shape:
            raise InvalidArgumentError(f"{coeffs.size} coefficients for {e.size} utilities")
        with np.errstate(over="ignore", invalid="ignore"):  # __call__ rejects inf and NaN
            return float(coeffs @ (e * e)), 2.0 * coeffs * e

    return ControlVariate(value_and_grad)


def zero_control_variate() -> ControlVariate:
    def value_and_grad(utilities: Utilities):
        return 0.0, np.zeros(len(utilities.keys))

    return ControlVariate(value_and_grad)


def utility_score(theta: ThetaVector, utilities: Utilities) -> np.ndarray:
    """d/dtheta of the exponential log-density at a sample.

    log p(e) = sum over unmasked k of (-theta_k - e_k exp(-theta_k)), so
    each coordinate is -1 + e_k * rate_k; masked keys are constants and
    contribute 0.  The utilities must have theta's keys.
    """
    if utilities.keys != theta.keys:
        raise InvalidArgumentError("utility keys do not match theta")
    score = -1.0 + utilities.values * theta.rates()
    score[theta.mask] = 0.0
    return score


def _loss_value(loss: Callable, structure) -> float:
    value = float(loss(structure))
    if not math.isfinite(value):
        raise InvalidArgumentError(f"loss returned a non-finite value {value}")
    return value


def _report(theta, contributions, keep) -> EstimatorReport:
    per = np.asarray(contributions)
    mean = per.mean(axis=0)
    return EstimatorReport(
        gradient=GradientVector(theta.keys, mean),
        per_sample=per if keep else None,
    )


def _draws(sdef, theta, loss, n_samples: int, rng):
    """Yield ``(child, e, trace, loss value)`` for each of ``n_samples``
    child streams spawned from ``rng``: the utilities drawn from the child,
    the trace they run to, and the loss of the structure."""
    for child in np.random.default_rng(rng).spawn(as_count(n_samples, "n_samples", least=1)):
        e = sample_utilities(theta, child)
        x, trace = run_struct(sdef, e)
        yield child, e, trace, _loss_value(loss, x)


def _scored_draws(sdef, theta, loss, n_samples: int, space: str, rng):
    """The losses, shape (n_samples,), and the scores, shape (n_samples,
    n_keys), of ``n_samples`` draws: the trace score for space="trace",
    the utility score for space="utility"."""
    losses, scores = [], []
    for _child, e, trace, value in _draws(sdef, theta, loss, n_samples, rng):
        losses.append(value)
        scores.append(trace_score(sdef, trace, theta).values if space == "trace"
                      else utility_score(theta, e))
    return np.array(losses), np.array(scores)


def grad_e_reinforce(
    sdef: StructureDefinition,
    theta: ThetaVector,
    loss: Callable,
    n_samples: int,
    rng,
    keep_per_sample: bool = False,
) -> EstimatorReport:
    """REINFORCE with the utility-space score: mean of L(X(e)) * score_E(e)."""
    losses, scores = _scored_draws(sdef, theta, loss, n_samples, "utility", rng)
    return _report(theta, losses[:, None] * scores, keep_per_sample)


def grad_t_reinforce(
    sdef: StructureDefinition,
    theta: ThetaVector,
    loss: Callable,
    n_samples: int,
    rng,
    keep_per_sample: bool = False,
) -> EstimatorReport:
    """REINFORCE with the trace score: mean of L(X(t)) * score_T(t)."""
    losses, scores = _scored_draws(sdef, theta, loss, n_samples, "trace", rng)
    return _report(theta, losses[:, None] * scores, keep_per_sample)


def grad_loo(
    sdef: StructureDefinition,
    theta: ThetaVector,
    loss: Callable,
    k_samples: int,
    space: str,
    rng,
    n_batches: int = 1,
    keep_per_sample: bool = False,
) -> EstimatorReport:
    """Leave-one-out estimator: K samples share their mean loss as baseline.

    One batch contributes (1/(K-1)) sum_i (L_i - mean L) * score_i with the
    trace score (space="trace") or the utility score (space="utility").
    ``per_sample`` rows are per-batch estimates; identical losses within a
    batch give an exactly zero batch estimate.
    """
    k_samples = as_count(k_samples, "k_samples", least=2)
    if space not in ("trace", "utility"):
        raise InvalidParameterError(f"unknown score space {space!r}")
    n_batches = as_count(n_batches, "n_batches", least=1)
    n = as_count(n_batches * k_samples, "n_batches * k_samples")
    losses, scores = _scored_draws(sdef, theta, loss, n, space, rng)
    losses = losses.reshape(n_batches, 1, k_samples)
    scores = scores.reshape(n_batches, k_samples, -1)
    centered = losses - losses.mean(axis=2, keepdims=True)
    return _report(theta, (centered @ scores)[:, 0] / (k_samples - 1), keep_per_sample)


def grad_relax(
    sdef: StructureDefinition,
    theta: ThetaVector,
    loss: Callable,
    control_variate: ControlVariate,
    rng,
    n_samples: int = 1,
    keep_per_sample: bool = False,
) -> EstimatorReport:
    """Trace-score REINFORCE with a conditionally reparameterized baseline.

    Per sample: draw e, run the structure to get (x, t), draw a fresh
    conditional sample e~ given t, and contribute

        (L(x) - c(e~)) * score_T(t) - d/dtheta c(e~) + d/dtheta c(e),

    where the last term flows through the pathwise derivative of the
    sample map (e_k per coordinate) and the middle one through the
    vector-Jacobian product of the conditional build record.  With c = 0
    this is exactly the trace-score estimator, sample for sample.  The
    control variate's gradient is checked on the first sample of the first
    call that uses it; one that fails is checked, and raises, on every call.
    """
    contributions = []
    for child, e, trace, loss_value in _draws(sdef, theta, loss, n_samples, rng):
        if not (contributions or control_variate.self_tested):
            if not control_variate.self_test(e):
                raise InvalidControlVariateError(
                    "control variate gradient disagrees with finite differences"
                )
            control_variate.self_tested = True
        e_cond, record = cond_sample(sdef, trace, theta, child)
        c_cond, dc_cond = control_variate(e_cond)
        c_direct_grad = control_variate(e)[1] * e.values
        score = trace_score(sdef, trace, theta)
        correction = cond_jacobian_vjp(record, theta, dc_cond)
        contributions.append(
            (loss_value - c_cond) * score.values
            - correction.values
            + c_direct_grad
        )
    return _report(theta, contributions, keep_per_sample)
