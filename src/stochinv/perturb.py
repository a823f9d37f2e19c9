"""Exponential utility sampling and the log-location parameterization.

Every key ``k`` carries a real parameter ``theta_k``; the corresponding
exponential rate is ``exp(-theta_k)``, so theta is unconstrained and plays
the role of a Gumbel location.  A key may instead be marked deterministic,
which stands for an infinite rate: its utility is the constant 0.  Infinite
rates are kept out of floating-point arithmetic everywhere: the mask is the
single source of truth, and ``ThetaVector.rates`` gives masked keys 0.0.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InvalidArgumentError, InvalidParameterError


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator, a SeedSequence, or anything ``default_rng`` takes."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def unit_exponential(rng: np.random.Generator, size=None):
    """Unit-rate exponential noise as -log(u), u uniform on (0, 1].

    The open lower bound keeps utilities finite; an exact zero (u == 1)
    remains representable, matching the distribution's support.
    """
    return -np.log1p(-rng.random(size))


class KeyedVector:
    """An ordered tuple of opaque keys with one float64 per key."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: Iterable, values):
        self.keys = tuple(keys)
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (len(self.keys),):
            raise InvalidArgumentError(
                f"expected {len(self.keys)} values, got shape {self.values.shape}"
            )

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k!r}: {v:.6g}" for k, v in zip(self.keys, self.values))
        return f"{type(self).__name__}({{{pairs}}})"


class Utilities(KeyedVector):
    """Nonnegative perturbation values, one exponential draw per key."""

    def __init__(self, keys, values):
        super().__init__(keys, values)
        # One reduction each: NaN fails both comparisons, -0.0 passes.
        v = self.values
        if v.size and not (v.min() >= 0.0 and v.max() < np.inf):
            bad = next(i for i, x in enumerate(v.tolist()) if not 0.0 <= x < np.inf)
            raise InvalidParameterError(
                f"utilities must be finite and nonnegative, got {v[bad]} on key {self.keys[bad]!r}"
            )


class GradientVector(KeyedVector):
    """A derivative with respect to each key's theta coordinate."""


class ThetaVector:
    """Log-location parameters with an explicit deterministic-winner mask.

    ``mask[k] = True`` means key ``k`` behaves as if its rate were infinite:
    its utility is exactly 0 and it wins every comparison it takes part in.
    """

    __slots__ = ("keys", "theta", "mask")

    def __init__(self, keys: Iterable, theta, mask=None):
        self.keys = tuple(keys)
        if len(set(self.keys)) != len(self.keys):
            raise InvalidParameterError("duplicate keys in theta vector")
        self.theta = np.asarray(theta, dtype=np.float64)
        if self.theta.shape != (len(self.keys),):
            raise InvalidParameterError(
                f"expected {len(self.keys)} theta values, got shape {self.theta.shape}"
            )
        if mask is None:
            mask = np.zeros(len(self.keys), dtype=bool)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != self.theta.shape:
            raise InvalidParameterError("mask shape does not match theta")
        if not np.all(np.isfinite(self.theta[~self.mask])):
            raise InvalidParameterError("theta must be finite on unmasked keys")

    @classmethod
    def constant(cls, keys, value: float = 0.0) -> "ThetaVector":
        keys = tuple(keys)
        return cls(keys, np.full(len(keys), float(value)))

    def __len__(self) -> int:
        return len(self.keys)

    def rates(self) -> np.ndarray:
        """exp(-theta) per key, 0.0 on masked keys, whose theta is never exponentiated."""
        return np.exp(-self.theta, out=np.zeros(len(self.keys)), where=~self.mask)

    def replace(self, theta) -> "ThetaVector":
        """Same keys and mask, new theta values."""
        return ThetaVector(self.keys, theta, self.mask)

    def __repr__(self) -> str:
        parts = []
        for k, t, m in zip(self.keys, self.theta, self.mask):
            parts.append(f"{k!r}: det" if m else f"{k!r}: {t:.6g}")
        return f"ThetaVector({{{', '.join(parts)}}})"


def sample_utilities(theta: ThetaVector, rng) -> Utilities:
    """Draw one independent Exp(exp(-theta_k)) value per unmasked key.

    Masked keys get exactly 0.  E_k = eps_k * exp(theta_k) with eps_k unit
    exponential, so the same noise vector under a different theta is the
    reparameterized sample map.
    """
    return Utilities(theta.keys, sample_utilities_matrix(theta, 1, rng)[0])


def sample_utilities_matrix(theta: ThetaVector, n_samples: int, rng) -> np.ndarray:
    """``n_samples`` rows of ``sample_utilities`` as an (n_samples, n_keys)
    array.  An unmasked draw that overflows raises, naming its key."""
    values = unit_exponential(as_generator(rng), (n_samples, len(theta.keys)))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(theta.theta)
        scale[theta.mask] = 0.0  # a finite draw times 0.0 is exactly 0.0
        values *= scale
    if values.size and not values.max() < np.inf:
        k = np.flatnonzero(~np.isfinite(values))[0] % len(theta.keys)
        raise InvalidParameterError(
            f"theta {float(theta.theta[k])!r} of key {theta.keys[k]!r}"
            " overflows the utility draw"
        )
    return values
