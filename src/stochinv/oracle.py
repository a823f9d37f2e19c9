"""Brute-force ground truth for small instances.

Enumerating every trace of a definition gives the exact distribution: the
recursion's control flow is replayed, but instead of taking argmins each
stochastic event branches over every key of its partition with the
categorical probability the rates imply.  The search is ``core._leaves``,
which scores each branch by ``core``'s own rules and splits and maps each
distinct state once however many traces pass through it; each leaf's
frames fold with ``core``'s fold.  Everything downstream (exact expected
losses, exact gradients) reduces to sums over the enumerated support;
``exact_gradient`` runs the same search again in step with the entries,
which checks them and lends ``trace_score`` their walks.

Traces far outnumber the distinct objects they are made of (Matching(5) has
14400 traces but 120 structures), so one enumeration shares immutable
values that are equal: each distinct structure value, level tuple and
stochastic event is one object, whichever entries refer to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

import numpy as np

from .core import (
    StructureDefinition,
    Trace,
    _SoftmaxRows,
    _carrying,
    _fold,
    _leaves,
    trace_score,
)
from .errors import (
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidParameterError,
    InvalidTraceError,
    as_float,
    as_int,
)
from .estimators import _loss_value
from .perturb import GradientVector, ThetaVector

DEFAULT_MAX_TRACES = 10**6
KS_MIN_SAMPLES = 100  # the fewest draws ks_exponential tests


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One enumerated trace, its probability and the structure it yields.

    Entries of one enumeration share their structure value, level tuples
    and events with every other entry equal to them by value, so an entry
    costs little more than its own ``Trace`` and tuples of references.
    """

    trace: Trace
    log_prob: float
    prob: float
    structure: object
    # Stochastic events as (winner, partition keys); the control flow is
    # theta-free, so these stay valid when the probabilities are reweighted.
    events: tuple


@dataclass
class EnumeratedDistribution:
    key_labels: tuple
    entries: tuple
    structure_marginals: dict
    mask: tuple  # theta's mask as bools: the support depends on it

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_prob(self) -> float:
        return math.fsum(entry.prob for entry in self.entries)


def enumerate_distribution(
    sdef: StructureDefinition,
    theta: ThetaVector,
    max_traces: int = DEFAULT_MAX_TRACES,
) -> EnumeratedDistribution:
    """Exhaustively enumerate (trace, probability, structure) triples.

    Probabilities accumulate in log space along each path and are
    exponentiated once per leaf.  Raises InstanceTooLargeError as soon as
    the number of complete traces would exceed ``max_traces``.
    """
    max_traces = as_int(max_traces, "max_traces", least=0)
    entries = []
    marginals = {}
    values = {}  # one object per distinct structure, keyed by its encoding
    for walk, levels, events, logp in _leaves(sdef, theta):
        if len(entries) >= max_traces:
            raise InstanceTooLargeError(max_traces, len(entries) + 1)
        value = _fold(walk)
        encoded = sdef.encode_value(value)
        value = values.setdefault(encoded, value)
        prob = math.exp(logp)
        entries.append(TraceEntry(Trace(levels), logp, prob, value, tuple(events)))
        marginals[encoded] = marginals.get(encoded, 0.0) + prob
    return EnumeratedDistribution(sdef.key_labels, tuple(entries), marginals,
                                  tuple(theta.mask.tolist()))


def exact_gradient(
    dist: EnumeratedDistribution,
    sdef: StructureDefinition,
    theta: ThetaVector,
    loss: Callable,
) -> GradientVector:
    """The exact gradient of the expected loss in theta coordinates.

    Computed as sum over traces of p(t) * L(X(t)) * score(t), which equals
    the gradient of the expectation because the score has zero mean.  The
    distribution must be the enumeration of ``sdef`` under this theta: the
    search is walked again in step with its entries, raising
    InvalidTraceError where an entry's levels or log-probability or the
    number of entries differ.  ``trace_score`` reads each leaf's walk and
    one ``_SoftmaxRows`` for the call.  A non-finite loss raises
    InvalidArgumentError, as in the estimators.
    """
    if dist.key_labels != theta.keys:
        raise InvalidArgumentError("distribution keys do not match theta")
    grad = np.zeros(len(theta.keys))
    rows = _SoftmaxRows(theta)
    for entry, leaf in zip_longest(dist.entries, _leaves(sdef, theta)):
        if (entry is None or leaf is None or entry.trace.levels != leaf[1]
                or entry.log_prob != leaf[3]):
            raise InvalidTraceError(
                "the distribution is not the enumeration of the definition under theta"
            )
        weight = entry.prob * _loss_value(loss, entry.structure)
        if weight != 0.0:
            trace = _carrying(entry.trace.levels, leaf[0])
            grad += weight * trace_score(sdef, trace, theta, rows=rows).values
    return GradientVector(theta.keys, grad)


class TraceTable:
    """Vectorized reweighting of an enumerated support under new thetas.

    The control flow, and with it every (winner, partition) event, is
    independent of theta, so the enumeration can be frozen into arrays
    once.  ``members`` holds one row per distinct partition, which events
    share heavily, and ``part_of`` maps each event to its row, so each
    partition's logsumexp runs once per new parameter vector.  Used to
    track exact expected losses during optimization without re-enumerating.

    A theta must have the enumeration's keys and mask: a theta masking
    another key has another support.
    """

    def __init__(self, dist: EnumeratedDistribution):
        self.key_labels = dist.key_labels
        self.mask = dist.mask
        n_keys = len(dist.key_labels)
        self.n_traces = len(dist.entries)
        rows = {}
        winners = []
        part_of = []
        trace_ids = []
        for t_id, entry in enumerate(dist.entries):
            for w, partition in entry.events:
                winners.append(w)
                part_of.append(rows.setdefault(partition, len(rows)))
                trace_ids.append(t_id)
        self.winners = np.asarray(winners, dtype=np.intp)
        self.part_of = np.asarray(part_of, dtype=np.intp)
        self.trace_ids = np.asarray(trace_ids, dtype=np.intp)
        self.members = np.zeros((len(rows), n_keys), dtype=bool)
        for row, partition in enumerate(rows):
            self.members[row, list(partition)] = True

    def log_probs(self, theta: ThetaVector) -> np.ndarray:
        """Every trace's log-probability under ``theta``, vectorized: it
        agrees with ``trace_log_prob`` within a few ulps (at most 3.6e-15
        on K5 spanning trees at five seeded thetas), not bit for bit."""
        if theta.keys != self.key_labels:
            raise InvalidArgumentError("theta keys do not match the enumeration")
        mask = tuple(theta.mask.tolist())
        if mask != self.mask:
            key = next(k for k, m, e in zip(theta.keys, mask, self.mask) if m != e)
            raise InvalidArgumentError(
                f"key {key!r} is masked in only one of theta and the enumeration")
        a = -theta.theta
        scored = np.where(self.members, a[None, :], -np.inf)
        shift = scored.max(axis=1, initial=-np.inf)  # a keyless row scores 0
        lse = shift + np.log(np.exp(scored - shift[:, None]).sum(axis=1))
        event_lp = a[self.winners] - lse[self.part_of]
        return np.bincount(  # of no weights, is integer: keep float64
            self.trace_ids, weights=event_lp, minlength=self.n_traces
        ).astype(np.float64, copy=False)

    def expected(self, theta: ThetaVector, per_trace_values) -> float:
        values = np.asarray(per_trace_values, dtype=np.float64)
        if values.shape != (self.n_traces,):
            raise InvalidArgumentError(
                f"per_trace_values has shape {values.shape}, expected ({self.n_traces},)")
        if not np.isfinite(values).all():
            raise InvalidArgumentError("per_trace_values must be finite")
        return float(np.exp(self.log_probs(theta)) @ values)


def ks_exponential(samples, rate: float):
    """One-sample Kolmogorov-Smirnov test against Exp(rate).

    Returns (statistic, p_value) with the asymptotic p-value.
    """
    rate = as_float(rate, "rate")
    if rate <= 0:
        raise InvalidParameterError(f"rate must be positive, got {rate}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < KS_MIN_SAMPLES:
        raise InvalidArgumentError(
            f"need at least {KS_MIN_SAMPLES} samples, got {samples.size}"
        )
    if not np.all((samples >= -1e-12) & (samples < np.inf)):
        raise InvalidArgumentError("samples must be finite and nonnegative")
    from scipy import stats  # here, not at module top: only this test needs it

    result = stats.kstest(samples, "expon", args=(0.0, 1.0 / rate))
    return float(result.statistic), float(result.pvalue)
