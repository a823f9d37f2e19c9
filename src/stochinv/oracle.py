"""Brute-force ground truth for small instances.

Enumerating every trace of a definition gives the exact distribution: the
recursion's control flow is replayed, but instead of taking argmins each
stochastic event branches over every key of its partition with the
categorical probability the rates imply (deterministic events take their
forced branch, by the masked-key rule ``core`` applies when scoring).  The
search is ``core._walks``, the one walk of the recursion, given every
branch of each level; each leaf's frames fold with ``core``'s fold.
Everything downstream (exact expected losses, exact gradients,
goodness-of-fit tests) reduces to sums over the enumerated support;
``exact_gradient`` runs the same search again in step with the entries,
which checks them and gives ``trace_score`` each leaf's walk.

Traces far outnumber the distinct objects they are made of (Matching(5) has
14400 traces but 120 structures), so one enumeration shares immutable
values that are equal: each distinct structure value, level tuple and
stochastic event is one object, whichever entries refer to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, zip_longest
from typing import Callable, Mapping

import numpy as np

from .core import (
    StructureDefinition,
    Trace,
    _carrying,
    _check_theta,
    _fold,
    _forced_winner,
    _logsumexp_over,
    _walks,
    trace_score,
)
from .errors import (
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidParameterError,
    InvalidTraceError,
)
from .estimators import _loss_value
from .perturb import GradientVector, ThetaVector

DEFAULT_MAX_TRACES = 10**6


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

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_prob(self) -> float:
        return math.fsum(entry.prob for entry in self.entries)


def _leaves(sdef: StructureDefinition, theta: ThetaVector):
    """Yield ``(walk, levels, events, logp)`` per leaf of ``sdef``'s trace
    tree under ``theta``, depth first.  The walk's frames and the list of
    stochastic (winner, partition) events are live: they change when the
    search resumes.  Each distinct partition's logsumexp is computed once,
    by ``core``'s helper, and each event adds ``-theta_w - logsumexp`` as
    ``trace_log_prob`` adds it, so ``logp`` equals it bit for bit.
    """
    _check_theta(sdef, theta)
    neg_theta = (-theta.theta).tolist()
    mask = theta.mask.tolist()
    labels = sdef.key_labels
    level_tuples, shared_events, lses = {}, {}, {}
    # The open path's trace levels, stochastic events (whose winners are
    # exactly the keys masked since the root) and log-probability.
    levels, events, logp = [], [], 0.0

    def branches(parts):
        # A level's winner tuples, each with the path state set.  Partitions
        # are disjoint, so the mask at the level's start decides which are forced.
        nonlocal logp
        choices, stochastic = [], []
        for i, P in enumerate(parts):
            forced = _forced_winner(P, mask, labels)
            if forced is not None:
                choices.append((forced,))
                continue
            choices.append(P)
            if P not in lses:
                lses[P] = _logsumexp_over(neg_theta, P)
            stochastic.append((i, P, lses[P]))
        start = logp
        for winners in product(*choices):
            lp = start
            for i, P, lse in stochastic:
                w = winners[i]
                mask[w] = True
                event = (w, P)
                events.append(shared_events.setdefault(event, event))
                lp += neg_theta[w] - lse
            logp = lp
            level = level_tuples.get(winners)
            if level is None:
                level = level_tuples[winners] = tuple(enumerate(winners))
            levels.append(level)
            yield winners
            levels.pop()
            for i, _P, _lse in stochastic:
                mask[winners[i]] = False
                events.pop()

    for walk in _walks(sdef, branches):
        yield walk, tuple(levels), events, logp


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
    return EnumeratedDistribution(sdef.key_labels, tuple(entries), marginals)


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
    InvalidTraceError where an entry's levels or the number of entries
    differ, and ``trace_score`` reads each leaf's walk instead of walking.
    A non-finite loss raises InvalidArgumentError, as in the estimators.
    """
    if dist.key_labels != theta.keys:
        raise InvalidArgumentError("distribution keys do not match theta")
    grad = np.zeros(len(theta.keys))
    for entry, leaf in zip_longest(dist.entries, _leaves(sdef, theta)):
        if entry is None or leaf is None or entry.trace.levels != leaf[1]:
            raise InvalidTraceError(
                "the distribution is not the enumeration of the definition under theta"
            )
        weight = entry.prob * _loss_value(loss, entry.structure)
        if weight != 0.0:
            trace = _carrying(entry.trace.levels, leaf[0])
            grad += weight * trace_score(sdef, trace, theta).values
    return GradientVector(theta.keys, grad)


class TraceTable:
    """Vectorized reweighting of an enumerated support under new thetas.

    The control flow, and with it every (winner, partition) event, is
    independent of theta, so the enumeration can be frozen into arrays
    once.  ``members`` holds one row per distinct partition, which events
    share heavily, and ``part_of`` maps each event to its row, so each
    partition's logsumexp runs once per new parameter vector.  Used to
    track exact expected losses during optimization without re-enumerating.
    """

    def __init__(self, dist: EnumeratedDistribution):
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
        a = -theta.theta
        scored = np.where(self.members, a[None, :], -np.inf)
        shift = scored.max(axis=1, initial=-np.inf)  # a keyless row scores 0
        lse = shift + np.log(np.exp(scored - shift[:, None]).sum(axis=1))
        event_lp = a[self.winners] - lse[self.part_of]
        return np.bincount(  # of no weights, is integer: keep float64
            self.trace_ids, weights=event_lp, minlength=self.n_traces
        ).astype(np.float64, copy=False)

    def expected(self, theta: ThetaVector, per_trace_values) -> float:
        probs = np.exp(self.log_probs(theta))
        return float(probs @ np.asarray(per_trace_values, dtype=np.float64))


def chi_square_fit(observed_counts: Mapping, dist: EnumeratedDistribution):
    """Pearson chi-square of trace counts against the enumerated law.

    Cells with expected count below 5 are pooled together (and, if the
    pool itself stays below 5, merged into the smallest remaining cell).
    Returns (statistic, p_value).
    """
    support = {entry.trace for entry in dist.entries}
    unknown = [t for t in observed_counts if t not in support]
    if unknown:
        raise InvalidArgumentError(
            f"{len(unknown)} observed traces are outside the enumerated support"
        )
    n = sum(observed_counts.values())
    if n <= 0:
        raise InvalidArgumentError("no observations")
    cells = []
    pooled_obs, pooled_exp = 0.0, 0.0
    for entry in dist.entries:
        obs = observed_counts.get(entry.trace, 0)
        exp = entry.prob * n
        if exp < 5.0:
            pooled_obs += obs
            pooled_exp += exp
        else:
            cells.append([float(obs), exp])
    if pooled_exp > 0.0:
        if pooled_exp < 5.0 and cells:
            smallest = min(cells, key=lambda c: c[1])
            smallest[0] += pooled_obs
            smallest[1] += pooled_exp
        else:
            cells.append([pooled_obs, pooled_exp])
    dof = len(cells) - 1
    if dof < 1:
        return 0.0, 1.0
    statistic = math.fsum((o - e) ** 2 / e for o, e in cells)
    from scipy import stats  # here, not at module top: only these helpers need it

    return statistic, float(stats.chi2.sf(statistic, dof))


def ks_exponential(samples, rate: float):
    """One-sample Kolmogorov-Smirnov test against Exp(rate).

    Returns (statistic, p_value) with the asymptotic p-value.
    """
    if rate <= 0 or not math.isfinite(rate):
        raise InvalidParameterError(f"rate must be positive, got {rate}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 100:
        raise InvalidArgumentError(
            f"need at least 100 samples, got {samples.size}"
        )
    if np.any(samples < -1e-12):
        raise InvalidArgumentError("samples must be nonnegative")
    from scipy import stats  # here, not at module top: only these helpers need it

    result = stats.kstest(samples, "expon", args=(0.0, 1.0 / rate))
    return float(result.statistic), float(result.pvalue)
