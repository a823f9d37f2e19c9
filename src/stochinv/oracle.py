"""Brute-force ground truth for small instances.

Enumerating every trace of a definition gives the exact distribution: the
recursion's control flow is replayed, but instead of taking argmins each
stochastic event branches over every key of its partition with the
categorical probability the rates imply (deterministic events take their
forced branch).  Everything downstream (exact expected losses, exact
gradients, goodness-of-fit tests) reduces to sums over the enumerated
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from scipy import stats

from .core import (
    StructureDefinition,
    Trace,
    _check_partition,
    _check_shrink,
    trace_score,
)
from .errors import (
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidParameterError,
    StructureDefinitionError,
)
from .perturb import GradientVector, ThetaVector

DEFAULT_MAX_TRACES = 10**6


@dataclass(frozen=True)
class TraceEntry:
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
    _by_trace: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_trace = {entry.trace: entry for entry in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_prob(self) -> float:
        return math.fsum(entry.prob for entry in self.entries)

    def prob_of(self, trace: Trace) -> float:
        entry = self._by_trace.get(trace)
        return entry.prob if entry is not None else 0.0

    def entry_of(self, trace: Trace) -> Optional[TraceEntry]:
        return self._by_trace.get(trace)


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
    if theta.keys != sdef.key_labels:
        raise InvalidArgumentError("theta keys do not match the definition")
    neg_theta = (-theta.theta).tolist()
    entries = []
    marginals = {}

    # Iterative depth-first search; each stack item owns one stochastic
    # event's remaining branches so partially explored levels resume where
    # they left off.
    def leaf(path_levels, path_frames, path_events, logp):
        if len(entries) >= max_traces:
            raise InstanceTooLargeError(max_traces, len(entries) + 1)
        value = None
        for K, R, winners in reversed(path_frames):
            value = sdef.combine(value, K, R, winners)
        value = sdef.finish(value)
        trace = Trace(tuple(path_levels))
        prob = math.exp(logp)
        entries.append(TraceEntry(trace, logp, prob, value, tuple(path_events)))
        encoded = sdef.encode_value(value)
        marginals[encoded] = marginals.get(encoded, 0.0) + prob

    def walk_level(K, R, mask, logp, levels, frames, events):
        if sdef.stop(K, R):
            leaf(levels, frames, events, logp)
            return
        parts = sdef.split(K, R)
        _check_partition(parts, K)

        def walk_partition(i, mask, logp, winners, level_events):
            if i == len(parts):
                level = tuple((j, w) for j, w in enumerate(winners))
                K_next, R_next = sdef.map(K, R, winners)
                _check_shrink(K_next, K)
                walk_level(
                    K_next,
                    R_next,
                    mask,
                    logp,
                    levels + [level],
                    frames + [(K, R, list(winners))],
                    events + level_events,
                )
                return
            P = parts[i]
            masked = [k for k in P if mask[k]]
            if len(masked) > 1:
                raise StructureDefinitionError(
                    "two deterministic keys share a partition"
                )
            if masked:
                w = masked[0]
                next_mask = dict(mask)
                next_mask[w] = True
                walk_partition(i + 1, next_mask, logp, winners + [w], level_events)
                return
            m = max(neg_theta[k] for k in P)
            lse = m + math.log(math.fsum(math.exp(neg_theta[k] - m) for k in P))
            for w in P:
                next_mask = dict(mask)
                next_mask[w] = True
                walk_partition(
                    i + 1,
                    next_mask,
                    logp + neg_theta[w] - lse,
                    winners + [w],
                    level_events + [(w, P)],
                )

        walk_partition(0, mask, logp, [], [])

    K0, R0 = sdef.initial_state()
    mask0 = {k: bool(theta.mask[k]) for k in range(sdef.n_keys)}
    walk_level(K0, R0, mask0, 0.0, [], [], [])
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
    distribution must have been enumerated under the same theta.
    """
    if dist.key_labels != theta.keys:
        raise InvalidArgumentError("distribution keys do not match theta")
    grad = np.zeros(len(theta.keys))
    for entry in dist.entries:
        weight = entry.prob * float(loss(entry.structure))
        if weight != 0.0:
            grad += weight * trace_score(sdef, entry.trace, theta).values
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
        self.n_keys = len(dist.key_labels)
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
        self.members = np.zeros((len(rows), self.n_keys), dtype=bool)
        for row, partition in enumerate(rows):
            self.members[row, list(partition)] = True

    def log_probs(self, theta: ThetaVector) -> np.ndarray:
        a = -theta.theta
        scored = np.where(self.members, a[None, :], -np.inf)
        shift = scored.max(axis=1)
        lse = shift + np.log(np.exp(scored - shift[:, None]).sum(axis=1))
        event_lp = a[self.winners] - lse[self.part_of]
        return np.bincount(
            self.trace_ids, weights=event_lp, minlength=self.n_traces
        )

    def expected(self, theta: ThetaVector, per_trace_values) -> float:
        probs = np.exp(self.log_probs(theta))
        return float(probs @ np.asarray(per_trace_values, dtype=np.float64))


def chi_square_fit(observed_counts: Mapping, dist: EnumeratedDistribution):
    """Pearson chi-square of trace counts against the enumerated law.

    Cells with expected count below 5 are pooled together (and, if the
    pool itself stays below 5, merged into the smallest remaining cell).
    Returns (statistic, p_value).
    """
    unknown = [t for t in observed_counts if dist.entry_of(t) is None]
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
    result = stats.kstest(samples, "expon", args=(0.0, 1.0 / rate))
    return float(result.statistic), float(result.pvalue)
