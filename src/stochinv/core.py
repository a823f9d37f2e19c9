"""The generic subtract-the-minimum recursion and its probability companions.

A structure definition supplies utility-blind subroutines (``split``,
``map``, ``combine``) plus an opaque auxiliary state; the recursion starts
from every key and ends when ``map`` returns none.  Running the
recursion on exponential utilities produces a combinatorial value together
with its *trace*: the ordered record of every per-partition argmin.  Because
the subroutines never read utility values, the trace is a sufficient
statistic: the value is a function of the trace, the trace factorizes into
categorical events with probabilities proportional to the rates, and the
utilities conditioned on a trace are sums of independent exponentials.

This module implements, over any such definition:

* ``run_struct``:     the forward recursion, returning (value, trace);
* ``trace_log_prob``: the exact log-probability of a trace;
* ``trace_score``:    its analytic gradient in theta coordinates;
* ``cond_sample``:    a utility sample conditioned on a trace, plus a
  build record from which vector-Jacobian products and frozen-noise
  replays are cheap.

Every walk of the recursion is the one depth-first walker ``_walks``.  A
trace returned by ``run_struct`` carries its walk, so the others score or
resample it under the same definition without walking again; a trace built
any other way is validated by a walk that its recorded winners steer.
``_leaves``, the search behind ``oracle``'s enumeration, walks every
branch, scored by the same rules, with a memo in which each distinct state
is expanded once; ``_SoftmaxRows`` lets ``trace_score`` reuse each
partition's softmax across the traces scored under one theta.

Winners are removed from play by marking their rate infinite (tracked as a
mask, never as a floating +inf): their residual utility is the constant 0,
so any later comparison they take part in is deterministic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidParameterError,
    InvalidTraceError,
    MaskedPartitionError,
    StructureDefinitionError,
)
from .perturb import GradientVector, ThetaVector, Utilities, unit_exponential

_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


class StructureDefinition(ABC):
    """Recipe for one structured distribution.

    Keys are dense integers ``0 .. n_keys-1`` internally; ``key_labels``
    maps them to caller-facing labels (item ids, edge tuples, matrix
    cells).  Subroutines receive only ``(K, R, winners)`` and must be pure:
    they may not read utility values, mutate their inputs, or hold state.

    ``split`` must return pairwise-disjoint nonempty tuples covering ``K``
    exactly, in an order that is deterministic given ``(K, R)``.  ``map``
    must return a strictly smaller key set; the walk starts from every key,
    with ``initial_aux()``, and ends on the empty set.  Each state ``(K, R)``
    must be hashable: enumeration expands each distinct state once.

    A value is valid when the recursion can produce it: ``validate_value``
    runs ``run_struct`` on the utilities a kind's ``favour`` states.
    """

    key_labels: tuple

    @property
    def n_keys(self) -> int:
        return len(self.key_labels)

    def initial_aux(self):
        """The root call's auxiliary state; by default none."""
        return None

    @abstractmethod
    def split(self, K: frozenset, R) -> Sequence[tuple]:
        """Ordered partition of K into the sets competing this level."""

    @abstractmethod
    def map(self, K: frozenset, R, winners: Sequence[int]):
        """The child call's (key set, auxiliary state) given this level's winners."""

    @abstractmethod
    def combine(self, child, K: frozenset, R, winners: Sequence[int]):
        """Assemble this level's value from the child value (None at the bottom)."""

    def finish(self, value):
        """Optional presentation hook applied to the outermost combine result."""
        return value

    def encode_value(self, value):
        """Canonical hashable encoding, used for marginals and as the JSON form:
        ints, ``None`` and (named) tuples of them, which ``json.dumps`` writes
        as is.  Each kind's ``decode_value`` inverts it.
        """
        return value

    def favour(self, value) -> dict:
        """Small integer utilities by label, a key left out getting 1, under
        which ``value`` is the recursion's unique optimum whenever the
        recursion can produce it."""
        raise NotImplementedError(f"{type(self).__name__} states no favour")

    def validate_value(self, value) -> bool:
        """Whether the recursion can produce ``value``: exactly when
        ``run_struct`` returns it under ``favour(value)``.  The output holds
        only key labels, and the utilities are small integers, so every
        subtraction is exact."""
        try:
            favoured = self.favour(value)
        except (TypeError, ValueError):
            return False
        produced, _trace = run_struct(self, [favoured.get(label, 1) for label in self.key_labels])
        return produced == value


@dataclass(frozen=True, slots=True)
class Trace:
    """Per-level (partition_index, winner_key) pairs, in recursion order.

    ``run_struct`` also stores its walk here, outside equality, hashing and
    repr.  Slots keep the per-trace footprint small: enumeration holds one
    ``Trace`` per trace of the support.
    """

    levels: tuple
    _walk: Optional["_Walk"] = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.levels)

    def winners(self) -> tuple:
        return tuple(w for level in self.levels for _, w in level)


def _check_partition(parts, K: frozenset) -> None:
    total = 0
    seen = set()
    for P in parts:
        if not isinstance(P, tuple):
            raise StructureDefinitionError(
                f"split produced a partition of type {type(P).__name__}, not a tuple")
        if not P:
            raise StructureDefinitionError("split produced an empty partition")
        total += len(P)
        seen.update(P)
    if total != len(seen):
        raise StructureDefinitionError("split produced overlapping partitions")
    if seen != K:
        raise StructureDefinitionError("split does not cover the key set exactly")


def _check_shrink(K_next: frozenset, K: frozenset) -> None:
    if not (len(K_next) < len(K) and K_next <= K):
        raise StructureDefinitionError("map must return a strict subset of the keys")


def _utility_values(sdef: StructureDefinition, utilities) -> list:
    """``utilities`` as a list; a plain sequence is read as ``Utilities``
    of ``sdef``'s keys, so it passes the same finite, nonnegative rule."""
    if not isinstance(utilities, Utilities):
        utilities = Utilities(sdef.key_labels, utilities)
    if utilities.keys != sdef.key_labels:
        raise InvalidArgumentError("utility keys do not match the definition")
    return utilities.values.tolist()


def run_struct(sdef: StructureDefinition, utilities):
    """Run the recursion on the given utilities; return (value, trace).

    Each level takes the argmin of every partition (ties broken toward the
    lowest key, an event of probability zero under continuous noise),
    subtracts the minimum from the partition, and recurses on the key set
    chosen by ``map``.  The returned trace carries this walk, so scoring or
    resampling it under the same ``sdef`` does not walk the recursion again.
    """
    e = _utility_values(sdef, utilities)

    def argmins(parts):
        winners = []
        for P in parts:
            best = P[0]
            best_val = e[best]
            for k in P:
                v = e[k]
                if v < best_val or (v == best_val and k < best):
                    best = k
                    best_val = v
            for k in P:
                e[k] -= best_val
            winners.append(best)
        return (winners,)

    walk = next(_walks(sdef, argmins))
    levels = tuple(tuple(enumerate(w)) for _K, _R, _parts, w in walk.frames)
    return _fold(walk), _carrying(levels, walk)


class _Walk(NamedTuple):
    """A (K, R, parts, winners) frame per level."""

    sdef: StructureDefinition
    frames: list


def _carrying(levels: tuple, walk: _Walk) -> Trace:
    """A trace of ``levels`` that carries ``walk``, its walk under ``walk.sdef``."""
    trace = Trace(levels)
    object.__setattr__(trace, "_walk", walk)
    return trace


def _walks(sdef: StructureDefinition, choose, memo=None):
    """Yield a ``_Walk``, with live frames, per leaf of the recursion, depth
    first from the root (every key, ``initial_aux()``) to an empty key set.
    ``choose(parts)`` returns a level's nonempty iterable of winner
    sequences; the next is taken when the walk resumes, so a generator
    ``choose`` may hold per-branch state around its yield.

    Given a dict ``memo``, the walk keeps each state it meets there, as
    ``(K, R) -> (parts, children)`` with ``children`` mapping a level's
    winners to the next ``(K, R)``.  Then ``split`` and the partition
    check run once per distinct nonempty ``(K, R)``, and ``map`` and
    the shrink check once per distinct ``(K, R, winners)``, so ``choose``
    must yield hashable winners.
    """
    frames, open_levels = [], []
    K, R = frozenset(range(sdef.n_keys)), sdef.initial_aux()
    while True:
        if not K:
            yield _Walk(sdef, frames)
        else:
            state = None if memo is None else _known_state(memo, K, R)
            if state is None:
                parts = sdef.split(K, R)
                _check_partition(parts, K)
                if memo is not None:
                    state = memo[K, R] = (parts, {})
            else:
                parts = state[0]
            open_levels.append((K, R, parts, iter(choose(parts)), state))
            frames.append(None)
        # Take the next branch of the deepest level that has one left.
        while open_levels:
            K, R, parts, branches, state = open_levels[-1]
            winners = next(branches, None)
            if winners is not None:
                break
            open_levels.pop()
            frames.pop()
        else:
            return
        child = None if state is None else state[1].get(winners)
        if child is None:
            child = sdef.map(K, R, winners)
            _check_shrink(child[0], K)
            if state is not None:
                state[1][winners] = child
        frames[-1] = (K, R, parts, winners)
        K, R = child


def _leaves(sdef: StructureDefinition, theta: ThetaVector):
    """Yield ``(walk, levels, events, logp)`` per leaf of ``sdef``'s trace
    tree under ``theta``, depth first, expanding each distinct state once.
    The walk's frames and the list of stochastic (winner, partition) events
    are live: they change when the search resumes.  Each event adds
    ``-theta_w - logsumexp`` as ``trace_log_prob`` adds it, each distinct
    partition's logsumexp computed once, so ``logp`` equals it bit for bit.
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

    for walk in _walks(sdef, branches, {}):
        yield walk, tuple(levels), events, logp


def _known_state(memo: dict, K: frozenset, R):
    """``memo``'s entry for the state ``(K, R)``, or None on first sight."""
    try:
        return memo.get((K, R))
    except TypeError:
        raise StructureDefinitionError(
            "the recursion state (K, R) must be hashable, got"
            f" ({type(K).__name__}, {type(R).__name__})"
        ) from None


def _fold(walk: _Walk):
    value = None
    for K, R, _parts, winners in reversed(walk.frames):
        value = walk.sdef.combine(value, K, R, winners)
    return walk.sdef.finish(value)


def _walk_of(sdef: StructureDefinition, trace: Trace) -> _Walk:
    """The walk ``run_struct`` stored in ``trace`` for this very ``sdef``
    object; otherwise a walk as the trace dictates, raising InvalidTraceError
    where it disagrees with the control flow.
    """
    walk = trace._walk
    if walk is not None and walk.sdef is sdef:
        return walk
    try:
        levels = [[(pi, w) for pi, w in level] for level in trace.levels]
    except (TypeError, ValueError):
        raise InvalidTraceError("a trace is a sequence of levels, each a sequence of"
                                " (partition index, winner) pairs") from None
    remaining = iter(levels)

    def recorded(parts):
        level = next(remaining, None)
        if level is None:
            raise InvalidTraceError("trace is shorter than the recursion")
        if len(level) != len(parts):
            raise InvalidTraceError(
                f"level has {len(level)} events, split produced {len(parts)} partitions"
            )
        for i, (pi, w) in enumerate(level):
            if pi != i or w not in parts[i]:
                raise InvalidTraceError(f"event ({pi}, {w}) not in partition {i}")
        return ([w for _pi, w in level],)

    walk = next(_walks(sdef, recorded))
    if len(walk.frames) != len(levels):
        raise InvalidTraceError("trace is longer than the recursion")
    return walk


def _check_theta(sdef: StructureDefinition, theta: ThetaVector) -> None:
    if theta.keys != sdef.key_labels:
        raise InvalidArgumentError("theta keys do not match the definition")


def _forced_winner(P, mask: list, labels: tuple) -> Optional[int]:
    """The key of partition ``P`` already out of play under ``mask``, which
    wins the partition deterministically, or None if the event is stochastic.
    Two such keys are an error that names them by their ``labels``."""
    forced = None
    for k in P:
        if mask[k]:
            if forced is not None:
                raise MaskedPartitionError(
                    f"keys {labels[forced]!r} and {labels[k]!r} share a partition"
                    " but are both masked"
                )
            forced = k
    return forced


def _stochastic_events(walk: _Walk, mask: list):
    """Yield the walk's stochastic events as (partition, winner), in order.

    ``mask`` holds one flag per key, true once the key is out of play; it
    is updated in place as keys win.  An event whose partition already
    holds a masked key is deterministic: it yields nothing when that key
    wins and raises InvalidTraceError (probability zero) when another does.
    """
    labels = walk.sdef.key_labels
    for _K, _R, parts, winners in walk.frames:
        for P, w in zip(parts, winners):
            forced = _forced_winner(P, mask, labels)
            if forced is None:
                yield P, w
            elif forced != w:
                raise InvalidTraceError("trace has probability zero under this theta")
            mask[w] = True


def _logsumexp_over(neg_theta, partition) -> float:
    m = neg_theta[partition[0]]
    for k in partition:
        if neg_theta[k] > m:
            m = neg_theta[k]
    acc = 0.0
    for k in partition:
        acc += math.exp(neg_theta[k] - m)
    return m + math.log(acc)


def trace_log_prob(sdef: StructureDefinition, trace: Trace, theta: ThetaVector) -> float:
    """Exact log p(trace; theta).

    Every stochastic event contributes ``-theta_w - logsumexp(-theta over
    its partition)``; after a key wins it is masked, so an event whose
    partition already contains a masked key is deterministic and
    contributes 0 when that key wins and -inf (an impossible trace)
    otherwise.  Partition sums are max-shifted, so thetas of magnitude
    ~50 stay well inside float64 range.
    """
    _check_theta(sdef, theta)
    walk = _walk_of(sdef, trace)
    neg_theta = (-theta.theta).tolist()
    lp = 0.0
    try:
        for P, w in _stochastic_events(walk, theta.mask.tolist()):
            lp += neg_theta[w] - _logsumexp_over(neg_theta, P)
    except InvalidTraceError:
        return -math.inf
    return lp


class _SoftmaxRows(dict):
    """softmax(-theta | P) as a list per partition ``P``, for one ``theta``,
    computed on first use with ``trace_score``'s own arithmetic."""

    __slots__ = ("theta", "_neg_theta")

    def __init__(self, theta: ThetaVector):
        super().__init__()
        self.theta = theta
        self._neg_theta = (-theta.theta).tolist()

    def __missing__(self, P) -> list:
        neg_theta = self._neg_theta
        lse = _logsumexp_over(neg_theta, P)
        row = self[P] = [math.exp(neg_theta[k] - lse) for k in P]
        return row


def trace_score(
    sdef: StructureDefinition, trace: Trace, theta: ThetaVector, *, rows=None
) -> GradientVector:
    """Gradient of ``trace_log_prob`` with respect to theta.

    Per stochastic event with partition P and winner w the contribution is
    -1 on w plus softmax(-theta | P) on every key of P; deterministic
    events contribute nothing, so masked coordinates stay exactly 0.
    ``rows``, a ``_SoftmaxRows`` of this very ``theta`` object, supplies
    each partition's softmax from its cache; the sum is the same bit for
    bit, and scoring many traces under one theta computes each row once.
    """
    _check_theta(sdef, theta)
    if rows is not None and rows.theta is not theta:
        raise InvalidArgumentError("softmax rows were built for another theta")
    walk = _walk_of(sdef, trace)
    grad = [0.0] * sdef.n_keys
    events = _stochastic_events(walk, theta.mask.tolist())
    if rows is None:
        neg_theta = (-theta.theta).tolist()
        for P, w in events:
            lse = _logsumexp_over(neg_theta, P)
            for k in P:
                grad[k] += math.exp(neg_theta[k] - lse)
            grad[w] -= 1.0
    else:
        for P, w in events:
            for k, p in zip(P, rows[P]):
                grad[k] += p
            grad[w] -= 1.0
    return GradientVector(theta.keys, grad)


@dataclass(frozen=True)
class CondBuildRecord:
    """Everything needed to rebuild a conditional sample as a function of theta.

    ``events`` holds one (winner, noise, partition_keys) triple per
    stochastic argmin, in recursion order: the sampled minimum is
    noise / sum(rates over partition_keys) and is added to every key of the
    partition.  ``tail`` holds the per-key residual noises drawn when a key
    leaves the recursion unmasked (residual = noise / rate_key).
    Deterministic events sample an exact 0 and are omitted.
    """

    key_labels: tuple
    events: tuple  # of (winner: int, noise: float, keys: tuple[int, ...])
    tail: tuple    # of (key: int, noise: float)


def _rates(record: CondBuildRecord, theta: ThetaVector) -> list:
    """``theta.rates()`` as a list, once the record's keys are checked
    against theta.  A key of the record with rate 0, masked or with an
    unmasked theta above about 745, raises, naming the key, so no division
    by the rates or their sums is by zero.  Float arithmetic on lists is
    the same IEEE operations as on numpy scalars, only faster."""
    if record.key_labels != theta.keys:
        raise InvalidArgumentError("record keys do not match theta")
    rates = theta.rates().tolist()
    if 0.0 in rates:
        used = {k for k, _eps in record.tail}.union(*(keys for _w, _eps, keys in record.events))
        for k in sorted(used):
            if rates[k] == 0.0:
                raise InvalidParameterError(
                    f"key {theta.keys[k]!r} is masked in theta, but the record draws its noise"
                    if theta.mask[k] else
                    f"theta {float(theta.theta[k])!r} of key {theta.keys[k]!r}"
                    " underflows its rate exp(-theta) to 0"
                )
    return rates


def replay_conditional(record: CondBuildRecord, theta: ThetaVector) -> Utilities:
    """Recompute the conditional sample from its frozen noises under theta.

    With the theta used at build time this reproduces the sample bit for
    bit; with a perturbed theta it is the reparameterized sample map, the
    function whose Jacobian ``cond_jacobian_vjp`` contracts against.
    """
    rates = _rates(record, theta)
    values = [0.0] * len(rates)
    for k, eps in record.tail:
        values[k] = eps / rates[k]
    for _w, eps, keys in reversed(record.events):
        s = 0.0
        for k in keys:
            s += rates[k]
        m = eps / s
        for k in keys:
            values[k] += m
    return Utilities(theta.keys, values)


def cond_sample(sdef: StructureDefinition, trace: Trace, theta: ThetaVector, rng):
    """Sample utilities conditioned on the recursion producing ``trace``.

    Follows the trace's control flow: each stochastic event's minimum is
    drawn as Exp(sum of partition rates), each deterministic event's
    minimum is exactly 0, winners are masked going deeper, and keys leaving
    the recursion draw an Exp(rate) residual (exactly 0 if masked).
    Un-subtracting the minima bottom-up yields the sample; the returned
    record holds every noise with its partition key set, so each utility is
    a sum of terms noise/sum(rates) plus its residual.
    """
    _check_theta(sdef, theta)
    rng = np.random.default_rng(rng)
    walk = _walk_of(sdef, trace)
    mask = theta.mask.tolist()
    events = [
        (w, float(unit_exponential(rng)), tuple(P))
        for P, w in _stochastic_events(walk, mask)
    ]
    # Residual draws, in the order the recursion would make them: the keys
    # each level's map drops, deepest level first (the deepest child is
    # empty).  Keys masked by then get an exact 0 (no draw).
    key_sets = [frozenset()] + [K for K, _R, _parts, _winners in reversed(walk.frames)]
    drops = [K - K_deeper for K_deeper, K in zip(key_sets, key_sets[1:])]
    tail = [
        (k, float(unit_exponential(rng)))
        for keys in drops for k in sorted(keys) if not mask[k]
    ]
    record = CondBuildRecord(theta.keys, tuple(events), tuple(tail))
    return replay_conditional(record, theta), record


def cond_jacobian_vjp(record: CondBuildRecord, theta: ThetaVector, v) -> GradientVector:
    """v^T (d sample / d theta) for a frozen-noise conditional build.

    A term eps/s with s = sum of exp(-theta) over its key set has
    d/dtheta_m = eps * rate_m / s^2 for every m in the set; a residual
    eps/rate_k equals its own theta_k derivative.  The Jacobian is sparse
    in exactly these terms, so the product is a single pass over the
    record.
    """
    rates = _rates(record, theta)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (len(theta.keys),):
        raise InvalidArgumentError("v has the wrong length")
    v = v.tolist()
    out = [0.0] * len(v)
    for _w, eps, keys in record.events:
        s = 0.0
        vsum = 0.0
        for k in keys:
            s += rates[k]
            vsum += v[k]
        if s * s >= _SMALLEST_NORMAL:
            coeff = vsum * eps / (s * s)
            for k in keys:
                out[k] += coeff * rates[k]
        else:
            # s * s has underflowed: divide by s twice instead, which
            # stays finite wherever eps * rate / s^2 itself is.
            coeff = vsum * eps / s
            for k in keys:
                out[k] += coeff * (rates[k] / s)
    for k, eps in record.tail:
        out[k] += v[k] * eps / rates[k]
    return GradientVector(theta.keys, out)
