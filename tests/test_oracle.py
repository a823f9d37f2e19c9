"""Enumeration, exact gradients, and the statistical test helpers."""

import copy
import gc
import math
import pickle

import numpy as np
import pytest

from stochinv import (
    Arborescence,
    Argsort,
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidParameterError,
    InvalidTraceError,
    Matching,
    SpanningTree,
    ThetaVector,
    TopK,
    Trace,
    TraceTable,
    chi_square_fit,
    enumerate_distribution,
    exact_gradient,
    grad_t_reinforce,
    hamming_distance,
    ks_exponential,
    run_struct,
    sample_utilities_matrix,
    trace_log_prob,
    trace_score,
)
from stochinv.oracle import EnumeratedDistribution, TraceEntry
from conftest import (
    complete_digraph,
    complete_graph,
    representative_instances,
    seeded_theta,
    small_instances,
)


class _Counting:
    """Records the arguments of every ``split`` and ``map`` call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.splits, self.maps = [], []

    def split(self, K, R):
        self.splits.append((K, R))
        return super().split(K, R)

    def map(self, K, R, winners):
        self.maps.append((K, R, tuple(winners)))
        return super().map(K, R, winners)


def dense_log_probs(dist, theta):
    """Per-trace log-probs with one dense membership row per event."""
    a = -theta.theta
    rows, winners, trace_ids = [], [], []
    for t_id, entry in enumerate(dist.entries):
        for w, partition in entry.events:
            row = np.zeros(len(a), dtype=bool)
            row[list(partition)] = True
            rows.append(row)
            winners.append(w)
            trace_ids.append(t_id)
    scored = np.where(np.array(rows).reshape(-1, len(a)), a[None, :], -np.inf)
    shift = scored.max(axis=1)
    lse = shift + np.log(np.exp(scored - shift[:, None]).sum(axis=1))
    event_lp = a[np.array(winners, dtype=np.intp)] - lse
    return np.bincount(
        np.array(trace_ids, dtype=np.intp), weights=event_lp, minlength=len(dist)
    )


class TestEnumeration:
    def test_normalization_on_representatives(self):
        for _name, sdef in representative_instances():
            dist = enumerate_distribution(sdef, seeded_theta(sdef, 0))
            assert dist.total_prob == pytest.approx(1.0, abs=1e-9)

    def test_log_prob_agreement(self):
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 1)
            dist = enumerate_distribution(sdef, theta)
            for entry in dist.entries:
                lp = trace_log_prob(sdef, entry.trace, theta)
                assert abs(math.exp(lp) - entry.prob) <= 1e-9

    @pytest.mark.parametrize("masked", [None, 0, 1, 2])
    def test_log_prob_equals_trace_log_prob_bit_for_bit(self, masked):
        # The enumeration kept its own logsumexp and added each event as
        # (lp + a) - b: thousands of entries differed in the last bits.
        for i, (name, sdef) in enumerate(small_instances()):
            theta = seeded_theta(sdef, i)
            if masked is not None:
                if masked >= sdef.n_keys:
                    continue
                mask = np.zeros(sdef.n_keys, dtype=bool)
                mask[masked] = True
                theta = ThetaVector(sdef.key_labels, theta.theta, mask)
            for entry in enumerate_distribution(sdef, theta).entries:
                assert entry.log_prob == trace_log_prob(sdef, entry.trace, theta), name

    def test_marginals_consistent_with_entries(self):
        sdef = TopK(4, 2)
        dist = enumerate_distribution(sdef, seeded_theta(sdef, 2))
        rebuilt = {}
        for entry in dist.entries:
            enc = sdef.encode_value(entry.structure)
            rebuilt[enc] = rebuilt.get(enc, 0.0) + entry.prob
        for enc, p in dist.structure_marginals.items():
            assert p == pytest.approx(rebuilt[enc], abs=1e-12)

    def test_cap_raises_with_count(self):
        sdef = TopK(6, 6)
        with pytest.raises(InstanceTooLargeError) as err:
            enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels), max_traces=10)
        assert err.value.cap == 10
        assert err.value.reached == 11

    def test_kruskal_triangle_probabilities(self):
        sdef = SpanningTree(range(3), complete_graph(3))
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 6
        for entry in dist.entries:
            assert entry.prob == pytest.approx(1 / 6, abs=1e-12)

    def test_full_selection_is_uniform_over_orders(self):
        sdef = TopK(3, 3)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 6
        for entry in dist.entries:
            assert entry.prob == pytest.approx(1 / 6, abs=1e-12)

    # "cle" among the representatives is Arborescence K4.
    @pytest.mark.parametrize(
        "name, sdef", [*representative_instances(), ("matching4", Matching(4))]
    )
    def test_entries_share_equal_objects_and_have_slots(self, name, sdef):
        theta = seeded_theta(sdef, 15)
        dist = enumerate_distribution(sdef, theta)
        entries = dist.entries
        assert len({id(e.structure) for e in entries}) == len(dist.structure_marginals)
        levels = [level for e in entries for level in e.trace.levels]
        assert len({id(level) for level in levels}) == len(set(levels))
        events = [event for e in entries for event in e.events]
        assert len({id(event) for event in events}) == len(set(events))

        entry = entries[-1]
        _value, carried = run_struct(sdef, sample_utilities_matrix(theta, 1, 3)[0])
        assert carried._walk is not None
        for obj in (entry, entry.trace, carried):
            assert not hasattr(obj, "__dict__")
            for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
                assert twin == obj and hash(twin) == hash(obj)
        unpickled = pickle.loads(pickle.dumps(carried))
        assert len(unpickled._walk.frames) == len(carried.levels)
        np.testing.assert_array_equal(
            trace_score(sdef, unpickled, theta).values, trace_score(sdef, carried, theta).values
        )

    @pytest.mark.parametrize(
        "kind, args",
        [(Matching, (4,)), (Arborescence, (range(4), complete_digraph(4), 0))],
        ids=["matching4", "cle_K4"],
    )
    def test_each_state_is_split_and_each_branch_mapped_once(self, kind, args):
        # The trace tree repeats states; the search expands each one once.
        counting = type("Counting", (_Counting, kind), {})(*args)
        plain = kind(*args)
        states, branches = set(), set()
        dist = enumerate_distribution(counting, seeded_theta(counting, 16))
        for entry in dist.entries:
            K, R = frozenset(range(plain.n_keys)), plain.initial_aux()
            for level in entry.trace.levels:
                winners = tuple(w for _pi, w in level)
                states.add((K, R))
                branches.add((K, R, winners))
                K, R = plain.map(K, R, winners)
        assert len(dist) > len(states)
        assert len(counting.splits) == len(states) and set(counting.splits) == states
        assert len(counting.maps) == len(branches) and set(counting.maps) == branches

    def test_leaves_no_cyclic_garbage(self):
        for name, sdef in representative_instances():
            theta = seeded_theta(sdef, 14)
            gc.collect()
            gc.disable()
            try:
                dist = enumerate_distribution(sdef, theta)
                exact_gradient(dist, sdef, theta, lambda x: 1.0)
                del dist
                assert gc.collect() == 0, name
            finally:
                gc.enable()


class TestTraceTable:
    def test_matches_trace_log_prob_under_new_theta(self):
        for _name, sdef in representative_instances():
            theta0 = seeded_theta(sdef, 3)
            dist = enumerate_distribution(sdef, theta0)
            table = TraceTable(dist)
            theta1 = seeded_theta(sdef, 4)
            lps = table.log_probs(theta1)
            for i, entry in enumerate(dist.entries):
                assert lps[i] == pytest.approx(
                    trace_log_prob(sdef, entry.trace, theta1), abs=1e-10
                )

    def test_expected_value_reweights(self):
        sdef = TopK(3, 1)
        theta0 = ThetaVector.constant(sdef.key_labels)
        dist = enumerate_distribution(sdef, theta0)
        table = TraceTable(dist)
        losses = np.array([1.0 if 0 in e.structure else 0.0 for e in dist.entries])
        assert table.expected(theta0, losses) == pytest.approx(1 / 3)
        tilted = theta0.replace(np.array([-20.0, 0.0, 0.0]))
        assert table.expected(tilted, losses) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("values, shape", [
        ([1.0, 0.0], "(2,)"), ([[1.0], [0.0], [0.0]], "(3, 1)"),
    ], ids=["short", "column"])
    def test_expected_names_both_lengths(self, values, shape):
        # numpy's matmul ValueError and TypeError escaped instead.
        sdef = TopK(3, 1)
        theta = ThetaVector.constant(sdef.key_labels)
        table = TraceTable(enumerate_distribution(sdef, theta))
        with pytest.raises(InvalidArgumentError) as info:
            table.expected(theta, values)
        assert str(info.value) == f"per_trace_values has shape {shape}, expected (3,)"

    def test_one_member_row_per_distinct_partition(self):
        for name, sdef in representative_instances():
            dist = enumerate_distribution(sdef, seeded_theta(sdef, 7))
            table = TraceTable(dist)
            partitions = {P for entry in dist.entries for _w, P in entry.events}
            assert table.members.shape == (len(partitions), sdef.n_keys), name
            for w, row in zip(table.winners, table.part_of):
                assert table.members[row, w], name
        k5 = SpanningTree(range(5), complete_graph(5))
        dist = enumerate_distribution(k5, ThetaVector.constant(k5.key_labels))
        assert TraceTable(dist).members.shape == (51, 10)

    def test_log_probs_equal_dense_per_event_reference(self):
        for name, sdef in representative_instances():
            dist = enumerate_distribution(sdef, seeded_theta(sdef, 8))
            theta1 = seeded_theta(sdef, 9, scale=3.0)
            lps = TraceTable(dist).log_probs(theta1)
            assert np.array_equal(lps, dense_log_probs(dist, theta1)), name

    @pytest.mark.parametrize("sdef", [SpanningTree(range(1), []), Arborescence(range(1), [], 0)],
                             ids=["spanning_tree", "arborescence"])
    def test_keyless_instance_scores_its_one_trace_at_zero(self, sdef):
        # The one trace has no events; the maximum of an empty row raised.
        # np.bincount of no weights returned the integer array([0]).
        theta = ThetaVector.constant(sdef.key_labels)
        log_probs = TraceTable(enumerate_distribution(sdef, theta)).log_probs(theta)
        assert log_probs.dtype == np.float64 and log_probs.tolist() == [0.0]

    def test_log_probs_equal_dense_reference_with_masked_key(self):
        sdef = Arborescence(range(4), complete_digraph(4), 0)
        values = seeded_theta(sdef, 10).theta
        mask = np.zeros(sdef.n_keys, dtype=bool)
        mask[2] = True
        theta0 = ThetaVector(sdef.key_labels, values, mask)
        dist = enumerate_distribution(sdef, theta0)
        # Every partition holding the masked key is a deterministic event.
        assert all(2 not in P for entry in dist.entries for _w, P in entry.events)
        theta1 = theta0.replace(seeded_theta(sdef, 11).theta)
        lps = TraceTable(dist).log_probs(theta1)
        assert np.array_equal(lps, dense_log_probs(dist, theta1))

    @pytest.mark.parametrize("keys", [("x", "y", "z"), (0, 1), (2, 1, 0)])
    def test_theta_with_other_keys_raises(self, keys):
        # Relabelled keys were scored as the enumeration's own, and another
        # key count raised numpy's broadcast ValueError.
        sdef = TopK(3, 1)
        table = TraceTable(enumerate_distribution(sdef, seeded_theta(sdef, 12)))
        other = ThetaVector(keys, np.linspace(0.1, 0.3, len(keys)))
        with pytest.raises(InvalidArgumentError, match="theta keys"):
            table.log_probs(other)
        with pytest.raises(InvalidArgumentError, match="theta keys"):
            table.expected(other, np.ones(table.n_traces))

    def test_theta_masking_another_key_is_reweighted_under_the_enumeration_mask(self):
        # The table's events are the enumeration's: it cannot see that a
        # theta masking key 0 has another support, and scores the unmasked law.
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 13)
        dist = enumerate_distribution(sdef, theta)
        masked = ThetaVector(sdef.key_labels, theta.theta, [True, False, False])
        lps = TraceTable(dist).log_probs(masked)
        assert np.array_equal(lps, TraceTable(dist).log_probs(theta))
        assert math.fsum(np.exp(lps)) == pytest.approx(1.0)


class TestExactGradient:
    def test_theta_with_other_keys_raises(self):
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 5)
        dist = enumerate_distribution(sdef, theta)
        other = ThetaVector(("x", "y", "z"), theta.theta)
        with pytest.raises(InvalidArgumentError, match="keys do not match"):
            exact_gradient(dist, sdef, other, lambda x: 1.0)

    def test_constant_loss_gives_zero(self):
        sdef = TopK(3, 2)
        theta = seeded_theta(sdef, 5)
        dist = enumerate_distribution(sdef, theta)
        g = exact_gradient(dist, sdef, theta, lambda x: 3.5)
        np.testing.assert_allclose(g.values, 0.0, atol=1e-8)

    def test_analytic_two_item_value(self):
        sdef = TopK(2, 1)
        theta = ThetaVector.constant(sdef.key_labels)
        dist = enumerate_distribution(sdef, theta)
        g = exact_gradient(dist, sdef, theta, lambda x: 1.0 if 0 in x else 0.0)
        np.testing.assert_allclose(g.values, [-0.25, 0.25], atol=1e-10)

    def test_matches_finite_differences_of_expected_loss(self):
        h = 1e-6
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 6)
            dist = enumerate_distribution(sdef, theta)
            table = TraceTable(dist)
            target, _t = run_struct(
                sdef, np.arange(sdef.n_keys, dtype=float)
            )
            loss = lambda x: float(hamming_distance(x, target))  # noqa: E731
            losses = np.array([loss(e.structure) for e in dist.entries])
            g = exact_gradient(dist, sdef, theta, loss).values
            for i in range(sdef.n_keys):
                up = theta.theta.copy()
                up[i] += h
                down = theta.theta.copy()
                down[i] -= h
                fd = (
                    table.expected(theta.replace(up), losses)
                    - table.expected(theta.replace(down), losses)
                ) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=1e-6)


    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_sum_of_independent_scores_bit_for_bit(self, masked):
        instances = representative_instances() + [
            ("cle_K5", Arborescence(range(5), complete_digraph(5), 0))
        ]
        for name, sdef in instances:
            theta = seeded_theta(sdef, 12)
            if masked:
                mask = np.zeros(sdef.n_keys, dtype=bool)
                mask[1] = True
                theta = ThetaVector(sdef.key_labels, theta.theta, mask)
            dist = enumerate_distribution(sdef, theta)
            target, _t = run_struct(sdef, np.arange(sdef.n_keys, dtype=float))
            loss = lambda x: float(hamming_distance(x, target))  # noqa: E731
            expected = np.zeros(sdef.n_keys)
            for entry in dist.entries:
                weight = entry.prob * loss(entry.structure)
                if weight != 0.0:
                    fresh = Trace(entry.trace.levels)
                    expected += weight * trace_score(sdef, fresh, theta).values
            got = exact_gradient(dist, sdef, theta, loss).values
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_loss_raises_as_the_estimators_do(self, bad):
        # The product with a non-finite loss gave a gradient of +-inf or nan.
        sdef = TopK(3, 1)
        theta = seeded_theta(sdef, 5)
        loss = lambda x: bad if 0 in x else 1.0  # noqa: E731
        dist = enumerate_distribution(sdef, theta)
        with pytest.raises(InvalidArgumentError, match="loss returned a non-finite") as exact:
            exact_gradient(dist, sdef, theta, loss)
        with pytest.raises(InvalidArgumentError) as sampled:
            grad_t_reinforce(sdef, theta, loss, 64, np.random.default_rng(0))
        assert str(exact.value) == str(sampled.value)

    def test_invalid_trace_after_a_valid_one_raises(self):
        sdef = Argsort(4)
        theta = seeded_theta(sdef, 13)
        dist = enumerate_distribution(sdef, theta)
        first = dist.entries[0]
        # Shares the first two levels, then names a key already placed.
        levels = first.trace.levels[:2] + (((0, first.trace.levels[1][0][1]),),) + (
            first.trace.levels[3:]
        )
        bogus = TraceEntry(Trace(levels), first.log_prob, first.prob, first.structure, ())
        tampered = EnumeratedDistribution(
            dist.key_labels, (first, bogus), dist.structure_marginals
        )
        with pytest.raises(InvalidTraceError):
            exact_gradient(tampered, sdef, theta, lambda x: 1.0)

    @pytest.mark.parametrize(
        "case", ["truncated", "extra_entry", "other_definition", "other_mask", "other_theta"]
    )
    def test_distribution_not_enumerated_under_sdef_and_theta_raises(self, case):
        sdef = TopK(4, 2)
        theta = seeded_theta(sdef, 21)
        dist = enumerate_distribution(sdef, theta)
        if case == "truncated":
            entries = dist.entries[:-1]
        elif case == "extra_entry":
            entries = dist.entries + dist.entries[:1]
        elif case == "other_definition":
            entries = enumerate_distribution(TopK(4, 3), theta).entries
        elif case == "other_theta":
            # The same traces with other probabilities.
            entries = enumerate_distribution(sdef, theta.replace([2.0, -1.0, 0.0, 0.7])).entries
        else:
            mask = np.zeros(sdef.n_keys, dtype=bool)
            mask[1] = True
            masked = ThetaVector(sdef.key_labels, theta.theta, mask)
            entries = enumerate_distribution(sdef, masked).entries
        other = EnumeratedDistribution(dist.key_labels, entries, dist.structure_marginals)
        with pytest.raises(InvalidTraceError):
            exact_gradient(other, sdef, theta, lambda x: 1.0)


class TestChiSquare:
    def test_proportional_counts_are_perfect(self):
        sdef = TopK(3, 2)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        counts = {e.trace: 600 * e.prob for e in dist.entries}
        stat, p = chi_square_fit(counts, dist)
        assert stat == pytest.approx(0.0, abs=1e-18)
        assert p == 1.0

    def test_sampled_counts_fit(self):
        sdef = TopK(3, 2)
        theta = seeded_theta(sdef, 7)
        dist = enumerate_distribution(sdef, theta)
        mat = sample_utilities_matrix(theta, 10**5, np.random.default_rng(8))
        counts = {}
        for row in mat:
            _x, t = run_struct(sdef, row)
            counts[t] = counts.get(t, 0) + 1
        _stat, p = chi_square_fit(counts, dist)
        assert p > 1e-3

    def test_skewed_counts_rejected(self):
        sdef = TopK(3, 2)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        counts = {e.trace: round(10**5 * e.prob) for e in dist.entries}
        first = dist.entries[0].trace
        counts[first] *= 2
        _stat, p = chi_square_fit(counts, dist)
        assert p < 1e-3

    def test_support_mismatch_raises(self):
        sdef = TopK(3, 2)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        bogus = Trace((((0, 0),), ((0, 0),)))
        with pytest.raises(InvalidArgumentError):
            chi_square_fit({bogus: 5}, dist)

    def test_small_cells_are_pooled(self):
        sdef = TopK(4, 2)
        theta = ThetaVector(sdef.key_labels, [-3.0, 0.0, 0.0, 3.0])
        dist = enumerate_distribution(sdef, theta)
        # rare traces get expected counts below 5 at this sample size
        n = 2000
        counts = {e.trace: round(n * e.prob) for e in dist.entries}
        stat, p = chi_square_fit(counts, dist)
        assert math.isfinite(stat) and 0.0 <= p <= 1.0

    @pytest.mark.parametrize("counts", [{}, "zeros"])
    def test_no_observations_raise(self, counts):
        sdef = TopK(3, 1)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        if counts == "zeros":
            counts = {e.trace: 0 for e in dist.entries}
        with pytest.raises(InvalidArgumentError, match="no observations"):
            chi_square_fit(counts, dist)

    def test_pool_below_five_merges_into_the_smallest_cell(self):
        sdef = TopK(3, 1)
        dist = enumerate_distribution(sdef, ThetaVector(sdef.key_labels, [-2.0, -1.0, 2.0]))
        observed = (140, 55, 5)
        e0, e1, e2 = (sum(observed) * e.prob for e in dist.entries)
        assert e0 > e1 >= 5.0 > e2  # cells 0 and 1 stand; cell 2 is the pool
        counts = {e.trace: o for e, o in zip(dist.entries, observed)}
        stat, p = chi_square_fit(counts, dist)
        o0, o1, o2 = observed
        assert stat == pytest.approx(
            (o0 - e0) ** 2 / e0 + (o1 + o2 - e1 - e2) ** 2 / (e1 + e2), rel=1e-12
        )
        # One degree of freedom: the pool joined cell 1 rather than becoming a third.
        assert p == pytest.approx(math.erfc(math.sqrt(stat / 2)), rel=1e-9)
        assert 0.1 < p < 0.9

    @pytest.mark.parametrize("sdef, n", [(TopK(3, 1), 3), (TopK(1, 1), 50)],
                             ids=["one_pooled_cell", "one_trace"])
    def test_fewer_than_two_cells_fit_perfectly(self, sdef, n):
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        counts = {dist.entries[0].trace: n}
        assert chi_square_fit(counts, dist) == (0.0, 1.0)


class TestKSExponential:
    def test_correct_rate_accepted(self):
        rng = np.random.default_rng(9)
        samples = rng.exponential(scale=0.5, size=10**4)
        _stat, p = ks_exponential(samples, 2.0)
        assert p > 1e-3

    def test_wrong_rate_rejected(self):
        rng = np.random.default_rng(10)
        samples = rng.exponential(scale=1.0, size=10**4)
        _stat, p = ks_exponential(samples, 2.0)
        assert p < 1e-3

    def test_minimum_sample_count_statistic_range(self):
        rng = np.random.default_rng(11)
        stat, _p = ks_exponential(rng.exponential(size=100), 1.0)
        assert 0.0 <= stat <= 1.0

    def test_bad_inputs_raise(self):
        rng = np.random.default_rng(12)
        good = rng.exponential(size=200)
        with pytest.raises(InvalidParameterError):
            ks_exponential(good, 0.0)
        with pytest.raises(InvalidArgumentError):
            ks_exponential(good[:50], 1.0)
        with pytest.raises(InvalidArgumentError):
            ks_exponential(good - 5.0, 1.0)
