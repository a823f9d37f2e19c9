"""The recursion, trace probabilities, scores, and conditional sampling."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochinv import (
    Arborescence,
    InvalidTraceError,
    SpanningTree,
    StructureDefinitionError,
    ThetaVector,
    TopK,
    Trace,
    cond_jacobian_vjp,
    cond_sample,
    enumerate_distribution,
    replay_conditional,
    run_struct,
    sample_utilities,
    trace_log_prob,
    trace_score,
)
from conftest import (
    complete_digraph,
    complete_graph,
    representative_instances,
    seeded_theta,
)


class TestRunStruct:
    def test_top_k_hand_example(self):
        sdef = TopK(3, 2)
        x, t = run_struct(sdef, [0.3, 0.1, 0.5])
        assert x == frozenset({0, 1})
        assert t.winners() == (1, 0)

    def test_immediate_stop_gives_empty_value_and_trace(self):
        sdef = SpanningTree([0], [])
        x, t = run_struct(sdef, [])
        assert x == frozenset()
        assert t.levels == ()

    def test_kruskal_triangle_hand_example(self):
        sdef = SpanningTree([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
        # edges sort to ((0,1), (0,2), (1,2)); weights a=0.2, b=0.9, c=0.5
        x, t = run_struct(sdef, [0.2, 0.9, 0.5])
        assert x == frozenset({(0, 1), (1, 2)})
        assert t.winners() == (0, 2)

    def test_tie_breaks_toward_lowest_key(self):
        sdef = TopK(3, 1)
        x, _t = run_struct(sdef, [0.5, 0.5, 0.5])
        assert x == frozenset({0})

    def test_trace_determines_value(self):
        # Enumeration walks each trace without utilities; the structure it
        # records for a drawn trace is the one the draw produced.
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 1)
            dist = enumerate_distribution(sdef, theta)
            structure_of = {entry.trace: entry.structure for entry in dist.entries}
            rng = np.random.default_rng(0)
            for _ in range(20):
                x, t = run_struct(sdef, sample_utilities(theta, rng))
                assert structure_of[t] == x

    def test_same_trace_implies_same_value(self):
        # Utilities drawn conditionally on one trace always rebuild it, and
        # so does their frozen-noise replay under another theta.
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 2)
            other = seeded_theta(sdef, 3)
            rng = np.random.default_rng(1)
            x0, t0 = run_struct(sdef, sample_utilities(theta, rng))
            for _ in range(20):
                e, rec = cond_sample(sdef, t0, theta, rng)
                x, t = run_struct(sdef, e)
                assert t == t0
                assert x == x0
                x, t = run_struct(sdef, replay_conditional(rec, other))
                assert t == t0
                assert x == x0

    def test_monotone_transforms_preserve_run(self):
        # All comparisons are argmins over values with a shared subtraction
        # history, so any strictly increasing transform of the utilities
        # gives the same run -- except for the arborescence, whose
        # contractions mix subtraction histories (affine maps still work
        # there, checked below).
        transforms = [lambda v: 3.0 * v, lambda v: v**2, lambda v: np.expm1(v)]
        for name, sdef in representative_instances():
            if name == "cle":
                continue
            theta = seeded_theta(sdef, 3)
            rng = np.random.default_rng(2)
            for _ in range(10):
                e = sample_utilities(theta, rng).values
                x0, t0 = run_struct(sdef, e)
                for f in transforms:
                    x, t = run_struct(sdef, f(e))
                    assert (x, t) == (x0, t0)

    def test_positive_affine_maps_preserve_every_run(self):
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 4)
            rng = np.random.default_rng(3)
            for _ in range(10):
                e = sample_utilities(theta, rng).values
                x0, t0 = run_struct(sdef, e)
                x, t = run_struct(sdef, 2.5 * e)
                assert (x, t) == (x0, t0)

    def test_stop_is_true_on_empty_keys_at_termination(self):
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 5)
            e = sample_utilities(theta, np.random.default_rng(4))
            _x, t = run_struct(sdef, e)
            K, R = sdef.initial_state()
            for level in t.levels:
                K, R = sdef.map(K, R, [w for _pi, w in level])
            assert sdef.stop(K, R)
            if not K:
                assert sdef.stop(frozenset(), R)


class TestTraceLogProb:
    def test_uniform_top_k_chain(self):
        sdef = TopK(3, 2)
        theta = ThetaVector.constant(sdef.key_labels)
        t = Trace((((0, 0),), ((0, 1),)))
        assert trace_log_prob(sdef, t, theta) == pytest.approx(-math.log(6), abs=1e-12)

    def test_rate_weighted_chain(self):
        # rates (2, 1, 1): p = (2/4) * (1/2) = 1/4 for winners (0, 1)
        sdef = TopK(3, 2)
        theta = ThetaVector(sdef.key_labels, [-math.log(2.0), 0.0, 0.0])
        t = Trace((((0, 0),), ((0, 1),)))
        assert trace_log_prob(sdef, t, theta) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_masked_winner_contributes_zero(self):
        sdef = TopK(2, 1)
        theta = ThetaVector(sdef.key_labels, [0.0, 0.0], [True, False])
        assert trace_log_prob(sdef, Trace((((0, 0),),)), theta) == 0.0

    def test_masked_loser_is_impossible(self):
        sdef = TopK(2, 1)
        theta = ThetaVector(sdef.key_labels, [0.0, 0.0], [True, False])
        assert trace_log_prob(sdef, Trace((((0, 1),),)), theta) == -math.inf

    def test_two_masked_keys_in_a_partition_rejected(self):
        sdef = TopK(2, 1)
        theta = ThetaVector(sdef.key_labels, [0.0, 0.0], [True, True])
        with pytest.raises(StructureDefinitionError):
            trace_log_prob(sdef, Trace((((0, 0),),)), theta)

    def test_infeasible_traces_raise(self):
        sdef = TopK(3, 2)
        theta = ThetaVector.constant(sdef.key_labels)
        with pytest.raises(InvalidTraceError):
            trace_log_prob(sdef, Trace((((0, 0),),)), theta)  # too short
        with pytest.raises(InvalidTraceError):
            trace_log_prob(
                sdef, Trace((((0, 0),), ((0, 1),), ((0, 2),))), theta
            )  # too long
        with pytest.raises(InvalidTraceError):
            trace_log_prob(sdef, Trace((((0, 0),), ((0, 0),))), theta)  # reused winner
        with pytest.raises(InvalidTraceError):
            trace_log_prob(sdef, Trace((((1, 0),), ((0, 1),))), theta)  # bad index

    def test_shift_invariance(self):
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 6)
            rng = np.random.default_rng(5)
            _x, t = run_struct(sdef, sample_utilities(theta, rng))
            base = trace_log_prob(sdef, t, theta)
            for c in (-7.5, -1.0, 0.3, 12.0):
                shifted = theta.replace(theta.theta + c)
                assert trace_log_prob(sdef, t, shifted) == pytest.approx(
                    base, abs=1e-12
                )

    def test_deep_thetas_do_not_overflow(self):
        sdef = TopK(4, 2)
        theta = ThetaVector(sdef.key_labels, [50.0, -50.0, 48.0, -47.0])
        _x, t = run_struct(sdef, sample_utilities(theta, np.random.default_rng(6)))
        assert math.isfinite(trace_log_prob(sdef, t, theta))


class TestTraceScore:
    def test_two_item_softmax(self):
        sdef = TopK(2, 1)
        theta = ThetaVector.constant(sdef.key_labels)
        g = trace_score(sdef, Trace((((0, 0),),)), theta)
        np.testing.assert_allclose(g.values, [-0.5, 0.5], atol=1e-15)

    def test_deterministic_trace_scores_zero(self):
        sdef = TopK(2, 1)
        theta = ThetaVector(sdef.key_labels, [0.0, 0.0], [True, False])
        g = trace_score(sdef, Trace((((0, 0),),)), theta)
        assert np.all(g.values == 0.0)

    def test_matches_finite_differences_everywhere(self):
        h = 1e-6
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 7)
            rng = np.random.default_rng(7)
            for _ in range(3):
                _x, t = run_struct(sdef, sample_utilities(theta, rng))
                g = trace_score(sdef, t, theta).values
                for i in range(sdef.n_keys):
                    up = theta.theta.copy()
                    up[i] += h
                    down = theta.theta.copy()
                    down[i] -= h
                    fd = (
                        trace_log_prob(sdef, t, theta.replace(up))
                        - trace_log_prob(sdef, t, theta.replace(down))
                    ) / (2 * h)
                    assert g[i] == pytest.approx(fd, abs=1e-6)


class TestConditionalSampling:
    def test_event_and_residual_expectations(self):
        # d=2, k=1, unit rates, winner 0: E[e0] = 1/2, E[e1] = 1/2 + 1.
        sdef = TopK(2, 1)
        theta = ThetaVector.constant(sdef.key_labels)
        t = Trace((((0, 0),),))
        rng = np.random.default_rng(8)
        values = np.array(
            [cond_sample(sdef, t, theta, rng)[0].values for _ in range(10**5)]
        )
        assert values[:, 0].mean() == pytest.approx(0.5, abs=0.02)
        assert values[:, 1].mean() == pytest.approx(1.5, abs=0.03)

    def test_round_trip_reproduces_trace(self):
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 8)
            rng = np.random.default_rng(9)
            for _ in range(300):
                e = sample_utilities(theta, rng)
                _x, t = run_struct(sdef, e)
                e_cond, _rec = cond_sample(sdef, t, theta, rng)
                _x2, t2 = run_struct(sdef, e_cond)
                assert t2 == t

    def test_record_replay_is_bit_exact(self):
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 9)
            rng = np.random.default_rng(10)
            for _ in range(20):
                _x, t = run_struct(sdef, sample_utilities(theta, rng))
                e_cond, rec = cond_sample(sdef, t, theta, rng)
                replayed = replay_conditional(rec, theta)
                assert np.array_equal(replayed.values, e_cond.values)

    def test_each_utility_decomposes_into_minima_plus_residual(self):
        # Every conditional utility is a sum of noise/sum(rates) terms, one
        # per event whose partition held the key, plus its own residual.
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 12)
            rates = np.exp(-theta.theta)
            rng = np.random.default_rng(15)
            _x, t = run_struct(sdef, sample_utilities(theta, rng))
            e_cond, rec = cond_sample(sdef, t, theta, rng)
            for k in range(sdef.n_keys):
                total = sum(
                    eps / rates[list(keys)].sum()
                    for _w, eps, keys in rec.events if k in keys
                )
                total += sum(eps / rates[k] for key, eps in rec.tail if key == k)
                assert e_cond.values[k] == pytest.approx(total, rel=1e-12, abs=1e-300)

    def test_infeasible_trace_raises(self):
        sdef = TopK(2, 1)
        theta = ThetaVector(sdef.key_labels, [0.0, 0.0], [True, False])
        with pytest.raises(InvalidTraceError):
            cond_sample(sdef, Trace((((0, 1),),)), theta, np.random.default_rng(0))

    def test_caller_masked_keys_stay_zero(self):
        sdef = TopK(3, 2)
        theta = ThetaVector(sdef.key_labels, [0.0, 0.0, 0.0], [False, True, False])
        rng = np.random.default_rng(11)
        _x, t = run_struct(sdef, sample_utilities(theta, rng))
        e_cond, _rec = cond_sample(sdef, t, theta, rng)
        assert e_cond.values[1] == 0.0

    def test_masked_survivors_through_contraction(self):
        # A 4-vertex arborescence run that contracts keeps one winner
        # masked into the deeper level; the round trip must still hold.
        sdef = Arborescence(range(4), complete_digraph(4), 0)
        theta = seeded_theta(sdef, 10)
        rng = np.random.default_rng(12)
        contracted = 0
        for _ in range(500):
            e = sample_utilities(theta, rng)
            _x, t = run_struct(sdef, e)
            if len(t.levels) > 1:
                contracted += 1
            e_cond, _rec = cond_sample(sdef, t, theta, rng)
            _x2, t2 = run_struct(sdef, e_cond)
            assert t2 == t
        assert contracted > 0


class TestConditionalJacobian:
    def test_zero_vector_gives_zero(self):
        sdef = TopK(2, 1)
        theta = ThetaVector.constant(sdef.key_labels)
        _e, rec = cond_sample(sdef, Trace((((0, 0),),)), theta, np.random.default_rng(1))
        out = cond_jacobian_vjp(rec, theta, np.zeros(2))
        assert np.all(out.values == 0.0)

    def test_single_event_analytic_value(self):
        # One event, unit rates, eps = 1: d e_0 / d theta_0 = 1 * 1 / 2^2.
        from stochinv import CondBuildRecord

        theta = ThetaVector((0, 1), [0.0, 0.0])
        rec = CondBuildRecord((0, 1), ((0, 1.0, (0, 1)),), ())
        out = cond_jacobian_vjp(rec, theta, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.25, 0.25], atol=1e-15)

    def test_matches_frozen_noise_finite_differences(self):
        h = 1e-6
        rng_v = np.random.default_rng(13)
        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 11)
            rng = np.random.default_rng(14)
            _x, t = run_struct(sdef, sample_utilities(theta, rng))
            _e, rec = cond_sample(sdef, t, theta, rng)
            v = rng_v.normal(size=sdef.n_keys)
            analytic = cond_jacobian_vjp(rec, theta, v).values
            for i in range(sdef.n_keys):
                up = theta.theta.copy()
                up[i] += h
                down = theta.theta.copy()
                down[i] -= h
                fd = (
                    v @ replay_conditional(rec, theta.replace(up)).values
                    - v @ replay_conditional(rec, theta.replace(down)).values
                ) / (2 * h)
                assert analytic[i] == pytest.approx(
                    fd, rel=1e-4, abs=1e-10
                )

    def test_underflowing_rates_divide_to_inf_not_raise(self):
        # exp(-400) squared underflows to 0, so the product divides by the
        # rate sum twice and stays finite: 1 / (2r) * (r / 2r) = e^400 / 4.
        # exp(-760) is 0 itself, a rate nothing may divide by: the replay
        # raises before any division.
        from stochinv import CondBuildRecord, InvalidParameterError

        rec = CondBuildRecord((0, 1), ((0, 1.0, (0, 1)),), ((1, 2.0),))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = cond_jacobian_vjp(rec, ThetaVector((0, 1), [400.0, 400.0]), [1.0, 0.0])
            assert out.values.tolist() == [0.25 / math.exp(-400.0)] * 2
            with pytest.raises(InvalidParameterError):
                replay_conditional(rec, ThetaVector((0, 1), [0.0, 760.0]))

    def test_rate_underflowing_to_zero_raises_naming_the_key(self):
        # exp(-760) and exp(-800) are 0.  The VJP returned [2, inf], the
        # replay rejected its own infinite sample, and cond_sample returned
        # finite utilities for a trace of log-probability -800.
        from stochinv import CondBuildRecord, InvalidParameterError

        rec = CondBuildRecord((0, 1), ((0, 1.0, (0, 1)),), ((1, 2.0),))
        theta = ThetaVector((0, 1), [0.0, 760.0])
        sdef, trace, deep = TopK(2, 1), Trace((((0, 0),),)), ThetaVector((0, 1), [800.0, 0.0])
        assert trace_log_prob(sdef, trace, deep) == -800.0
        calls = [
            (lambda: cond_jacobian_vjp(rec, theta, [1.0, 1.0]), "760.0", "1"),
            (lambda: replay_conditional(rec, theta), "760.0", "1"),
            (lambda: cond_sample(sdef, trace, deep, np.random.default_rng(0)), "800.0", "0"),
        ]
        for call, value, key in calls:
            with pytest.raises(InvalidParameterError,
                               match=f"^theta {value} of key {key} underflows"):
                call()

    @pytest.mark.parametrize("masked_value", [math.inf, 0.5])
    def test_record_drawing_a_masked_key_raises_naming_it(self, masked_value):
        # A masked key is a deterministic winner and draws no noise, so a
        # record that draws key 1 cannot be replayed under a theta masking
        # it.  At theta 0.5 the replay ignored the mask and gave key 1 a
        # positive utility; at +inf it raised that the rate underflows.
        from stochinv import CondBuildRecord, InvalidParameterError

        rec = CondBuildRecord((0, 1), ((0, 1.0, (0, 1)),), ((1, 2.0),))
        masking = ThetaVector((0, 1), [0.0, masked_value], [False, True])
        for call in (lambda: replay_conditional(rec, masking),
                     lambda: cond_jacobian_vjp(rec, masking, [1.0, 1.0])):
            with pytest.raises(InvalidParameterError, match="^key 1 is masked in theta"):
                call()

    def test_masked_key_at_minus_800_is_never_exponentiated(self):
        # Each of these computed exp(800) for the masked key, warning of
        # an overflow, and multiplied the inf by a 0 utility.
        import warnings

        from stochinv.estimators import utility_score

        sdef = TopK(3, 1)
        theta = ThetaVector((0, 1, 2), [-800.0, 0.1, 0.2], [True, False, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = sample_utilities(theta, 0)
            assert utility_score(theta, e)[0] == 0.0
            _x, trace = run_struct(sdef, e)
            e_cond, rec = cond_sample(sdef, trace, theta, np.random.default_rng(1))
            assert e_cond.values[0] == 0.0
            assert np.array_equal(replay_conditional(rec, theta).values, e_cond.values)
            assert cond_jacobian_vjp(rec, theta, [1.0, 1.0, 1.0]).values[0] == 0.0

    @pytest.mark.parametrize("c", [400.0, 700.0])
    @pytest.mark.parametrize(
        "sdef",
        [TopK(6, 3), Arborescence(range(4), complete_digraph(4), 0)],
        ids=["top_k_6_3", "cle_K4"],
    )
    def test_shifting_theta_by_c_scales_the_product_by_exp_c(self, sdef, c):
        # Every rate scales by e^-c, so each term eps * rate / s^2 and each
        # residual eps / rate scales by e^c, also where s^2 underflows.
        theta = seeded_theta(sdef, 19)
        rng = np.random.default_rng(20)
        _x, t = run_struct(sdef, sample_utilities(theta, rng))
        _e, rec = cond_sample(sdef, t, theta, rng)
        v = rng.normal(size=sdef.n_keys)
        base = cond_jacobian_vjp(rec, theta, v).values
        shifted = cond_jacobian_vjp(rec, theta.replace(theta.theta + c), v).values
        assert np.all(np.isfinite(shifted))
        np.testing.assert_allclose(shifted, math.exp(c) * base, rtol=1e-12, atol=0)


class TestRecordedWalk:
    """A trace from ``run_struct`` carries its walk; ``Trace(t.levels)`` does not."""

    @pytest.mark.parametrize(
        "sdef",
        [sdef for _name, sdef in representative_instances()],
        ids=[name for name, _sdef in representative_instances()],
    )
    def test_carried_walk_matches_validation_bit_for_bit(self, sdef):
        theta = seeded_theta(sdef, 13)
        rng = np.random.default_rng(16)
        for i in range(10):
            x, t = run_struct(sdef, sample_utilities(theta, rng))
            rebuilt = Trace(t.levels)
            assert rebuilt == t and hash(rebuilt) == hash(t) and repr(rebuilt) == repr(t)
            assert trace_log_prob(sdef, t, theta) == trace_log_prob(sdef, rebuilt, theta)
            assert np.array_equal(
                trace_score(sdef, t, theta).values,
                trace_score(sdef, rebuilt, theta).values,
            )
            e1, rec1 = cond_sample(sdef, t, theta, np.random.default_rng(i))
            e2, rec2 = cond_sample(sdef, rebuilt, theta, np.random.default_rng(i))
            assert np.array_equal(e1.values, e2.values) and rec1 == rec2
            assert run_struct(sdef, e2) == (x, t)

    def test_walks_leave_no_cyclic_garbage(self):
        # run_struct drops its walker suspended after the one leaf it takes.
        for name, sdef in representative_instances():
            theta = seeded_theta(sdef, 18)
            rng = np.random.default_rng(18)
            gc.collect()
            gc.disable()
            try:
                for _ in range(5):
                    _x, carried = run_struct(sdef, sample_utilities(theta, rng))
                    for trace in (carried, Trace(carried.levels)):
                        trace_log_prob(sdef, trace, theta)
                        trace_score(sdef, trace, theta)
                        cond_sample(sdef, trace, theta, rng)
                del carried, trace
                assert gc.collect() == 0, name
            finally:
                gc.enable()

    @pytest.mark.parametrize(
        "other",
        [
            SpanningTree(range(4), complete_graph(4)),
            SpanningTree(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]),
        ],
        ids=["same_graph", "other_graph"],
    )
    def test_walk_is_not_reused_under_another_definition(self, other):
        sdef = SpanningTree(range(4), complete_graph(4))
        theta = seeded_theta(sdef, 14)
        other_theta = seeded_theta(other, 15)
        rng = np.random.default_rng(17)
        calls = (
            lambda t: trace_log_prob(other, t, other_theta),
            lambda t: trace_score(other, t, other_theta).values.tolist(),
            lambda t: cond_sample(other, t, other_theta, np.random.default_rng(0))[1],
        )
        for _ in range(10):
            _x, t = run_struct(sdef, sample_utilities(theta, rng))
            for call in calls:
                try:
                    expected = call(Trace(t.levels))
                except InvalidTraceError:
                    with pytest.raises(InvalidTraceError):
                        call(t)
                else:
                    assert call(t) == expected


class _EmptyPartition(TopK):
    def split(self, K, R):
        return [(), tuple(sorted(K))]


class _OverlappingPartitions(TopK):
    def split(self, K, R):
        keys = tuple(sorted(K))
        return [keys, keys[:1]]


class _NonShrinkingMap(TopK):
    def map(self, K, R, winners):
        return K, R - 1


class TestDefinitionContracts:
    @pytest.mark.parametrize(
        "broken", [_EmptyPartition, _OverlappingPartitions, _NonShrinkingMap]
    )
    @pytest.mark.parametrize("entry", ["run_struct", "enumerate_distribution"])
    def test_both_entry_points_raise_the_same_error(self, broken, entry):
        sdef = broken(3, 2)
        with pytest.raises(StructureDefinitionError):
            if entry == "run_struct":
                run_struct(sdef, [0.1, 0.2, 0.3])
            else:
                enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))

    def test_bad_partition_is_rejected(self):
        class Broken(TopK):
            def split(self, K, R):
                return [tuple(sorted(K))[:-1]] if len(K) > 1 else [tuple(K)]

        sdef = Broken(3, 2)
        with pytest.raises(StructureDefinitionError):
            run_struct(sdef, [0.1, 0.2, 0.3])

    def test_non_shrinking_map_is_rejected(self):
        class Broken(TopK):
            def map(self, K, R, winners):
                return K, R - 1

        sdef = Broken(3, 2)
        with pytest.raises(StructureDefinitionError):
            run_struct(sdef, [0.1, 0.2, 0.3])

    @given(st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_argsort_trace_equals_numpy_argsort(self, d, seed):
        from stochinv import Argsort

        sdef = Argsort(d)
        e = np.random.default_rng(seed).random(d)
        x, t = run_struct(sdef, e)
        assert x == tuple(np.argsort(e, kind="stable"))
        assert t.winners() == x
