"""Structure definitions against brute-force reimplementations.

Each definition is cross-checked on random draws against a direct
implementation of the same greedy algorithm (or an exhaustive minimizer
where the output is a true minimum), so the recursion machinery and the
definitions validate each other through an independent route.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochinv import (
    Arborescence,
    Argsort,
    BinaryTree,
    InfeasibleGraphError,
    InvalidArgumentError,
    InvalidParameterError,
    Matching,
    SpanningTree,
    ThetaVector,
    TopK,
    TreeNode,
    enumerate_distribution,
    hamming_distance,
    run_struct,
    sample_utilities,
)
from stochinv.errors import ConfigError
from stochinv.structures import parse_graph_file
from conftest import complete_digraph, complete_graph, seeded_theta, small_instances


def _reference_reach(edges, start) -> set:
    """The vertices that the directed ``edges`` reach from ``start``, grown
    to a fixed point one step at a time."""
    reach = {start}
    while True:
        grown = reach | {v for u, v in edges if u in reach}
        if grown == reach:
            return reach
        reach = grown


def all_spanning_trees(vertices, edges):
    """Every n-1 of ``edges`` that reach every vertex read in both directions."""
    for subset in itertools.combinations(edges, len(vertices) - 1):
        both_ways = list(subset) + [(v, u) for u, v in subset]
        if _reference_reach(both_ways, vertices[0]) == set(vertices):
            yield frozenset(subset)


def all_arborescences(vertices, edges, root):
    """Every n-1 of ``edges`` through which ``root`` reaches every vertex."""
    for subset in itertools.combinations(edges, len(vertices) - 1):
        if _reference_reach(subset, root) == set(vertices):
            yield frozenset(subset)


def greedy_matching(weights):
    """Direct reimplementation: repeatedly take the global min cell."""
    n = weights.shape[0]
    alive_rows, alive_cols = set(range(n)), set(range(n))
    out = set()
    for _ in range(n):
        best = min(
            ((r, c) for r in alive_rows for c in alive_cols),
            key=lambda rc: (weights[rc], rc),
        )
        out.add(best)
        alive_rows.remove(best[0])
        alive_cols.remove(best[1])
    return frozenset(out)


def recursive_tree(weights, lo, hi):
    """Direct reimplementation: min token parents its two sides."""
    if lo > hi:
        return None
    w = min(range(lo, hi + 1), key=lambda i: (weights[i], i))
    return TreeNode(w, recursive_tree(weights, lo, w - 1), recursive_tree(weights, w + 1, hi))


class TestTopK:
    def test_k_equals_d_selects_everything(self):
        sdef = TopK(3, 3)
        x, _t = run_struct(sdef, [0.9, 0.1, 0.4])
        assert x == frozenset({0, 1, 2})

    def test_two_smallest(self):
        x, _t = run_struct(TopK(3, 2), [0.3, 0.1, 0.5])
        assert x == frozenset({0, 1})

    def test_out_of_range_k(self):
        with pytest.raises(InvalidParameterError):
            TopK(3, 0)
        with pytest.raises(InvalidParameterError):
            TopK(3, 4)

    def test_uniform_enumeration(self):
        sdef = TopK(3, 2)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 6
        for entry in dist.entries:
            assert entry.prob == pytest.approx(1 / 6, abs=1e-12)
        assert sorted(dist.structure_marginals.values()) == pytest.approx([1 / 3] * 3)

    def test_chain_rule_marginals_closed_form(self):
        # Selection chain: p(t) = prod lambda_t / (sum - already chosen).
        sdef = TopK(3, 2)
        theta = ThetaVector(sdef.key_labels, [-math.log(2), 0.0, 0.0])
        lam = np.exp(-theta.theta)
        dist = enumerate_distribution(sdef, theta)
        for entry in dist.entries:
            winners = entry.trace.winners()
            expected, remaining = 1.0, lam.sum()
            for w in winners:
                expected *= lam[w] / remaining
                remaining -= lam[w]
            assert entry.prob == pytest.approx(expected, abs=1e-12)

    def test_matches_numpy_partition(self):
        sdef = TopK(6, 3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.random(6)
            x, _t = run_struct(sdef, e)
            assert x == frozenset(np.argsort(e)[:3].tolist())


class TestArgsort:
    def test_sorted_input_gives_identity(self):
        x, _t = run_struct(Argsort(4), [0.1, 0.2, 0.3, 0.4])
        assert x == (0, 1, 2, 3)

    def test_uniform_permutation_probabilities(self):
        sdef = Argsort(3)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 6
        for entry in dist.entries:
            assert entry.prob == pytest.approx(1 / 6, abs=1e-12)

    def test_rate_weighted_identity_order(self):
        sdef = Argsort(3)
        theta = ThetaVector(sdef.key_labels, [-math.log(2), 0.0, 0.0])
        dist = enumerate_distribution(sdef, theta)
        entry = next(e for e in dist.entries if e.structure == (0, 1, 2))
        assert entry.prob == pytest.approx(0.25, abs=1e-12)

    def test_trace_equals_output(self):
        sdef = Argsort(5)
        theta = seeded_theta(sdef, 0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, t = run_struct(sdef, sample_utilities(theta, rng))
            assert t.winners() == x


class TestMatching:
    def test_single_cell(self):
        sdef = Matching(1)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 1
        assert dist.entries[0].prob == 1.0
        assert dist.entries[0].structure == frozenset({(0, 0)})

    def test_two_by_two_uniform(self):
        sdef = Matching(2)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert sorted(dist.structure_marginals.values()) == pytest.approx([0.5, 0.5])

    def test_second_pick_is_forced(self):
        sdef = Matching(2)
        x, t = run_struct(sdef, [0.1, 0.7, 0.8, 0.9])
        assert x == frozenset({(0, 0), (1, 1)})
        assert len(t.levels) == 2
        # after crossing out row 0 / col 0 only one cell competes
        assert t.levels[1] == ((0, 3),)

    def test_matches_direct_greedy(self):
        sdef = Matching(4)
        theta = seeded_theta(sdef, 1)
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = sample_utilities(theta, rng)
            x, _t = run_struct(sdef, e)
            assert x == greedy_matching(e.values.reshape(4, 4))


class TestBinaryTree:
    def test_single_token(self):
        sdef = BinaryTree(1)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 1
        assert dist.entries[0].structure == TreeNode(0, None, None)

    def test_middle_winner_balances(self):
        x, _t = run_struct(BinaryTree(3), [0.5, 0.1, 0.6])
        assert x == TreeNode(1, TreeNode(0, None, None), TreeNode(2, None, None))

    def test_three_token_probabilities(self):
        sdef = BinaryTree(3)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 5
        by_root = {}
        for entry in dist.entries:
            by_root[entry.structure.key] = (
                by_root.get(entry.structure.key, 0.0) + entry.prob
            )
        assert by_root == pytest.approx({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})
        balanced = next(e for e in dist.entries if e.structure.key == 1)
        assert balanced.prob == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_direct_recursion(self):
        sdef = BinaryTree(6)
        theta = seeded_theta(sdef, 2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = sample_utilities(theta, rng)
            x, _t = run_struct(sdef, e)
            assert x == recursive_tree(e.values, 0, 5)


class TestSpanningTree:
    def test_triangle_uniform(self):
        sdef = SpanningTree(range(3), complete_graph(3))
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 6
        assert sorted(dist.structure_marginals.values()) == pytest.approx([1 / 3] * 3)
        # a fixed selection order has probability (1/3)(1/2)
        entry = next(
            e for e in dist.entries if e.trace.winners() == (0, 2)
        )
        assert entry.prob == pytest.approx(1 / 6, abs=1e-12)

    def test_path_graph_unique_tree(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        sdef = SpanningTree(range(4), edges)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert list(dist.structure_marginals.values()) == pytest.approx([1.0])

    def test_disconnected_graph_raises(self):
        match = r"^graph is disconnected: vertices \[2, 3\] are not connected to vertex 0$"
        with pytest.raises(InfeasibleGraphError, match=match):
            SpanningTree(range(4), [(0, 1), (2, 3)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpanningTree(range(3), [(0, 1), (1, 0)])

    @pytest.mark.parametrize("vertices, edges, message", [
        ((), [], "need at least one vertex"),
        (range(3), [(0, 1), (1, 1)], "self-loop on vertex 1"),
        (range(3), [(0, 1), (1, 5)], r"edge \(1, 5\) has unknown endpoint"),
    ], ids=["no_vertices", "self_loop", "unknown_endpoint"])
    def test_malformed_graph_is_named(self, vertices, edges, message):
        with pytest.raises(InvalidParameterError, match=message):
            SpanningTree(vertices, edges)

    def test_matches_exhaustive_minimum(self):
        vertices = tuple(range(4))
        edges = complete_graph(4)
        sdef = SpanningTree(vertices, edges)
        trees = list(all_spanning_trees(vertices, edges))
        assert len(trees) == 16
        theta = seeded_theta(sdef, 3)
        rng = np.random.default_rng(4)
        for _ in range(200):
            e = sample_utilities(theta, rng)
            weight = dict(zip(sdef.key_labels, e.values))
            best = min(trees, key=lambda tr: sum(weight[edge] for edge in tr))
            x, _t = run_struct(sdef, e)
            assert x == best


class TestArborescence:
    def test_two_vertex_single_edge(self):
        sdef = Arborescence([0, 1], [(0, 1)], 0)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert len(dist) == 1
        assert dist.entries[0].structure == frozenset({(0, 1)})
        assert dist.entries[0].prob == 1.0

    def test_missing_incoming_edge_raises(self):
        with pytest.raises(InfeasibleGraphError):
            Arborescence([0, 1, 2], [(0, 1)], 0)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 5)], r"edge \(1, 5\) has unknown endpoint"),
        ([(0, 1), (0, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
    ], ids=["unknown_endpoint", "duplicate_edge"])
    def test_malformed_graph_is_named(self, edges, message):
        with pytest.raises(InvalidParameterError, match=message):
            Arborescence(range(3), edges, 0)

    @pytest.mark.parametrize("n, edges", [
        (3, [(1, 2), (2, 1)]),
        (4, [(1, 2), (2, 1), (0, 3), (2, 3)]),
    ], ids=["loop_alone", "loop_beside_a_rooted_vertex"])
    def test_unenterable_cycle_is_infeasible_on_every_path(self, n, edges):
        # 1 and 2 each have an incoming edge, but only from each other: the
        # root reaches neither, while it reaches 3.  The constructor rejects
        # the graph, so no definition exists to run, enumerate or validate a
        # trace against.
        match = r"^vertices \[1, 2\] are unreachable from root 0$"
        with pytest.raises(InfeasibleGraphError, match=match):
            Arborescence(range(n), edges, 0)

    def test_unenterable_cycle_is_exit_2_naming_the_vertex_group(self, tmp_path, capsys):
        from stochinv.cli import main

        graph = tmp_path / "graph.txt"
        graph.write_text("graph directed 3\nroot 0\n1 2\n2 1\n")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"structure": {"kind": "arborescence", "graph": str(graph)}, "seed": 0}
        ))
        assert main(["enumerate", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: vertices [1, 2] are unreachable from root 0"]

    def test_edges_into_root_are_ignored(self):
        sdef = Arborescence([0, 1], [(0, 1), (1, 0)], 0)
        assert sdef.key_labels == ((0, 1),)

    def test_three_vertex_marginals_match_exhaustive_minimum(self):
        # The min-arborescence law on the complete 3-digraph is NOT
        # uniform: the star needs to win two independent comparisons,
        # p(star) = 1/4, each chain 3/8.
        vertices = tuple(range(3))
        edges = complete_digraph(3)
        sdef = Arborescence(vertices, edges, 0)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        marg = {k: v for k, v in dist.structure_marginals.items()}
        assert marg[((0, 1), (0, 2))] == pytest.approx(0.25, abs=1e-12)
        assert marg[((0, 1), (1, 2))] == pytest.approx(0.375, abs=1e-12)
        assert marg[((0, 2), (2, 1))] == pytest.approx(0.375, abs=1e-12)

    def test_matches_exhaustive_minimum(self):
        vertices = tuple(range(4))
        edges = complete_digraph(4)
        sdef = Arborescence(vertices, edges, 0)
        arbs = list(all_arborescences(vertices, sdef.key_labels, 0))
        theta = seeded_theta(sdef, 4)
        rng = np.random.default_rng(5)
        for _ in range(300):
            e = sample_utilities(theta, rng)
            weight = dict(zip(sdef.key_labels, e.values))
            best = min(arbs, key=lambda ar: sum(weight[edge] for edge in ar))
            x, _t = run_struct(sdef, e)
            assert x == best

    def test_enumeration_with_contraction_normalizes(self):
        sdef = Arborescence(range(4), complete_digraph(4), 0)
        dist = enumerate_distribution(sdef, seeded_theta(sdef, 5))
        assert dist.total_prob == pytest.approx(1.0, abs=1e-9)
        assert any(len(e.trace.levels) > 1 for e in dist.entries)

    def test_deterministic_rewins_add_nothing_to_log_prob_or_score(self):
        # On 4 vertices a contraction can leave another node's winner in
        # play; it wins again deterministically at the next level.  The
        # log-prob and score must equal the sums over stochastic events
        # alone (recomputed here straight from the enumeration record).
        from stochinv import trace_log_prob, trace_score

        sdef = Arborescence(range(4), complete_digraph(4), 0)
        theta = seeded_theta(sdef, 7)
        neg = -theta.theta
        dist = enumerate_distribution(sdef, theta)
        with_rewins = [
            e for e in dist.entries if sum(map(len, e.trace.levels)) > len(e.events)
        ]
        assert with_rewins, "expected traces with deterministic re-wins"
        for entry in with_rewins:
            lp = 0.0
            score = np.zeros(sdef.n_keys)
            for w, partition in entry.events:
                cols = list(partition)
                lse = math.log(np.exp(neg[cols] - neg[cols].max()).sum()) + neg[cols].max()
                lp += neg[w] - lse
                score[cols] += np.exp(neg[cols] - lse)
                score[w] -= 1.0
            assert trace_log_prob(sdef, entry.trace, theta) == pytest.approx(
                lp, abs=1e-12
            )
            np.testing.assert_allclose(
                trace_score(sdef, entry.trace, theta).values, score, atol=1e-12
            )


@st.composite
def connected_graphs(draw):
    """(directed, n, edges) on vertices 0..n-1, n <= 5.

    The edges hold a random tree grown from vertex 0, each vertex hanging
    from one placed before it, plus random extra edges.  Tree edges point
    away from 0, so in a directed graph every vertex is reachable from root 0.
    """
    directed = draw(st.booleans())
    n = draw(st.integers(1, 5))
    order = [0, *draw(st.permutations(range(1, n)))]
    tree = {(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)}
    if not directed:
        tree = {(min(e), max(e)) for e in tree}
    pairs = complete_digraph(n) if directed else complete_graph(n)
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return directed, n, sorted(tree | extra)


@given(connected_graphs(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_graph_kinds_find_the_exhaustive_minimum_on_random_graphs(graph, seed):
    directed, n, edges = graph
    vertices = tuple(range(n))
    if directed:
        sdef = Arborescence(vertices, edges, 0)
        best_of = list(all_arborescences(vertices, sdef.key_labels, 0))
    else:
        sdef = SpanningTree(vertices, edges)
        best_of = list(all_spanning_trees(vertices, sdef.key_labels))
    theta = seeded_theta(sdef, seed)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        e = sample_utilities(theta, rng)
        weight = dict(zip(sdef.key_labels, e.values))
        best = min(best_of, key=lambda x: sum(weight[edge] for edge in x))
        assert run_struct(sdef, e)[0] == best


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_graph_kinds_reject_exactly_the_infeasible_graphs(data):
    # A graph admits an arborescence iff its root reaches every vertex, and a
    # spanning tree iff it is connected.  A kind that was built must
    # enumerate without error.
    directed = data.draw(st.booleans(), label="directed")
    n = data.draw(st.integers(1, 5 if directed else 6), label="n")
    pairs = [(u, v) for u in range(n) for v in range(n) if (directed or u < v)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)), label="edges") if pairs else ())
    if directed:
        root = data.draw(st.integers(0, n - 1), label="root")
        feasible = _reference_reach(edges, root) == set(range(n))
        build = lambda: Arborescence(range(n), edges, root)
    else:
        feasible = _reference_reach(edges + [(v, u) for u, v in edges], 0) == set(range(n))
        build = lambda: SpanningTree(range(n), edges)
    if not feasible:
        with pytest.raises(InfeasibleGraphError):
            build()
        return
    sdef = build()
    dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
    assert dist.total_prob == pytest.approx(1.0)


def _ref_spanning_tree_map(sdef, K, roots, winners):
    """The vertex -> component-root rule, filtered through edge labels."""
    u, v = sdef.key_labels[winners[0]]
    ru, rv = roots[u], roots[v]
    merged = min(ru, rv)
    new_roots = {x: merged if r in (ru, rv) else r for x, r in roots.items()}
    keep = frozenset(
        k for k in K
        if new_roots[sdef.key_labels[k][0]] != new_roots[sdef.key_labels[k][1]]
    )
    return keep, new_roots


def _ref_arborescence_split(sdef, K, R):
    """Buckets by the head vertex read from each edge label."""
    assert all(sdef.root not in S for S in R)
    slot = {v: i for i, S in enumerate(R) for v in S}
    buckets = [[] for _ in R]
    for k in sorted(K):
        buckets[slot[sdef.key_labels[k][1]]].append(k)
    return [tuple(b) for b in buckets]


def _ref_arborescence_map(sdef, K, R, winners):
    """Super-node pointers and contracted edges read from edge labels."""
    assert all(sdef.root not in S for S in R)
    slot = {v: i for i, S in enumerate(R) for v in S}
    pointer = {i: slot[sdef.key_labels[w][0]] for i, w in enumerate(winners)
               if sdef.key_labels[w][0] != sdef.root}
    cycle = None
    done = set()
    for start in sorted(pointer):
        path, node = [], start
        while node in pointer and node not in done and node not in path:
            path.append(node)
            node = pointer[node]
        if node in path:
            cycle = path[path.index(node):]
            break
        done.update(path)
    if cycle is None:
        return frozenset(), R
    loop = frozenset().union(*(R[i] for i in cycle))
    keep = frozenset(
        k for k in K
        if not (sdef.key_labels[k][0] in loop and sdef.key_labels[k][1] in loop)
    )
    merged = sorted([S for i, S in enumerate(R) if i not in cycle] + [loop], key=min)
    return keep, tuple(merged)


def _components(vertices, label_of):
    groups = {}
    for x in vertices:
        groups.setdefault(label_of(x), set()).add(x)
    return sorted(sorted(g) for g in groups.values())


SPARSE = (2, 5, 7, 11)  # vertex labels that are not their positions


class TestGraphKindsMatchLabelReference:
    """The index-list split/map of the graph kinds against label-based rules,
    at every state of every enumerated trace."""

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            (range(5), complete_graph(5)),
            (SPARSE, [(SPARSE[i], SPARSE[j]) for i, j in complete_graph(4)]),
        ],
        ids=["K5", "sparse-labels"],
    )
    def test_spanning_tree(self, vertices, edges):
        sdef = SpanningTree(vertices, edges)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        for entry in dist.entries:
            K, R = frozenset(range(sdef.n_keys)), sdef.initial_aux()
            roots = {x: x for x in sdef.vertices}
            for level in entry.trace.levels:
                assert sdef.split(K, R) == [tuple(sorted(K))]
                winners = [w for _pi, w in level]
                ref_K, roots = _ref_spanning_tree_map(sdef, K, roots, winners)
                K, R = sdef.map(K, R, winners)
                assert K == ref_K
                labels = R
                assert _components(range(len(sdef.vertices)), labels.__getitem__) == [
                    [sdef.vertices.index(x) for x in g]
                    for g in _components(sdef.vertices, roots.__getitem__)
                ]
                assert (not K) == (len(set(roots.values())) == 1)

    @pytest.mark.parametrize(
        "vertices, edges, root",
        [
            (range(5), complete_digraph(5), 0),
            (SPARSE, [(SPARSE[i], SPARSE[j]) for i, j in complete_digraph(4)], 7),
        ],
        ids=["K5", "sparse-labels"],
    )
    def test_arborescence(self, vertices, edges, root):
        sdef = Arborescence(vertices, edges, root)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        assert any(len(e.trace.levels) > 1 for e in dist.entries)
        for entry in dist.entries:
            K, R = frozenset(range(sdef.n_keys)), sdef.initial_aux()
            for level in entry.trace.levels:
                assert sdef.split(K, R) == _ref_arborescence_split(sdef, K, R)
                winners = [w for _pi, w in level]
                expected = _ref_arborescence_map(sdef, K, R, winners)
                K, R = sdef.map(K, R, winners)
                assert (K, R) == expected


def _edits(seq, labels) -> set:
    """``seq`` with one item dropped, replaced by one of ``labels`` or one
    inserted, or with two items swapped."""
    seq, n = tuple(seq), len(seq)
    out = {seq[:i] + seq[i + 1:] for i in range(n)}
    out |= {seq[:i] + (x,) + seq[i + j:] for x in labels for i in range(n + 1)
            for j in (0, 1) if i + j <= n}
    for i, j in itertools.combinations(range(n), 2):
        swapped = list(seq)
        swapped[i], swapped[j] = seq[j], seq[i]
        out.add(tuple(swapped))
    return out


def _shapes(n):
    """Every binary tree shape of ``n`` nodes, as nested (left, right) pairs."""
    if n == 0:
        return [None]
    return [(left, right) for i in range(n)
            for left in _shapes(i) for right in _shapes(n - 1 - i)]


def _labelled(shape, keys):
    """``shape`` as a tree whose in-order keys are taken from the iterator ``keys``."""
    if shape is None:
        return None
    left = _labelled(shape[0], keys)
    return TreeNode(next(keys), left, _labelled(shape[1], keys))


def _candidates(sdef, support) -> set:
    """The support and its one-edit neighbours, over every key label plus
    labels that are not keys: every vertex pair, a vertex past the last,
    and an index one past each end."""
    if isinstance(sdef, Matching):
        labels = list(itertools.product(range(sdef.n + 1), repeat=2))
    elif isinstance(sdef, (SpanningTree, Arborescence)):
        labels = list(itertools.product(range(len(sdef.vertices) + 1), repeat=2))
    else:
        labels = range(-1, sdef.n_keys + 1)
    if isinstance(sdef, BinaryTree):
        inorders = _edits(range(sdef.n), labels) | {tuple(range(sdef.n))}
        return {_labelled(shape, iter(keys)) for keys in inorders
                for shape in _shapes(len(keys))}
    if isinstance(sdef, Argsort):
        return support.union(*(_edits(x, labels) for x in support))
    return support.union(*(map(frozenset, _edits(sorted(x), labels)) for x in support))


def _assert_valid_exactly_on_the_support(sdef):
    dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
    support = {entry.structure for entry in dist.entries}
    candidates = _candidates(sdef, support)
    assert support <= candidates
    assert {x for x in candidates if sdef.validate_value(x)} == support


class TestValidate:
    def test_sampled_values_always_validate(self):
        from conftest import representative_instances

        for _name, sdef in representative_instances():
            theta = seeded_theta(sdef, 6)
            rng = np.random.default_rng(6)
            for _ in range(50):
                x, _t = run_struct(sdef, sample_utilities(theta, rng))
                assert sdef.validate_value(x) is True

    @pytest.mark.parametrize("sdef", [pytest.param(sdef, id=name)
                                      for name, sdef in small_instances()])
    def test_accepts_exactly_the_enumerated_values(self, sdef):
        _assert_valid_exactly_on_the_support(sdef)

    def test_valid_spanning_tree(self):
        sdef = SpanningTree((0, 1, 2), complete_graph(3))
        assert sdef.validate_value(frozenset({(0, 1), (1, 2)}))

    def test_double_in_degree_rejected(self):
        bad = frozenset({(0, 1), (2, 1), (1, 2)})
        assert not Arborescence((0, 1, 2), complete_digraph(3), 0).validate_value(bad)

    def test_bad_inorder_rejected(self):
        tree = TreeNode(1, TreeNode(2, None, None), TreeNode(0, None, None))
        assert not BinaryTree(3).validate_value(tree)

    def test_cycle_edge_rejected(self):
        bad = frozenset({(0, 1), (1, 2), (0, 2)})
        assert not SpanningTree(range(4), complete_graph(4)).validate_value(bad)

    def test_unknown_endpoint_rejected_not_raised(self):
        bad = frozenset({(0, 1), (1, 5)})
        assert Arborescence((0, 1, 2), complete_digraph(3), 0).validate_value(bad) is False

    def test_edge_outside_the_graph_rejected(self):
        # Both values have a valid tree's shape on the vertices, but (0, 2)
        # is not an edge of the path 0-1-2.
        path = [(0, 1), (1, 2)]
        assert not SpanningTree(range(3), path).validate_value(frozenset({(0, 2), (1, 2)}))
        assert not Arborescence(range(3), path, 0).validate_value(frozenset({(0, 1), (0, 2)}))

    def test_reversed_edge_label_rejected(self):
        # (1, 0) is not the key label (0, 1), and Hamming distance to a
        # sampled tree counts it as a different edge.
        sdef = SpanningTree(range(3), complete_graph(3))
        assert not sdef.validate_value(frozenset({(1, 0), (1, 2)}))

    def test_wrong_subset_size(self):
        assert not TopK(3, 2).validate_value(frozenset({0}))

    def test_malformed_values_are_rejected_not_raised(self):
        cases = [(TopK(3, 1), 7), (Argsort(3), [0, [1], 2]), (BinaryTree(2), "01"),
                 (BinaryTree(2), TreeNode(0, None, (1, None))), (Matching(2), None)]
        for sdef, value in cases:
            assert sdef.validate_value(value) is False


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_graph_kinds_accept_exactly_the_enumerated_values(graph):
    # Candidates include every vertex pair, so an edge the graph lacks is
    # offered on every sparse graph.
    directed, n, edges = graph
    if directed:
        _assert_valid_exactly_on_the_support(Arborescence(range(n), edges, 0))
    else:
        _assert_valid_exactly_on_the_support(SpanningTree(range(n), edges))


class TestEdgeRule:
    """The graph file and both graph kinds apply one edge rule: known
    endpoints, no undirected self-loop, no repeat (an undirected edge read
    smaller endpoint first).  The file names the line of the edge."""

    @pytest.mark.parametrize("edges, bad_line, message, directed_rejects", [
        ([(0, 1), (0, 9), (1, 2)], 3, r"edge \(0, 9\) has unknown endpoint", True),
        ([(0, 1), (1, 1), (1, 2)], 3, "self-loop on vertex 1", False),
        ([(0, 1), (0, 2), (0, 1)], 4, r"duplicate edge \(0, 1\)", True),
        ([(0, 1), (0, 2), (1, 0)], 4, r"duplicate edge \(0, 1\)", False),
    ], ids=["unknown_endpoint", "undirected_self_loop", "repeat", "reversed_repeat"])
    def test_every_reader_rejects_the_same_edge(self, tmp_path, edges, bad_line, message,
                                                directed_rejects):
        lines = "".join(f"{u} {v}\n" for u, v in edges)
        for directed, build in ((False, lambda: SpanningTree(range(3), edges)),
                                (True, lambda: Arborescence(range(3), edges, 0))):
            path = tmp_path / f"directed_{directed}.txt"
            path.write_text(f"graph {'directed' if directed else 'undirected'} 3\n{lines}")
            if directed and not directed_rejects:
                # A directed self-loop or reversed edge is a distinct edge.
                assert parse_graph_file(str(path))[2] == edges
                assert build().key_labels
                continue
            where = re.escape(f"{path}:{bad_line}: ")
            with pytest.raises(ConfigError, match=rf"^{where}{message}$"):
                parse_graph_file(str(path))
            with pytest.raises(InvalidParameterError, match=rf"^{message}$"):
                build()


class TestHamming:
    def test_sets(self):
        assert hamming_distance(frozenset({1, 2}), frozenset({2, 3})) == 2

    def test_permutations(self):
        assert hamming_distance((0, 1, 2), (0, 2, 1)) == 2

    def test_trees(self):
        a = TreeNode(1, TreeNode(0, None, None), TreeNode(2, None, None))
        b = TreeNode(0, None, TreeNode(1, None, TreeNode(2, None, None)))
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) > 0

    def test_sequences_of_different_lengths_raise(self):
        with pytest.raises(InvalidArgumentError, match="different length"):
            hamming_distance((0, 1, 2), (0, 1))

    @pytest.mark.parametrize("a, b, names", [([0, 1], [1, 0], "list and list"),
                                             ((0, 1), frozenset({0, 1}), "tuple and frozenset"),
                                             (frozenset({0, 1}), (0, 1), "frozenset and tuple"),
                                             (None, None, "NoneType and NoneType"),
                                             # A tree is a tuple: a plain tuple compared as 0.
                                             (TreeNode(0, None, None), (0, None, None),
                                              "TreeNode and tuple"),
                                             ((0, None, None), TreeNode(0, None, None),
                                              "tuple and TreeNode")])
    def test_values_that_cannot_be_compared_raise(self, a, b, names):
        with pytest.raises(InvalidArgumentError, match=f"cannot compare values of types {names}"):
            hamming_distance(a, b)
