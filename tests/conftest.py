"""Shared instance catalog and helpers for the test suite."""

import math

import numpy as np
import pytest
from scipy import stats

from stochinv import (
    Arborescence,
    Argsort,
    BinaryTree,
    InvalidArgumentError,
    Matching,
    SpanningTree,
    ThetaVector,
    TopK,
)


def complete_graph(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_digraph(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def small_instances():
    """Every enumerable instance the acceptance suite sweeps, with a name."""
    out = []
    for d in range(1, 7):
        for k in range(1, d + 1):
            out.append((f"top_k_d{d}_k{k}", TopK(d, k)))
    for d in range(1, 7):
        out.append((f"argsort_d{d}", Argsort(d)))
    for n in range(1, 5):
        out.append((f"matching_n{n}", Matching(n)))
    for n in range(1, 7):
        out.append((f"binary_tree_n{n}", BinaryTree(n)))
    for n in range(2, 6):
        out.append((f"kruskal_K{n}", SpanningTree(range(n), complete_graph(n))))
    for n in range(2, 5):
        out.append((f"cle_K{n}", Arborescence(range(n), complete_digraph(n), 0)))
    return out


def representative_instances():
    """One moderately sized instance per structure family."""
    return [
        ("top_k", TopK(4, 2)),
        ("argsort", Argsort(4)),
        ("matching", Matching(3)),
        ("binary_tree", BinaryTree(4)),
        ("kruskal", SpanningTree(range(4), complete_graph(4))),
        ("cle", Arborescence(range(4), complete_digraph(4), 0)),
    ]


def seeded_theta(sdef, seed, scale=0.7):
    rng = np.random.default_rng(1000 + seed)
    return ThetaVector(sdef.key_labels, rng.uniform(-scale, scale, sdef.n_keys))


def chi_square_fit(observed_counts, dist):
    """Pearson chi-square of trace counts against an enumerated law.

    Cells with expected count below 5 are pooled together (and, if the
    pool itself stays below 5, merged into the smallest remaining cell);
    fewer than two cells fit perfectly.  An observed trace outside the
    support, or no observations at all, raises InvalidArgumentError, so a
    sampler fault fails loudly.  Returns (statistic, p_value).
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
    return statistic, float(stats.chi2.sf(statistic, dof))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
