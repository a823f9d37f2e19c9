"""Seeded inputs and the four workloads of the benchmark.

Everything a workload feeds the library is generated here from the
benchmark seed: theta vectors (uniform on [-THETA_SCALE, THETA_SCALE]),
graph files, theta files and CLI configs.  The library sees only those
generated inputs.

A workload runs in rounds: round 0 is the warm-up, timed rounds count from
1.  A round is a fixed list of ``Call``s (CLI calls, estimator calls,
enumerations), the same in every round but for the seeds.  The caller runs
and times each call on its own and checks its result with ``verify`` after
the clock has stopped.  Library entry points are looked up
on their modules at call time (``cli.main``, ``estimators.grad_loo``, ...),
so a traced run sees the names the tracer rebinds.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, NamedTuple

import numpy as np

from stochinv import ThetaVector, cli, estimators, oracle, run_struct, sample_utilities, structures

from . import checks

THETA_SCALE = 0.7


def complete_graph(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_digraph(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def graph_text(directed: bool, n: int, edges, root=None) -> str:
    lines = [f"graph {'directed' if directed else 'undirected'} {n}"]
    lines += [f"{u} {v}" for u, v in edges]
    if root is not None:
        lines.append(f"root {root}")
    return "\n".join(lines) + "\n"


def _label_json(label):
    return [_label_json(x) for x in label] if isinstance(label, tuple) else label


def call_seed(*parts: int) -> int:
    """A 32-bit seed determined by the benchmark seed and call coordinates."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Inputs:
    """The generated input files of one run, and a digest of all inputs.

    The digest covers file names and contents with the run directory cut
    out of them, plus every theta and target handed to the library
    directly, so equal seeds give equal digests.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._sha = hashlib.sha256()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.record(name, text.replace(self.workdir + os.sep, ""))
        return path

    def record(self, name: str, value) -> None:
        self._sha.update(name.encode())
        if isinstance(value, np.ndarray):
            self._sha.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
        else:
            self._sha.update(str(value).encode())

    def digest(self) -> str:
        return self._sha.hexdigest()


def seeded_theta(sdef, rng) -> ThetaVector:
    return ThetaVector(sdef.key_labels, rng.uniform(-THETA_SCALE, THETA_SCALE, sdef.n_keys))


def theta_file_text(theta: ThetaVector) -> str:
    return json.dumps({
        "keys": [_label_json(k) for k in theta.keys],
        "theta": theta.theta.tolist(),
        "mask": theta.mask.tolist(),
    })


def decode_structure(kind: str, doc):
    """Rebuild a structure value from the CLI's JSON encoding of it."""
    if kind == "top_k":
        return frozenset(int(x) for x in doc)
    if kind == "argsort":
        return tuple(int(x) for x in doc)
    if kind == "binary_tree":
        def node(d):
            if d is None:
                return None
            key, left, right = d
            return structures.TreeNode(int(key), node(left), node(right))
        return node(doc)
    return frozenset((int(u), int(v)) for u, v in doc)


class HammingLoss:
    """Hamming distance to a fixed target, through the module-level name."""

    def __init__(self, target):
        self.target = target

    def __call__(self, value) -> float:
        return float(structures.hamming_distance(value, self.target))


def seeded_target(sdef, theta, rng):
    """A random structure of the instance, the target of a Hamming loss."""
    return run_struct(sdef, sample_utilities(theta, rng))[0]


class Call(NamedTuple):
    """One library call of a round: its units of work, the call itself, and
    the check of its result, returning (failed units, reason or None)."""

    units: int
    run: Callable[[], Any]
    verify: Callable[[Any], tuple]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Sample:
    """``stochinv sample`` in-process on the six ROADMAP-table instances.

    The unit is one draw.  This is the forward path (``sample_utilities``,
    ``run_struct``, ``trace_log_prob``, CLI output) and calls no scoring,
    conditional sampling, estimator or oracle code: it is the bypass for
    changes to those.
    """

    name = "sample"
    draws = 100
    warmup_draws = 20

    def __init__(self, seed: int, inputs: Inputs):
        self.seed = seed
        rng = np.random.default_rng(seed)
        k10 = inputs.write("k10.txt", graph_text(False, 10, complete_graph(10)))
        k8 = inputs.write("k8.txt", graph_text(True, 8, complete_digraph(8), root=0))
        catalog = [
            ({"kind": "top_k", "d": 32, "k": 8}, structures.TopK(32, 8)),
            ({"kind": "argsort", "d": 32}, structures.Argsort(32)),
            ({"kind": "matching", "n": 8}, structures.Matching(8)),
            ({"kind": "binary_tree", "n": 32}, structures.BinaryTree(32)),
            ({"kind": "spanning_tree", "graph": k10},
             structures.SpanningTree(range(10), complete_graph(10))),
            ({"kind": "arborescence", "graph": k8},
             structures.Arborescence(range(8), complete_digraph(8), 0)),
        ]
        self.instances = []
        for spec, sdef in catalog:
            kind = spec["kind"]
            theta_path = inputs.write(
                f"theta_{kind}.json", theta_file_text(seeded_theta(sdef, rng))
            )
            config = {
                "structure": spec,
                "theta": {"init": "file", "path": theta_path},
                "format": "json",
            }
            cfg = inputs.write(f"sample_{kind}.json", json.dumps(config, sort_keys=True))
            self.instances.append((kind, sdef, cfg, inputs.path(f"sample_{kind}.jsonl")))
        self.sizes = {kind: {"keys": sdef.n_keys} for kind, sdef, _c, _o in self.instances}
        self.sizes["draws_per_call"] = self.draws

    def _calls(self, r: int, n: int):
        calls = []
        for i, (kind, sdef, cfg, out) in enumerate(self.instances):
            argv = ["sample", "--config", cfg, "-n", str(n),
                    "--seed", str(call_seed(self.seed, r, i)), "--out", out]

            def verify(code, kind=kind, sdef=sdef, out=out):
                if code != 0:
                    return n, f"stochinv sample exited with {code}"
                return checks.check_sample_jsonl(
                    _read(out), n, lambda doc: decode_structure(kind, doc),
                    sdef.validate_value,
                )

            calls.append(Call(n, lambda argv=argv: cli.main(argv), verify))
        return calls

    def warmup(self):
        return self._calls(0, self.warmup_draws)

    def run_round(self, r: int):
        return self._calls(r, self.draws)


class Estimate:
    """The five gradient estimators called directly on K10 and K8.

    The unit is one gradient sample; a leave-one-out batch of K counts K.
    Scoring and conditional resampling dominate here (``trace_score``,
    ``cond_sample``, ``cond_jacobian_vjp`` and the re-walk of each trace
    that ``run_struct`` already walked); K8 adds contractions and
    deterministic rewins.
    """

    name = "estimate"
    budget = 64
    warmup_budget = 8
    k_samples = 4

    def __init__(self, seed: int, inputs: Inputs):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.instances = []
        for kind, sdef in (
            ("spanning_tree", structures.SpanningTree(range(10), complete_graph(10))),
            ("arborescence", structures.Arborescence(range(8), complete_digraph(8), 0)),
        ):
            theta = seeded_theta(sdef, rng)
            target = seeded_target(sdef, theta, rng)
            inputs.record(f"theta_{kind}", theta.theta)
            inputs.record(f"target_{kind}", sdef.encode_value(target))
            cv = estimators.quadratic_control_variate(np.full(sdef.n_keys, 0.1))
            self.instances.append((sdef, theta, HammingLoss(target), cv))
        self.sizes = {
            "spanning_tree": {"keys": self.instances[0][0].n_keys},
            "arborescence": {"keys": self.instances[1][0].n_keys},
            "budget_per_call": self.budget,
            "loo_k": self.k_samples,
        }

    def _estimators(self, sdef, theta, loss, cv, n):
        """(units per row, rows sum to zero, call(rng)) for each estimator."""
        k = self.k_samples
        return (
            (1, False, lambda rng: estimators.grad_e_reinforce(
                sdef, theta, loss, n, rng, keep_per_sample=True)),
            (1, True, lambda rng: estimators.grad_t_reinforce(
                sdef, theta, loss, n, rng, keep_per_sample=True)),
            (k, True, lambda rng: estimators.grad_loo(
                sdef, theta, loss, k, "trace", rng, n_batches=n // k,
                keep_per_sample=True)),
            (k, False, lambda rng: estimators.grad_loo(
                sdef, theta, loss, k, "utility", rng, n_batches=n // k,
                keep_per_sample=True)),
            (1, False, lambda rng: estimators.grad_relax(
                sdef, theta, loss, cv, rng, n_samples=n, keep_per_sample=True)),
        )

    def _calls(self, r: int, n: int):
        calls = []
        for i, instance in enumerate(self.instances):
            for j, (per_row, zero_sum, estimate) in enumerate(self._estimators(*instance, n)):

                def verify(report, per_row=per_row, zero_sum=zero_sum):
                    return checks.check_gradient_report(
                        report.gradient.values, report.per_sample, per_row, zero_sum
                    )

                seed = call_seed(self.seed, r, i, j)
                calls.append(Call(n, lambda estimate=estimate, seed=seed: estimate(seed), verify))
        return calls

    def warmup(self):
        return self._calls(0, self.warmup_budget)

    def run_round(self, r: int):
        return self._calls(r, self.budget)


class Fit:
    """``stochinv fit`` in-process on K5 with acceptance criterion 10's config.

    The unit is one optimizer iteration.  Most of each iteration is
    ``TraceTable.log_probs`` reweighting the 3000 enumerated K5 traces, so
    this is the one workload where the oracle's reweighting path matters.
    The warm-up is criterion 10's full 2000-iteration fit, checked for a 90%
    loss reduction; timed rounds are shorter fits, so that a run holds
    enough repeats for a median.
    """

    name = "fit"
    iterations = 500
    warmup_iterations = checks.FIT_REDUCTION_ITERATIONS
    target = [[0, 1], [1, 2], [2, 3], [3, 4]]

    def __init__(self, seed: int, inputs: Inputs):
        self.seed = seed
        k5 = inputs.write("k5.txt", graph_text(False, 5, complete_graph(5)))
        self.configs = {}
        for iterations in (self.warmup_iterations, self.iterations):
            config = {
                "structure": {"kind": "spanning_tree", "graph": k5},
                "theta": {"init": "constant", "value": 0.0},
                "estimator": {"kind": "t_reinforce_plus", "K": 4},
                "optimizer": {"step_size": 0.01, "iterations": iterations},
                "fit": {"target": self.target},
                "format": "csv",
            }
            self.configs[iterations] = inputs.write(
                f"fit_{iterations}.json", json.dumps(config, sort_keys=True)
            )
        self.out = inputs.path("fit.csv")
        self.sizes = {"spanning_tree": {"keys": 10, "vertices": 5},
                      "iterations_per_call": self.iterations}

    def _calls(self, r: int, iterations: int):
        argv = ["fit", "--config", self.configs[iterations],
                "--seed", str(call_seed(self.seed, r)), "--out", self.out]

        def verify(code):
            if code != 0:
                return iterations, f"stochinv fit exited with {code}"
            return checks.check_fit_csv(_read(self.out), iterations)

        return [Call(iterations, lambda: cli.main(argv), verify)]

    def warmup(self):
        return self._calls(0, self.warmup_iterations)

    def run_round(self, r: int):
        return self._calls(r, self.iterations)


class Enumerate:
    """Enumeration, exact gradient and TraceTable on three small instances.

    The unit is one enumerated trace.  This measures the oracle DFS and
    ``core`` in replay mode (``trace_score`` over every possible trace) and
    never calls ``run_struct`` in the timed region: it is the bypass for
    forward-path changes.
    """

    name = "enumerate"

    def __init__(self, seed: int, inputs: Inputs):
        rng = np.random.default_rng(seed)
        # The trace counts depend only on each instance's control flow.
        catalog = (
            ("matching", structures.Matching(5), 14400),
            ("arborescence", structures.Arborescence(range(5), complete_digraph(5), 0), 3749),
            ("argsort", structures.Argsort(7), 5040),
        )
        self.instances = []
        for kind, sdef, n_traces in catalog:
            theta = seeded_theta(sdef, rng)
            target = seeded_target(sdef, theta, rng)
            inputs.record(f"theta_{kind}", theta.theta)
            inputs.record(f"target_{kind}", sdef.encode_value(target))
            self.instances.append((sdef, theta, HammingLoss(target), n_traces))
        self.sizes = {kind: {"keys": sdef.n_keys, "traces": n}
                      for (kind, sdef, n) in catalog}

    def _calls(self, instances):
        calls = []
        for sdef, theta, loss, n_traces in instances:

            def call(sdef=sdef, theta=theta, loss=loss):
                dist = oracle.enumerate_distribution(sdef, theta)
                gradient = oracle.exact_gradient(dist, sdef, theta, loss)
                return dist, gradient, oracle.TraceTable(dist)

            def verify(result, theta=theta, n_traces=n_traces):
                dist, gradient, table = result
                if len(dist) != n_traces:
                    return n_traces, f"{len(dist)} traces enumerated, expected {n_traces}"
                return checks.check_enumeration(
                    n_traces, dist.total_prob, gradient.values,
                    table.log_probs(theta), [e.log_prob for e in dist.entries],
                )

            calls.append(Call(n_traces, call, verify))
        return calls

    def warmup(self):
        # The smallest instance; it still takes the contraction path.
        return self._calls(self.instances[1:2])

    def run_round(self, r: int):
        return self._calls(self.instances)


WORKLOADS = {w.name: w for w in (Sample, Estimate, Fit, Enumerate)}
