"""Spans at the library's layer boundaries, recorded from outside the library.

``Tracer.install`` rebinds the names that calling modules import (for
instance ``stochinv.estimators.trace_score`` and ``stochinv.oracle.trace_score``)
and wraps ``TraceTable`` and the structure classes' ``split``/``map``/
``combine`` as class attributes; ``uninstall`` puts the originals back.
Each wrapped call records one span: name, start, end, parent span and unit
id, where the unit id is the top-level span the call runs under (one CLI
call, estimator call or oracle call of the benchmark).  Spans are kept in
flat arrays in memory and written out when the run ends.

A wrapper's own bookkeeping (clock reads, appends, counting) happens outside
the span it records but inside its parent's.  The wrapper measures it and
charges it to the parent's ``excluded`` time, so self times and adjusted
durations describe the library rather than the tracer.

Counters are kept at the same boundaries: levels and events walked by
``core``, replays, enumerated traces, ``TraceTable`` cells and CLI output
bytes.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from stochinv import cli, estimators, oracle, structures

from .stats import tail_rank

KINDS = ("top_k", "argsort", "matching", "binary_tree", "spanning_tree", "arborescence")
KIND_CLASSES = (structures.TopK, structures.Argsort, structures.Matching,
                structures.BinaryTree, structures.SpanningTree, structures.Arborescence)
KIND_ID = {cls: i for i, cls in enumerate(KIND_CLASSES)}

# Function boundaries: span name and every (module, attribute) binding that a
# caller looks up.  Bindings of one name hold the same function object.
FUNCTION_BOUNDARIES = (
    ("perturb.sample_utilities", ((cli, "sample_utilities"), (estimators, "sample_utilities"))),
    ("core.run_struct", ((cli, "run_struct"), (estimators, "run_struct"))),
    ("core.trace_log_prob", ((cli, "trace_log_prob"),)),
    ("core.trace_score", ((estimators, "trace_score"), (oracle, "trace_score"))),
    ("core.cond_sample", ((estimators, "cond_sample"), (cli, "cond_sample"))),
    ("core.cond_jacobian_vjp", ((estimators, "cond_jacobian_vjp"),)),
    ("estimators.grad_e_reinforce", ((estimators, "grad_e_reinforce"),)),
    ("estimators.grad_t_reinforce", ((estimators, "grad_t_reinforce"),)),
    ("estimators.grad_relax", ((estimators, "grad_relax"),)),
    ("oracle.enumerate_distribution", ((oracle, "enumerate_distribution"),)),
    ("oracle.exact_gradient", ((oracle, "exact_gradient"),)),
    ("structures.hamming_distance", ((structures, "hamming_distance"),)),
    ("cli.main", ((cli, "main"),)),
)
LOO_SPANS = {"trace": "estimators.grad_loo.trace", "utility": "estimators.grad_loo.utility"}
TABLE_SPANS = (("__init__", "oracle.TraceTable.init"), ("log_probs", "oracle.TraceTable.log_probs"))
STRUCTURE_METHODS = ("split", "map", "combine")

# The boundaries B that get calls / self time / p50 / tail metrics.
BOUNDARIES = (
    "perturb.sample_utilities",
    "core.run_struct", "core.trace_log_prob", "core.trace_score",
    "core.cond_sample", "core.cond_jacobian_vjp",
    "estimators.grad_e_reinforce", "estimators.grad_t_reinforce",
    "estimators.grad_loo.trace", "estimators.grad_loo.utility", "estimators.grad_relax",
    "oracle.enumerate_distribution", "oracle.exact_gradient",
    "oracle.TraceTable.init", "oracle.TraceTable.log_probs",
    "cli.main",
)

def walk_counts(trace):
    """(levels, stochastic events, deterministic events) of one walk of a trace.

    An event is deterministic when its winner already won at an earlier
    event of the trace.
    """
    won = set()
    deterministic = 0
    n_events = 0
    for level in trace.levels:
        for _pi, w in level:
            n_events += 1
            if w in won:
                deterministic += 1
            else:
                won.add(w)
    return len(trace.levels), n_events - deterministic, deterministic


def log_probs_bytes(table) -> int:
    """Bytes ``TraceTable.log_probs`` reads and materializes, from array sizes.

    The boolean membership matrix, three dense float64 temporaries of the
    same shape (the masked scores, the shifted scores and their
    exponentials), five float64 or index vectors per event (winners, trace
    ids, shift, log-sum-exp, event log-prob) and the per-trace output.
    """
    n_events, n_keys = table.members.shape
    return (table.members.nbytes + 3 * 8 * n_events * n_keys
            + 5 * 8 * n_events + 8 * table.n_traces)


def _argv_output_bytes(argv) -> int:
    """Bytes of the files a CLI call wrote: --out and the fit theta sidecar."""
    argv = list(argv)
    if "--out" not in argv:
        return 0
    out = argv[argv.index("--out") + 1]
    total = 0
    for path in (out, out + ".theta.json"):
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


class Tracer:
    """Spans in parallel arrays (one entry per span), and boundary counters.

    Spans are recorded only while ``active`` is true, so output checks made
    between timed calls leave no trace.
    """

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("H")
        self.kind = array("b")
        self.depth = array("B")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("q")
        self.end = array("q")
        self.excluded = array("q")
        self._stack = []
        self.active = False
        self.counters = Counter()
        self._restore = []

    def __len__(self) -> int:
        return len(self.start)

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, fn, name: str, kind_id: int = -1, kind_of_first_arg: bool = False,
             after=None):
        """A stand-in for ``fn`` that records a span per call while active.

        ``after(args, kwargs, result)`` updates counters; it runs outside
        the span, as bookkeeping.
        """
        nid = self._nid(name)
        tracer = self
        stack = self._stack
        names, kinds, depths = self.name, self.kind, self.depth
        parents, units, starts, ends, excluded = (
            self.parent, self.unit, self.start, self.end, self.excluded)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = perf_counter_ns()
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            kinds.append(KIND_ID.get(type(args[0]), -1) if kind_of_first_arg else kind_id)
            depths.append(len(stack))
            parents.append(parent)
            units.append(units[parent] if parent >= 0 else idx)
            starts.append(0)
            ends.append(0)
            excluded.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            if parent >= 0:
                excluded[parent] += (t0 - t_in) + (perf_counter_ns() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        counters = self.counters

        def count_walk(trace):
            levels, stochastic, deterministic = walk_counts(trace)
            counters["core.levels"] += levels
            counters["core.events.stochastic"] += stochastic
            counters["core.events.deterministic"] += deterministic

        def after_run(args, kwargs, result):
            count_walk(result[1])

        def after_replay(args, kwargs, result):
            counters["core.replays"] += 1
            count_walk(args[1])

        def after_enumerate(args, kwargs, result):
            counters["oracle.enumerations"] += 1
            counters["oracle.traces"] += len(result)

        def after_table(args, kwargs, result):
            members = args[0].members
            counters["oracle.TraceTable.tables"] += 1
            counters["oracle.TraceTable.cells"] += members.size
            counters["oracle.TraceTable.member_cells"] += int(members.sum())

        def after_log_probs(args, kwargs, result):
            counters["oracle.TraceTable.log_probs_bytes"] += log_probs_bytes(args[0])

        def after_main(args, kwargs, result):
            counters["cli.output_bytes"] += _argv_output_bytes(args[0])

        after = {
            "core.run_struct": after_run,
            "core.trace_log_prob": after_replay,
            "core.trace_score": after_replay,
            "core.cond_sample": after_replay,
            "oracle.enumerate_distribution": after_enumerate,
            "cli.main": after_main,
        }
        for name, bindings in FUNCTION_BOUNDARIES:
            owner, attr = bindings[0]
            wrapped = self.wrap(getattr(owner, attr), name,
                                kind_of_first_arg=name.startswith("core."),
                                after=after.get(name))
            for owner, attr in bindings:
                self._set(owner, attr, wrapped)

        loo = {space: self.wrap(estimators.grad_loo, span) for space, span in LOO_SPANS.items()}

        def grad_loo(sdef, theta, loss, k_samples, space, *args, **kwargs):
            return loo.get(space, loo["trace"])(sdef, theta, loss, k_samples, space,
                                                *args, **kwargs)

        self._set(estimators, "grad_loo", grad_loo)

        table_after = {"__init__": after_table, "log_probs": after_log_probs}
        for attr, span in TABLE_SPANS:
            self._set(oracle.TraceTable, attr,
                      self.wrap(getattr(oracle.TraceTable, attr), span,
                                after=table_after[attr]))

        for kind_id, (kind, cls) in enumerate(zip(KINDS, KIND_CLASSES)):
            for method in STRUCTURE_METHODS:
                self._set(cls, method, self.wrap(cls.__dict__[method],
                                                 f"structures.{kind}.{method}", kind_id))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The spans as numpy arrays, one entry per field."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "kind": np.array(self.kind, dtype=np.int64),
            "depth": np.array(self.depth, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "unit": np.array(self.unit, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "excluded": np.array(self.excluded, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_and_adjusted(parent, depth, start, end, excluded):
    """Per-span self time and adjusted duration, in the clock's units.

    Self time is the span's duration minus what its child spans cover and
    minus the tracer bookkeeping charged to it.  Children of one span run
    one after another in a single thread, so their coverage is the sum of
    their durations.  The adjusted duration removes the bookkeeping inside
    the span's whole subtree.
    """
    duration = end - start
    n = duration.size
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - covered - excluded
    subtree_excluded = excluded.astype(np.float64)
    for d in range(int(depth.max()) if n else 0, 0, -1):
        at = depth == d
        np.add.at(subtree_excluded, parent[at], subtree_excluded[at])
    return self_time, duration - subtree_excluded


def per_layer_metric_specs():
    """Every per-layer metric name with its unit, in output order."""
    specs = []
    for name in BOUNDARIES:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_us_per_work", "us"),
                  (f"{name}.us_p50", "us"), (f"{name}.us_tail", "us"),
                  (f"{name}.us_tail_pct", "%")]
    for kind in KINDS:
        specs += [(f"core.run_struct.{kind}.us_p50", "us"),
                  (f"core.trace_log_prob.{kind}.us_p50", "us")]
        specs += [(f"structures.{kind}.{m}.self_us_per_work", "us") for m in STRUCTURE_METHODS]
    specs += [
        ("structures.hamming_distance.self_us_per_work", "us"),
        ("core.levels_per_work", "count"),
        ("core.events.stochastic_per_work", "count"),
        ("core.events.deterministic_per_work", "count"),
        ("core.replays_per_work", "count"),
        ("oracle.traces", "count"),
        ("oracle.TraceTable.cells", "count"),
        ("oracle.TraceTable.member_share", "ratio"),
        ("oracle.TraceTable.computed_bytes_per_call", "bytes"),
        ("cli.output_bytes_per_work", "bytes"),
        ("trace.overhead", "ratio"),
    ]
    return specs


def per_layer_metrics(tracer: Tracer, work: int, untraced_rate: float, traced_rate: float):
    """Values of every per-layer metric of a traced run, and details for the
    run metadata (tail percentiles with their counts, self-time shares).

    Times per work divide by the units of work done in the traced run;
    percentiles are of adjusted durations.  A boundary that was never
    called reports 0.
    """
    spans = tracer.arrays()
    self_time, adjusted = self_and_adjusted(
        spans["parent"], spans["depth"], spans["start"], spans["end"], spans["excluded"])
    name_ids = {name: i for i, name in enumerate(tracer.names)}
    work = max(work, 1)
    values = {}
    tails = {}

    def select(name, kind=None):
        chosen = spans["name"] == name_ids.get(name, -1)
        if kind is not None:
            chosen &= spans["kind"] == kind
        return chosen

    def self_us_per_work(name):
        return float(self_time[select(name)].sum()) / 1e3 / work

    def p50_us(durations):
        return float(np.median(durations)) / 1e3 if durations.size else 0.0

    for name in BOUNDARIES:
        durations = np.sort(adjusted[select(name)])
        n = int(durations.size)
        tail = tail_rank(n)
        pct, tail_us = 0.0, 0.0
        if tail is not None:
            pct, rank = tail
            tail_us = float(durations[rank - 1]) / 1e3
            tails[name] = {"percentile": pct, "calls": n, "beyond": n - rank}
        values[f"{name}.calls"] = n
        values[f"{name}.self_us_per_work"] = self_us_per_work(name)
        values[f"{name}.us_p50"] = p50_us(durations)
        values[f"{name}.us_tail"] = tail_us
        values[f"{name}.us_tail_pct"] = pct

    for kind_id, kind in enumerate(KINDS):
        for name in ("core.run_struct", "core.trace_log_prob"):
            values[f"{name}.{kind}.us_p50"] = p50_us(adjusted[select(name, kind_id)])
        for method in STRUCTURE_METHODS:
            name = f"structures.{kind}.{method}"
            values[f"{name}.self_us_per_work"] = self_us_per_work(name)
    values["structures.hamming_distance.self_us_per_work"] = self_us_per_work(
        "structures.hamming_distance")

    c = tracer.counters
    values["core.levels_per_work"] = c["core.levels"] / work
    values["core.events.stochastic_per_work"] = c["core.events.stochastic"] / work
    values["core.events.deterministic_per_work"] = c["core.events.deterministic"] / work
    values["core.replays_per_work"] = c["core.replays"] / work
    values["oracle.traces"] = c["oracle.traces"] / max(c["oracle.enumerations"], 1)
    values["oracle.TraceTable.cells"] = (
        c["oracle.TraceTable.cells"] / max(c["oracle.TraceTable.tables"], 1))
    values["oracle.TraceTable.member_share"] = (
        c["oracle.TraceTable.member_cells"] / max(c["oracle.TraceTable.cells"], 1))
    values["oracle.TraceTable.computed_bytes_per_call"] = (
        c["oracle.TraceTable.log_probs_bytes"]
        / max(int(select("oracle.TraceTable.log_probs").sum()), 1))
    values["cli.output_bytes_per_work"] = c["cli.output_bytes"] / work
    values["trace.overhead"] = untraced_rate / traced_rate if traced_rate > 0 else math.inf

    total_self = float(self_time.sum()) or 1.0
    shares = {name: round(float(self_time[spans["name"] == nid].sum()) / total_self, 4)
              for nid, name in enumerate(tracer.names)}
    details = {"spans": int(self_time.size), "tail": tails, "counters": dict(c),
               "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1]))}
    return values, details
