"""Tests of the benchmark's own machinery: spans, statistics, checks, inputs."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import stochinv
from perfbench import checks, stats, workloads
from perfbench import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- spans -----------------------------------------------------------------

def test_self_time_subtracts_children_and_bookkeeping():
    # root [0, 100] > child [10, 40] > grandchild [15, 25]; root > child [50, 70]
    parent = np.array([-1, 0, 1, 0])
    depth = np.array([0, 1, 2, 1])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 70])
    excluded = np.array([5, 2, 0, 0])
    self_time, adjusted = tracing.self_and_adjusted(parent, depth, start, end, excluded)
    assert self_time.tolist() == [100 - 30 - 20 - 5, 30 - 10 - 2, 10, 20]
    assert adjusted.tolist() == [100 - 5 - 2, 30 - 2, 10, 20]


def test_wrapped_calls_record_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(inner(x)), "outer")
    assert outer(0) == 2 and len(tracer) == 0  # inactive: nothing recorded
    tracer.active = True
    assert outer(0) == 2
    assert outer(5) == 7
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["outer", "inner", "inner"] * 2
    assert spans["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    assert spans["unit"].tolist() == [0, 0, 0, 3, 3, 3]
    assert spans["depth"].tolist() == [0, 1, 1, 0, 1, 1]
    self_time, _ = tracing.self_and_adjusted(
        spans["parent"], spans["depth"], spans["start"], spans["end"], spans["excluded"])
    duration = spans["end"] - spans["start"]
    assert self_time[0] == duration[0] - duration[1] - duration[2] - spans["excluded"][0]
    assert np.all(self_time >= 0)


def test_install_rebinds_caller_names_and_uninstall_restores_them():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert stochinv.estimators.trace_score is not stochinv.core.trace_score
        assert stochinv.oracle.trace_score is stochinv.estimators.trace_score
    finally:
        tracer.uninstall()
    assert stochinv.estimators.trace_score is stochinv.core.trace_score
    assert stochinv.oracle.trace_score is stochinv.core.trace_score
    assert stochinv.cli.main.__module__ == "stochinv.cli"
    assert "__wrapped__" not in vars(stochinv.TopK.split)


def _traced_warmup(workload_cls, tmp_path):
    workload = workload_cls(3, workloads.Inputs(str(tmp_path)))
    tracer = tracing.Tracer()
    tracer.install()
    calls = workload.warmup()
    try:
        tracer.active = True
        results = [call.run() for call in calls]
        tracer.active = False
    finally:
        tracer.uninstall()
    for call, result in zip(calls, results):
        assert call.verify(result) == (0, None)
    work = sum(call.units for call in calls)
    values, _details = tracing.per_layer_metrics(tracer, work, 1.0, 1.0)
    assert [name for name, _unit in tracing.per_layer_metric_specs()] == list(values)
    return values, work


def test_sample_bypasses_scoring_and_reweighting(tmp_path):
    values, work = _traced_warmup(workloads.Sample, tmp_path)
    assert values["core.run_struct.calls"] == work
    assert values["core.trace_log_prob.calls"] == work
    assert values["core.trace_score.calls"] == 0
    assert values["oracle.TraceTable.log_probs.calls"] == 0
    assert values["cli.main.calls"] == 6
    assert values["cli.output_bytes_per_work"] > 0


def test_enumerate_bypasses_the_forward_path(tmp_path):
    values, work = _traced_warmup(workloads.Enumerate, tmp_path)
    assert work == 3749
    assert values["core.run_struct.calls"] == 0
    assert values["oracle.traces"] == 3749
    assert values["core.events.deterministic_per_work"] > 0  # contractions rewin
    assert 0 < values["oracle.TraceTable.member_share"] < 1


# -- statistics ------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (10000, (99.9, 9990)),
    (1000, (99.0, 990)),
    (999, (90.0, 900)),
    (100, (90.0, 90)),
    (20, (50.0, 10)),
    (19, None),
    (0, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_rank(n) == expected


def test_rate_takes_each_call_at_its_median_time():
    durations = [[3.0] * 6 + [1.0] * 5, [5.0, 4.0, 60.0]]
    assert stats.median_rate([10, 20], durations) == pytest.approx(30 / (3.0 + 5.0))


# -- output checks -----------------------------------------------------------

def test_score_rows_must_sum_to_zero():
    sdef = stochinv.SpanningTree(range(4), workloads.complete_graph(4))
    theta = stochinv.ThetaVector(sdef.key_labels, np.linspace(-0.5, 0.5, sdef.n_keys))
    report = stochinv.grad_t_reinforce(sdef, theta, lambda x: 1.0 + len(x), 8, 0,
                                       keep_per_sample=True)
    rows = report.per_sample
    assert checks.check_gradient_report(report.gradient.values, rows, 1, True) == (0, None)
    corrupted = rows.copy()
    corrupted[3, 0] += 1e-6
    failed, reason = checks.check_gradient_report(report.gradient.values, corrupted, 1, True)
    assert failed == 1 and "row 3" in reason
    assert checks.check_gradient_report(report.gradient.values, corrupted, 1, False) == (0, None)
    corrupted[0, 1] = np.nan
    assert checks.check_gradient_report(report.gradient.values, corrupted, 4, False)[0] == 4


def _fit_csv(losses):
    rows = ["iter,expected_loss,expected_loss_stderr,gradient_norm"]
    rows += [f"{i},{x!r},0,1" for i, x in enumerate(losses)]
    return "\n".join(rows) + "\n"


def test_fit_loss_must_fall():
    assert checks.check_fit_csv(_fit_csv([3.0, 2.0, 1.0]), 2) == (0, None)
    assert checks.check_fit_csv(_fit_csv([3.0, 2.0, 3.5]), 2)[0] == 2
    assert checks.check_fit_csv(_fit_csv([3.0, float("nan"), 1.0]), 2)[0] == 2
    assert checks.check_fit_csv(_fit_csv([3.0, 1.0]), 2)[0] == 2
    n = checks.FIT_REDUCTION_ITERATIONS
    assert checks.check_fit_csv(_fit_csv([3.0] + [2.0] * (n - 1) + [0.2]), n) == (0, None)
    assert checks.check_fit_csv(_fit_csv([3.0] + [2.0] * (n - 1) + [0.5]), n)[0] == n


def test_enumeration_total_prob_must_be_one():
    sdef = stochinv.Argsort(3)
    theta = stochinv.ThetaVector(sdef.key_labels, [0.3, -0.2, 0.1])
    dist = stochinv.enumerate_distribution(sdef, theta)
    gradient = stochinv.exact_gradient(dist, sdef, theta, lambda x: float(x[0]))
    table = stochinv.TraceTable(dist)
    entries = [e.log_prob for e in dist.entries]
    args = (len(dist), dist.total_prob, gradient.values, table.log_probs(theta), entries)
    assert checks.check_enumeration(*args) == (0, None)
    assert checks.check_enumeration(len(dist), dist.total_prob + 1e-6, *args[2:])[0] == 6
    shifted = gradient.values + 1e-3
    assert checks.check_enumeration(len(dist), dist.total_prob, shifted, *args[3:])[0] == 6
    off = np.asarray(entries) + 1e-6
    assert checks.check_enumeration(*args[:3], off, entries)[0] == 6


def test_sample_lines_must_decode_validate_and_have_log_prob_at_most_zero():
    sdef = stochinv.TopK(5, 2)

    def decode(doc):
        return workloads.decode_structure("top_k", doc)

    good = json.dumps({"structure": [0, 3], "trace": [], "log_prob": -1.5})
    assert checks.check_sample_jsonl(good + "\n", 1, decode, sdef.validate_value) == (0, None)
    bad = [
        json.dumps({"structure": [0, 3], "trace": [], "log_prob": 0.5}),
        json.dumps({"structure": [0, 1, 3], "trace": [], "log_prob": -1.0}),
        "{not json",
    ]
    text = "\n".join([good] + bad) + "\n"
    failed, reason = checks.check_sample_jsonl(text, 4, decode, sdef.validate_value)
    assert failed == 3 and reason.startswith("line 2")
    assert checks.check_sample_jsonl(good + "\n", 3, decode, sdef.validate_value)[0] == 2


# -- seeded inputs -----------------------------------------------------------

def _inputs_of(workload_cls, seed, directory):
    directory.mkdir()
    inputs = workloads.Inputs(str(directory))
    workload_cls(seed, inputs)
    files = {name: (directory / name).read_text() for name in sorted(os.listdir(directory))}
    return inputs.digest(), files


@pytest.mark.parametrize("workload_cls", list(workloads.WORKLOADS.values()))
def test_same_seed_same_inputs(workload_cls, tmp_path):
    first = _inputs_of(workload_cls, 7, tmp_path / "a")
    second = _inputs_of(workload_cls, 7, tmp_path / "b")
    assert first[0] == second[0]
    assert [f.replace(str(tmp_path / "a"), "") for f in first[1].values()] == \
        [f.replace(str(tmp_path / "b"), "") for f in second[1].values()]


def test_different_seed_different_theta(tmp_path):
    digest_a, files_a = _inputs_of(workloads.Sample, 1, tmp_path / "a")
    digest_b, files_b = _inputs_of(workloads.Sample, 2, tmp_path / "b")
    assert digest_a != digest_b
    theta_a = json.loads(files_a["theta_spanning_tree.json"])["theta"]
    theta_b = json.loads(files_b["theta_spanning_tree.json"])["theta"]
    assert theta_a != theta_b
    assert all(abs(t) <= workloads.THETA_SCALE for t in theta_a + theta_b)
    estimate_a = _inputs_of(workloads.Estimate, 1, tmp_path / "c")[0]
    estimate_b = _inputs_of(workloads.Estimate, 2, tmp_path / "d")[0]
    assert estimate_a != estimate_b


# -- the benchmark as a program ------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metric_specs()
    assert [m["name"] for m in spec["end_to_end"]] == ["work_per_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
