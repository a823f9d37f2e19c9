"""The command-line front end: formats, determinism, exit codes."""

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochinv
from stochinv import cli, estimators, oracle
from stochinv.cli import _build_parser, main
from stochinv.structures import parse_graph_file
from conftest import complete_digraph


COMMAND_NAMES = ["enumerate", "sample", "variance", "fit", "condcheck"]

# The first library call that does each command's work, for the given test configs.
FIRST_WORK = {
    "enumerate": (oracle, "enumerate_distribution"),
    "sample": (cli, "sample_utilities_matrix"),
    "variance": (estimators, "grad_t_reinforce"),
    "fit": (oracle, "enumerate_distribution"),
    "condcheck": (cli, "sample_utilities"),
}


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def write_graph(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


K4_UNDIRECTED = "graph undirected 4\n" + "\n".join(
    f"{u} {v}" for u in range(4) for v in range(u + 1, 4)
) + "\n"

K3_DIRECTED = "graph directed 3\nroot 0\n" + "\n".join(
    f"{u} {v}" for u in range(3) for v in range(3) if u != v
) + "\n"


LONG_TEXT = "x" * 100_000
LONG_LIST = list(range(20_000))  # 128,890 characters as a repr

# "VALUE" in a case's fields or theta document stands for the bad value:
# the long one given last, or its first two characters or items.
LONG_VALUE_CASES = [
    ({"seed": "VALUE"}, None, "seed", LONG_TEXT),
    ({"max_traces": "VALUE"}, None, "max_traces", LONG_TEXT),
    ({"out": "VALUE"}, None, "out", LONG_LIST),
    ({"format": "VALUE"}, None, "output format", LONG_TEXT),
    ({"structure": {"kind": "VALUE"}}, None, "structure kind", LONG_TEXT),
    ({"structure": {"kind": "top_k", "d": "VALUE", "k": 1}}, None, "structure.d",
     LONG_TEXT),
    ({"structure": {"kind": "spanning_tree", "graph": "VALUE"}}, None,
     "structure.graph", LONG_LIST),
    ({"theta": "VALUE"}, None, "theta", LONG_TEXT),
    ({"theta": {"init": "VALUE"}}, None, "theta init", LONG_TEXT),
    ({"theta": {"value": "VALUE"}}, None, "theta.value", LONG_LIST),
    ({"theta": {"init": "random", "low": "VALUE"}}, None, "theta.low", LONG_TEXT),
    ({"theta": {"init": "file", "path": "VALUE"}}, None, "theta.path", LONG_LIST),
    ({"theta": {"init": "file", "path": "theta.json"}},
     {"keys": [0, 1, 2], "theta": "VALUE"}, "theta must be a list", LONG_TEXT),
    ({"theta": {"init": "file", "path": "theta.json"}},
     {"keys": [0, 1, 2], "theta": [0, 0, 0], "mask": "VALUE"},
     "mask must be a list", LONG_LIST),
    ({"fit": "VALUE"}, None, "fit", LONG_TEXT),
    ({"fit": {"target": "VALUE"}}, None, "fit.target", LONG_TEXT),
    ({"fit": {"target": [0], "track_samples": "VALUE"}}, None, "fit.track_samples",
     LONG_TEXT),
    ({"fit": {"target": [0], "theta_out": "VALUE"}}, None, "fit.theta_out",
     LONG_LIST),
    ({"optimizer": "VALUE"}, None, "optimizer", LONG_TEXT),
    ({"optimizer": {"step_size": "VALUE"}}, None, "optimizer.step_size", LONG_TEXT),
    ({"estimator": "VALUE"}, None, "estimator", LONG_TEXT),
    ({"estimator": {"kind": "VALUE"}}, None, "estimator kind", LONG_TEXT),
    ({"estimator": {"kind": "t_reinforce_plus", "K": "VALUE"}}, None, "estimator.K",
     LONG_TEXT),
    ({"estimator": {"kind": "relax", "control_variate": {"kind": "VALUE"}}}, None,
     "control variate kind", LONG_TEXT),
    ({"estimator": {"kind": "relax",
                    "control_variate": {"kind": "quadratic", "coeff": "VALUE"}}},
     None, "estimator.control_variate.coeff", LONG_TEXT),
]


TOP_K_3 = {"kind": "top_k", "d": 3, "k": 1}


def _past_limit(field, value):
    return f"error: {field} must be at most 1000000000, got {value}"


# (command, config, -n, the start of the one stderr line) per count too large
# for the machine.  Below the count limit, a (10**9, 10**6) table is 7.11 PiB,
# past the address space, so nothing is allocated.  Above it, each case but
# two exited 1 with a numpy or Python traceback, and fit's tracking loop over
# 10**30 draws never ended; -n 10**14 exited 2 with numpy's out-of-memory
# message, and d = 10**18 with an empty one.
TOO_LARGE_COUNTS = {
    "sample": ("sample", {"structure": {"kind": "top_k", "d": 10**6, "k": 1}}, 10**9,
               "error: out of memory: Unable to allocate"),
    "condcheck": ("condcheck", {"structure": {"kind": "top_k", "d": 10**6, "k": 1}}, 10**9,
                  "error: out of memory: Unable to allocate"),
    "sample_n_10**14": ("sample", {"structure": TOP_K_3}, 10**14, _past_limit("-n", 10**14)),
    "sample_n_10**18": ("sample", {"structure": TOP_K_3}, 10**18, _past_limit("-n", 10**18)),
    "sample_n_10**19": ("sample", {"structure": TOP_K_3}, 10**19, _past_limit("-n", 10**19)),
    "condcheck_n_10**18": ("condcheck", {"structure": TOP_K_3}, 10**18,
                           _past_limit("-n", 10**18)),
    **{f"variance_n_samples_{text}": (
        "variance", {"structure": TOP_K_3, "n_samples": n,
                     "estimators": [{"kind": "e_reinforce"}]}, None,
        _past_limit("n_samples", n)) for text, n in [("2**40", 2**40), ("10**30", 10**30)]},
    "variance_K_10**30": ("variance", {"structure": TOP_K_3, "n_samples": 10**30,
                                       "estimators": [{"kind": "t_reinforce_plus",
                                                       "K": 10**30}]},
                          None, _past_limit("n_samples", 10**30)),
    "fit_n_samples_10**30": ("fit", {"structure": TOP_K_3, "fit": {"target": [0]},
                                     "estimator": {"kind": "t_reinforce_plus", "K": 2,
                                                   "n_samples": 10**30}},
                             None, _past_limit("estimator.n_samples", 10**30)),
    "fit_track_samples_10**30": ("fit", {"structure": TOP_K_3, "max_traces": 0,
                                         "fit": {"target": [0], "track_samples": 10**30}},
                                 None, _past_limit("fit.track_samples", 10**30)),
    **{f"enumerate_{kind}_{field}_{text}": (
        "enumerate", {"structure": {"kind": kind, field: n, **extra}}, None,
        _past_limit(f"structure.{field}", n))
       for kind, field, text, n, extra in [("top_k", "d", "2**63", 2**63, {"k": 1}),
                                           ("top_k", "d", "10**18", 10**18, {"k": 1}),
                                           ("argsort", "d", "10**30", 10**30, {}),
                                           ("binary_tree", "n", "10**30", 10**30, {})]},
}


def _put_value(doc, value):
    """``doc`` with each "VALUE" string in it, at any depth of objects,
    replaced by ``value``."""
    if doc == "VALUE":
        return value
    if isinstance(doc, dict):
        return {key: _put_value(item, value) for key, item in doc.items()}
    return doc


class TestGraphFile:
    def test_round_trip_undirected(self, tmp_path):
        path = write_graph(tmp_path, K4_UNDIRECTED)
        directed, nv, edges, root = parse_graph_file(path)
        assert not directed and nv == 4 and len(edges) == 6 and root is None

    def test_root_line(self, tmp_path):
        path = write_graph(tmp_path, K3_DIRECTED)
        directed, nv, edges, root = parse_graph_file(path)
        assert directed and root == 0 and len(edges) == 6

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        plain = write_graph(tmp_path, "graph undirected 3\n0 1\n1 2\n0 2\n", "plain.txt")
        commented = write_graph(
            tmp_path,
            "# a triangle\n\ngraph undirected 3   # header\n0 1\n   # indented\n\n"
            "1 2# no space\n0 2 # last\n# trailing\n",
            "commented.txt",
        )
        assert parse_graph_file(commented) == parse_graph_file(plain)

    def test_config_root_overrides_the_file_root(self, tmp_path):
        graph = write_graph(tmp_path, K3_DIRECTED)  # its root line names 0
        cfg = write_config(tmp_path, structure={"kind": "arborescence", "graph": graph,
                                                "root": 2}, seed=0)
        out = tmp_path / "enum.json"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out)) == 0
        sdef = stochinv.Arborescence(range(3), complete_digraph(3), 2)
        dist = oracle.enumerate_distribution(sdef, stochinv.ThetaVector.constant(sdef.key_labels))
        assert json.loads(out.read_text())["structure_marginals"] == {
            cli._compact_json(x): p for x, p in dist.structure_marginals.items()
        }

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("graph sideways 3\n0 1\n", "1"),
            ("graph undirected 3\n0 9\n", "2"),
            ("graph undirected 3\n0 1\n1 0\n", "3"),
            ("graph undirected 3\nroot 1\n", "2"),
            ("graph undirected 3\n0 1 5\n", "2"),
            ("graph directed 3\nroot 0\n0 1\nroot 1\n1 2\n", "4"),
            ("graph undirected 3\n0 1\n1 1\n", "3"),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, fragment):
        from stochinv.cli import ConfigError

        path = write_graph(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_graph_file(path)
        assert f":{fragment}:" in str(err.value)


    @pytest.mark.parametrize("kind, header", [("spanning_tree", "graph undirected"),
                                              ("arborescence", "graph directed")])
    def test_too_few_edges_is_exit_2_before_any_vertex_work(self, tmp_path, capsys,
                                                            kind, header):
        # Three million vertices and one edge took 1.7 s and 510 MB of
        # per-vertex tables before the graph was found disconnected.
        graph = write_graph(tmp_path, f"{header} 3000000\n0 1\n")
        cfg = write_config(tmp_path, structure={"kind": kind, "graph": graph, "root": 0},
                           seed=0)
        assert run_cli("enumerate", "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {graph}: 1 edges cannot connect 3000000 vertices"]

    BIG = "9" * 4000

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("spanning_tree", f"graph undirected {BIG}\n0 1\n"),
            ("spanning_tree", f"graph undirected 3\n0 {BIG}\n"),
            ("arborescence", f"graph directed 3\nroot {BIG}\n"),
            ("spanning_tree", f"graph undirected 1{BIG}\n{BIG} 1\n1 {BIG}\n"),
        ],
        ids=["vertex_count", "edge_endpoint", "root", "duplicate_edge"],
    )
    def test_long_number_is_cut_in_its_error(self, tmp_path, monkeypatch, capsys,
                                             kind, text):
        # The number went into the message whole: a 4000-digit endpoint
        # gave a stderr line of about 4040 characters.
        monkeypatch.chdir(tmp_path)
        Path("graph.txt").write_text(text)
        cfg = write_config(tmp_path, structure={"kind": kind, "graph": "graph.txt"}, seed=0)
        assert run_cli("enumerate", "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: graph.txt:")
        assert len(lines[0]) <= 200

    @pytest.mark.parametrize(
        "structure, text",
        [
            ({"kind": "arborescence", "root": BIG}, "graph directed 3\n0 1\n0 2\n"),
            ({"kind": "spanning_tree"}, f"graph undirected 1{BIG}\n{BIG} {BIG}\n"),
        ],
        ids=["config_root", "self_loop"],
    )
    def test_long_number_is_cut_in_a_vertex_error(self, tmp_path, capsys, structure, text):
        # A 4000-digit config root went into the constructor's message
        # whole: one stderr line of 4028 characters.
        graph = write_graph(tmp_path, text)
        cfg = write_config(tmp_path, structure={**structure, "graph": graph}, seed=0)
        assert run_cli("enumerate", "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 200

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("spanning_tree", "graph undirected 4\n0 1\n1 2\n0 2\n",
             "graph is disconnected: vertices [3] are not connected to vertex 0"),
            ("arborescence", "graph directed 4\n0 1\n2 3\n3 2\nroot 0\n",
             "vertices [2, 3] are unreachable from root 0"),
        ],
        ids=["disconnected", "unreachable_loop"],
    )
    def test_infeasible_graph_is_exit_2_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                        kind, text, message):
        # The recursion found the graph infeasible only after three million
        # rows of utilities were drawn, at 173 MB peak.
        monkeypatch.setattr(cli, "sample_utilities_matrix", lambda *a, **k: pytest.fail(
            "utilities were drawn for an infeasible graph"))
        graph = write_graph(tmp_path, text)
        cfg = write_config(tmp_path, structure={"kind": kind, "graph": graph}, seed=0)
        assert run_cli("sample", "--config", cfg, "-n", "3000000") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestEnumerateCommand:
    def test_top_k_marginals(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 2},
            theta={"init": "constant", "value": 0.0},
            seed=0,
        )
        out = tmp_path / "enum.json"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert len(doc["traces"]) == 6
        assert doc["total_prob"] == pytest.approx(1.0, abs=1e-9)
        assert sorted(doc["structure_marginals"].values()) == pytest.approx([1 / 3] * 3)

    def test_k_equals_d_single_structure(self, tmp_path):
        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": 3, "k": 3}, seed=0
        )
        out = tmp_path / "enum.json"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert list(doc["structure_marginals"].values()) == pytest.approx([1.0])

    def test_malformed_graph_is_exit_2(self, tmp_path, capsys):
        graph = write_graph(tmp_path, "graph undirected 3\n0 7\n")
        cfg = write_config(
            tmp_path, structure={"kind": "spanning_tree", "graph": graph}, seed=0
        )
        assert run_cli("enumerate", "--config", cfg) == 2
        assert ":2:" in capsys.readouterr().err

    def test_cap_exceeded_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, structure={"kind": "argsort", "d": 6}, max_traces=10, seed=0
        )
        assert run_cli("enumerate", "--config", cfg) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_failed_write_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1}, seed=0)
        assert run_cli("enumerate", "--config", cfg, "--out", "/dev/full") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write out /dev/full: [Errno 28]")

    def test_unnormalized_enumeration_is_exit_1(self, tmp_path, monkeypatch, capsys):
        enumerate_distribution = oracle.enumerate_distribution

        def halved(*args):
            dist = enumerate_distribution(*args)
            entries = tuple(dataclasses.replace(e, prob=e.prob / 2) for e in dist.entries)
            return dataclasses.replace(dist, entries=entries)

        monkeypatch.setattr(oracle, "enumerate_distribution", halved)
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1}, seed=0)
        assert run_cli("enumerate", "--config", cfg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: enumerated probabilities sum to 0.5, expected 1 within 1e-9\n"
        )

    def test_csv_format(self, tmp_path):
        cfg = write_config(
            tmp_path, structure={"kind": "matching", "n": 2}, seed=0
        )
        out = tmp_path / "enum.csv"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out), "--format", "csv") == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert math.fsum(float(r["prob"]) for r in rows) == pytest.approx(1.0)


class TestSampleCommand:
    def test_zero_draws_empty_output(self, tmp_path):
        cfg = write_config(tmp_path, structure={"kind": "argsort", "d": 3}, seed=1)
        out = tmp_path / "samples.jsonl"
        assert run_cli("sample", "--config", cfg, "-n", "0", "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": 4, "k": 2},
            theta={"init": "random", "low": -1, "high": 1}, seed=7,
        )
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("sample", "--config", cfg, "-n", "50", "--out", str(out1)) == 0
        assert run_cli("sample", "--config", cfg, "-n", "50", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_log_probs_match_enumeration(self, tmp_path):
        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": 3, "k": 2}, seed=3
        )
        enum_out = tmp_path / "enum.json"
        samp_out = tmp_path / "samples.jsonl"
        assert run_cli("enumerate", "--config", cfg, "--out", str(enum_out)) == 0
        assert run_cli("sample", "--config", cfg, "-n", "40", "--out", str(samp_out)) == 0
        by_trace = {
            json.dumps(t["trace"]): t["log_prob"]
            for t in json.loads(enum_out.read_text())["traces"]
        }
        for line in samp_out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["log_prob"] == pytest.approx(
                by_trace[json.dumps(rec["trace"])], abs=1e-12
            )

    def test_sample_and_enumerate_print_the_same_log_prob(self, tmp_path):
        # The enumeration added each event in another order of operations:
        # 769 of these 2000 draws printed a log_prob that differed.
        cfg = write_config(
            tmp_path, structure={"kind": "binary_tree", "n": 5},
            theta={"init": "random", "low": -0.7, "high": 0.7}, seed=11,
        )
        enum_out, samp_out = tmp_path / "enum.json", tmp_path / "samples.jsonl"
        assert run_cli("enumerate", "--config", cfg, "--out", str(enum_out)) == 0
        assert run_cli("sample", "--config", cfg, "-n", "2000", "--out", str(samp_out)) == 0
        by_trace = {
            json.dumps(t["trace"]): t["log_prob"]
            for t in json.loads(enum_out.read_text())["traces"]
        }
        draws = [json.loads(line) for line in samp_out.read_text().splitlines()]
        assert [d["log_prob"] for d in draws] == [by_trace[json.dumps(d["trace"])] for d in draws]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_first_m_draws_are_the_draws_of_n_m(self, tmp_path, fmt):
        cfg = write_config(
            tmp_path, structure={"kind": "matching", "n": 3},
            theta={"init": "random", "low": -1, "high": 1}, seed=9,
        )
        outs = {}
        for n in (7, 30):
            out = tmp_path / f"samples_{n}.{fmt}"
            assert run_cli("sample", "--config", cfg, "-n", str(n), "--out", str(out),
                           "--format", fmt) == 0
            outs[n] = out.read_text().splitlines()
        header = 1 if fmt == "csv" else 0
        assert len(outs[7]) == header + 7 and len(outs[30]) == header + 30
        assert outs[30][:header + 7] == outs[7]

    def test_sampling_agrees_with_enumeration_chisquare(self, tmp_path):
        from stochinv import TopK, ThetaVector, chi_square_fit, enumerate_distribution, Trace

        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": 3, "k": 2}, seed=5
        )
        out = tmp_path / "samples.jsonl"
        assert run_cli("sample", "--config", cfg, "-n", "20000", "--out", str(out)) == 0
        counts = {}
        for line in out.read_text().splitlines():
            levels = tuple(
                tuple((pi, w) for pi, w in level)
                for level in json.loads(line)["trace"]
            )
            t = Trace(levels)
            counts[t] = counts.get(t, 0) + 1
        sdef = TopK(3, 2)
        dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
        _stat, p = chi_square_fit(counts, dist)
        assert p > 1e-3


class TestVarianceCommand:
    def test_budget_and_ordering(self, tmp_path):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 5, "k": 2},
            theta={"init": "random", "low": -0.5, "high": 0.5},
            estimators=[{"kind": "e_reinforce"}, {"kind": "t_reinforce"},
                        {"kind": "t_reinforce_plus", "K": 4}],
            n_samples=2000,
            fit={"target": [0, 1]},
            seed=11,
        )
        out = tmp_path / "variance.csv"
        assert run_cli("variance", "--config", cfg, "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3 * 5
        total = {}
        noise = {}
        for row in rows:
            est = row["estimator"]
            total[est] = total.get(est, 0.0) + float(row["variance"])
            noise[est] = noise.get(est, 0.0) + float(row["stderr"]) ** 2
        assert total["t_reinforce"] <= total["e_reinforce"]
        # stderr^2 sums compare final-estimate noise at the matched budget
        assert noise["t_reinforce_plus"] < noise["t_reinforce"]

    def test_constant_loss_means_are_zero(self, tmp_path):
        # d=1, k=1 has a single structure, so the Hamming loss is constant 0
        # and every estimator mean collapses to exactly zero.
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 1, "k": 1},
            estimators=[{"kind": "e_reinforce"}, {"kind": "t_reinforce"}],
            n_samples=500,
            fit={"target": [0]},
            seed=2,
        )
        out = tmp_path / "variance.csv"
        assert run_cli("variance", "--config", cfg, "--out", str(out)) == 0
        for row in csv.DictReader(out.read_text().splitlines()):
            assert float(row["mean"]) == 0.0


class TestJsonTables:
    @pytest.mark.parametrize("structure, labels, target", [
        ({"kind": "top_k", "d": 3, "k": 1}, [0, 1, 2], [0]),
        ({"kind": "spanning_tree", "graph": "GRAPH"},
         [[u, v] for u in range(4) for v in range(u + 1, 4)], [[0, 1], [0, 2], [0, 3]]),
    ], ids=["int_keys", "edge_keys"])
    def test_variance_and_fit_print_numbers_and_labels_as_json_values(
            self, tmp_path, structure, labels, target):
        # Both tables printed every cell as its CSV string: "mean": "0.333...".
        if structure.get("graph") == "GRAPH":
            structure = {**structure, "graph": write_graph(tmp_path, K4_UNDIRECTED)}
        cfg = write_config(tmp_path, structure=structure, n_samples=8,
                           estimators=[{"kind": "e_reinforce"}, {"kind": "t_reinforce"}],
                           optimizer={"iterations": 2}, fit={"target": target}, seed=3)
        tables = {}
        for command in ("variance", "fit"):
            for fmt in ("json", "csv"):
                out = tmp_path / f"{command}.{fmt}"
                assert run_cli(command, "--config", cfg, "--format", fmt, "--out", str(out)) == 0
                tables[command, fmt] = out.read_text()
            # The JSON records, written as CSV, are the CSV table byte for byte.
            header = tables[command, "csv"].splitlines()[0].split(",")
            records = json.loads(tables[command, "json"])
            assert cli._render("csv", header, records) == tables[command, "csv"]
        rows = json.loads(tables["variance", "json"])
        assert [row["coordinate"] for row in rows] == labels * 2
        assert [row["estimator"] for row in rows] == (
            ["e_reinforce"] * len(labels) + ["t_reinforce"] * len(labels))
        for row in rows:
            assert all(type(row[f]) is float for f in ("mean", "variance", "stderr")), row
        rows = json.loads(tables["fit", "json"])
        assert [row["iter"] for row in rows] == [0, 1, 2]
        for row in rows:
            assert all(type(row[f]) is float for f in
                       ("expected_loss", "expected_loss_stderr", "gradient_norm")), row


class TestFitCommand:
    def test_small_fit_improves_and_dumps_theta(self, tmp_path):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            estimator={"kind": "t_reinforce_plus", "K": 4},
            optimizer={"step_size": 0.05, "iterations": 300},
            fit={"target": [2], "theta_out": str(tmp_path / "theta.json")},
            seed=4,
        )
        out = tmp_path / "fit.csv"
        assert run_cli("fit", "--config", cfg, "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 301
        first, last = float(rows[0]["expected_loss"]), float(rows[-1]["expected_loss"])
        assert last < 0.25 * first
        doc = json.loads((tmp_path / "theta.json").read_text())
        assert doc["keys"] == [0, 1, 2]
        assert np.argmin(doc["theta"]) == 2

    def test_fixed_point_does_not_diverge(self, tmp_path):
        # Start with the target already most likely; the loop must hold.
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            theta={"init": "file", "path": str(tmp_path / "theta0.json")},
            estimator={"kind": "t_reinforce_plus", "K": 4},
            optimizer={"step_size": 0.01, "iterations": 200},
            fit={"target": [0]},
            seed=5,
        )
        (tmp_path / "theta0.json").write_text(
            json.dumps({"keys": [0, 1, 2], "theta": [-6.0, 0.0, 0.0],
                        "mask": [False, False, False]})
        )
        out = tmp_path / "fit.csv"
        assert run_cli("fit", "--config", cfg, "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        losses = [float(r["expected_loss"]) for r in rows]
        assert losses[0] < 0.02
        assert max(losses) < 0.1

    def test_each_iteration_spawns_the_matching_child_seed(self, tmp_path, monkeypatch):
        # Spawning one child per iteration gives the children one
        # spawn(iterations) call would: same entropy, same spawn_key.
        seen = []
        build = cli.build_estimator_runner

        def recording(spec, field, n, sdef):
            run = build(spec, field, n, sdef)

            def run_and_record(sdef, theta, loss, rng):
                seen.append(rng.bit_generator.seed_seq)
                return run(sdef, theta, loss, rng=rng)

            return run_and_record

        monkeypatch.setattr(cli, "build_estimator_runner", recording)
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            optimizer={"iterations": 7},
            fit={"target": [2]},
            seed=12,
        )
        assert run_cli("fit", "--config", cfg, "--out", str(tmp_path / "fit.csv")) == 0
        # main spawns (theta, work, tracking) streams; fit steps draw from work.
        expected = np.random.SeedSequence(12).spawn(3)[1].spawn(7)
        assert [(c.entropy, c.spawn_key) for c in seen] == [
            (c.entropy, c.spawn_key) for c in expected
        ]

    @pytest.mark.parametrize("kind, text", [("spanning_tree", "graph undirected 1\n"),
                                            ("arborescence", "graph directed 1\nroot 0\n")])
    def test_one_vertex_graph_fits_at_zero_loss(self, tmp_path, kind, text):
        # A keyless graph has one trace with no events; scoring it took the
        # maximum of an empty row and exited 1 with a traceback.
        graph = write_graph(tmp_path, text)
        cfg = write_config(tmp_path, structure={"kind": kind, "graph": graph},
                           optimizer={"iterations": 3}, fit={"target": []}, seed=0)
        out = tmp_path / "fit.csv"
        assert run_cli("fit", "--config", cfg, "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["expected_loss"] for row in rows] == ["0"] * 4

    def test_monte_carlo_tracking_past_the_trace_cap(self, tmp_path):
        # TopK(6, 3) has 120 traces, past a cap of 10, so fit tracks the
        # loss from its own samples and reports their standard error.
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 6, "k": 3},
                           max_traces=10, optimizer={"iterations": 3},
                           fit={"target": [0, 1, 2]}, seed=4)
        outs = [tmp_path / "fit1.csv", tmp_path / "fit2.csv"]
        for out in outs:
            assert run_cli("fit", "--config", cfg, "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows = list(csv.DictReader(outs[0].read_text().splitlines()))
        assert [row["iter"] for row in rows] == ["0", "1", "2", "3"]
        assert all(float(row["expected_loss_stderr"]) > 0 for row in rows)
        theta = json.loads((tmp_path / "fit1.csv.theta.json").read_text())
        assert theta["keys"] == list(range(6)) and len(theta["theta"]) == 6

    def test_theta_out_naming_the_out_file_is_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        # The fit wrote its theta and then overwrote it with the CSV.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(oracle, "enumerate_distribution", lambda *a, **k: pytest.fail(
            "enumerate_distribution ran before fit.theta_out was checked"))
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1},
                           optimizer={"iterations": 1},
                           fit={"target": [0], "theta_out": "same.out"}, seed=0)
        assert run_cli("fit", "--config", cfg, "--out", str(tmp_path / "same.out")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: fit.theta_out 'same.out' is the out file"]
        assert not (tmp_path / "same.out").exists()

    def test_invalid_target_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            fit={"target": [0, 1]},
            seed=0,
        )
        assert run_cli("fit", "--config", cfg) == 2

    def test_utility_score_fit_is_no_better_in_the_median(self, tmp_path):
        # Same budget, same seeds: the noisier utility-space estimator
        # should not beat the trace-space leave-one-out fit.
        graph = tmp_path / "k5.txt"
        graph.write_text(
            "graph undirected 5\n"
            + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))
        )
        target = [[0, 1], [1, 2], [2, 3], [3, 4]]
        finals = {"t_reinforce_plus": [], "e_reinforce_plus": []}
        for kind in finals:
            for seed in range(5):
                cfg = write_config(
                    tmp_path,
                    name=f"fit_{kind}_{seed}.json",
                    structure={"kind": "spanning_tree", "graph": str(graph)},
                    estimator={"kind": kind, "K": 4},
                    optimizer={"step_size": 0.01, "iterations": 400},
                    fit={"target": target},
                    seed=seed,
                )
                out = tmp_path / f"fit_{kind}_{seed}.csv"
                assert run_cli("fit", "--config", cfg, "--out", str(out)) == 0
                last = out.read_text().splitlines()[-1]
                finals[kind].append(float(last.split(",")[1]))
        assert np.median(finals["e_reinforce_plus"]) >= np.median(
            finals["t_reinforce_plus"]
        )


class TestCondcheckCommand:
    def test_zero_draws_trivial_report(self, tmp_path):
        cfg = write_config(tmp_path, structure={"kind": "argsort", "d": 3}, seed=0)
        out = tmp_path / "cond.json"
        assert run_cli("condcheck", "--config", cfg, "-n", "0", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["roundtrip_failures"] == 0

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1}, seed=1)
        out = tmp_path / "cond.csv"
        assert run_cli("condcheck", "--config", cfg, "-n", "200", "--format", "csv",
                       "--out", str(out)) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[:2] == [["field", "key", "value"], ["roundtrip_failures", "", "0"]]
        assert [row[:2] for row in rows[2:]] == [["ks_pvalue", k] for k in "012"]
        assert all(0.0 < float(row[2]) <= 1.0 for row in rows[2:])

    def test_csv_rows_follow_key_order(self, tmp_path):
        # Keys 10 and 11 sort between 1 and 2 as text.
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 12, "k": 2}, seed=1)
        out = tmp_path / "cond.csv"
        assert run_cli("condcheck", "--config", cfg, "-n", "5", "--format", "csv",
                       "--out", str(out)) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [row[1] for row in rows[2:]] == [str(k) for k in range(12)]

    def test_round_trip_and_marginals(self, tmp_path):
        graph = write_graph(tmp_path, K4_UNDIRECTED)
        cfg = write_config(
            tmp_path,
            structure={"kind": "spanning_tree", "graph": graph},
            theta={"init": "random", "low": -0.5, "high": 0.5},
            seed=6,
        )
        out = tmp_path / "cond.json"
        assert run_cli("condcheck", "--config", cfg, "-n", "2000", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["roundtrip_failures"] == 0
        for p in doc["per_key_ks_pvalues"].values():
            assert p is None or p > 1e-3


class TestConfigHandling:
    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert run_cli("enumerate", "--config", str(tmp_path / "nope.json")) == 2

    def test_invalid_json_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("enumerate", "--config", str(path)) == 2

    @pytest.mark.parametrize("which", ["config", "theta", "graph"])
    def test_non_utf8_input_file_is_exit_2(self, tmp_path, capsys, which):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe{}\n")
        structure = {"kind": "top_k", "d": 3, "k": 1}
        if which == "graph":
            structure = {"kind": "spanning_tree", "graph": str(bad)}
        theta = {"init": "file", "path": str(bad)} if which == "theta" else {}
        cfg = bad if which == "config" else write_config(
            tmp_path, structure=structure, theta=theta, seed=0
        )
        assert run_cli("enumerate", "--config", str(cfg)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and str(bad) in lines[0]

    def test_integer_past_the_digit_limit_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"structure": {"kind": "top_k", "d": 3, "k": 1}, "seed": %s}'
                       % ("9" * 5000))
        assert run_cli("enumerate", "--config", str(cfg)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot read config {cfg}")

    @pytest.mark.parametrize("which", ["config", "theta", "target"])
    def test_deeply_nested_input_is_exit_2(self, tmp_path, capsys, which):
        # Somewhere in this window of depths the JSON decoder, and for the
        # target the recursive binary-tree decoder, runs out of stack,
        # wherever the test's own stack stands.
        theta_file, cfg = tmp_path / "theta.json", tmp_path / "config.json"
        limit = sys.getrecursionlimit()
        errors = []
        for depth in range(limit - 200, limit + 10):
            deep = "[" * depth + "]" * depth
            theta, target = "{}", "[0, null, null]"
            if which == "config":
                theta = '{"value": %s}' % deep
            elif which == "theta":
                theta = json.dumps({"init": "file", "path": str(theta_file)})
                theta_file.write_text('{"keys": %s, "theta": [0, 0, 0]}' % deep)
            else:
                target = "[0, " * depth + "null" + ", null]" * depth
            cfg.write_text('{"structure": {"kind": "binary_tree", "n": 3}, "seed": 0,'
                           ' "theta": %s, "fit": {"target": %s}}' % (theta, target))
            assert run_cli("fit", "--config", str(cfg)) == 2, depth
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (depth, lines[:1])
            errors.append(lines[0])
        assert any("recursion" in e for e in errors)
        if which == "target":
            assert any("malformed fit.target" in e for e in errors)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 4, "k": 2},
            theta={"init": "random", "low": -1, "high": 1},
            seed=1,
        )
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        run_cli("sample", "--config", cfg, "-n", "10", "--out", str(a))
        run_cli("sample", "--config", cfg, "-n", "10", "--out", str(b), "--seed", "99")
        run_cli("sample", "--config", cfg, "-n", "10", "--out", str(c), "--seed", "99")
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_theta_file_round_trip_reproduces_probabilities(self, tmp_path):
        # enumerate with a random theta, dump it via fit, re-enumerate from
        # the dumped file: probabilities must match bit for bit.
        from stochinv.cli import theta_to_json
        from stochinv import ThetaVector, TopK
        import stochinv

        sdef = TopK(3, 2)
        theta = ThetaVector(sdef.key_labels, [0.4, -0.3, 0.2])
        theta_path = tmp_path / "theta.json"
        theta_path.write_text(json.dumps(theta_to_json(theta)))
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 2},
            theta={"init": "file", "path": str(theta_path)},
            seed=0,
        )
        out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out1)) == 0
        assert run_cli("enumerate", "--config", cfg, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        dist = stochinv.enumerate_distribution(sdef, theta)
        enum_probs = sorted(t["prob"] for t in doc["traces"])
        assert enum_probs == sorted(e.prob for e in dist.entries)

    def test_arborescence_from_graph_file(self, tmp_path):
        graph = write_graph(tmp_path, K3_DIRECTED)
        cfg = write_config(
            tmp_path,
            structure={"kind": "arborescence", "graph": graph},
            seed=0,
        )
        out = tmp_path / "enum.json"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["total_prob"] == pytest.approx(1.0, abs=1e-9)
        marg = doc["structure_marginals"]
        assert marg[json.dumps([[0, 1], [0, 2]], separators=(",", ":"))] == pytest.approx(0.25)

    def test_non_integer_structure_field_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": "x", "k": 2}, seed=0
        )
        assert run_cli("enumerate", "--config", cfg) == 2
        assert "structure.d" in capsys.readouterr().err

    def test_non_integer_max_traces_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": 3, "k": 2},
            max_traces="a", seed=0,
        )
        assert run_cli("enumerate", "--config", cfg) == 2
        assert "max_traces" in capsys.readouterr().err

    def test_single_track_sample_is_exit_2(self, tmp_path, capsys):
        # With one draw per iteration the Monte Carlo stderr would be NaN.
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 4, "k": 2},
            optimizer={"iterations": 3},
            fit={"target": [0, 1], "track_samples": 1},
            max_traces=1,
            seed=0,
        )
        out = tmp_path / "fit.csv"
        assert run_cli("fit", "--config", cfg, "--out", str(out)) == 2
        assert "track_samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"theta": {"init": "constant", "value": "z"}}, "theta.value"),
            ({"theta": {"init": "random", "low": "z"}}, "theta.low"),
            ({"optimizer": {"iterations": 2, "step_size": [0.1]}}, "optimizer.step_size"),
            # Booleans ran as 0/1; a non-finite step was blamed on theta.
            ({"theta": {"init": "constant", "value": True}}, "theta.value"),
            ({"theta": {"init": "random", "high": False}}, "theta.high"),
            ({"optimizer": {"iterations": 2, "step_size": "nan"}}, "optimizer.step_size"),
            ({"optimizer": {"iterations": 2, "beta1": math.inf}}, "optimizer.beta1"),
        ],
    )
    def test_non_numeric_float_field_is_exit_2(self, tmp_path, capsys, fields, name):
        config = {
            "structure": {"kind": "top_k", "d": 3, "k": 1},
            "optimizer": {"iterations": 2},
            "fit": {"target": [0]},
            "seed": 0,
        }
        cfg = write_config(tmp_path, **{**config, **fields})
        assert run_cli("fit", "--config", cfg) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("specs", [{"kind": "t_reinforce"}, ["t_reinforce"]])
    def test_estimators_not_a_list_of_objects_is_exit_2(self, tmp_path, capsys, specs):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            estimators=specs,
            n_samples=10,
            seed=0,
        )
        assert run_cli("variance", "--config", cfg) == 2
        assert "estimators" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enumerate", "sample"])
    @pytest.mark.parametrize("kind", ["spanning_tree", "arborescence"])
    @pytest.mark.parametrize("graph", [None, 3])
    def test_non_string_graph_is_exit_2(self, tmp_path, capsys, command, kind, graph):
        # null reached open() as a TypeError; an integer would open a file descriptor.
        cfg = write_config(tmp_path, structure={"kind": kind, "graph": graph}, seed=0)
        extra = ["-n", "1"] if command == "sample" else []
        assert run_cli(command, "--config", cfg, *extra) == 2
        assert "structure.graph" in capsys.readouterr().err

    def test_negative_iterations_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            optimizer={"iterations": -1},
            fit={"target": [0]},
            seed=0,
        )
        assert run_cli("fit", "--config", cfg) == 2
        assert "optimizer.iterations" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["enumerate", "sample", "variance", "fit", "condcheck"]
    )
    @pytest.mark.parametrize("seed", ["s", -1])
    def test_bad_seed_is_exit_2(self, tmp_path, capsys, command, seed):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            estimators=[{"kind": "t_reinforce"}],
            n_samples=4,
            optimizer={"iterations": 1},
            fit={"target": [0]},
            seed=seed,
        )
        extra = ["-n", "1"] if command in ("sample", "condcheck") else []
        assert run_cli(command, "--config", cfg, *extra) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, fields, name",
        [
            ("variance", {"n_samples": "x"}, "n_samples"),
            ("variance", {"estimators": [{"kind": "t_reinforce_plus", "K": "q"}]},
             "estimators[0].K"),
            ("variance", {"estimators": [{"kind": "e_reinforce_plus", "K": 0}]},
             "estimators[0].K"),
            ("variance",
             {"estimators": [{"kind": "relax",
                              "control_variate": {"kind": "quadratic", "coeff": "c"}}]},
             "estimators[0].control_variate.coeff"),
            ("variance",
             {"estimators": [{"kind": "relax", "control_variate": "quadratic"}]},
             "estimators[0].control_variate"),
            ("fit", {"estimator": "t_reinforce"}, "estimator"),
            ("fit", {"estimator": {"kind": "t_reinforce_plus", "K": "q"}}, "estimator.K"),
            ("fit", {"estimator": {"kind": "t_reinforce", "n_samples": "x"}},
             "estimator.n_samples"),
        ],
    )
    def test_bad_estimator_field_is_exit_2(self, tmp_path, capsys, command, fields, name):
        config = {
            "structure": {"kind": "top_k", "d": 3, "k": 1},
            "estimators": [{"kind": "t_reinforce"}],
            "n_samples": 8,
            "optimizer": {"iterations": 1},
            "fit": {"target": [0]},
            "seed": 0,
        }
        cfg = write_config(tmp_path, **{**config, **fields})
        assert run_cli(command, "--config", cfg) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields, first_work, field", [
        ("variance", {"n_samples": 0}, (estimators, "grad_t_reinforce"), "n_samples"),
        ("fit", {"estimator": {"kind": "t_reinforce", "n_samples": 0}},
         (oracle, "enumerate_distribution"), "estimator.n_samples"),
    ], ids=["variance", "fit"])
    def test_zero_budget_is_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                   command, fields, first_work, field):
        # The estimator raised this itself; fit enumerated the instance first.
        monkeypatch.setattr(*first_work, lambda *a, **k: pytest.fail(
            f"{first_work[1]} ran before {field} was checked"))
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1},
                           estimators=[{"kind": "t_reinforce"}],
                           optimizer={"iterations": 1}, fit={"target": [0]}, seed=0,
                           **fields)
        assert run_cli(command, "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {field} must be at least 1, got 0"]

    @pytest.mark.parametrize("command", ["variance", "fit"])
    def test_leave_one_out_budget_below_k_is_exit_2(self, tmp_path, capsys, command):
        # One batch would spend K = 4 evaluations where the budget allows 2.
        spec = {"kind": "t_reinforce_plus", "K": 4}
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            estimators=[spec],
            estimator={**spec, "n_samples": 2},
            n_samples=2,
            optimizer={"iterations": 1},
            fit={"target": [0]},
            seed=0,
        )
        out = tmp_path / "out.csv"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "n_samples = 2" in err and "K = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"structure": {"kind": "top_k", "d": 3.9, "k": 2}}, "structure.d"),
            ({"structure": {"kind": "top_k", "d": 3, "k": True}}, "structure.k"),
            ({"seed": 3.7}, "seed"),
            ({"seed": False}, "seed"),
            ({"max_traces": 100.5}, "max_traces"),
        ],
    )
    def test_non_integral_integer_field_is_exit_2(self, tmp_path, capsys, fields, name):
        # Booleans and fractional numbers were truncated to ints and ran.
        config = {"structure": {"kind": "top_k", "d": 3, "k": 2}, "seed": 0}
        cfg = write_config(tmp_path, **{**config, **fields})
        assert run_cli("enumerate", "--config", cfg) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err

    def test_integral_floats_and_integer_strings_are_accepted(self, tmp_path):
        plain = write_config(
            tmp_path, name="plain.json",
            structure={"kind": "top_k", "d": 3, "k": 2}, seed=3,
        )
        spelled = write_config(
            tmp_path, name="spelled.json",
            structure={"kind": "top_k", "d": 3.0, "k": "2"}, seed="3",
        )
        outs = []
        for cfg in (plain, spelled):
            outs.append(tmp_path / f"{len(outs)}.jsonl")
            assert run_cli("sample", "--config", cfg, "-n", "5", "--out", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("command", ["variance", "fit"])
    @pytest.mark.parametrize("target", [[0], [0, 7]])
    def test_invalid_target_is_exit_2_in_both_commands(self, tmp_path, capsys,
                                                        command, target):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 2},
            estimators=[{"kind": "t_reinforce"}],
            n_samples=4,
            optimizer={"iterations": 1},
            fit={"target": target},
            seed=0,
        )
        assert run_cli(command, "--config", cfg) == 2
        assert "fit.target is not a valid structure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["variance", "fit"])
    @pytest.mark.parametrize(
        "structure, graph, target",
        [
            ({"kind": "top_k", "d": 3, "k": 2}, None, [True, 0.9]),
            ({"kind": "argsort", "d": 3}, None, [0, 1, 2.5]),
            ({"kind": "matching", "n": 2}, None, [[0, 0], [True, 1]]),
            ({"kind": "binary_tree", "n": 2}, None, [0, None, [1.5, None, None]]),
            ({"kind": "spanning_tree"}, K4_UNDIRECTED, [[0, 1], [1, 2], [2, 3.5]]),
            ({"kind": "arborescence"}, K3_DIRECTED, [[0, 1], [True, 2]]),
            ({"kind": "top_k", "d": 3, "k": 2}, None, "01"),
            ({"kind": "argsort", "d": 3}, None, "210"),
            ({"kind": "matching", "n": 2}, None, ["00", "11"]),
            ({"kind": "binary_tree", "n": 1}, None, "0"),
            ({"kind": "spanning_tree"}, K4_UNDIRECTED, [[0, 1], [1, 2], "23"]),
            ({"kind": "arborescence"}, K3_DIRECTED, ["01", "02"]),
        ],
        ids=["top_k", "argsort", "matching", "binary_tree", "spanning_tree", "arborescence",
             "top_k_string", "argsort_string", "matching_string", "binary_tree_string",
             "spanning_tree_string", "arborescence_string"],
    )
    def test_target_label_not_an_integer_is_exit_2(self, tmp_path, capsys, command,
                                                    structure, graph, target):
        # int() truncated these labels to a valid target, and a string was
        # read as a sequence of labels; either way the command ran.
        if graph is not None:
            structure = {**structure, "graph": write_graph(tmp_path, graph)}
        cfg = write_config(
            tmp_path,
            structure=structure,
            estimators=[{"kind": "t_reinforce"}],
            n_samples=4,
            optimizer={"iterations": 1},
            fit={"target": target},
            seed=0,
        )
        assert run_cli(command, "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "malformed fit.target" in lines[0]

    @pytest.mark.parametrize("command", ["variance", "fit"])
    def test_target_labels_take_integral_numbers_and_integer_strings(self, tmp_path,
                                                                      command):
        outs = []
        for target in ([1, 0], ["1", 0.0]):
            cfg = write_config(
                tmp_path,
                structure={"kind": "top_k", "d": 3, "k": 2},
                estimators=[{"kind": "t_reinforce"}],
                n_samples=4,
                optimizer={"iterations": 1},
                fit={"target": target},
                seed=0,
            )
            outs.append(tmp_path / f"{len(outs)}.csv")
            assert run_cli(command, "--config", cfg, "--out", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("command", ["variance", "fit"])
    def test_target_with_unknown_vertex_is_exit_2(self, tmp_path, capsys, command):
        graph = write_graph(tmp_path, K4_UNDIRECTED)
        cfg = write_config(
            tmp_path,
            structure={"kind": "spanning_tree", "graph": graph},
            estimators=[{"kind": "t_reinforce"}],
            n_samples=4,
            optimizer={"iterations": 1},
            fit={"target": [[0, 1], [1, 2], [2, 9]]},
            seed=0,
        )
        assert run_cli(command, "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: fit.target is not a valid structure: [[0, 1], [1, 2], [2, 9]]"
                         " is not a spanning_tree of this instance"]

    @pytest.mark.parametrize(
        "structure, graph, target",
        [
            ({"kind": "top_k", "d": 3, "k": 1}, None, ["9" * 4000]),
            ({"kind": "spanning_tree"}, K4_UNDIRECTED, [[0, 1], [1, 2], [2, "9" * 4000]]),
            ({"kind": "arborescence"}, K3_DIRECTED, [[0, 1], ["9" * 4000, 2]]),
        ],
        ids=["top_k", "spanning_tree", "arborescence"],
    )
    def test_long_target_label_is_cut_in_its_error(self, tmp_path, capsys, structure,
                                                   graph, target):
        # The invalid label went into the message whole: one stderr line of
        # about 4080 characters.
        if graph is not None:
            structure = {**structure, "graph": write_graph(tmp_path, graph)}
        cfg = write_config(tmp_path, structure=structure, optimizer={"iterations": 1},
                           fit={"target": target}, seed=0)
        assert run_cli("fit", "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 200
        assert "fit.target is not a valid structure" in lines[0]

    @pytest.mark.parametrize("command", ["variance", "fit"])
    def test_leave_one_out_budget_not_a_multiple_of_k_is_exit_2(self, tmp_path, capsys,
                                                                 command):
        # Whole batches of K = 4 would spend 4 of the 7 evaluations.
        spec = {"kind": "e_reinforce_plus", "K": 4}
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            estimators=[spec],
            estimator={**spec, "n_samples": 7},
            n_samples=7,
            optimizer={"iterations": 1},
            fit={"target": [0]},
            seed=0,
        )
        out = tmp_path / "out.csv"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "n_samples = 7" in err and "K = 4" in err and "multiple" in err
        assert not out.exists()

    # "TMP" in a field stands for the test's tmp_path; TMP/theta.json holds
    # the theta document of the case.
    @pytest.mark.parametrize(
        "command, fields, theta_doc, name",
        [
            # Non-object sections ran into AttributeError or TypeError.
            *[(command, {"theta": 5}, None, "theta") for command in COMMAND_NAMES],
            ("variance", {"fit": 5}, None, "fit"),
            ("fit", {"fit": 5}, None, "fit"),
            ("fit", {"optimizer": 5}, None, "optimizer"),
            # Numbers opened file descriptors; write failures were tracebacks.
            ("sample", {"out": 6}, None, "out"),
            ("fit", {"fit": {"target": [0], "theta_out": 7}}, None, "fit.theta_out"),
            ("enumerate", {"theta": {"init": "file", "path": 3}}, None, "theta.path"),
            ("enumerate", {"out": "TMP/missing/enum.json"}, None, "out"),
            ("fit", {"out": "TMP/missing/fit.csv"}, None, "out"),
            ("fit", {"fit": {"target": [0], "theta_out": "TMP/missing/theta.json"}},
             None, "fit.theta_out"),
            # A range wider than the largest float overflowed in the generator.
            ("enumerate", {"theta": {"init": "random", "low": -1e308, "high": 1e308}},
             None, "theta.low"),
            # Theta files without keys and theta lists raised KeyError, TypeError
            # or ValueError.
            *[
                ("enumerate", {"theta": {"init": "file", "path": "TMP/theta.json"}},
                 doc, "TMP/theta.json")
                for doc in ([0.0, 0.0, 0.0], {"theta": [0.0, 0.0, 0.0]}, {"keys": [0, 1, 2]},
                            {"keys": [0, 1, 2], "theta": ["a", "b", "c"]})
            ],
            # Theta beyond exp's range failed with a RuntimeWarning and an
            # unnamed utility error, or an internal error in enumeration.
            ("sample", {"theta": {"value": 800}}, None, "key 0"),
            ("enumerate", {"theta": {"value": 1e300}}, None, "key 0"),
            ("condcheck", {"theta": {"init": "file", "path": "TMP/theta.json"}},
             {"keys": [0, 1, 2], "theta": [0.0, -800.0, 0.0]}, "key 1"),
            # A negative cap was reported as exceeded by enumerate and made fit
            # fall back to Monte Carlo tracking.
            ("enumerate", {"max_traces": -1}, None, "max_traces"),
            ("fit", {"max_traces": -1}, None, "max_traces"),
            # A fit iterate past the theta limit ran on, or failed later with a
            # RuntimeWarning and a utility error naming neither theta nor the
            # iteration.
            *[("fit", {"optimizer": {"iterations": 1, "step_size": step}}, None, "iteration 1")
              for step in (703, 1e6)],
            # Adam settings that climb the loss or divide by zero.
            *[("fit", {"optimizer": {"iterations": 1, field: value}}, None, f"optimizer.{field}")
              for field, value in (("step_size", -1), ("beta1", 1.0), ("beta2", 1.0),
                                   ("beta2", 1.5))],
            # Theta file entries were coerced by numpy: 0 and "no" unmasked and
            # masked a key, true ran as theta 1, and an integer too large for
            # a float raised OverflowError.
            *[
                ("enumerate", {"theta": {"init": "file", "path": "TMP/theta.json"}},
                 {"keys": [0, 1, 2], **doc}, name)
                for doc, name in (
                    ({"theta": [0, 0, 0], "mask": [0, "no", 0]},
                     "mask must be a list of booleans"),
                    ({"theta": [True, 0, 0]}, "theta must be a list of numbers"),
                    ({"theta": [10**400, 0, 0]}, "TMP/theta.json"),
                )
            ],
            # Two masked keys in one partition were an internal error.
            *[
                (command, {"theta": {"init": "file", "path": "TMP/theta.json"}},
                 {"keys": [0, 1, 2], "theta": [0, 0, 0], "mask": [True, True, False]},
                 "keys 0 and 1")
                for command in ("enumerate", "sample")
            ],
            # A format that is not absent or null fell back to the default:
            # enumerate exited 0 with nothing on stderr.
            *[("enumerate", {"format": value}, None, "output format")
              for value in ({}, [], 0, False, "")],
        ],
    )
    def test_malformed_input_is_exit_2(self, tmp_path, capsys, command, fields, theta_doc,
                                       name):
        (tmp_path / "theta.json").write_text(json.dumps(theta_doc))
        config = {
            "structure": {"kind": "top_k", "d": 3, "k": 1},
            "estimators": [{"kind": "t_reinforce"}],
            "n_samples": 4,
            "optimizer": {"iterations": 1},
            "fit": {"target": [0]},
            "seed": 0,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**config, **fields}).replace("TMP", str(tmp_path)))
        extra = ["-n", "1"] if command in ("sample", "condcheck") else []
        assert run_cli(command, "--config", str(cfg), *extra) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        name = re.escape(name.replace("TMP", str(tmp_path)))
        assert re.search(rf"(?<!\w){name}(?!\w)", lines[0])

    @pytest.mark.parametrize("command, config, n, line", TOO_LARGE_COUNTS.values(),
                             ids=TOO_LARGE_COUNTS.keys())
    def test_draw_count_too_large_to_allocate_is_exit_2(self, tmp_path, monkeypatch, capsys,
                                                         command, config, n, line):
        # A row-by-row draw raises, so a loop over a huge count fails at once
        # instead of running for ever.
        def one_row(*args):
            raise AssertionError("drew one utility row")

        monkeypatch.setattr(cli, "sample_utilities", one_row)
        cfg = write_config(tmp_path, seed=0, **config)
        extra = [] if n is None else ["-n", str(n)]
        assert run_cli(command, "--config", cfg, *extra) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(line)

    def test_memory_error_without_a_message_is_one_plain_line(self, tmp_path, monkeypatch,
                                                              capsys):
        # Python's own MemoryError has no message: the line ended in a colon.
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "sample_utilities_matrix", exhausted)
        cfg = write_config(tmp_path, structure=TOP_K_3, seed=0)
        assert run_cli("sample", "--config", cfg, "-n", "5") == 2
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

    @pytest.mark.parametrize("fields, theta_doc, name, long", LONG_VALUE_CASES,
                             ids=[case[2].replace(" ", "_") for case in LONG_VALUE_CASES])
    def test_long_config_value_is_cut_in_its_error(self, tmp_path, monkeypatch, capsys,
                                                   fields, theta_doc, name, long):
        monkeypatch.chdir(tmp_path)
        short = long[:2]

        def error_line(value):
            config = {
                "structure": {"kind": "top_k", "d": 3, "k": 1},
                "optimizer": {"iterations": 1},
                "fit": {"target": [0]},
                "seed": 0,
                **_put_value(fields, value),
            }
            Path("config.json").write_text(json.dumps(config))
            Path("theta.json").write_text(json.dumps(_put_value(theta_doc, value)))
            assert run_cli("fit", "--config", "config.json") == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert name in lines[0]
            return lines[0]

        assert len(error_line(long)) <= 200
        # A short value is shown whole, as repr shows it.
        assert error_line(short).endswith(f" {short!r}")

    @pytest.mark.parametrize(
        "command, field", [*[(c, "out") for c in COMMAND_NAMES], ("fit", "fit.theta_out")]
    )
    def test_output_path_in_a_missing_directory_is_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, command, field):
        # A 2000-iteration fit with fit.theta_out in a missing directory ran
        # every iteration, then exited 2 with nothing written.
        owner, name = FIRST_WORK[command]

        def work(*args, **kwargs):
            pytest.fail(f"{name} ran before {field} was checked")

        monkeypatch.setattr(owner, name, work)
        missing = str(tmp_path / "missing" / "output")
        fit = {"target": [0]}
        extra = ["-n", "1"] if command in ("sample", "condcheck") else []
        if field == "out":
            extra += ["--out", missing]
        else:
            fit["theta_out"] = missing
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            estimators=[{"kind": "t_reinforce"}],
            n_samples=4,
            optimizer={"iterations": 1},
            fit=fit,
            seed=0,
        )
        assert run_cli(command, "--config", cfg, *extra) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {field} ")

    def test_theta_next_to_an_out_that_is_a_directory_is_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        # The fit ran every iteration, then could not write its theta.
        (tmp_path / "fit.csv.theta.json").mkdir()
        monkeypatch.setattr(oracle, "enumerate_distribution", lambda *a, **k: pytest.fail(
            "enumerate_distribution ran before the theta path was checked"))
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1},
                           optimizer={"iterations": 1}, fit={"target": [0]}, seed=0)
        assert run_cli("fit", "--config", cfg, "--out", str(tmp_path / "fit.csv")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write out ")

    @pytest.mark.parametrize("command", ["enumerate", "sample", "condcheck"])
    def test_sections_a_command_never_reads_are_ignored(self, tmp_path, command):
        cfg = write_config(
            tmp_path,
            structure={"kind": "top_k", "d": 3, "k": 1},
            fit=5, optimizer=5, estimator=5, seed=0,
        )
        extra = ["-n", "1"] if command in ("sample", "condcheck") else []
        out = tmp_path / "out.json"
        assert run_cli(command, "--config", cfg, *extra, "--out", str(out)) == 0

    # Each case: command, config, graph file text ("GRAPH" in the config
    # names that file) and a fragment of the one error line.
    @pytest.mark.parametrize("command, config, graph, fragment", [
        pytest.param("enumerate", [1, 2], None, "config must be a JSON object",
                     id="config_not_an_object"),
        pytest.param("enumerate", {"structure": {"d": 3}}, None,
                     "'structure' object with a 'kind'", id="structure_without_kind"),
        pytest.param("enumerate", {"structure": {"kind": "top_k", "d": 3}}, None,
                     "structure kind 'top_k' is missing field 'k'", id="top_k_without_k"),
        pytest.param("fit", {"structure": {"kind": "top_k", "d": 3, "k": 1}, "fit": {}}, None,
                     "fit needs a 'fit.target'", id="fit_without_target"),
        *[pytest.param("fit", {"structure": structure, "fit": {"target": target}}, graph,
                       f"fit.target is not a valid structure: {target!r} is not a"
                       f" {structure['kind']} of this instance", id=f"target_{name}")
          for name, structure, graph, target in [
              ("argsort_not_a_permutation", {"kind": "argsort", "d": 3}, None, [0, 0, 1]),
              ("argsort_wrong_length", {"kind": "argsort", "d": 3}, None, [0, 1]),
              ("matching_row_twice", {"kind": "matching", "n": 2}, None, [[0, 0], [0, 1]]),
              ("matching_column_twice", {"kind": "matching", "n": 2}, None, [[0, 0], [1, 0]]),
              ("binary_tree_null", {"kind": "binary_tree", "n": 3}, None, None),
              ("spanning_tree_edge_count", {"kind": "spanning_tree", "graph": "GRAPH"},
               K4_UNDIRECTED, [[0, 1], [1, 2]]),
              ("spanning_tree_not_spanning", {"kind": "spanning_tree", "graph": "GRAPH"},
               K4_UNDIRECTED, [[0, 1], [1, 2], [0, 2]]),
              ("arborescence_edge_into_root", {"kind": "arborescence", "graph": "GRAPH"},
               K3_DIRECTED, [[1, 0], [0, 2]]),
              # The edge (0, 2) is not in the path graph 0-1-2.
              ("spanning_tree_edge_outside_graph", {"kind": "spanning_tree", "graph": "GRAPH"},
               "graph undirected 3\n0 1\n1 2\n", [[0, 2], [1, 2]]),
              ("arborescence_edge_outside_graph", {"kind": "arborescence", "graph": "GRAPH"},
               "graph directed 3\nroot 0\n0 1\n1 2\n", [[0, 1], [0, 2]]),
          ]],
        *[pytest.param("enumerate", {"structure": {"kind": kind, "graph": "GRAPH"}}, text,
                       fragment, id=f"graph_{name}")
          for name, kind, text, fragment in [
              ("vertex_count_not_an_integer", "spanning_tree", "graph undirected x\n0 1\n",
               ":1: vertex count is not an integer"),
              ("zero_vertices", "spanning_tree", "graph undirected 0\n",
               ":1: need at least one vertex"),
              ("root_line_field_count", "arborescence",
               "graph directed 3\nroot 0 1\n0 1\n0 2\n", ":2: expected 'root <r>'"),
              ("root_not_an_integer", "arborescence", "graph directed 3\nroot a\n0 1\n0 2\n",
               ":2: root is not an integer"),
              ("endpoints_not_integers", "spanning_tree", "graph undirected 3\n0 b\n",
               ":2: edge endpoints are not integers"),
              ("only_comments", "spanning_tree", "# one\n\n# two\n", ": empty graph file"),
              ("undirected_self_loop", "spanning_tree", "graph undirected 3\n0 1\n1 1\n1 2\n",
               "self-loop on vertex 1"),
              ("spanning_tree_on_directed", "spanning_tree", K3_DIRECTED,
               "spanning_tree needs an undirected graph"),
              ("arborescence_on_undirected", "arborescence", K4_UNDIRECTED,
               "arborescence needs a directed graph"),
              ("arborescence_without_root", "arborescence", K3_DIRECTED.replace("root 0\n", ""),
               "arborescence needs a root"),
          ]],
        pytest.param("enumerate",
                     {"structure": {"kind": "arborescence", "graph": "GRAPH", "root": 7}},
                     K3_DIRECTED, "root 7 is not a vertex", id="config_root_not_a_vertex"),
        *[pytest.param("enumerate", {"structure": {"kind": kind, field: 0}}, None,
                       f"need {field} >= 1, got 0", id=f"{kind}_{field}_0")
          for kind, field in [("argsort", "d"), ("matching", "n"), ("binary_tree", "n")]],
    ])
    def test_input_fault_is_exit_2_naming_it(self, tmp_path, capsys, command, config, graph,
                                             fragment):
        if graph is not None:
            path = write_graph(tmp_path, graph)
            config = json.loads(json.dumps(config).replace('"GRAPH"', json.dumps(path)))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(command, "--config", str(cfg)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]


def test_masked_key_at_minus_800_leaves_stderr_empty(tmp_path):
    # exp(800) for the masked key printed numpy overflow warnings to stderr.
    # A separate process shows stderr as a user sees it.
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"keys": [0, 1, 2], "theta": [-800.0, 0.1, 0.2],
                                 "mask": [True, False, False]}))
    cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1},
                       theta={"init": "file", "path": str(theta)}, n_samples=20,
                       estimators=[{"kind": "e_reinforce"},
                                   {"kind": "relax", "control_variate": {"kind": "quadratic"}}])
    src = str(Path(stochinv.__file__).resolve().parent.parent)
    for argv in (["variance"], ["condcheck", "-n", "5"]):
        done = subprocess.run(
            [sys.executable, "-m", "stochinv.cli", *argv, "--config", cfg],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (0, ""), argv
        assert done.stdout


def test_overflowing_control_variate_is_exit_2_with_one_line(tmp_path):
    # A coefficient of 1e308 overflowed the quadratic: numpy printed four
    # RuntimeWarnings and the rows were NaN, with exit 0.  A separate
    # process shows stderr as a user sees it.
    cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1}, seed=0,
                       n_samples=8, estimators=[{"kind": "relax", "control_variate":
                                                 {"kind": "quadratic", "coeff": 1e308}}])
    src = str(Path(stochinv.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "stochinv.cli", "variance", "--config", cfg],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: estimators[0].control_variate: "
                           "control variate value or gradient is not finite\n")


def test_overflowing_control_variate_in_fit_names_its_field(tmp_path, capsys):
    # fit printed the same line as variance, naming no config field.
    cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 1}, seed=0,
                       optimizer={"iterations": 2}, fit={"target": [0]},
                       estimator={"kind": "relax", "n_samples": 4, "control_variate":
                                  {"kind": "quadratic", "coeff": 1e308}})
    assert run_cli("fit", "--config", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: estimator.control_variate: control variate value or gradient is not finite"]


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines()]
    sub = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert listed == list(sub.choices) == COMMAND_NAMES


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only the goodness-of-fit helpers
    # (condcheck) use it, so they load it on first call.
    src = str(Path(stochinv.__file__).resolve().parent.parent)
    code = "import sys, stochinv.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_one_process_gives_the_bytes_of_separate_runs(tmp_path):
    # The parser is built once per process; a --format or -n given to one
    # call must not carry over to the next.
    cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 4, "k": 2}, seed=3)
    calls = {
        "sample.csv": ["sample", "--config", cfg, "-n", "5", "--format", "csv"],
        "sample.jsonl": ["sample", "--config", cfg, "-n", "5"],
        "enumerate.json": ["enumerate", "--config", cfg],
    }
    src = str(Path(stochinv.__file__).resolve().parent.parent)
    for name, argv in calls.items():
        assert run_cli(*argv, "--out", str(tmp_path / f"in_process_{name}")) == 0
    for name, argv in calls.items():
        subprocess.run(
            [sys.executable, "-m", "stochinv.cli", *argv,
             "--out", str(tmp_path / f"separate_{name}")],
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        in_process = (tmp_path / f"in_process_{name}").read_bytes()
        assert in_process == (tmp_path / f"separate_{name}").read_bytes(), name
    assert (tmp_path / "in_process_sample.jsonl").read_text().startswith("{")


def test_cli_import_builds_no_parser():
    src = str(Path(stochinv.__file__).resolve().parent.parent)
    code = "import stochinv.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "0"
