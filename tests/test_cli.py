"""The command-line front end: formats, determinism, exit codes."""

import argparse
import csv
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
from stochinv import cli
from stochinv.cli import _build_parser, main
from stochinv.structures import parse_graph_file


COMMAND_NAMES = ["enumerate", "sample", "variance", "fit", "condcheck"]


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


class TestGraphFile:
    def test_round_trip_undirected(self, tmp_path):
        path = write_graph(tmp_path, K4_UNDIRECTED)
        directed, nv, edges, root = parse_graph_file(path)
        assert not directed and nv == 4 and len(edges) == 6 and root is None

    def test_root_line(self, tmp_path):
        path = write_graph(tmp_path, K3_DIRECTED)
        directed, nv, edges, root = parse_graph_file(path)
        assert directed and root == 0 and len(edges) == 6

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("graph sideways 3\n0 1\n", "1"),
            ("graph undirected 3\n0 9\n", "2"),
            ("graph undirected 3\n0 1\n1 0\n", "3"),
            ("graph undirected 3\nroot 1\n", "2"),
            ("graph undirected 3\n0 1 5\n", "2"),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, fragment):
        from stochinv.cli import ConfigError

        path = write_graph(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_graph_file(path)
        assert f":{fragment}:" in str(err.value)


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

    def test_cap_exceeded_is_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(
            tmp_path, structure={"kind": "argsort", "d": 6}, seed=0
        )
        monkeypatch.setenv("STOCHINV_MAX_TRACES", "10")
        assert run_cli("enumerate", "--config", cfg) == 2
        assert "cap" in capsys.readouterr().err

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

        def recording(spec, field, n):
            name, run = build(spec, field, n)

            def run_and_record(sdef, theta, loss, rng):
                seen.append(rng.bit_generator.seed_seq)
                return run(sdef, theta, loss, rng)

            return name, run_and_record

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

    def test_non_integer_max_traces_is_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("STOCHINV_MAX_TRACES", raising=False)
        cfg = write_config(
            tmp_path, structure={"kind": "top_k", "d": 3, "k": 2},
            max_traces="a", seed=0,
        )
        assert run_cli("enumerate", "--config", cfg) == 2
        assert "max_traces" in capsys.readouterr().err

    def test_negative_max_traces_env_is_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, structure={"kind": "top_k", "d": 3, "k": 2}, seed=0)
        monkeypatch.setenv("STOCHINV_MAX_TRACES", "-5")
        assert run_cli("enumerate", "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "STOCHINV_MAX_TRACES" in lines[0]

    def test_single_track_sample_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # With one draw per iteration the Monte Carlo stderr would be NaN.
        monkeypatch.delenv("STOCHINV_MAX_TRACES", raising=False)
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
    def test_non_integral_integer_field_is_exit_2(self, tmp_path, monkeypatch, capsys,
                                                   fields, name):
        # Booleans and fractional numbers were truncated to ints and ran.
        monkeypatch.delenv("STOCHINV_MAX_TRACES", raising=False)
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
        assert "unknown endpoint" in capsys.readouterr().err

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
