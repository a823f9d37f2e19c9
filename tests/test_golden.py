"""Fixed-seed CLI outputs, compared byte for byte with committed files.

The files in ``tests/golden/`` pin every command's output, and with it the
order in which random numbers are consumed.  A change that alters them on
purpose says so in CHANGES.md and rewrites them by running this file as a
script:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import complete_digraph, complete_graph
from stochinv.cli import main

GOLDEN = Path(__file__).parent / "golden"


def graph_file(header, edges):
    return header + "".join(f"{u} {v}\n" for u, v in edges)


GRAPHS = {
    "K4": graph_file("graph undirected 4\n", complete_graph(4)),
    "K3_DIRECTED": graph_file("graph directed 3\nroot 0\n", complete_digraph(3)),
    "K4_DIRECTED": graph_file("graph directed 4\nroot 0\n", complete_digraph(4)),
}
RANDOM_THETA = {"init": "random", "low": -0.7, "high": 0.7}

# name -> (command, config, extra argv, output files besides the main one).
# ``graph`` fields name a graph above and are replaced by its path.
CASES = {
    "enumerate_arborescence.json": (
        "enumerate",
        {"structure": {"kind": "arborescence", "graph": "K3_DIRECTED"},
         "theta": RANDOM_THETA, "seed": 3},
        [], [],
    ),
    "enumerate_argsort.csv": (
        "enumerate",
        {"structure": {"kind": "argsort", "d": 4},
         "theta": RANDOM_THETA, "seed": 7, "format": "csv"},
        [], [],
    ),
    # Binary-tree levels hold the most partitions, so this pins the order
    # in which enumeration branches over a level's events.
    "enumerate_binary_tree.csv": (
        "enumerate",
        {"structure": {"kind": "binary_tree", "n": 5},
         "theta": RANDOM_THETA, "seed": 11, "format": "csv"},
        [], [],
    ),
    "sample_top_k.jsonl": (
        "sample",
        {"structure": {"kind": "top_k", "d": 6, "k": 3},
         "theta": RANDOM_THETA, "seed": 1},
        ["-n", "20"], [],
    ),
    "sample_arborescence.csv": (
        "sample",
        {"structure": {"kind": "arborescence", "graph": "K4_DIRECTED"},
         "theta": RANDOM_THETA, "seed": 2, "format": "csv"},
        ["-n", "40"], [],
    ),
    # Binary trees write TreeNode documents; matchings write tuple labels.
    "sample_binary_tree.jsonl": (
        "sample",
        {"structure": {"kind": "binary_tree", "n": 5},
         "theta": RANDOM_THETA, "seed": 8},
        ["-n", "15"], [],
    ),
    "sample_matching.csv": (
        "sample",
        {"structure": {"kind": "matching", "n": 4},
         "theta": RANDOM_THETA, "seed": 9, "format": "csv"},
        ["-n", "15"], [],
    ),
    "sample_spanning_tree.jsonl": (
        "sample",
        {"structure": {"kind": "spanning_tree", "graph": "K4"},
         "theta": RANDOM_THETA, "seed": 10},
        ["-n", "20"], [],
    ),
    "condcheck_arborescence.json": (
        "condcheck",
        {"structure": {"kind": "arborescence", "graph": "K4_DIRECTED"},
         "theta": RANDOM_THETA, "seed": 4},
        ["-n", "120"], [],
    ),
    # Top-k is the one kind whose unpicked keys draw residuals, so this
    # pins the order of those draws.
    "condcheck_top_k.json": (
        "condcheck",
        {"structure": {"kind": "top_k", "d": 6, "k": 3},
         "theta": RANDOM_THETA, "seed": 15},
        ["-n", "200"], [],
    ),
    "variance_spanning_tree.csv": (
        "variance",
        {"structure": {"kind": "spanning_tree", "graph": "K4"},
         "theta": RANDOM_THETA, "seed": 5, "n_samples": 16,
         "estimators": [
             {"kind": "t_reinforce"},
             {"kind": "t_reinforce_plus", "K": 4},
             {"kind": "relax", "control_variate": {"kind": "quadratic", "coeff": 0.1}},
         ]},
        [], [],
    ),
    # Every estimator kind the CLI builds, each from the same work stream.
    "variance_every_estimator.csv": (
        "variance",
        {"structure": {"kind": "matching", "n": 4},
         "theta": RANDOM_THETA, "seed": 13, "n_samples": 16,
         "estimators": [
             {"kind": "e_reinforce"},
             {"kind": "t_reinforce"},
             {"kind": "e_reinforce_plus", "K": 4},
             {"kind": "t_reinforce_plus", "K": 4},
             {"kind": "relax", "control_variate": {"kind": "zero"}},
             {"kind": "relax", "control_variate": {"kind": "quadratic", "coeff": 0.1}},
         ]},
        [], [],
    ),
    "fit_relax_spanning_tree.csv": (
        "fit",
        {"structure": {"kind": "spanning_tree", "graph": "K4"},
         "theta": RANDOM_THETA, "seed": 14,
         "estimator": {"kind": "relax", "n_samples": 4,
                       "control_variate": {"kind": "quadratic", "coeff": 0.1}},
         "optimizer": {"step_size": 0.05, "iterations": 5},
         "fit": {"target": [[0, 1], [1, 2], [2, 3]]}},
        [], [".theta.json"],
    ),
    "fit_spanning_tree.csv": (
        "fit",
        {"structure": {"kind": "spanning_tree", "graph": "K4"},
         "theta": RANDOM_THETA, "seed": 6,
         "estimator": {"kind": "t_reinforce_plus", "K": 4},
         "optimizer": {"step_size": 0.05, "iterations": 5},
         "fit": {"target": [[0, 1], [1, 2], [2, 3]]}},
        [], [".theta.json"],
    ),
}


def run_case(name, workdir: Path):
    """Run one case in ``workdir``; return {file name: bytes written}."""
    command, config, extra, sidecars = CASES[name]
    config = json.loads(json.dumps(config))
    if "graph" in config["structure"]:
        graph = config["structure"]["graph"]
        path = workdir / f"{graph}.txt"
        path.write_text(GRAPHS[graph])
        config["structure"]["graph"] = str(path)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config))
    out = workdir / name
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    files = {name: out.read_bytes()}
    for suffix in sidecars:
        files[name + suffix] = (workdir / (name + suffix)).read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    for file_name, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / file_name).read_bytes(), file_name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        workdir = Path(tempfile.mkdtemp())
        try:
            for file_name, data in run_case(case, workdir).items():
                (GOLDEN / file_name).write_bytes(data)
                print(f"wrote {GOLDEN / file_name}", file=sys.stderr)
        finally:
            shutil.rmtree(workdir)
