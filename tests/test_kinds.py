"""Conformance of every registered structure kind.

Each class in ``structures.KINDS`` is built from a literal config spec and
checked against what the CLI needs of it (its kind name, the inverse of
its JSON encoding, value validation) and against the
``StructureDefinition`` contract at every state its recursion reaches.
Its ``sample`` and ``enumerate`` output is checked against a reference
built here from the library calls, one draw or trace at a time.
"""

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stochinv import (
    ThetaVector,
    enumerate_distribution,
    run_struct,
    sample_utilities,
    trace_log_prob,
)
from stochinv.cli import build_structure, main
from stochinv.structures import KINDS
from conftest import seeded_theta

SPECS = {
    "top_k": {"d": 4, "k": 2},
    "argsort": {"d": 4},
    "matching": {"n": 3},
    "binary_tree": {"n": 4},
    "spanning_tree": {
        "graph": "graph undirected 4\n"
        + "".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4))
    },
    "arborescence": {
        "graph": "graph directed 4\nroot 0\n"
        + "".join(f"{u} {v}\n" for u in range(4) for v in range(4) if u != v)
    },
}


@pytest.fixture(params=sorted(KINDS))
def instance(request, tmp_path):
    """(kind, literal spec with graph text written to a file, definition)."""
    kind = request.param
    spec = dict(SPECS[kind])
    if "graph" in spec:
        path = tmp_path / f"{kind}.txt"
        path.write_text(spec["graph"])
        spec["graph"] = str(path)
    return kind, spec, KINDS[kind].from_config(spec)


def test_every_kind_has_a_spec():
    assert sorted(SPECS) == sorted(KINDS)


def test_from_config_returns_the_kinds_class(instance):
    kind, spec, sdef = instance
    assert type(sdef) is KINDS[kind]
    assert KINDS[sdef.kind] is type(sdef)
    assert type(build_structure({"structure": {"kind": kind, **spec}})) is KINDS[kind]


def test_sampled_values_decode_from_their_json_and_validate(instance):
    _kind, _spec, sdef = instance
    theta = seeded_theta(sdef, 8)
    rng = np.random.default_rng(8)
    for _ in range(40):
        x, _trace = run_struct(sdef, sample_utilities(theta, rng))
        doc = json.loads(json.dumps(sdef.encode_value(x)))
        assert sdef.decode_value(doc) == x
        assert sdef.validate_value(x) is True


def test_recursion_contract_at_every_reachable_state(instance):
    # The enumerated traces reach every state the recursion can reach.
    _kind, _spec, sdef = instance
    dist = enumerate_distribution(sdef, ThetaVector.constant(sdef.key_labels))
    for entry in dist.entries:
        K, R = frozenset(range(sdef.n_keys)), sdef.initial_aux()
        for level in entry.trace.levels:
            assert K
            assert isinstance(hash((K, R)), int)
            parts = sdef.split(K, R)
            assert sdef.split(K, R) == parts
            flat = [k for P in parts for k in P]
            assert all(parts) and len(flat) == len(set(flat)) and set(flat) == K
            assert all(w in parts[pi] for pi, w in level)
            K_next, R = sdef.map(K, R, [w for _pi, w in level])
            assert K_next < K
            K = K_next
        assert isinstance(hash((K, R)), int)
        assert not K


def test_readme_lists_exactly_the_registered_kinds():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("Structure kinds", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)` \(", paragraph)) == sorted(KINDS)


# -- CLI output against a per-row reference ------------------------------------

def _masked_theta_config(tmp_path, spec, sdef):
    """A config whose theta file masks key 1 and seeds the other keys."""
    theta = seeded_theta(sdef, 21)
    mask = [k == 1 for k in range(sdef.n_keys)]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({
        "keys": json.loads(json.dumps(sdef.key_labels)),
        "theta": theta.theta.tolist(),
        "mask": mask,
    }))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "structure": {"kind": sdef.kind, **spec},
        "theta": {"init": "file", "path": str(path)},
    }))
    return str(cfg), ThetaVector(sdef.key_labels, theta.theta, mask)


def _trace_labels(sdef, trace):
    """The trace as JSON: each winner looked up in ``key_labels``."""
    return [
        [[pi, json.loads(json.dumps(sdef.key_labels[w]))] for pi, w in level]
        for level in trace.levels
    ]


def _cli_records(tmp_path, argv, fmt):
    """Run the CLI with ``--format fmt``; its JSON text, or its CSV rows."""
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    return text


@pytest.mark.parametrize("n", [25, 0])
def test_sample_matches_a_per_row_reference(instance, tmp_path, n):
    _kind, spec, sdef = instance
    cfg, theta = _masked_theta_config(tmp_path, spec, sdef)
    seed = 17
    # main spawns (theta, work, tracking) streams; sample draws from work.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
    expected = []
    for _ in range(n):
        x, trace = run_struct(sdef, sample_utilities(theta, rng))
        expected.append({
            "structure": json.loads(json.dumps(sdef.encode_value(x))),
            "trace": _trace_labels(sdef, trace),
            "log_prob": trace_log_prob(sdef, trace, theta),
        })
    argv = ["sample", "--config", cfg, "-n", str(n), "--seed", str(seed)]

    lines = _cli_records(tmp_path, argv, "json").splitlines()
    assert [json.loads(line) for line in lines] == expected

    header, *rows = _cli_records(tmp_path, argv, "csv")
    assert header == ["structure", "trace", "log_prob"]
    assert [
        {"structure": json.loads(s), "trace": json.loads(t), "log_prob": float(lp)}
        for s, t, lp in rows
    ] == expected


def test_enumerate_matches_a_per_trace_reference(instance, tmp_path):
    _kind, spec, sdef = instance
    cfg, theta = _masked_theta_config(tmp_path, spec, sdef)
    expected = [
        {
            "trace": _trace_labels(sdef, e.trace),
            "log_prob": e.log_prob,
            "prob": e.prob,
            "structure": json.loads(json.dumps(sdef.encode_value(e.structure))),
        }
        for e in enumerate_distribution(sdef, theta).entries
    ]
    argv = ["enumerate", "--config", cfg]

    assert json.loads(_cli_records(tmp_path, argv, "json"))["traces"] == expected

    header, *rows = _cli_records(tmp_path, argv, "csv")
    assert header == ["trace", "log_prob", "prob", "structure"]
    assert [
        {"trace": json.loads(t), "log_prob": float(lp), "prob": float(p),
         "structure": json.loads(s)}
        for t, lp, p, s in rows
    ] == expected
