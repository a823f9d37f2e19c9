"""Command-line front end: enumerate | sample | variance | fit | condcheck.

All commands read a single JSON config document; --seed/--out/--format
override the matching fields.  ``main`` does the setup all commands
share: it loads the config, reads the shared fields (seed, out, format,
-n), builds the structure, spawns the seed streams and builds theta
(rejecting an unmasked |theta| above ``THETA_LIMIT``), then calls the
command named in ``COMMANDS`` and writes the text it returns.
Every input is checked before a command does any work: a graph with no
structure of its kind fails in ``build_structure``, and ``out`` in
``main`` and ``fit.theta_out`` or the theta file next to ``out`` in
``cmd_fit`` must name a file in an existing directory (``as_output_path``).
Config sections are read through ``_object``, paths through ``as_path``
and JSON files through ``_read_json``; a config value quoted in an error
goes through ``bounded_repr``.  ``max_traces`` is the enumeration cap.
Each command builds records, dicts of raw values, which ``_render`` writes
as JSON (the records, or the command's own document) or as CSV through
one cell rule, ``_cell``; ``sample`` writes JSON as JSON lines.
``build_estimator_runner`` checks an estimator section and returns its
``estimators`` function with the section's settings bound by keyword;
``hamming_loss`` is the loss of ``variance`` and ``fit``.
Outputs are machine-readable (JSON or CSV with 17 significant digits) and
byte-identical under a fixed seed.  Exit codes: 0 success, 2 config or
input error (a count past ``COUNT_LIMIT`` or too large to allocate among
them), 1 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import estimators, oracle, structures
from .core import cond_sample, run_struct, trace_log_prob
from .errors import (
    ConfigError,
    InfeasibleGraphError,
    InstanceTooLargeError,
    InvalidControlVariateError,
    InvalidParameterError,
    StochinvError,
    as_count,
    as_float,
    as_int,
    as_output_path,
    as_path,
    bounded_repr,
)
from .perturb import ThetaVector, Utilities, sample_utilities, sample_utilities_matrix

THETA_LIMIT = 700.0  # exp(±theta) and exp(theta) * any unit draw stay normal


# --------------------------------------------------------------------------
# input parsing
# --------------------------------------------------------------------------

def _read_json(path: str, what: str):
    """The JSON document in the file ``path``, which errors call ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # Unreadable, not UTF-8, an integer past the digit limit, or nested
        # deeper than the decoder recurses.
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> dict:
    config = _read_json(path, "config")
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config


def _object(value, field: str) -> dict:
    """``value`` as a config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object, got {bounded_repr(value)}")
    return value


def build_structure(config: dict):
    spec = config.get("structure")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs a 'structure' object with a 'kind'")
    kind = spec["kind"]
    cls = structures.KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown structure kind {bounded_repr(kind)}")
    try:
        return cls.from_config(spec)
    except KeyError as exc:
        raise ConfigError(f"structure kind {kind!r} is missing field {exc}") from exc


def theta_to_json(theta: ThetaVector) -> dict:
    return {
        "keys": list(theta.keys),
        "theta": theta.theta.tolist(),
        "mask": theta.mask.tolist(),
    }


def build_theta(config: dict, sdef, rng) -> ThetaVector:
    spec = _object(config.get("theta", {}), "theta")
    init = spec.get("init", "constant")
    if init == "constant":
        value = as_float(spec.get("value", 0.0), "theta.value")
        return ThetaVector.constant(sdef.key_labels, value)
    if init == "random":
        low = as_float(spec.get("low", -1.0), "theta.low")
        high = as_float(spec.get("high", 1.0), "theta.high")
        if not (low <= high and math.isfinite(high - low)):
            raise ConfigError(
                f"theta.low and theta.high must bound a finite range, got [{low}, {high}]"
            )
        values = rng.uniform(low, high, sdef.n_keys)
        return ThetaVector(sdef.key_labels, values)
    if init == "file":
        path = as_path(spec.get("path"), "theta.path")
        doc = _read_json(path, "theta file")
        if not (isinstance(doc, dict) and isinstance(doc.get("keys"), list)
                and "theta" in doc):
            raise ConfigError(f"theta file {path} must be an object with 'keys' and 'theta'")
        if doc["keys"] != json.loads(json.dumps(sdef.key_labels)):
            raise ConfigError(f"theta file {path}: keys do not match the configured structure")
        # numpy would coerce booleans, strings and nulls; take only JSON's own types.
        values, mask = doc["theta"], doc.get("mask")
        if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
            raise ConfigError(f"theta file {path}: theta must be a list of numbers, "
                              f"got {bounded_repr(values)}")
        if mask is not None and not (isinstance(mask, list) and all(type(m) is bool for m in mask)):
            raise ConfigError(f"theta file {path}: mask must be a list of booleans, "
                              f"got {bounded_repr(mask)}")
        try:
            return ThetaVector(sdef.key_labels, values, mask)
        except (OverflowError, InvalidParameterError) as exc:
            raise ConfigError(f"theta file {path}: {exc}") from exc
    raise ConfigError(f"unknown theta init {bounded_repr(init)}")


def check_theta_limit(labels, values, mask, where: str = "") -> None:
    """Reject an unmasked |theta| above ``THETA_LIMIT``, naming the key."""
    beyond = np.flatnonzero(~mask & (np.abs(values) > THETA_LIMIT))
    if beyond.size:
        i = beyond[0]
        raise ConfigError(
            f"theta of key {_compact_json(labels[i])} is {float(values[i])!r}{where},"
            f" beyond the limit |theta| <= {THETA_LIMIT:g}"
        )


def hamming_loss(sdef, fit):
    """The loss of ``variance`` and ``fit``: Hamming distance to the
    structure ``fit.target`` of the ``fit`` section, or, with ``fit`` None,
    to the structure of the all-smallest-keys run."""
    if fit is None:
        target, _ = run_struct(sdef, np.arange(sdef.n_keys, dtype=float))
    elif "target" not in fit:
        raise ConfigError("fit needs a 'fit.target' structure")
    else:
        try:
            target = sdef.decode_value(fit["target"])
        except (TypeError, ValueError, ConfigError, InvalidParameterError, RecursionError) as exc:
            raise ConfigError(f"malformed fit.target: {exc}") from exc
        if not sdef.validate_value(target):
            raise ConfigError(f"fit.target is not a valid structure: {bounded_repr(fit['target'])}"
                              f" is not a {sdef.kind} of this instance")
    return lambda x: float(structures.hamming_distance(x, target))


def resolve_max_traces(config: dict) -> int:
    if config.get("max_traces") is None:
        return oracle.DEFAULT_MAX_TRACES
    return as_int(config["max_traces"], "max_traces", least=0)


def build_estimator_runner(spec: dict, field: str, n: int, sdef):
    """The ``estimators`` function that ``spec`` names, its settings bound.

    Call it as ``runner(sdef, theta, loss, rng=rng)``; each call spends ``n``
    function evaluations and keeps the per-sample rows.  ``field`` names
    ``spec`` in the config, for errors.  A relax control variate is built
    here, once, with one coefficient per key of ``sdef``.
    """
    kind = _object(spec, field).get("kind")
    if kind == "e_reinforce":
        return functools.partial(estimators.grad_e_reinforce, n_samples=n, keep_per_sample=True)
    if kind == "t_reinforce":
        return functools.partial(estimators.grad_t_reinforce, n_samples=n, keep_per_sample=True)
    if kind in ("t_reinforce_plus", "e_reinforce_plus"):
        k = as_count(spec.get("K", 4), f"{field}.K", least=2)
        if n % k:
            raise ConfigError(
                f"n_samples = {n} is not a multiple of {field}.K = {k}, "
                "so whole leave-one-out batches cannot spend it"
            )
        space = "trace" if kind.startswith("t_") else "utility"
        return functools.partial(estimators.grad_loo, k_samples=k, space=space,
                                 n_batches=n // k, keep_per_sample=True)
    if kind == "relax":
        cv_spec = _object(spec.get("control_variate", {}), f"{field}.control_variate")
        cv_kind = cv_spec.get("kind", "zero")
        if cv_kind == "zero":
            cv = estimators.zero_control_variate()
        elif cv_kind == "quadratic":
            coeff = as_float(cv_spec.get("coeff", 0.1), f"{field}.control_variate.coeff")
            cv = estimators.quadratic_control_variate(np.full(sdef.n_keys, coeff))
        else:
            raise ConfigError(f"unknown control variate kind {bounded_repr(cv_kind)}")
        return functools.partial(estimators.grad_relax, control_variate=cv, n_samples=n,
                                 keep_per_sample=True)
    raise ConfigError(f"unknown estimator kind {bounded_repr(kind)}")


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_output(text: str, path, field: str):
    """Write ``text`` to the file ``path`` (config field ``field``), or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {field} {path}: {exc}") from exc


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _trace_doc(sdef, trace):
    labels = sdef.key_labels
    return [[[pi, labels[w]] for pi, w in level] for level in trace.levels]


def _compact_json(value) -> str:
    """``value`` as JSON with no spaces: a key label, trace or structure cell."""
    return json.dumps(value, separators=(",", ":"))


def _cell(value) -> str:
    """One CSV cell: a float through ``_fmt``, a string as it is, None
    empty, anything else (an int, key label, trace or structure) as
    compact JSON."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, str):
        return value
    return "" if value is None else _compact_json(value)


def _render(fmt: str, header, records, doc=None) -> str:
    """The dicts of raw values ``records`` as CSV with the columns ``header``,
    one ``_cell`` each, or as JSON: ``doc`` if given, else the records."""
    if fmt == "json":
        return dump_json(records if doc is None else doc)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(r.get(column)) for column in header] for r in records)
    return buf.getvalue()


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_enumerate(config: dict, sdef, theta, streams, fmt: str, n) -> str:
    dist = oracle.enumerate_distribution(sdef, theta, resolve_max_traces(config))
    total = dist.total_prob
    if abs(total - 1.0) > 1e-9:
        raise StochinvError(
            f"enumerated probabilities sum to {total!r}, expected 1 within 1e-9"
        )
    entries = [
        {
            "trace": _trace_doc(sdef, e.trace),
            "log_prob": e.log_prob,
            "prob": e.prob,
            "structure": sdef.encode_value(e.structure),
        }
        for e in dist.entries
    ]
    marginals = {_compact_json(k): v for k, v in dist.structure_marginals.items()}
    return _render(fmt, ("trace", "log_prob", "prob", "structure"), entries,
                   {"total_prob": total, "traces": entries, "structure_marginals": marginals})


def cmd_sample(config: dict, sdef, theta, streams, fmt: str, n: int) -> str:
    # One (n, n_keys) draw takes the same numbers as n draws of one row.
    draws = sample_utilities_matrix(theta, n, np.random.default_rng(streams[0]))
    records = []
    for row in draws:
        x, trace = run_struct(sdef, Utilities(theta.keys, row))
        records.append(
            {
                "structure": sdef.encode_value(x),
                "trace": _trace_doc(sdef, trace),
                "log_prob": trace_log_prob(sdef, trace, theta),
            }
        )
    if fmt == "json":  # JSON lines, one record a draw
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return _render(fmt, ("structure", "trace", "log_prob"), records)


def cmd_variance(config: dict, sdef, theta, streams, fmt: str, n) -> str:
    fit = _object(config["fit"], "fit") if "fit" in config else None
    specs = config.get("estimators")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("variance needs an 'estimators' list in the config")
    budget = as_count(config.get("n_samples", 1000), "n_samples", least=1)
    runners = [
        build_estimator_runner(spec, f"estimators[{i}]", budget, sdef)
        for i, spec in enumerate(specs)
    ]
    loss = hamming_loss(sdef, fit)
    header = ("estimator", "coordinate", "mean", "variance", "stderr")
    records = []
    for i, (spec, runner) in enumerate(zip(specs, runners)):
        try:
            report = runner(sdef, theta, loss, rng=np.random.default_rng(streams[0]))
        except InvalidControlVariateError as exc:
            raise ConfigError(f"estimators[{i}].control_variate: {exc}") from exc
        per = report.per_sample
        var = per.var(axis=0, ddof=1) if len(per) > 1 else np.zeros(per.shape[1])
        stderr = np.sqrt(var / len(per))
        for row in zip(sdef.key_labels, report.gradient.values.tolist(), var.tolist(),
                       stderr.tolist()):
            records.append(dict(zip(header, (spec["kind"], *row))))
    return _render(fmt, header, records)


class _Adam:
    """First/second-moment adaptive gradient descent step."""

    eps = 1e-8

    def __init__(self, spec: dict):
        """Read and check the settings of the ``optimizer`` section ``spec``."""
        self.step_size = as_float(spec.get("step_size", 1e-2), "optimizer.step_size")
        if not self.step_size > 0:
            raise ConfigError(f"optimizer.step_size must be positive, got {self.step_size!r}")
        for field, default in (("beta1", 0.9), ("beta2", 0.999)):
            beta = as_float(spec.get(field, default), f"optimizer.{field}")
            if not 0 <= beta < 1:
                raise ConfigError(f"optimizer.{field} must be in [0, 1), got {beta!r}")
            setattr(self, field, beta)
        # Zero moments: 0.0 * beta + x is x, as with arrays of zeros.
        self.m = self.v = 0.0
        self.t = 0

    def update(self, theta_values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta_values - self.step_size * m_hat / (np.sqrt(v_hat) + self.eps)


def cmd_fit(config: dict, sdef, theta, streams, fmt: str, n) -> str:
    work_ss, track_ss = streams
    fit = _object(config.get("fit", {}), "fit")
    loss = hamming_loss(sdef, fit)
    track_samples = as_count(fit.get("track_samples", 32), "fit.track_samples", least=2)
    # The final theta goes to fit.theta_out, else next to the output file.
    out = config.get("out")
    if fit.get("theta_out") is not None:
        theta_out = (as_output_path(fit["theta_out"], "fit.theta_out"), "fit.theta_out")
        if out is not None and os.path.realpath(theta_out[0]) == os.path.realpath(out):
            raise ConfigError(f"fit.theta_out {bounded_repr(theta_out[0])} is the out file")
    elif out is not None:
        theta_out = (as_output_path(out + ".theta.json", "out"), "out")
    else:
        theta_out = None

    opt_spec = _object(config.get("optimizer", {}), "optimizer")
    iterations = as_count(opt_spec.get("iterations", 1000), "optimizer.iterations", least=0)
    optimizer = _Adam(opt_spec)
    est_spec = _object(
        config.get("estimator", {"kind": "t_reinforce_plus", "K": 4}), "estimator"
    )
    # The budget per iteration defaults to K, one leave-one-out batch.
    budget_field = "estimator.n_samples" if "n_samples" in est_spec else "estimator.K"
    per_iter_budget = as_count(est_spec.get("n_samples", est_spec.get("K", 4)), budget_field,
                               least=1)
    runner = build_estimator_runner(est_spec, "estimator", per_iter_budget, sdef)
    max_traces = resolve_max_traces(config)

    # Exact loss tracking when the instance is enumerable, Monte Carlo
    # tracking (with its own sample stream) otherwise.
    table = None
    try:
        dist = oracle.enumerate_distribution(sdef, theta, max_traces)
        table = oracle.TraceTable(dist)
        per_trace_losses = np.array([loss(e.structure) for e in dist.entries])
    except InstanceTooLargeError:
        track_rng = np.random.default_rng(track_ss)

    header = ("iter", "expected_loss", "expected_loss_stderr", "gradient_norm")
    records = []
    values = theta.theta.copy()
    for it in range(iterations + 1):
        current = theta.replace(values)
        if table is not None:
            exp_loss = table.expected(current, per_trace_losses)
            stderr = 0.0
        else:
            rows = sample_utilities_matrix(current, track_samples, track_rng)
            draws = np.array([loss(run_struct(sdef, Utilities(current.keys, row))[0])
                              for row in rows])
            exp_loss = float(draws.mean())
            stderr = float(draws.std(ddof=1) / math.sqrt(track_samples))
        if it == iterations:
            records.append(dict(zip(header, (it, exp_loss, stderr, 0.0))))
            break
        # spawn keys children by a running index: this is spawn(iterations)[it].
        try:
            report = runner(sdef, current, loss, rng=np.random.default_rng(work_ss.spawn(1)[0]))
        except InvalidControlVariateError as exc:
            raise ConfigError(f"estimator.control_variate: {exc}") from exc
        grad = report.gradient.values
        records.append(dict(zip(header, (it, exp_loss, stderr, float(np.linalg.norm(grad))))))
        values = optimizer.update(values, grad)
        check_theta_limit(sdef.key_labels, values, theta.mask, f" at iteration {it + 1}")

    if theta_out is not None:
        write_output(dump_json(theta_to_json(theta.replace(values))), *theta_out)
    return _render(fmt, header, records)


def cmd_condcheck(config: dict, sdef, theta, streams, fmt: str, n: int) -> str:
    rng = np.random.default_rng(streams[0])
    failures = 0
    cond_values = np.empty((n, sdef.n_keys))
    for i in range(n):
        e = sample_utilities(theta, rng)
        _x, trace = run_struct(sdef, e)
        e_cond, _record = cond_sample(sdef, trace, theta, rng)
        _x2, trace2 = run_struct(sdef, e_cond)
        if trace2 != trace:
            failures += 1
        cond_values[i] = e_cond.values
    rates = theta.rates()
    records = [{"field": "roundtrip_failures", "value": failures}]
    for i, label in enumerate(sdef.key_labels):
        p = None
        if not theta.mask[i] and n >= oracle.KS_MIN_SAMPLES:
            _stat, p = oracle.ks_exponential(cond_values[:, i], rates[i])
        records.append({"field": "ks_pvalue", "key": label, "value": p})
    pvalues = {_compact_json(r["key"]): r["value"] for r in records[1:]}
    return _render(fmt, ("field", "key", "value"), records,
                   {"roundtrip_failures": failures, "per_key_ks_pvalues": pvalues})


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

Command = namedtuple("Command", "run default_format takes_n")

COMMANDS = {
    "enumerate": Command(cmd_enumerate, "json", False),
    "sample": Command(cmd_sample, "json", True),
    "variance": Command(cmd_variance, "csv", False),
    "fit": Command(cmd_fit, "csv", False),
    "condcheck": Command(cmd_condcheck, "json", True),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="stochinv",
        description="Sample, enumerate, and fit perturbed recursive structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output path")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None,
            help="override config output format",
        )
        if command.takes_n:
            p.add_argument("-n", "--num", type=int, required=True,
                           help="number of draws")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out"] = args.out
        out = config.get("out")
        if out is not None:
            out = as_output_path(out, "out")
        n = as_count(args.num, "-n", least=0) if command.takes_n else None
        # Only an absent or null format means the command's default.
        fmt = args.format or config.get("format")
        if fmt is None:
            fmt = command.default_format
        elif fmt not in ("json", "csv"):
            raise ConfigError(f"unknown output format {bounded_repr(fmt)}")
        sdef = build_structure(config)
        seed = as_int(config.get("seed", 0), "seed", least=0)
        # Spawned children are keyed by index, so the theta and work streams
        # are the same whether or not a command uses the third (tracking).
        theta_ss, *streams = np.random.SeedSequence(seed).spawn(3)
        theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
        check_theta_limit(sdef.key_labels, theta.theta, theta.mask)
        write_output(command.run(config, sdef, theta, streams, fmt, n), out, "out")
        return 0
    except (ConfigError, InvalidParameterError, InfeasibleGraphError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A count too large to allocate; numpy's message names the size, Python's is empty.
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except StochinvError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
