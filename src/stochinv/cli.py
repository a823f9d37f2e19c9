"""Command-line front end: enumerate | sample | variance | fit | condcheck.

All commands read a single JSON config document; --seed/--out/--format
override the matching fields.  ``main`` does the setup all commands
share: it loads the config, reads the shared fields (seed, out, format,
-n), builds the structure, spawns the seed streams and builds theta
(rejecting an unmasked |theta| above ``THETA_LIMIT``), then calls the
command named in ``COMMANDS`` and writes the text it returns.
Config sections are read through ``_object`` and paths through ``as_path``.
Outputs are machine-readable (JSON or CSV with 17 significant digits) and
byte-identical under a fixed seed.  Exit codes: 0 success, 2 config or
input error, 1 internal invariant violation.
The environment variable STOCHINV_MAX_TRACES overrides the enumeration
cap.
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
    InvalidParameterError,
    StochinvError,
    as_float,
    as_int,
    as_path,
)
from .perturb import ThetaVector, Utilities, sample_utilities, sample_utilities_matrix

MAX_TRACES_ENV = "STOCHINV_MAX_TRACES"
THETA_LIMIT = 700.0  # exp(±theta) and exp(theta) * any unit draw stay normal


# --------------------------------------------------------------------------
# input parsing
# --------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config


def _object(value, field: str) -> dict:
    """``value`` as a config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be an object, got {value!r}")
    return value


def build_structure(config: dict):
    spec = config.get("structure")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs a 'structure' object with a 'kind'")
    kind = spec["kind"]
    cls = structures.KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown structure kind {kind!r}")
    try:
        return cls.from_config(spec)
    except KeyError as exc:
        raise ConfigError(f"structure kind {kind!r} is missing field {exc}") from exc
    except (InvalidParameterError, InfeasibleGraphError) as exc:
        raise ConfigError(str(exc)) from exc


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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read theta file {path}: {exc}") from exc
        if not (isinstance(doc, dict) and isinstance(doc.get("keys"), list)
                and "theta" in doc):
            raise ConfigError(f"theta file {path} must be an object with 'keys' and 'theta'")
        if doc["keys"] != json.loads(json.dumps(sdef.key_labels)):
            raise ConfigError(f"theta file {path}: keys do not match the configured structure")
        try:
            return ThetaVector(sdef.key_labels, doc["theta"], doc.get("mask"))
        except (TypeError, ValueError, InvalidParameterError) as exc:
            raise ConfigError(f"theta file {path}: {exc}") from exc
    raise ConfigError(f"unknown theta init {init!r}")


def check_theta_limit(labels, values, mask, where: str = "") -> None:
    """Reject an unmasked |theta| above ``THETA_LIMIT``, naming the key."""
    beyond = np.flatnonzero(~mask & (np.abs(values) > THETA_LIMIT))
    if beyond.size:
        i = beyond[0]
        raise ConfigError(
            f"theta of key {_label_key(labels[i])} is {float(values[i])!r}{where},"
            f" beyond the limit |theta| <= {THETA_LIMIT:g}"
        )


def decode_target(fit: dict, sdef):
    """The structure the ``fit`` section names in ``fit.target``."""
    if "target" not in fit:
        raise ConfigError("fit needs a 'fit.target' structure")
    try:
        target = sdef.decode_value(fit["target"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed fit.target: {exc}") from exc
    check = sdef.validate_value(target)
    if not check:
        raise ConfigError(f"fit.target is not a valid structure: {check.reason}")
    return target


def resolve_max_traces(config: dict) -> int:
    env = os.environ.get(MAX_TRACES_ENV)
    if env is not None:
        value, field = env, MAX_TRACES_ENV
    elif config.get("max_traces") is not None:
        value, field = config["max_traces"], "max_traces"
    else:
        return oracle.DEFAULT_MAX_TRACES
    cap = as_int(value, field)
    if cap < 0:
        raise ConfigError(f"{field} must be nonnegative, got {cap}")
    return cap


def build_estimator_runner(spec: dict, field: str, n: int):
    """Returns (name, fn) with fn(sdef, theta, loss, rng) -> report.

    ``field`` names ``spec`` in the config, for errors; each call of ``fn``
    spends ``n`` function evaluations.
    """
    kind = _object(spec, field).get("kind")
    if kind == "e_reinforce":
        return kind, lambda sdef, theta, loss, rng: estimators.grad_e_reinforce(
            sdef, theta, loss, n, rng, keep_per_sample=True
        )
    if kind == "t_reinforce":
        return kind, lambda sdef, theta, loss, rng: estimators.grad_t_reinforce(
            sdef, theta, loss, n, rng, keep_per_sample=True
        )
    if kind in ("t_reinforce_plus", "e_reinforce_plus"):
        k = as_int(spec.get("K", 4), f"{field}.K")
        if k < 2:
            raise ConfigError(f"{field}.K must be at least 2, got {k}")
        if n < k:
            raise ConfigError(
                f"n_samples = {n} is below {field}.K = {k}, "
                "the evaluations one leave-one-out batch spends"
            )
        if n % k:
            raise ConfigError(
                f"n_samples = {n} is not a multiple of {field}.K = {k}, "
                "so whole leave-one-out batches cannot spend it"
            )
        space = "trace" if kind.startswith("t_") else "utility"

        def run_loo(sdef, theta, loss, rng):
            return estimators.grad_loo(
                sdef, theta, loss, k, space, rng,
                n_batches=n // k, keep_per_sample=True,
            )

        return kind, run_loo
    if kind == "relax":
        cv_spec = _object(spec.get("control_variate", {}), f"{field}.control_variate")
        cv_kind = cv_spec.get("kind", "zero")
        if cv_kind == "zero":
            cv_template = None
        elif cv_kind == "quadratic":
            cv_template = as_float(
                cv_spec.get("coeff", 0.1), f"{field}.control_variate.coeff"
            )
        else:
            raise ConfigError(f"unknown control variate kind {cv_kind!r}")

        def run_relax(sdef, theta, loss, rng, coeff=cv_template):
            if coeff is None:
                cv = estimators.zero_control_variate()
            else:
                cv = estimators.quadratic_control_variate(
                    np.full(sdef.n_keys, coeff)
                )
            return estimators.grad_relax(
                sdef, theta, loss, cv, rng, n_samples=n, keep_per_sample=True
            )

        return kind, run_relax
    raise ConfigError(f"unknown estimator kind {kind!r}")


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


def dump_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table(header, rows, fmt: str) -> str:
    """``rows`` as CSV, or as a JSON list of objects keyed by ``header``."""
    if fmt == "json":
        return dump_json([dict(zip(header, row)) for row in rows])
    return dump_csv(header, rows)


def _trace_doc(sdef, trace):
    labels = sdef.key_labels
    return [[[pi, labels[w]] for pi, w in level] for level in trace.levels]


def _label_key(label) -> str:
    return json.dumps(label, separators=(",", ":"))


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
    if fmt == "csv":
        rows = [
            (
                json.dumps(_trace_doc(sdef, e.trace), separators=(",", ":")),
                _fmt(e.log_prob),
                _fmt(e.prob),
                json.dumps(sdef.encode_value(e.structure), separators=(",", ":")),
            )
            for e in dist.entries
        ]
        return dump_csv(("trace", "log_prob", "prob", "structure"), rows)
    return dump_json(
        {
            "total_prob": total,
            "traces": [
                {
                    "trace": _trace_doc(sdef, e.trace),
                    "log_prob": e.log_prob,
                    "prob": e.prob,
                    "structure": sdef.encode_value(e.structure),
                }
                for e in dist.entries
            ],
            "structure_marginals": {
                _label_key(k): v for k, v in dist.structure_marginals.items()
            },
        }
    )


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
    if fmt == "csv":
        rows = [
            (
                json.dumps(r["structure"], separators=(",", ":")),
                json.dumps(r["trace"], separators=(",", ":")),
                _fmt(r["log_prob"]),
            )
            for r in records
        ]
        return dump_csv(("structure", "trace", "log_prob"), rows)
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def cmd_variance(config: dict, sdef, theta, streams, fmt: str, n) -> str:
    if "fit" in config:
        target = decode_target(_object(config["fit"], "fit"), sdef)
        loss = lambda x: structures.hamming_distance(x, target)  # noqa: E731
    else:
        loss = _default_loss(sdef)
    specs = config.get("estimators")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("variance needs an 'estimators' list in the config")
    budget = as_int(config.get("n_samples", 1000), "n_samples")
    runners = [
        build_estimator_runner(spec, f"estimators[{i}]", budget)
        for i, spec in enumerate(specs)
    ]
    rows = []
    for name, runner in runners:
        report = runner(sdef, theta, loss, np.random.default_rng(streams[0]))
        per = report.per_sample
        n_rows = per.shape[0]
        mean = per.mean(axis=0)
        var = per.var(axis=0, ddof=1) if n_rows > 1 else np.zeros(per.shape[1])
        stderr = np.sqrt(var / n_rows)
        for i, label in enumerate(sdef.key_labels):
            rows.append((name, _label_key(label), _fmt(mean[i]), _fmt(var[i]), _fmt(stderr[i])))
    return _table(("estimator", "coordinate", "mean", "variance", "stderr"), rows, fmt)


def _default_loss(sdef):
    """Hamming distance to the structure of the all-smallest-keys run."""
    baseline, _ = run_struct(sdef, np.arange(sdef.n_keys, dtype=float))
    return lambda x: structures.hamming_distance(x, baseline)


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
    target = decode_target(fit, sdef)
    loss = lambda x: float(structures.hamming_distance(x, target))  # noqa: E731
    track_samples = as_int(fit.get("track_samples", 32), "fit.track_samples")
    if track_samples < 2:
        raise ConfigError(f"fit.track_samples must be at least 2, got {track_samples}")
    # The final theta goes to fit.theta_out, else next to the output file.
    if fit.get("theta_out") is not None:
        theta_out = (as_path(fit["theta_out"], "fit.theta_out"), "fit.theta_out")
    elif config.get("out") is not None:
        theta_out = (config["out"] + ".theta.json", "out")
    else:
        theta_out = None

    opt_spec = _object(config.get("optimizer", {}), "optimizer")
    iterations = as_int(opt_spec.get("iterations", 1000), "optimizer.iterations")
    if iterations < 0:
        raise ConfigError(f"optimizer.iterations must be at least 0, got {iterations}")
    optimizer = _Adam(opt_spec)
    est_spec = _object(
        config.get("estimator", {"kind": "t_reinforce_plus", "K": 4}), "estimator"
    )
    # The budget per iteration defaults to K, one leave-one-out batch.
    budget_field = "estimator.n_samples" if "n_samples" in est_spec else "estimator.K"
    per_iter_budget = as_int(est_spec.get("n_samples", est_spec.get("K", 4)), budget_field)
    _name, runner = build_estimator_runner(est_spec, "estimator", per_iter_budget)

    # Exact loss tracking when the instance is enumerable, Monte Carlo
    # tracking (with its own sample stream) otherwise.
    table = None
    try:
        dist = oracle.enumerate_distribution(
            sdef, theta, resolve_max_traces(config)
        )
        table = oracle.TraceTable(dist)
        per_trace_losses = np.array([loss(e.structure) for e in dist.entries])
    except InstanceTooLargeError:
        track_rng = np.random.default_rng(track_ss)

    rows = []
    values = theta.theta.copy()
    for it in range(iterations + 1):
        current = theta.replace(values)
        if table is not None:
            exp_loss = table.expected(current, per_trace_losses)
            stderr = 0.0
        else:
            draws = np.array(
                [
                    loss(run_struct(sdef, sample_utilities(current, track_rng))[0])
                    for _ in range(track_samples)
                ]
            )
            exp_loss = float(draws.mean())
            stderr = float(draws.std(ddof=1) / math.sqrt(track_samples))
        if it == iterations:
            rows.append((it, _fmt(exp_loss), _fmt(stderr), _fmt(0.0)))
            break
        # spawn keys children by a running index: this is spawn(iterations)[it].
        report = runner(sdef, current, loss, np.random.default_rng(work_ss.spawn(1)[0]))
        grad = report.gradient.values
        rows.append((it, _fmt(exp_loss), _fmt(stderr), _fmt(float(np.linalg.norm(grad)))))
        values = optimizer.update(values, grad)
        check_theta_limit(sdef.key_labels, values, theta.mask, f" at iteration {it + 1}")

    if theta_out is not None:
        write_output(dump_json(theta_to_json(theta.replace(values))), *theta_out)
    header = ("iter", "expected_loss", "expected_loss_stderr", "gradient_norm")
    return _table(header, rows, fmt)


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
    pvalues = {}
    rates = np.exp(-theta.theta)
    for i, label in enumerate(sdef.key_labels):
        key = _label_key(label)
        if theta.mask[i] or n < 100:
            pvalues[key] = None
        else:
            _stat, p = oracle.ks_exponential(cond_values[:, i], rates[i])
            pvalues[key] = p
    if fmt == "csv":
        rows = [("roundtrip_failures", str(failures), "")]
        rows += [
            ("ks_pvalue", k, "" if v is None else _fmt(v))
            for k, v in sorted(pvalues.items())
        ]
        return dump_csv(("field", "key", "value"), rows)
    return dump_json({"roundtrip_failures": failures, "per_key_ks_pvalues": pvalues})


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
            out = as_path(out, "out")
        n = args.num if command.takes_n else None
        if n is not None and n < 0:
            raise ConfigError(f"-n must be nonnegative, got {n}")
        fmt = args.format or config.get("format") or command.default_format
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown output format {fmt!r}")
        sdef = build_structure(config)
        seed = as_int(config.get("seed", 0), "seed")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        # Spawned children are keyed by index, so the theta and work streams
        # are the same whether or not a command uses the third (tracking).
        theta_ss, *streams = np.random.SeedSequence(seed).spawn(3)
        theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
        check_theta_limit(sdef.key_labels, theta.theta, theta.mask)
        write_output(command.run(config, sdef, theta, streams, fmt, n), out, "out")
        return 0
    except (ConfigError, InvalidParameterError, InfeasibleGraphError,
            InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StochinvError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
