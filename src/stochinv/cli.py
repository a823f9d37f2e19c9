"""Command-line front end: enumerate | sample | variance | fit | condcheck.

All commands read a single JSON config document; --seed/--out/--format
override the matching fields.  Outputs are machine-readable (JSON or CSV
with 17 significant digits) and byte-identical under a fixed seed.  Exit
codes: 0 success, 2 config or input error, 1 internal invariant violation.
The environment variable STOCHINV_MAX_TRACES overrides the enumeration
cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

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
)
from .perturb import ThetaVector, sample_utilities

MAX_TRACES_ENV = "STOCHINV_MAX_TRACES"


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


def _seed_streams(config: dict, n: int):
    """``n`` independent seed sequences spawned from the config's ``seed``."""
    seed = as_int(config.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return np.random.SeedSequence(seed).spawn(n)


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


def _labels_to_json(obj):
    if isinstance(obj, structures.TreeNode):
        return [
            _labels_to_json(obj.key),
            _labels_to_json(obj.left),
            _labels_to_json(obj.right),
        ]
    if isinstance(obj, (tuple, list)):
        return [_labels_to_json(x) for x in obj]
    if isinstance(obj, frozenset):
        return [_labels_to_json(x) for x in sorted(obj)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _label_from_json(obj):
    if isinstance(obj, list):
        return tuple(_label_from_json(x) for x in obj)
    return obj


def theta_to_json(theta: ThetaVector) -> dict:
    return {
        "keys": [_labels_to_json(k) for k in theta.keys],
        "theta": theta.theta.tolist(),
        "mask": theta.mask.tolist(),
    }


def theta_from_json(doc: dict, sdef) -> ThetaVector:
    keys = tuple(_label_from_json(k) for k in doc["keys"])
    if keys != sdef.key_labels:
        raise ConfigError("theta file keys do not match the configured structure")
    return ThetaVector(keys, doc["theta"], doc.get("mask"))


def build_theta(config: dict, sdef, rng) -> ThetaVector:
    spec = config.get("theta", {"init": "constant", "value": 0.0})
    init = spec.get("init", "constant")
    if init == "constant":
        value = as_float(spec.get("value", 0.0), "theta.value")
        return ThetaVector.constant(sdef.key_labels, value)
    if init == "random":
        low = as_float(spec.get("low", -1.0), "theta.low")
        high = as_float(spec.get("high", 1.0), "theta.high")
        if not low <= high:
            raise ConfigError(f"theta range [{low}, {high}] is empty")
        values = rng.uniform(low, high, sdef.n_keys)
        return ThetaVector(sdef.key_labels, values)
    if init == "file":
        try:
            with open(spec["path"], "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ConfigError(f"cannot read theta file: {exc}") from exc
        return theta_from_json(doc, sdef)
    raise ConfigError(f"unknown theta init {init!r}")


def decode_target(config: dict, sdef):
    fit = config.get("fit", {})
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
        return as_int(env, MAX_TRACES_ENV)
    if "max_traces" in config and config["max_traces"] is not None:
        return as_int(config["max_traces"], "max_traces")
    return oracle.DEFAULT_MAX_TRACES


def build_estimator_runner(spec: dict, field: str, n: int):
    """Returns (name, fn) with fn(sdef, theta, loss, rng) -> report.

    ``field`` names ``spec`` in the config, for errors; each call of ``fn``
    spends ``n`` function evaluations.
    """
    kind = spec.get("kind")
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
        cv_spec = spec.get("control_variate", {"kind": "zero"})
        if not isinstance(cv_spec, dict):
            raise ConfigError(
                f"{field}.control_variate must be an object, got {cv_spec!r}"
            )
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


def write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dump_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _trace_doc(sdef, trace):
    return [
        [[pi, _labels_to_json(label)] for pi, label in level]
        for level in trace.to_labels(sdef)
    ]


def _structure_doc(sdef, value):
    return _labels_to_json(sdef.encode_value(value))


def _marginal_key(sdef, encoded) -> str:
    return json.dumps(_labels_to_json(encoded), separators=(",", ":"))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_enumerate(config: dict, out, fmt: str) -> int:
    sdef = build_structure(config)
    theta_ss, _work_ss = _seed_streams(config, 2)
    theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
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
                json.dumps(_structure_doc(sdef, e.structure), separators=(",", ":")),
            )
            for e in dist.entries
        ]
        write_output(dump_csv(("trace", "log_prob", "prob", "structure"), rows), out)
    else:
        doc = {
            "total_prob": total,
            "traces": [
                {
                    "trace": _trace_doc(sdef, e.trace),
                    "log_prob": e.log_prob,
                    "prob": e.prob,
                    "structure": _structure_doc(sdef, e.structure),
                }
                for e in dist.entries
            ],
            "structure_marginals": {
                _marginal_key(sdef, k): v
                for k, v in dist.structure_marginals.items()
            },
        }
        write_output(dump_json(doc), out)
    return 0


def cmd_sample(config: dict, n: int, out, fmt: str) -> int:
    if n < 0:
        raise ConfigError(f"sample count must be nonnegative, got {n}")
    sdef = build_structure(config)
    theta_ss, work_ss = _seed_streams(config, 2)
    theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
    rng = np.random.default_rng(work_ss)
    records = []
    for _ in range(n):
        e = sample_utilities(theta, rng)
        x, trace = run_struct(sdef, e)
        records.append(
            {
                "structure": _structure_doc(sdef, x),
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
        write_output(dump_csv(("structure", "trace", "log_prob"), rows), out)
    else:
        lines = [json.dumps(r, sort_keys=True) for r in records]
        write_output("".join(line + "\n" for line in lines), out)
    return 0


def cmd_variance(config: dict, out, fmt: str) -> int:
    sdef = build_structure(config)
    theta_ss, work_ss = _seed_streams(config, 2)
    theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
    target = decode_target(config, sdef) if "fit" in config else None
    if target is not None:
        loss = lambda x: structures.hamming_distance(x, target)  # noqa: E731
    else:
        loss = _default_loss(sdef)
    specs = config.get("estimators")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("variance needs an 'estimators' list in the config")
    budget = as_int(config.get("n_samples", 1000), "n_samples")
    runners = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ConfigError(f"estimators[{i}] must be an object, got {spec!r}")
        runners.append(build_estimator_runner(spec, f"estimators[{i}]", budget))
    rows = []
    for name, runner in runners:
        report = runner(sdef, theta, loss, np.random.default_rng(work_ss))
        per = report.per_sample
        n_rows = per.shape[0]
        mean = per.mean(axis=0)
        var = per.var(axis=0, ddof=1) if n_rows > 1 else np.zeros(per.shape[1])
        stderr = np.sqrt(var / n_rows)
        for i, label in enumerate(sdef.key_labels):
            rows.append(
                (
                    name,
                    json.dumps(_labels_to_json(label), separators=(",", ":")),
                    _fmt(mean[i]),
                    _fmt(var[i]),
                    _fmt(stderr[i]),
                )
            )
    header = ("estimator", "coordinate", "mean", "variance", "stderr")
    if fmt == "json":
        doc = [dict(zip(header, row)) for row in rows]
        write_output(dump_json(doc), out)
    else:
        write_output(dump_csv(header, rows), out)
    return 0


def _default_loss(sdef):
    """Hamming distance to the structure of the all-smallest-keys run."""
    baseline, _ = run_struct(sdef, np.arange(sdef.n_keys, dtype=float))
    return lambda x: structures.hamming_distance(x, baseline)


class _Adam:
    """First/second-moment adaptive gradient descent step."""

    def __init__(self, step_size=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = None
        self.v = None
        self.t = 0

    def update(self, theta_values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta_values - self.step_size * m_hat / (np.sqrt(v_hat) + self.eps)


def cmd_fit(config: dict, out, fmt: str) -> int:
    sdef = build_structure(config)
    theta_ss, work_ss, track_ss = _seed_streams(config, 3)
    theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
    target = decode_target(config, sdef)
    loss = lambda x: float(structures.hamming_distance(x, target))  # noqa: E731
    track_samples = as_int(
        config.get("fit", {}).get("track_samples", 32), "fit.track_samples"
    )
    if track_samples < 2:
        raise ConfigError(f"fit.track_samples must be at least 2, got {track_samples}")

    opt_spec = config.get("optimizer", {})
    iterations = as_int(opt_spec.get("iterations", 1000), "optimizer.iterations")
    if iterations < 0:
        raise ConfigError(f"optimizer.iterations must be at least 0, got {iterations}")
    optimizer = _Adam(
        step_size=as_float(opt_spec.get("step_size", 1e-2), "optimizer.step_size"),
        beta1=as_float(opt_spec.get("beta1", 0.9), "optimizer.beta1"),
        beta2=as_float(opt_spec.get("beta2", 0.999), "optimizer.beta2"),
    )
    est_spec = config.get("estimator", {"kind": "t_reinforce_plus", "K": 4})
    if not isinstance(est_spec, dict):
        raise ConfigError(f"estimator must be an object, got {est_spec!r}")
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

    work_children = work_ss.spawn(iterations)

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
        report = runner(sdef, current, loss, np.random.default_rng(work_children[it]))
        grad = report.gradient.values
        rows.append((it, _fmt(exp_loss), _fmt(stderr), _fmt(float(np.linalg.norm(grad)))))
        values = optimizer.update(values, grad)

    header = ("iter", "expected_loss", "expected_loss_stderr", "gradient_norm")
    if fmt == "json":
        write_output(dump_json([dict(zip(header, r)) for r in rows]), out)
    else:
        write_output(dump_csv(header, rows), out)
    theta_out = config.get("fit", {}).get("theta_out")
    if theta_out is None and out is not None:
        theta_out = str(out) + ".theta.json"
    if theta_out is not None:
        final = theta.replace(values)
        with open(theta_out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(theta_to_json(final)))
    return 0


def cmd_condcheck(config: dict, n: int, out, fmt: str) -> int:
    if n < 0:
        raise ConfigError(f"draw count must be nonnegative, got {n}")
    sdef = build_structure(config)
    theta_ss, work_ss = _seed_streams(config, 2)
    theta = build_theta(config, sdef, np.random.default_rng(theta_ss))
    rng = np.random.default_rng(work_ss)
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
        key = json.dumps(_labels_to_json(label), separators=(",", ":"))
        if theta.mask[i] or n < 100:
            pvalues[key] = None
        else:
            _stat, p = oracle.ks_exponential(cond_values[:, i], rates[i])
            pvalues[key] = p
    doc = {"roundtrip_failures": failures, "per_key_ks_pvalues": pvalues}
    if fmt == "csv":
        rows = [("roundtrip_failures", str(failures), "")]
        rows += [
            ("ks_pvalue", k, "" if v is None else _fmt(v))
            for k, v in sorted(pvalues.items())
        ]
        write_output(dump_csv(("field", "key", "value"), rows), out)
    else:
        write_output(dump_json(doc), out)
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochinv",
        description="Sample, enumerate, and fit perturbed recursive structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("enumerate", "sample", "variance", "fit", "condcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output path")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None,
            help="override config output format",
        )
        if name in ("sample", "condcheck"):
            p.add_argument("-n", "--num", type=int, required=True,
                           help="number of draws")
    return parser


_DEFAULT_FORMATS = {
    "enumerate": "json",
    "sample": "json",
    "variance": "csv",
    "fit": "csv",
    "condcheck": "json",
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        out = args.out if args.out is not None else config.get("out")
        fmt = args.format or config.get("format") or _DEFAULT_FORMATS[args.command]
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown output format {fmt!r}")
        if args.command == "enumerate":
            return cmd_enumerate(config, out, fmt)
        if args.command == "sample":
            return cmd_sample(config, args.num, out, fmt)
        if args.command == "variance":
            return cmd_variance(config, out, fmt)
        if args.command == "fit":
            return cmd_fit(config, out, fmt)
        if args.command == "condcheck":
            return cmd_condcheck(config, args.num, out, fmt)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidParameterError, InfeasibleGraphError,
            InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StochinvError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
