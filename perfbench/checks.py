"""Output checks, run after the clock stops.

Each check takes a workload's raw output and returns ``(failed_units,
reason)``: how many units of work the output fails, and the first reason
found (``None`` when everything passes).  They use no timing and no global
state, so the tests feed them deliberately corrupted outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Trace scores sum to zero over keys: each stochastic event adds -1 on its
# winner and a softmax (summing to 1) over its partition.  Rounding leaves
# a residue of a few ulps of the row's magnitude.
ZERO_SUM_RTOL = 1e-9
PROB_TOL = 1e-9
FIT_MIN_REDUCTION = 0.9
FIT_REDUCTION_ITERATIONS = 2000


def _zero_sum(row) -> bool:
    return abs(math.fsum(row)) <= ZERO_SUM_RTOL * max(1.0, math.fsum(abs(x) for x in row))


def check_sample_jsonl(text: str, n_expected: int, decode, validate):
    """``stochinv sample`` JSON output: one valid draw per line.

    Every line must parse, its structure must decode (``decode``) and pass
    ``validate`` (a ``validate_value``), and its ``log_prob`` must be finite
    and at most 0.  Missing lines count as failed draws.
    """
    lines = text.splitlines()
    failed = max(n_expected - len(lines), 0)
    reason = f"{failed} of {n_expected} lines missing" if failed else None
    for lineno, line in enumerate(lines[:n_expected], start=1):
        try:
            record = json.loads(line)
            lp = float(record["log_prob"])
            verdict = validate(decode(record["structure"]))
            problem = None
            if not verdict:
                problem = f"invalid structure: {getattr(verdict, 'reason', verdict)}"
            elif not (math.isfinite(lp) and lp <= 0.0):
                problem = f"log_prob {lp!r} is not finite and <= 0"
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problem = f"unreadable record: {exc!r}"
        if problem is not None:
            failed += 1
            reason = reason or f"line {lineno}: {problem}"
    if len(lines) > n_expected:
        failed = n_expected
        reason = f"{len(lines)} lines for {n_expected} draws"
    return failed, reason


def check_gradient_report(gradient, per_sample, units_per_row: int, zero_sum: bool):
    """An estimator report: finite values, and zero-sum rows in trace space.

    ``per_sample`` holds one row per sample (per leave-one-out batch, worth
    ``units_per_row`` samples).  A non-finite mean gradient fails every
    unit; otherwise each bad row fails its own units.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    per_sample = np.asarray(per_sample, dtype=np.float64)
    total = per_sample.shape[0] * units_per_row
    if not np.all(np.isfinite(gradient)):
        return total, "mean gradient is not finite"
    failed, reason = 0, None
    for i, row in enumerate(per_sample):
        if not np.all(np.isfinite(row)):
            problem = "is not finite"
        elif zero_sum and not _zero_sum(row.tolist()):
            problem = f"sums to {math.fsum(row.tolist())!r}, not 0"
        else:
            continue
        failed += units_per_row
        reason = reason or f"row {i} {problem}"
    return failed, reason


def check_fit_csv(text: str, iterations: int):
    """``stochinv fit`` CSV output: one row per iteration plus the final one.

    The expected loss must be finite everywhere and end below where it
    started; at ``FIT_REDUCTION_ITERATIONS`` iterations or more it must fall
    by at least ``FIT_MIN_REDUCTION`` (acceptance criterion 10).  Any
    failure fails every iteration of the run.
    """
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        losses = [float(row["expected_loss"]) for row in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return iterations, f"unreadable fit CSV: {exc!r}"
    if len(rows) != iterations + 1:
        return iterations, f"{len(rows)} rows for {iterations} iterations"
    if not all(math.isfinite(x) for x in losses):
        return iterations, "expected loss is not finite"
    if not losses[-1] < losses[0]:
        return iterations, f"expected loss rose from {losses[0]!r} to {losses[-1]!r}"
    if iterations >= FIT_REDUCTION_ITERATIONS:
        reduction = 1.0 - losses[-1] / losses[0]
        if reduction < FIT_MIN_REDUCTION:
            return iterations, f"expected loss fell by only {reduction:.3f}"
    return 0, None


def check_enumeration(n_traces: int, total_prob: float, gradient, table_log_probs,
                      entry_log_probs):
    """An enumerated distribution, its exact gradient and its TraceTable.

    The probabilities sum to 1 within ``PROB_TOL``, the exact gradient's
    coordinates sum to 0, and ``TraceTable.log_probs`` reproduces every
    entry's log-probability within ``PROB_TOL``.  Any failure fails every
    enumerated trace.
    """
    if not abs(total_prob - 1.0) <= PROB_TOL:
        return n_traces, f"total_prob is {total_prob!r}"
    gradient = np.asarray(gradient, dtype=np.float64)
    if not (np.all(np.isfinite(gradient)) and _zero_sum(gradient.tolist())):
        return n_traces, f"exact gradient sums to {math.fsum(gradient.tolist())!r}"
    table = np.asarray(table_log_probs, dtype=np.float64)
    entries = np.asarray(entry_log_probs, dtype=np.float64)
    if table.shape != entries.shape:
        return n_traces, f"table has {table.shape} log-probs for {entries.shape} entries"
    worst = float(np.max(np.abs(table - entries))) if entries.size else 0.0
    if not worst <= PROB_TOL:
        return n_traces, f"TraceTable.log_probs is off by {worst!r}"
    return 0, None
