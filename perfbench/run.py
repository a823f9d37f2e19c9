"""Run one benchmark workload and print its result as the last stdout line.

From the root of a checkout (see README.md in this directory):

    python3 perfbench/run.py --workload sample --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs an untraced phase and then a traced phase, each for half
of ``--seconds``, and reports the per-layer metrics; the spans go to
``.perfbench/trace-<workload>.npz``.  The line before the result holds the
run metadata.  The library is imported from ``src/`` of the checkout and
from nowhere else; without it the benchmark exits with code 2.
"""

import os
import sys

# One thread for every numerical library, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
# A traced phase ends early once it holds this many spans (36 bytes each).
MAX_SPANS = 2_000_000
SPIN_LOOP = 20_000
SPIN_REPEATS = 2
# Seconds the spin loop takes on an undisturbed CPU of the machine the
# benchmark was built on (a 2-vCPU shared VM, Python 3.11).
SPIN_REFERENCE = 1.35e-3

sys.path.insert(0, ROOT)
from perfbench import stats  # noqa: E402


def _load_library():
    """Import stochinv from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "stochinv", "__init__.py")):
        print(f"error: no stochinv sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import stochinv

    if os.path.dirname(os.path.dirname(os.path.abspath(stochinv.__file__))) != SRC:
        print(f"error: stochinv was imported from {stochinv.__file__}", file=sys.stderr)
        sys.exit(2)
    return stochinv


def _git_sha():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _spin_seconds() -> float:
    """Best of SPIN_REPEATS timings of a fixed pure-Python loop on this CPU."""
    best = math.inf
    for _ in range(SPIN_REPEATS):
        t0 = perf_counter()
        total = 0
        for i in range(SPIN_LOOP):
            total += i * i
        best = min(best, perf_counter() - t0)
    return best


def _pin_quickest_cpu(cpus) -> float:
    """Pin this process to the allowed CPU that runs the spin loop fastest
    now, and return that CPU's spin time."""
    spins = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        spins.append((_spin_seconds(), cpu))
    spin, cpu = min(spins)
    os.sched_setaffinity(0, {cpu})
    return spin


def _timed(fn, cpus):
    """Run ``fn()`` on the quickest CPU; returns (result, wall seconds, scaled seconds).

    Scaled seconds are wall seconds times SPIN_REFERENCE over the spin time
    measured on the same CPU just before and just after the call: the time
    the call would take on a CPU running at the reference speed.
    """
    before = _pin_quickest_cpu(cpus)
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    after = _spin_seconds()
    return result, wall, wall * SPIN_REFERENCE / ((before + after) / 2)


def _run(calls, cpus, failures, tracer=None):
    """Run and time each call, then check every result with the clock stopped.

    Returns per-call wall and scaled seconds, and the attempted and failed
    units.
    """
    wall, scaled, outcomes = [], [], []
    for call in calls:

        def attempt(call=call):
            if tracer is not None:
                tracer.active = True
            try:
                return call.run(), None
            except Exception:  # a failing call fails its units; the run goes on
                return None, traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.active = False

        outcome, seconds, adjusted = _timed(attempt, cpus)
        outcomes.append(outcome)
        wall.append(seconds)
        scaled.append(adjusted)
    attempted = failed = 0
    for call, (result, error) in zip(calls, outcomes):
        bad, reason = (call.units, error) if error is not None else call.verify(result)
        attempted += call.units
        failed += bad
        if reason is not None:
            failures.append(reason)
            if len(failures) <= 3:
                print(f"check failed: {reason}", file=sys.stderr)
    return wall, scaled, attempted, failed


class Phase:
    """Timed rounds of one workload, tracing on or off.

    Rounds repeat until ``seconds`` of wall time in timed calls have passed.
    ``rate`` is ``work_per_s`` from the calls' scaled seconds, ``wall_rate``
    the same from their wall seconds (see ``stats.median_rate``).
    """

    def __init__(self, workload, seconds, first_round, cpus, failures, tracer=None):
        self.attempted = self.failed = self.work = self.rounds = 0
        self.wall = self.scaled = None
        r = first_round
        timed = 0.0
        while timed < seconds:
            calls = workload.run_round(r)
            wall, scaled, attempted, failed = _run(calls, cpus, failures, tracer)
            if self.wall is None:
                self.units = [call.units for call in calls]
                self.wall = [[] for _ in calls]
                self.scaled = [[] for _ in calls]
            for series, t in zip(self.wall, wall):
                series.append(t)
            for series, t in zip(self.scaled, scaled):
                series.append(t)
            self.attempted += attempted
            self.failed += failed
            self.work += sum(self.units)
            self.rounds += 1
            timed += sum(wall)
            r += 1
            if tracer is not None and len(tracer) > MAX_SPANS:
                break
        self.next_round = r
        self.rate = stats.median_rate(self.units, self.scaled)
        self.wall_rate = stats.median_rate(self.units, self.wall)


def _probe(command):
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")


def _setup_seconds(args, cpus):
    """Median scaled time from starting a fresh interpreter to a set-up
    workload, over SETUP_PROBES child processes, each waited for; and the
    wall times of the probes."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        _result, seconds, adjusted = _timed(lambda: _probe(command), cpus)
        wall.append(seconds)
        scaled.append(adjusted)
    return statistics.median(scaled), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sample", "estimate", "fit", "enumerate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (used to time setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    stochinv = _load_library()
    import numpy
    import scipy

    from perfbench import tracer as tracing
    from perfbench import workloads

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        inputs = workloads.Inputs(workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, inputs)
        if args.setup_only:
            print("ready", flush=True)
            return 0

        failures = []
        cpus = sorted(os.sched_getaffinity(0))
        _wall, _scaled, attempted, failed = _run(workload.warmup(), cpus, failures)
        meta = {}
        if args.trace == 0:
            setup_s, setup_wall = _setup_seconds(args, cpus)
            phase = Phase(workload, args.seconds, 1, cpus, failures)
            metrics = {
                "work_per_s": (phase.rate, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            meta["setup_wall_s"] = setup_wall
        else:
            untraced = Phase(workload, args.seconds / 2, 1, cpus, failures)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                phase = Phase(workload, args.seconds / 2, untraced.next_round, cpus,
                              failures, tracer)
            finally:
                tracer.uninstall()
            attempted += untraced.attempted
            failed += untraced.failed
            values, details = tracing.per_layer_metrics(
                tracer, phase.work, untraced.rate, phase.rate)
            metrics = {name: (values[name], unit)
                       for name, unit in tracing.per_layer_metric_specs()}
            tracer.save(os.path.join(WORK_ROOT, f"trace-{args.workload}.npz"))
            meta.update(details)
            meta["untraced_work_per_s"] = untraced.rate
            meta["traced_work_per_s"] = phase.rate
        attempted += phase.attempted
        failed += phase.failed
        meta.update({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs_sha256": inputs.digest(),
            "instance_sizes": workload.sizes,
            "rounds": phase.rounds,
            "units_per_round": phase.units,
            "wall_work_per_s": phase.wall_rate,
            "call_wall_seconds": phase.wall,
            "call_scaled_seconds": phase.scaled,
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "stochinv": stochinv.__version__,
            "nproc": len(cpus),
            "cpu_count": os.cpu_count(),
        })
        print(json.dumps({"metadata": meta}))
        print(json.dumps({
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
