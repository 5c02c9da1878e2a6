"""Benchmark of the `cra` package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from its
``src/`` directory.  The workload's inputs come from ``--seed``.  After a
small warm-up unit the workload runs closed-loop units until ``--seconds``
have passed, and every unit's output is checked.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
processes that import the package and build the inputs), the median unit
wall time, peak RSS and two work rates, each a median over units.  ``--trace
1`` alternates untraced and traced units and reports the per-layer metrics
from the traced spans, plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (correctness checks) and ``metrics``.
Results, environment and spans are also written to ``.perfbench_out/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# BLAS and OpenMP pools read these when numpy is first imported.  One thread
# keeps the 2-worker sweep and the signal lab's small matrix products from
# oversubscribing the cores, so runs measure the program, not the scheduler.
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

# numpy is first imported here, after BLAS_ENV is set
import calibration  # noqa: E402
from checks import Checks  # noqa: E402
from tracing import (PER_LAYER, SpanStats, Tracer, layer_metrics,  # noqa: E402
                     parallel_efficiency)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fig3_sweep", "retrial_backlog", "closed_form_grid",
                  "signal_lab")
SETUP_PROBES = 9
CALIBRATE_EVERY_S = 1.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("primary_per_s", "1/s"), ("secondary_per_s", "1/s"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment():
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "machine": platform.machine(),
    }


def measure_setup(args):
    """Median time of fresh processes that import the package and build the
    inputs, as (raw seconds, reference seconds).  Each probe is calibrated
    by both kernels' runs on either side of it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    raw, calibrated = [], []
    kernels = lambda: {k: calibration.kernel(k) for k in ("python", "array")}
    before = kernels()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(perf_counter() - t0)
        after = kernels()
        calibrated.append(raw[-1] * calibration.setup_speed(before, after))
        before = after
    return statistics.median(raw), statistics.median(calibrated)


def run_units(workload, seconds, checks, tracer=None):
    """Closed loop until ``seconds`` pass; with a tracer, alternate
    untraced and traced units.  The calibration kernel runs about every
    CALIBRATE_EVERY_S and sets the speed of the units between two of its runs.
    Returns (untraced, traced) unit lists."""
    untraced, traced, pending = [], [], []
    t_end = perf_counter() + seconds
    kind = workload.calibration
    cal = calibration.kernel(kind)
    t_cal = perf_counter()
    rep = 0
    while True:
        for trace_now in (False, True) if tracer else (False,):
            with tracer.active() if trace_now else contextlib.nullcontext():
                unit = workload.run_unit(rep)
            workload.check(unit, checks)
            unit.output = None      # keep only timings: outputs would grow RSS
            (traced if trace_now else untraced).append(unit)
            pending.append(unit)
            rep += 1
        done = perf_counter() >= t_end
        if done or perf_counter() - t_cal >= CALIBRATE_EVERY_S:
            cal_after = calibration.kernel(kind)
            speed = calibration.speed(kind, cal, cal_after)
            for u in pending:
                u.speed = speed
            pending = []
            cal = cal_after
            t_cal = perf_counter()
        if done:
            return untraced, traced


def end_to_end(units, setup_s, calibrate=True):
    """End-to-end metrics, times in reference seconds (or raw if not
    ``calibrate``); wall and rates are medians over units."""
    speed = (lambda u: u.speed) if calibrate else (lambda u: 1.0)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(u.wall * speed(u) for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "primary_per_s": statistics.median(u.primary / speed(u) for u in units),
        "secondary_per_s": statistics.median(u.secondary / speed(u)
                                             for u in units),
    }


def report_lines(workload, units, metrics, raw, checks):
    """Human-readable summary, naming each rate as the workload counts it."""
    primary, secondary = workload.rate_names
    speeds = sorted(u.speed for u in units)
    lines = [f"workload {workload.name}: {len(units)} units; reference "
             f"seconds per wall second: median {statistics.median(speeds):.4g}, "
             f"min {speeds[0]:.4g}, max {speeds[-1]:.4g}",
             f"  {'metric':<50} {'calibrated':>12} {'raw':>12}"]
    aliases = {"primary_per_s": primary, "secondary_per_s": secondary}
    for name, unit in END_TO_END:
        label = f"{name} ({aliases[name]})" if name in aliases else name
        lines.append(f"  {label:<50} {metrics[name]:12.6g} {raw[name]:12.6g} "
                     f"{unit}")
    efficiency = parallel_efficiency(units)
    if efficiency:
        lines.append(f"  {'parallel_efficiency':<50} {efficiency:12.6g} ratio")
    ratio = checks.failed / checks.attempted
    lines.append(f"  {'check_fail_ratio':<50} {ratio:12.6g} "
                 f"({checks.failed}/{checks.attempted})")
    lines.extend(f"  check failed: {msg}" for msg in checks.failures)
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cra" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cra'}; run from the root "
              "of a cra-access source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cra
    if Path(cra.__file__).resolve().parent != (SRC / "cra").resolve():
        print(f"error: imported cra from {cra.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import TINY, WORKLOADS   # imports cra

    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, OUT)
        return 0

    setup_raw, setup_s = measure_setup(args) if args.trace == 0 else (0, 0)
    workload = cls(args.seed, OUT)
    cls(args.seed, OUT, **TINY[args.workload]).run_unit(0)   # warm-up

    checks = Checks()
    tracer = Tracer() if args.trace else None
    untraced, traced = run_units(workload, args.seconds, checks, tracer)

    if args.trace:
        metrics = layer_metrics(SpanStats(tracer), tracer.pool_busy,
                                traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        lines = [f"workload {args.workload}: per-layer metrics from "
                 f"{len(traced)} traced units ({len(untraced)} untraced)"]
        lines += [f"  {name:<50} {metrics[name]:.6g} {units[name]}"
                  for name, _, _ in PER_LAYER]
        tracer.save(OUT / f"{args.workload}.spans.npz")
    else:
        metrics = end_to_end(untraced, setup_s)
        raw = end_to_end(untraced, setup_raw, calibrate=False)
        units = dict(END_TO_END)
        lines = report_lines(workload, untraced, metrics, raw, checks)

    env = environment()
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "report": lines, "check_failures": checks.failures,
                   **result}, fh, indent=2)
    print("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
