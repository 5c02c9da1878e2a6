"""Run the benchmark in alternating pairs, a revision against this tree, and
summarise each end-to-end metric.

    python tools/pairs.py --workload retrial_backlog --rev HEAD --pairs 10 \\
        --seed 3800 [--out pairs.json]

REV is extracted with ``git archive`` into a temporary directory (the
parent side); this tree, as it stands on disk, is the change side.  Pair i
runs ``python3 perfbench/run.py --workload W --seed S+i --seconds T``,
T being BENCHMARK.json's ``run_seconds``, once in each, from each side's
own root, the parent first in even pairs and the change first in odd
ones.  The JSON written to ``--out`` (or printed) has one fixed layout:
the settings, both sides' per-run metrics and failed-check counts, and
per metric (``summarise``) both sides' median and quartiles, the IQR,
the change's wins, and the ratio of the medians, change over parent.  A
run that exits non-zero stops the script with its stderr.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def benchmark_spec():
    """BENCHMARK.json's run length in seconds and {metric: "higher" or
    "lower"} of its end-to-end list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (spec["run_seconds"],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def summarise(parent, change, better):
    """Per metric of ``better``, from two equal-length lists of runs, each
    run a dict {metric: value}, run i of each side making pair i: each
    side's q1, median, q3 (numpy's linear percentiles) and IQR, the pairs
    the change won (ties count for neither side), the number of pairs and
    the ratio of the medians, change over parent."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, nonzero numbers of runs per side")
    out = {}
    for name, side in better.items():
        p = np.array([run[name] for run in parent], dtype=float)
        c = np.array([run[name] for run in change], dtype=float)
        wins = c > p if side == "higher" else c < p
        stats = {}
        for label, x in (("parent", p), ("change", c)):
            q1, med, q3 = np.percentile(x, [25, 50, 75])
            stats[label] = {"q1": q1, "median": med, "q3": q3,
                            "iqr": q3 - q1}
        out[name] = {**stats, "better": side, "wins": int(wins.sum()),
                     "pairs": len(p),
                     "ratio": stats["change"]["median"]
                     / stats["parent"]["median"]}
    return out


def run_once(root, workload, seed, seconds):
    """(metrics, failed checks) of one benchmark run from ``root``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"run in {root} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return ({name: m["value"] for name, m in result["metrics"].items()},
            result["failed"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rev", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds, better = benchmark_spec()
    commit = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    runs = {"parent": [], "change": []}
    failed = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(f"git archive {commit.stdout.strip()} | tar -x -C "
                       f"'{tmp}'", shell=True, cwd=ROOT, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                metrics, n_failed = run_once(roots[side], args.workload,
                                             args.seed + i, seconds)
                runs[side].append(metrics)
                failed[side].append(n_failed)
                print(f"pair {i} {side}: {metrics} failed {n_failed}",
                      file=sys.stderr, flush=True)
    report = {
        "workload": args.workload,
        "rev": args.rev,
        "rev_commit": commit.stdout.strip(),
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "first": ["parent" if i % 2 == 0 else "change"
                  for i in range(args.pairs)],
        "failed_checks": failed,
        "runs": runs,
        "metrics": summarise(runs["parent"], runs["change"], better),
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
