"""Run every workload on several seeds and write the results to one JSON file.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline_seed.json

Two sets of untraced runs are taken, one after the other, each with one run
per seed and workload; within a set the workloads take turns seed by seed,
so that they share one window of the machine's speed.  Then each workload
runs once traced, on the first seed.  The file records, per workload and
set, each end-to-end metric's values with their median, quartiles and spread
(the distance between the quartiles as a share of the median), the same for
the figures the run only prints (`wall_s_tail`, `error_rate`, the unscaled
pass and import times and the rulers' times), how far the
second set's medians are from the first's, the traced run's per-layer
metrics, and the versions, `nproc` and git revision the numbers were taken
with.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from workloads import WORKLOADS

SETS = 2

# metrics the run prints on their own lines but leaves out of its result line
PRINTED = re.compile(r"^  (wall_s_tail|error_rate) (\S+) ", re.MULTILINE)
UNSCALED = re.compile(r"^  unscaled: median pass (\S+) s, median import (\S+) s, "
                      r"compute ruler (\S+) s, import ruler (\S+) s", re.MULTILINE)
UNSCALED_NAMES = ("pass_unscaled_s", "import_unscaled_s", "compute_ruler_s",
                  "import_ruler_s")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with the printed-only metrics under "printed"."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["printed"] = {name: float(value) for name, value in PRINTED.findall(proc.stdout)}
    for match in UNSCALED.findall(proc.stdout):
        result["printed"].update(zip(UNSCALED_NAMES, map(float, match)))
    print(workload, seed, trace, json.dumps(result), file=sys.stderr, flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def git_revision() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    doc = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    sets = [{w: [] for w in WORKLOADS} for _ in range(SETS)]
    for runs in sets:
        for seed in seeds:
            for workload in WORKLOADS:
                runs[workload].append(run(workload, seed, seconds, 0))
    for workload in WORKLOADS:
        traced = run(workload, seeds[0], seconds, 1)
        summaries = [
            {
                "end_to_end": {
                    name: {"unit": metric["unit"],
                           **summarize([r["metrics"][name]["value"] for r in runs])}
                    for name, metric in runs[0]["metrics"].items()
                },
                "printed": {
                    name: summarize([r["printed"][name] for r in runs])
                    for name in runs[0]["printed"]
                },
            }
            for runs in (s[workload] for s in sets)
        ]
        every = [r for s in sets for r in s[workload]] + [traced]
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "sets": summaries,
            # the second set's median as a change from the first's
            "second_vs_first": {
                name: m["median"] / summaries[0]["end_to_end"][name]["median"] - 1
                for name, m in summaries[-1]["end_to_end"].items()
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
