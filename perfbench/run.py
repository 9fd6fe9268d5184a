"""Benchmark of the `ietkit` command line: one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: the jobs of a workload run one at
a time, each as a fresh `python -m ietkit.cli` process, and one pass through
the job sequence is one sample.  Before each job the run times, outside the
pass's time, two rulers (fresh interpreters that run no code of the program)
and a fresh interpreter that imports `ietkit.cli` (set-up).  It starts passes
until S seconds have gone by and every input set has had a pass.  Passes
cycle through the workload's input sets.  The first pass of each set has its
outputs checked and hashed; every later pass of that set must reproduce its
bytes.

The speed of a shared machine drifts by a quarter or more within minutes, so
`wall_s` and `setup_s` are scaled to the rulers: a pass's time is multiplied
by RULER_S over the mean time of the compute ruler in that pass, and an
import's by RULER_S over the import ruler timed just before it.  They read
as seconds on a machine where each ruler takes RULER_S.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced passes with passes whose jobs run under tracer.py, and
reports per-layer metrics computed from the spans, plus the tracing overhead
(the median of each traced pass's scaled time minus the untraced pass before
it).
The last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, Job, make_jobs

TRACER = Path(__file__).resolve().with_name("tracer.py")
IMPORT_ARGV = [sys.executable, "-c", "import ietkit.cli"]
# The rulers.  Pass times drift with the first, pure-Python computation like
# the jobs' (small integers, strings, a sort, and Fraction sums whose
# denominators grow to big integers); import times drift with the second,
# which loads the largest part of what `import ietkit.cli` loads.  The two
# drift apart at times.
COMPUTE_RULER = [sys.executable, "-c",
                 "from fractions import Fraction\n"
                 "s = 0\nfor i in range(300000): s += i * i % 7\n"
                 "d = {i: str(i) for i in range(120000)}\nl = sorted(d.values())\n"
                 "f = Fraction(0)\nfor i in range(1, 4000): f += Fraction(1, i)"]
IMPORT_RULER = [sys.executable, "-c", "import numpy"]
RULER_S = 0.2  # the rulers' nominal time, to which wall_s and setup_s are scaled
TAIL_BEYOND = 10  # passes a reported tail percentile must have beyond it
DEADLINE_S = 165.0  # past this a run kills its job and makes no more passes


class JobRunner:
    """Runs jobs one at a time and reaps each with its resource usage."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # installed programs keep bytecode caches, so the jobs do too,
        # whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.peak_rss_kb = 0

    def spawn(self, argv: list[str], cwd: Path) -> tuple[int, float, int]:
        """Run argv to completion; return (exit code, wall seconds, max RSS in KB).

        A process still running at the deadline is killed and reported with
        exit code -9.
        """
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss

    def run_pass(self, jobs: list[Job], trace: bool,
                 setup: list[tuple[float, float]]) -> tuple[float, float, list[int]]:
        """One pass through the job sequence.

        Returns (seconds, mean seconds of the compute ruler, exit codes).
        Before each job the compute ruler runs, then the import ruler and one
        fresh `import ietkit.cli`, whose times go into `setup` as a pair, so
        set-up is sampled over the same window as the jobs.
        """
        shutil.rmtree(self.work, ignore_errors=True)
        for job in jobs:
            (self.work / job.name).mkdir(parents=True)
        codes = []
        elapsed = ruler = 0.0
        for job in jobs:
            out = ["--out", job.name]
            if trace:
                argv = [sys.executable, str(TRACER), f"{job.name}.spans.json",
                        *job.argv, *out]
            else:
                argv = [sys.executable, "-m", "ietkit.cli", *job.argv, *out]
            ruler += self.spawn(COMPUTE_RULER, self.work)[1]
            import_ruler = self.spawn(IMPORT_RULER, self.work)[1]
            setup.append((self.spawn(IMPORT_ARGV, self.work)[1], import_ruler))
            code, seconds, rss_kb = self.spawn(argv, self.work)
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            codes.append(code)
            elapsed += seconds
            if time.monotonic() > self.deadline:
                break
        return elapsed, ruler / len(codes), codes


def output_hashes(work: Path, job: Job) -> dict[str, str]:
    return {
        f"{job.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((work / job.name).iterdir())
        if p.is_file()
    }


class Outcome:
    """Jobs attempted and failed, with the first reasons seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job: Job, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{job.name}: {reason}")


def judge_pass(runner: JobRunner, jobs: list[Job], codes: list[int],
               reference: dict[str, dict[str, str]] | None,
               outcome: Outcome) -> dict[str, dict[str, str]]:
    """Check one pass's jobs; return their output hashes.

    The first pass (no reference) runs each job's own check; later passes
    must reproduce the first pass's bytes exactly.
    """
    hashes = {}
    for job, code in zip(jobs, codes):
        reason = None
        if code != 0:
            reason = f"exit code {code}"
        else:
            hashes[job.name] = output_hashes(runner.work, job)
            if reference is None:
                try:
                    reason = job.check(runner.work / job.name)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable output: {exc!r}"
            elif hashes[job.name] != reference.get(job.name):
                reason = "output bytes differ from the first pass"
        outcome.record(job, reason)
    return hashes


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its label.

    With too few samples for any such percentile this is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} passes (fewer than {TAIL_BEYOND + 1})"
    k = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples above it
    return ordered[k - 1], f"p{100 * k / n:.0f} of {n} passes, {TAIL_BEYOND} beyond"


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def summarize_spans(files: list[Path]) -> tuple[dict, dict]:
    """Per span name: calls, inclusive ns, self ns and summed attributes."""
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    counters: dict[str, int] = defaultdict(int)
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, attrs), children in zip(spans, child_ns):
            s = stats[name]
            s["calls"] += 1
            s["incl_ns"] += end - start
            s["self_ns"] += end - start - children
            for key, value in (attrs or {}).items():
                s[key] += value
        for key, value in doc["counters"].items():
            counters[key] += value
    return stats, counters


def layer_metrics(stats: dict, counters: dict, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (0 where a layer is not called)."""

    def get(name: str, key: str) -> int:
        return stats[name][key] if name in stats else 0

    def total(names: tuple[str, ...], key: str) -> int:
        return sum(get(n, key) for n in names)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    inducts = ("induction.induct", "induction.induct_until")
    queries = ("perm.out_edges", "perm.in_edges", "perm.contains")
    checks = ("construction.check_star", "construction.check_double_star",
              "construction.check_angles")
    return {
        "perm.rauzy_move_calls": get("perm.rauzy_move", "calls"),
        "perm.rauzy_move_us": ratio(get("perm.rauzy_move", "incl_ns"),
                                    get("perm.rauzy_move", "calls"), 1e-3),
        "perm.rauzy_class_s": get("perm.rauzy_class", "self_ns") * 1e-9,
        "perm.class_query_s": total(queries, "self_ns") * 1e-9,
        "perm.class_vertices": get("perm.rauzy_class", "vertices"),
        "induction.induct_s": total(inducts, "self_ns") * 1e-9,
        "induction.step_us": ratio(total(inducts, "incl_ns"),
                                   total(inducts, "steps"), 1e-3),
        "induction.steps": total(inducts, "steps"),
        "induction.norm_bits": total(inducts, "norm_bits"),
        "induction.drive_path_ms": ratio(get("induction.drive_path", "incl_ns"),
                                         get("induction.drive_path", "calls"), 1e-6),
        "analysis.mc_balance_s": get("analysis.mc_balance", "self_ns") * 1e-9,
        "analysis.balance_sample_us": ratio(get("analysis.mc_balance", "incl_ns"),
                                            get("analysis.mc_balance", "samples"), 1e-3),
        "analysis.nested_family_s": get("analysis.nested_family", "self_ns") * 1e-9,
        "analysis.family_yield": ratio(get("analysis.nested_family", "families"),
                                       get("analysis.nested_family", "planes")),
        "analysis.frostman_ms": get("analysis.frostman", "self_ns") * 1e-6,
        "analysis.box_dimension_ms": get("analysis.box_dimension", "self_ns") * 1e-6,
        "simplex_geometry.section_ms": ratio(
            get("simplex_geometry.section", "incl_ns"),
            get("simplex_geometry.section", "calls"), 1e-6),
        "simplex_geometry.section_calls": get("simplex_geometry.section", "calls"),
        "simplex_geometry.section_hit_ratio": ratio(
            get("simplex_geometry.section", "hit"),
            get("simplex_geometry.section", "calls")),
        "simplex_geometry.plane_family_ms":
            get("simplex_geometry.plane_family", "self_ns") * 1e-6,
        "symplectic.verify_invariance_ms": ratio(
            get("symplectic.verify_invariance", "incl_ns"),
            get("symplectic.verify_invariance", "calls"), 1e-6),
        "symplectic.omega_calls": get("symplectic.omega", "calls"),
        "construction.run_ms": ratio(get("construction.run", "incl_ns"),
                                     get("construction.run", "calls"), 1e-6),
        "construction.stage_ms": ratio(get("construction.run", "incl_ns"),
                                       get("construction.run", "stages"), 1e-6),
        "construction.checks_ms": total(checks, "self_ns") * 1e-6,
        "construction.window_overshoots": counters["construction.window_overshoots"],
        "cli.self_s": get("cli.main", "self_ns") * 1e-9,
        "cli.output_bytes": output_bytes,
    }


COUNTS = ("perm.rauzy_move_calls", "perm.class_vertices", "induction.steps",
          "induction.norm_bits", "simplex_geometry.section_calls",
          "symplectic.omega_calls", "construction.window_overshoots",
          "cli.output_bytes")

UNITS = {
    "_calls": "count", "_vertices": "count", ".steps": "count", "_bits": "count",
    "_overshoots": "count", "_bytes": "count", "_ratio": "ratio", "_yield": "ratio",
    "_us": "us", "_ms": "ms", "_s": "s",
}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


# ---------------------------------------------------------------------------
# the run


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    # a terminated run still kills and reaps the job it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "ietkit" / "cli.py").is_file():
        print(f"no ietkit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    runner = JobRunner(root, work, started + DEADLINE_S)
    # traced runs use one input set, so that their counts repeat exactly
    spec = WORKLOADS[args.workload]
    job_sets = [make_jobs(args.workload, args.seed, k)
                for k in range(1 if args.trace else spec.input_sets)]
    outcome = Outcome()
    print(f"workload {args.workload}, seed {args.seed}: {spec.why}")
    for k, jobs in enumerate(job_sets):
        for job in jobs:
            print(f"  set {k} job {job.name}: ietkit {' '.join(a[:48] for a in job.argv)}")

    runner.spawn(IMPORT_ARGV, root)  # untimed; fills the bytecode cache
    references: dict[int, dict[str, dict[str, str]]] = {}
    passes = 0
    setup: list[tuple[float, float]] = []  # (import, import ruler) seconds
    plain: list[tuple[float, float, int]] = []  # (seconds, ruler, input set)
    traced: list[float] = []
    overheads: list[float] = []  # each traced pass minus the untraced one before
    per_pass: list[dict[str, float]] = []
    stop = time.monotonic() + args.seconds
    while time.monotonic() < runner.deadline:
        if (time.monotonic() >= stop and passes >= len(job_sets)
                and (traced or not args.trace)):
            break
        trace = bool(args.trace) and len(traced) < len(plain)
        k = passes % len(job_sets)
        jobs = job_sets[k]
        passes += 1
        seconds, ruler, codes = runner.run_pass(jobs, trace, setup)
        hashes = judge_pass(runner, jobs, codes, references.get(k), outcome)
        references.setdefault(k, hashes)
        if len(codes) < len(jobs):
            break  # the deadline fell inside this pass
        if not trace:
            plain.append((seconds, ruler, k))
            continue
        traced.append(seconds)
        # both passes scaled to their compute ruler, like wall_s
        overheads.append((seconds / ruler - plain[-1][0] / plain[-1][1]) * RULER_S)
        stats, counters = summarize_spans(
            [work / f"{job.name}.spans.json" for job in jobs])
        out_bytes = sum(
            p.stat().st_size for job in jobs for p in (work / job.name).iterdir())
        per_pass.append(layer_metrics(stats, counters, out_bytes))

    for k, hashes in references.items():
        for files in hashes.values():
            for file, digest in files.items():
                print(f"  sha256 {digest}  set {k} {file}")
    print(f"  error_rate {outcome.failed / max(outcome.attempted, 1):.4g} ratio "
          f"({outcome.failed} failed / {outcome.attempted} jobs attempted)")
    for reason in outcome.reasons:
        print(f"  FAILED {reason}")

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and per_pass:
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            if name in COUNTS and len(set(values)) > 1:
                print(f"  WARNING count {name} varies across passes: {values}")
            metrics[name] = (statistics.median(values), unit_of(name))
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        print(f"  {len(traced)} traced and {len(plain)} untraced passes")
    elif not args.trace and plain:
        # scaled to the rulers; per input set the median pass, then the mean
        # over the sets, so that a run's figure does not hang on which sets
        # had a second pass
        scaled = defaultdict(list)
        for seconds, ruler, k in plain:
            scaled[k].append(seconds * RULER_S / ruler)
        metrics = {
            "wall_s": (statistics.mean(map(statistics.median, scaled.values())), "s"),
            "setup_s": (statistics.median(t * RULER_S / r for t, r in setup), "s"),
            "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        }
        # printed, not in the result: see README.md, "End-to-end metrics"
        tail_s, tail_label = tail([x for xs in scaled.values() for x in xs])
        print(f"  wall_s_tail {tail_s:.6g} s ({tail_label})")
        print(f"  wall_s: {len(plain)} passes over {len(scaled)} input sets; "
              f"setup_s: median of {len(setup)} imports")
        print(f"  unscaled: median pass {statistics.median(p[0] for p in plain):.6g} s, "
              f"median import {statistics.median(t for t, _ in setup):.6g} s, "
              f"compute ruler {statistics.median(p[1] for p in plain):.6g} s, "
              f"import ruler {statistics.median(r for _, r in setup):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": outcome.failed == 0 and bool(metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
