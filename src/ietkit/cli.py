"""Batch command-line frontend with reproducible manifests.

Every subcommand writes a JSON manifest echoing its fully resolved
configuration next to its data files.  ``build_parser`` reads every
count flag (``_count``), path (``Path``) and radius grid (``_parse_radii``)
and checks each pair of alternatives (a required mutually exclusive
group), so no subcommand reads that text again; the specs, permutations,
lengths, stop rules and scales, stay text, as the manifests echo them.
``_config`` builds every manifest's config from what was parsed: each
option but ``--out`` and ``verify``'s suite, with the values a job
resolves passed in.
Output is deterministic given the flag set: keys are sorted, no
timestamps are recorded, rationals are serialized as "p/q" strings and
big integers as decimal strings, so repeated runs produce byte-identical
files.

Exit codes: 0 success, an inconclusive verification included; 1 a usage
error, argparse's own included ("usage error: ..."), or any other package
error ("error: <Type>: ..."); 2 budget exceeded ("budget exceeded: ...");
3 induction hit the equality case ("induction undefined: ..."); 4 a
construction stage failed ("stage failure: ..."); 5 a verification verdict
was "violated".  A subcommand returns 0 or 5, or raises: ``main`` is the
one way out of a failure, printing its one stderr line, never a traceback,
and picking the exit code.  A ``verify`` suite returns its report and one
verdict, ``analysis.CONSISTENT``, ``INCONCLUSIVE`` or ``VIOLATED``, a suite
of several cases the worst of theirs (``_worst``; none is inconclusive),
and ``cmd_verify`` alone sets the report's ``violated``, adds
``"verdict": "inconclusive"`` when inconclusive, prints ``ok``,
``inconclusive`` or ``VIOLATED`` and exits 5 only on VIOLATED.

A job runs through ``console_main``, the entry of both ``ietkit`` and
``python -m ietkit.cli``.  It first defaults ``OPENBLAS_NUM_THREADS`` to 1,
so numpy's BLAS runs on one thread in the jobs that load numpy (the float
``verify`` suites, and ``estimate-dim`` on a synthetic Cantor family): the
pool numpy's OpenBLAS starts as it loads costs up to 70 ms a job, for
calls on a few dozen entries.  A value
set in the environment is kept, so ``OPENBLAS_NUM_THREADS=2 ietkit ...``
gets the pool back, and ``main`` leaves the environment alone.  After
``main`` returns, ``console_main`` flushes stdout and leaves by
``os._exit``, skipping the interpreter's teardown, about 10 ms of every
job.  So every file the CLI writes is closed before ``main`` returns,
and nothing in the CLI process may rely on ``atexit``.  Under ``cProfile``
or ``trace`` the job keeps the normal exit, so their reports are written.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import NoReturn

from .analysis import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATED,
    box_dimension,
    build_nested_family,
    cantor_product_family,
    frostman_measure,
    half_simplex,
    mc_balance,
    mc_jacobian_pushforward,
    prob_decay_sim,
)
from .construction import (
    ZETA,
    ExponentScale,
    check_condition_double_star,
    check_conditions_star,
    check_nue_angles,
    make_schedule,
    run_construction,
)
from .errors import (
    BudgetExceededError,
    IetkitError,
    InductionUndefinedError,
    ScheduleOverflowError,
    StageError,
    UsageError,
)
from .induction import (
    BOTTOM_WINS,
    STEP_BUDGET,
    TOP_WINS,
    Iet,
    VisitationMatrix,
    balanced,
    drive_path,
    induct,
    induct_until,
    norm_at_least,
    permutation_is,
    positive_matrix,
)
from .perm import (
    VERTEX_BUDGET,
    LabeledPermutation,
    hyperelliptic_class,
    hyperelliptic_permutation,
    rauzy_class,
    special_permutations,
)
from .simplex_geometry import (
    normalized_det, plane_section_concavity_test, simplex_volume_ratio,
)
from .symplectic import verify_invariance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INDUCTION = 3
EXIT_STAGE = 4
EXIT_VIOLATED = 5


# ---------------------------------------------------------------------------
# serialization helpers


def _dump_json(doc: dict, path: Path) -> None:
    """Write ``doc`` as JSON with sorted keys, an indent of 2 and a newline."""
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_manifest(out: Path, command: str, config: dict, outputs: list[str]) -> Path:
    path = _out_file(out, f"{command}_manifest.json")
    _dump_json(
        {"command": command, "config": config, "outputs": sorted(outputs)}, path
    )
    return path


def _config(args, **resolved) -> dict:
    """The config every manifest echoes: each option the subcommand parsed,
    under its dest, but ``--out`` and ``verify``'s suite, which has its own
    field; a value the job resolves, given in ``resolved``, replaces the
    parsed one."""
    parsed = {name: value for name, value in vars(args).items()
              if name not in ("command", "func", "out", "suite")}
    return {**parsed, **resolved}


def _frs(x) -> str:
    return str(Fraction(x))


def _parse_perm(spec: str) -> LabeledPermutation:
    """Permutation specs: sN, hyperelliptic:N, pi_L:N, pi_R:N, pi_prime:N,
    or explicit "1,2,3/3,2,1"."""
    try:
        if "/" in spec:
            top_s, bottom_s = spec.split("/", 1)
            top = tuple(int(x) for x in top_s.split(","))
            bottom = tuple(int(x) for x in bottom_s.split(","))
            return LabeledPermutation(top, bottom)
        if spec.startswith("s") and spec[1:].isdigit():
            return hyperelliptic_permutation(int(spec[1:]))
        if ":" in spec:
            name, d_s = spec.split(":", 1)
            d = int(d_s)
            if name == "hyperelliptic":
                return hyperelliptic_permutation(d)
            pi_l, pi_r, pi_prime = special_permutations(d)
            table = {"pi_L": pi_l, "pi_R": pi_r, "pi_prime": pi_prime}
            if name in table:
                return table[name]
    except ValueError:  # a label or size that is not an integer
        pass
    raise UsageError(f"cannot parse permutation spec {spec!r}")


def _parse_lengths(spec: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x) for x in spec.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse lengths {spec!r}: {exc}") from None


def _parse_radii(spec: str) -> list[float]:
    """The argparse type of ``--r-grid``, comma-separated box sizes:
    positive floats whose size and reciprocal are both finite, so each has a
    finite log scale.  An empty grid is refused too."""
    try:
        radii = [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse radii {spec!r}: {exc}") from None
    if not all(0 < r < math.inf and 1 / r < math.inf for r in radii):
        raise UsageError(f"radii must be positive with finite log, got {spec!r}")
    return radii


def _parse_until(spec: str, d: int):
    """The stop rule of ``--until``; a ``perm:`` target must have the size d
    of the walk's permutation, since Rauzy moves keep the size."""
    if spec == "positive":
        return positive_matrix
    if ":" not in spec:
        raise UsageError(f"cannot parse stopping predicate {spec!r}")
    name, arg = spec.split(":", 1)
    try:
        if name == "balanced" and (zeta := Fraction(arg)) >= 1:
            return balanced(zeta)
        if name == "norm" and (n := float(arg)) >= 1:
            return norm_at_least(math.ceil(n))  # norm:2.5 stops at norm >= 3
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise UsageError(f"bad stopping predicate {spec!r}: {exc}") from None
    if name in ("balanced", "norm"):  # below 1: never holds, or holds at once
        raise UsageError(f"bad stopping predicate {spec!r}: every matrix has "
                         "norm and balance ratio >= 1")
    if name == "perm":
        target = _parse_perm(arg)
        if target.d != d:
            raise UsageError(f"stopping predicate {spec!r} has d = {target.d}, "
                             f"but the walk stays at d = {d}")
        return permutation_is(target)
    raise UsageError(f"unknown stopping predicate {name!r}")


def _parse_scale(spec: str) -> ExponentScale:
    if spec == "linear":
        return ExponentScale.linear()
    if spec.startswith("linear:"):
        try:
            coeffs = [float(x) for x in spec.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise UsageError(f"cannot parse scale {spec!r}: {exc}") from None
        if not all(map(math.isfinite, coeffs)):
            raise UsageError(f"scale coefficients must be finite, got {spec!r}")
        if len(coeffs) != 4:
            raise UsageError("linear scale needs four coefficients c6,c4,c2,c23")
        return ExponentScale.linear(*coeffs)
    if spec == "tower":
        return ExponentScale.tower()
    raise UsageError(f"unknown scale spec {spec!r}")


def _count(text: str) -> int:
    """The argparse type of every count flag: a non-negative whole number in
    decimal or scientific notation, read exactly: ``2000``, ``1e5`` and
    ``1.5e3``, not ``2.7`` or ``-1``; up to the float range, so a huge
    exponent builds no huge integer.  Its errors are argparse's, so the
    stderr line names the flag."""
    try:
        x = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not x.is_finite() or x != x.to_integral_value():
        raise argparse.ArgumentTypeError(f"count must be a whole number, got {text!r}")
    if abs(x) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"count out of range: {text!r}")
    if x < 0:
        raise argparse.ArgumentTypeError(f"count must be non-negative, got {text!r}")
    return int(x)


def _out_file(out: Path, name: str) -> Path:
    """out / name, creating ``out`` at its first write, so a run that stops
    on a usage error leaves no directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


# ---------------------------------------------------------------------------
# subcommands


# One edge and one vertex of a class document, as ``json.dumps(...,
# indent=2)`` writes them at their depth; every vertex has top and bottom
# rows and every class has edges, so no list here is empty.
_EDGE_TEXT = """    {
      "loser": %d,
      "side": %s,
      "source": %d,
      "target": %d,
      "winner": %d
    }"""
_VERTEX_TEXT = """    {
      "bottom": [
        %s
      ],
      "top": [
        %s
      ]
    }"""
_ROW_SEP = ",\n        "


def cmd_classes(args) -> int:
    """Write the class as ``json.dumps(..., indent=2)`` writes
    ``graph.to_doc()`` with the summary added, one template per edge and
    per vertex; the degrees are counted on the way."""
    spec = f"hyperelliptic:{args.d}" if args.seed_perm is None else args.seed_perm
    seed_pi = _parse_perm(spec)
    graph = rauzy_class(seed_pi, vertex_budget=args.budget)
    d = seed_pi.d
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    outs, ins = [0] * n, [0] * n
    side_text = {TOP_WINS: '"top-wins"', BOTTOM_WINS: '"bottom-wins"'}
    edges = []
    for e in graph.edges:
        source, target = index[e.source], index[e.target]
        outs[source] += 1
        ins[target] += 1
        edges.append(
            _EDGE_TEXT % (e.loser, side_text[e.side], source, target, e.winner)
        )
    summary = {
        "vertices": n,
        "edges": len(edges),
        "two_in_two_out": outs.count(2) == n == ins.count(2),
    }
    if d >= 4:
        pi_l, pi_r, _ = special_permutations(d)
        summary["contains_pi_L"] = pi_l in index
        summary["contains_pi_R"] = pi_r in index
    vertices = [
        _VERTEX_TEXT % (_ROW_SEP.join(map(str, v.bottom)), _ROW_SEP.join(map(str, v.top)))
        for v in graph.vertices
    ]
    graph_file = f"classes_d{d}.json"
    _out_file(args.out, graph_file).write_text(
        '{\n  "edges": [\n' + ",\n".join(edges)
        + f'\n  ],\n  "seed": {index[seed_pi]},\n  "summary": '
        + json.dumps(summary, sort_keys=True, indent=2).replace("\n", "\n  ")
        + ',\n  "vertices": [\n' + ",\n".join(vertices) + "\n  ]\n}\n",
        encoding="utf-8",
    )
    _write_manifest(
        args.out, "classes", _config(args, seed_perm=spec, d=d), [graph_file]
    )
    print(f"class of {spec}: {n} vertices, {len(edges)} edges")
    return EXIT_OK


def cmd_induct(args) -> int:
    T = Iet.make(_parse_lengths(args.lengths), _parse_perm(args.perm))
    try:
        if args.steps is not None:
            trace = induct(T, args.steps)
        else:
            stop = _parse_until(args.until, T.perm.d)
            trace = induct_until(T, stop, step_budget=args.budget)
    except InductionUndefinedError as exc:  # main reports it; the trace records it
        _out_file(args.out, "induct_trace.json").write_text(
            exc.partial.to_json() + "\n", encoding="utf-8"
        )
        raise
    _out_file(args.out, "induct_trace.json").write_text(
        trace.to_json() + "\n", encoding="utf-8"
    )
    _write_manifest(
        args.out,
        "induct",
        _config(args, lengths=[_frs(x) for x in T.lengths]),
        ["induct_trace.json"],
    )
    M = trace.matrix
    print(f"steps: {trace.steps}")
    print(f"final norm: {M.norm}")
    print(f"balance ratio: {float(M.balance_ratio()):.6g}")
    print(f"final permutation: {trace.induced.perm}")
    return EXIT_OK


# the config fields of each manifest command that ``estimate-dim`` reads,
# with the types they are written as; ``construct``'s config, its parsed
# options, has exactly these names (tests/test_cli.py ties them to the parser)
_MANIFEST_FIELDS = {
    "construct": {"d": (int,), "k0": (int,), "stages": (int,), "seed": (int,),
                  "zeta": (int, float), "scale": (str,)},
    "synthetic-cantor": {"levels": (int,)},
}


def _run_from_config(config: dict, report=None):
    """The construction a ``construct`` config describes: ``construct`` runs
    it, reporting each phase path to ``report``, and ``estimate-dim``
    rebuilds it from the manifest, reporting none."""
    scale = _parse_scale(config["scale"])
    schedule = make_schedule(
        config["k0"], scale, config["stages"], zeta=config["zeta"]
    )
    return run_construction(config["d"], schedule, config["seed"], report)


# a stage's row in the construct manifest and in stages.csv: k, then its stats
_STAGE_COLUMNS = ("k", "U", "u", "V", "v", "norm",
                  "angle_first_to_span", "angle_last_to_span")


def _construct_manifest_doc(config: dict, completed, run) -> dict:
    """The manifest of a run with ``completed`` stages; a ``run`` of None
    failed after them."""
    doc: dict = {
        "command": "construct",
        "config": config,
        "failed": run is None,
        "stages_completed": len(completed),
    }
    if run is None:
        return doc
    doc["stages"] = [  # the integers as decimal strings, the angles as floats
        {"k": st.k, **{c: str(x) if isinstance(x := st.stats[c], int) else x
                       for c in _STAGE_COLUMNS[1:]}}
        for st in completed
    ]
    # the pairs are built per call, since a tracer may have replaced these names
    for key, check in (("conditions_star", check_conditions_star),
                       ("conditions_double_star", check_condition_double_star),
                       ("angle_monotonicity", check_nue_angles)):
        doc[key] = [{f: getattr(r, f) for f in r.__slots__} for r in check(run)]
    doc["limit"] = {
        "vertex_lhs": list(run.limit.vertex_lhs),
        "vertex_rhs": list(run.limit.vertex_rhs),
        "intra_lhs": run.limit.intra_lhs,
        "intra_rhs": run.limit.intra_rhs,
        "inter": run.limit.inter,
        "representative_lengths": [
            _frs(x) for x in run.limit.representative.lengths
        ],
    }
    return doc


def _report_warnings(path) -> None:
    """Log each warning the phase ``path`` recorded on the construction's
    logger, with the warning as the message."""
    for message in path.warnings:
        import logging  # at the first warning, not at start-up

        logging.getLogger("ietkit.construction").warning(message)


def cmd_construct(args) -> int:
    config = _config(args)
    try:
        run = _run_from_config(config, _report_warnings)
    except StageError as exc:  # main reports it; the manifest records it
        doc = _construct_manifest_doc(config, exc.partial, None)
        doc["error"] = str(exc)
        _dump_json(doc, _out_file(args.out, "construct_manifest.json"))
        raise
    doc = _construct_manifest_doc(config, run.stages, run)
    _dump_json(doc, _out_file(args.out, "construct_manifest.json"))
    with _out_file(args.out, "stages.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # writes a float as its repr
        writer.writerow(_STAGE_COLUMNS)
        for st in doc["stages"]:
            writer.writerow([st[c] for c in _STAGE_COLUMNS])
    for r in doc["conditions_star"]:
        c1 = "-" if r["c1_pass"] is None else ("pass" if r["c1_pass"] else "FAIL")
        print(
            f"stage {r['stage']}: condition* "
            f"(1)={c1} (2)={'pass' if r['c2_pass'] else 'FAIL'} "
            f"(3)={'pass' if r['c3_pass'] else 'FAIL'} "
            f"(4)={'pass' if r['c4_pass'] else 'FAIL'}"
        )
    print(
        f"limit clusters: intra {run.limit.intra_lhs:.3g}/"
        f"{run.limit.intra_rhs:.3g}, inter {run.limit.inter:.3g}"
    )
    return EXIT_OK


def _random_path(pi: LabeledPermutation, rng: Random, n: int):
    """drive_path along n fair coin-flip sides from pi."""
    return drive_path(pi, [rng.choice([TOP_WINS, BOTTOM_WINS]) for _ in range(n)])


def _worst(verdicts) -> str:
    """The verdict of a suite of cases: VIOLATED if any case is, else
    INCONCLUSIVE if any is or there is none, else CONSISTENT."""
    return max(verdicts, key=(CONSISTENT, INCONCLUSIVE, VIOLATED).index,
               default=INCONCLUSIVE)


def _verify_symplectic(args, rng: Random) -> tuple[dict, str]:
    graph = hyperelliptic_class(args.d)
    verdicts = []
    for _ in range(args.paths):
        pi = graph.vertices[rng.randrange(len(graph.vertices))]
        M, pi_end, _ = _random_path(pi, rng, rng.randrange(1, 31))
        verdicts.append(CONSISTENT if verify_invariance(M, pi, pi_end) else VIOLATED)
    return {"paths": args.paths, "violations": verdicts.count(VIOLATED)}, _worst(verdicts)


def _verify_volume(args, rng: Random) -> tuple[dict, str]:
    verdicts = []
    pi0 = hyperelliptic_permutation(args.d)
    for _ in range(args.paths):
        M, _, _ = _random_path(pi0, rng, rng.randrange(1, 21))
        formula = simplex_volume_ratio(M, VisitationMatrix.identity(M.d))
        exact = normalized_det([M.column(j) for j in range(1, M.d + 1)])
        verdicts.append(CONSISTENT if formula == exact else VIOLATED)
    return {"paths": args.paths, "violations": verdicts.count(VIOLATED)}, _worst(verdicts)


def _verify_jacobian(args, rng: Random) -> tuple[dict, str]:
    M, _, _ = _random_path(hyperelliptic_permutation(args.d), rng, 10)
    rep = mc_jacobian_pushforward(M, half_simplex(args.d), args.samples, args.seed)
    return {
        "estimate": rep.estimate,
        "predicted": rep.claim_bound,
        "stderr": rep.stderr,
        "verdict": rep.verdict,
    }, rep.verdict


def _verify_probdecay(args, rng: Random) -> tuple[dict, str]:
    out = {}
    for dep in ("independent", "adversarial-markov"):
        rep = prob_decay_sim(0.3, dep, N=60, samples=args.samples, seed=args.seed)
        out[dep] = {
            "verdict": rep.report.verdict,
            "tau_hat": rep.tau_hat,
            "window_probs": list(rep.window_probs),
            "window_bounds": list(rep.window_bounds),
        }
    return out, _worst(case["verdict"] for case in out.values())


def _verify_concavity(args, rng: Random) -> tuple[dict, str]:
    if args.samples == 0:  # no plane sampled, no case judged
        return {"cases": []}, INCONCLUSIVE
    import numpy as np

    from ._floats import seed_entropy

    nrng = np.random.default_rng(seed_entropy(args.seed))
    cases = [("ball", {"ball": 1.0, "dim": 4}, 1e-2, args.samples, args.seed)]
    for eps in (1e-2, 1e-4):
        for trial in range(5):
            cases.append((f"polytope-{trial}", nrng.standard_normal((12, 4)), eps,
                          max(args.samples // 10, 100), args.seed + trial))
    results, verdicts = [], []
    for name, body, eps, samples, seed in cases:
        rep = plane_section_concavity_test(body, np.eye(4)[:2], eps, samples, seed=seed)
        results.append({"body": name, "eps": eps, "fraction": rep.estimate,
                        "bound": rep.claim_bound, "pass": rep.verdict != VIOLATED})
        verdicts.append(rep.verdict)
    return {"cases": results}, _worst(verdicts)


def _verify_balance(args, rng: Random) -> tuple[dict, str]:
    rep = mc_balance(
        hyperelliptic_permutation(args.d), zeta=20.0, K=4.0, m=8,
        samples=args.samples, seed=args.seed,
    )
    return {
        "fractions": list(rep.fractions),
        "sigma_hat": rep.sigma_hat,
        "sigma_ci_upper": rep.sigma_ci_upper,
    }, rep.report.verdict


_SUITES = {
    "symplectic": _verify_symplectic,
    "volume": _verify_volume,
    "jacobian": _verify_jacobian,
    "probdecay": _verify_probdecay,
    "concavity": _verify_concavity,
    "balance": _verify_balance,
}

_STATUS = {CONSISTENT: "ok", INCONCLUSIVE: "inconclusive", VIOLATED: "VIOLATED"}


def cmd_verify(args) -> int:
    rng = Random(args.seed)
    report, verdict = _SUITES[args.suite](args, rng)
    report["violated"] = verdict == VIOLATED
    if verdict == INCONCLUSIVE:
        report["verdict"] = INCONCLUSIVE
    doc = {"suite": args.suite, "config": _config(args), "report": report}
    report_file = f"verify_{args.suite}.json"
    _dump_json(doc, _out_file(args.out, report_file))
    _write_manifest(args.out, f"verify_{args.suite}", doc["config"], [report_file])
    print(f"verify {args.suite}: {_STATUS[verdict]}")
    return EXIT_VIOLATED if verdict == VIOLATED else EXIT_OK


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``: a JSON object whose command is one that
    ``estimate-dim`` reads, each config field it reads with its type (a bool
    is no int here), a synthetic-cantor run of at least one level, and a
    construct run that did not fail."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise UsageError(f"manifest {path} is not a JSON object")
    command, config = manifest.get("command"), manifest.get("config")
    fields = _MANIFEST_FIELDS.get(command) if isinstance(command, str) else None
    if fields is None:
        raise UsageError("manifest is not a construct or synthetic-cantor manifest")
    if not isinstance(config, dict):
        raise UsageError("manifest field 'config' is not an object")
    for name, kinds in fields.items():
        if name not in config:
            raise UsageError(f"manifest config has no field {name!r}")
        value = config[name]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise UsageError(f"manifest config field {name!r} must be "
                             f"{' or '.join(t.__name__ for t in kinds)}, got {value!r}")
    if "levels" in fields and config["levels"] < 1:
        raise UsageError(f"manifest config field 'levels' must be >= 1, "
                         f"got {config['levels']}")
    if command == "construct" and manifest.get("failed"):
        raise UsageError("manifest records a failed run")
    return manifest


def cmd_estimate_dim(args) -> int:
    manifest = _read_manifest(args.manifest)
    rows = []
    doc: dict = {"config": _config(args, manifest=str(args.manifest))}
    if manifest["command"] == "synthetic-cantor":
        families = [cantor_product_family(manifest["config"]["levels"])]
    else:
        run = _run_from_config(manifest["config"])
        families = build_nested_family(run, planes=args.planes, seed=args.seed)
    reports = []
    for idx, nf in enumerate(families):
        fro = frostman_measure(nf)
        pts = [p.centroid for p in nf.levels[-1]]
        try:
            fit = box_dimension(pts, args.r_grid or list(fro.radii))
            box_est = fit.estimate
        except IetkitError:
            box_est = None
        reports.append(
            {
                "plane": idx,
                "depth": nf.depth,
                "a": list(nf.a),
                "r_max": [r[0] for r in nf.radii],
                "r_min": [r[1] for r in nf.radii],
                "frostman_exponent": fro.exponent,
                "box_dimension": box_est,
            }
        )
        for r, m in zip(fro.radii, fro.masses):
            rows.append([idx, repr(r), repr(m), ""])
    doc["families"] = reports
    _dump_json(doc, _out_file(args.out, "estimate_dim.json"))
    with _out_file(args.out, "dim_fit.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plane", "r", "ball_mass", "note"])
        writer.writerows(rows)
    _write_manifest(
        args.out, "estimate_dim", doc["config"], ["estimate_dim.json", "dim_fit.csv"]
    )
    for rep in reports:
        print(
            f"plane {rep['plane']}: depth {rep['depth']}, "
            f"frostman exponent {rep['frostman_exponent']:.4f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse that raises its errors as ``UsageError`` for ``main`` to
    print; ``add_subparsers`` makes the subcommand parsers of this class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ietkit",
        description="Exact Rauzy-Veech induction, staged constructions, and "
        "desk-scale measure analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="enumerate a Rauzy class")
    seed = p.add_mutually_exclusive_group(required=True)
    seed.add_argument("--d", type=int, help="shorthand for --seed-perm hyperelliptic:D")
    seed.add_argument("--seed-perm", help="seed permutation spec")
    p.add_argument("--budget", type=_count, default=VERTEX_BUDGET)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("induct", help="run exact Rauzy-Veech induction")
    p.add_argument("--lengths", required=True, help='e.g. "2/3,1/3"')
    p.add_argument("--perm", required=True, help='e.g. "s2" or "1,2/2,1"')
    stop = p.add_mutually_exclusive_group(required=True)
    stop.add_argument("--steps", type=_count)
    stop.add_argument("--until", help="balanced:Z | norm:N | positive | perm:SPEC")
    p.add_argument("--budget", type=_count, default=STEP_BUDGET)
    p.set_defaults(func=cmd_induct)

    p = sub.add_parser("construct", help="run a staged construction")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--scale", default="linear",
                   help="linear | linear:c6,c4,c2,c23 | tower")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=ZETA)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES), metavar="suite",
                   help="|".join(sorted(_SUITES)))
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--paths", type=_count, default=1000)
    p.add_argument("--samples", type=_count, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate-dim", help="dimension estimates from a manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--planes", type=_count, default=5)
    p.add_argument("--r-grid", type=_parse_radii, help="comma-separated radii")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate_dim)

    for p in sub.choices.values():  # every subcommand writes into --out
        p.add_argument("--out", type=Path, default=Path("."))
    return parser


def main(argv=None) -> int:
    # outputs are exact rationals whose digits grow without bound; lift the
    # int/str conversion cap of Python 3.11+ (4300 digits) for them
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help; argparse's errors raise UsageError
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, ScheduleOverflowError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InductionUndefinedError as exc:
        print(f"induction undefined: {exc}", file=sys.stderr)
        return EXIT_INDUCTION
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except IetkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> NoReturn:
    """The process entry of ``ietkit`` and ``python -m ietkit.cli``:
    default ``OPENBLAS_NUM_THREADS`` to 1, keeping a value the caller set
    (a higher one gives BLAS its pool back), run ``main``, flush stdout,
    and leave by ``os._exit`` without tearing the interpreter down.  Every
    output file is closed before ``main`` returns, and stderr is
    line-buffered with every line ended, so only stdout's buffer is still
    open.  An exception escaping ``main``, a failed flush
    and a profiled or traced process take the normal exit instead: the
    first prints its traceback, the second its "Exception ignored" line
    and exit code 120, and the third lets the profiler or tracer write its
    report."""
    # OpenBLAS reads this once, as numpy loads; importing this module loads
    # no numpy (tests/test_imports.py), so none is loaded yet, and the exact
    # jobs, verify balance and estimate-dim on a construct manifest never
    # load it.  One thread also leaves the process free to fork
    # (_fork._usable_cpus).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    if not _observed():
        try:
            sys.stdout.flush()
        except OSError:  # a closed pipe: the normal exit reports it
            pass
        else:
            os._exit(code)
    sys.exit(code)


def _observed() -> bool:
    """A profiler or tracer watches this process: a profile or trace
    function, or a ``sys.monitoring`` tool (ids 0-5), which is how
    ``cProfile`` watches from Python 3.12 on."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        or monitoring is not None and any(map(monitoring.get_tool, range(6)))
    )


if __name__ == "__main__":
    console_main()
