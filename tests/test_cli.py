"""Subcommand exit codes, manifest determinism, and JSON conventions."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ietkit import analysis, cli, simplex_geometry
from ietkit.analysis import MAX_CANTOR_LEVELS, sample_simplex_exact
from ietkit.cli import (
    EXIT_BUDGET,
    EXIT_INDUCTION,
    EXIT_OK,
    EXIT_STAGE,
    EXIT_USAGE,
    EXIT_VIOLATED,
    _STAGE_COLUMNS,
    _dump_json,
    build_parser,
    main,
)
from ietkit.construction import ExponentScale, make_schedule, run_construction
from ietkit.perm import (
    LabeledPermutation,
    hyperelliptic_permutation,
    rauzy_class,
    special_permutations,
)


def run(args, tmp_path, sub="out"):
    out = tmp_path / sub
    return main(list(args) + ["--out", str(out)]), out


# -- classes ----------------------------------------------------------------


def test_classes_d4(tmp_path):
    code, out = run(["classes", "--d", "4"], tmp_path)
    assert code == EXIT_OK
    doc = json.loads((out / "classes_d4.json").read_text())
    assert doc["summary"]["vertices"] == 7
    assert doc["summary"]["edges"] == 14
    assert doc["summary"]["two_in_two_out"]
    assert doc["summary"]["contains_pi_L"]
    assert doc["summary"]["contains_pi_R"]
    manifest = json.loads((out / "classes_manifest.json").read_text())
    assert manifest["command"] == "classes"
    assert "classes_d4.json" in manifest["outputs"]


def test_classes_budget_exceeded(tmp_path):
    code, _ = run(["classes", "--d", "5", "--budget", "3"], tmp_path)
    assert code == EXIT_BUDGET


def test_classes_budget_below_one_holds_no_seed(tmp_path):
    code, _ = run(["classes", "--d", "2", "--budget", "0"], tmp_path, "zero")
    assert code == EXIT_BUDGET
    code, out = run(["classes", "--d", "2", "--budget", "1"], tmp_path, "one")
    assert code == EXIT_OK
    assert json.loads((out / "classes_d2.json").read_text())["summary"]["vertices"] == 1


# a vertex of the 1386-vertex d=7 class with 1..7 relabelled
RELABELLED_1386 = "6,1,4,7,3,2,5/5,7,2,6,3,1,4"


@pytest.mark.parametrize("spec", [f"s{d}" for d in range(2, 8)] + [RELABELLED_1386])
def test_classes_file_is_the_json_module_text(tmp_path, spec):
    """The templated class file is the ``json`` module's text of the graph's
    document with the summary added, byte for byte."""
    code, out = run(["classes", "--seed-perm", spec], tmp_path)
    assert code == EXIT_OK
    if spec == RELABELLED_1386:
        top, bottom = (tuple(map(int, row.split(","))) for row in spec.split("/"))
        seed = LabeledPermutation(top, bottom)
    else:
        seed = hyperelliptic_permutation(int(spec[1:]))
    graph = rauzy_class(seed)
    d = seed.d
    summary = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "two_in_two_out": all(
            len(graph.out_edges(v)) == 2 and len(graph.in_edges(v)) == 2
            for v in graph.vertices
        ),
    }
    if d >= 4:
        pi_l, pi_r, _ = special_permutations(d)
        summary["contains_pi_L"] = pi_l in graph
        summary["contains_pi_R"] = pi_r in graph
    expected = json.dumps(
        {**graph.to_doc(), "summary": summary}, sort_keys=True, indent=2
    ) + "\n"
    assert (out / f"classes_d{d}.json").read_text(encoding="utf-8") == expected
    assert summary["vertices"] == (1386 if spec == RELABELLED_1386 else 2 ** (d - 1) - 1)


@pytest.mark.parametrize("spec,d,size", [("s5", 5, 15), (RELABELLED_1386, 7, 1386)])
def test_classes_budget_of_exactly_the_class(tmp_path, spec, d, size):
    code, out = run(["classes", "--seed-perm", spec, "--budget", str(size)], tmp_path, "fits")
    assert code == EXIT_OK
    assert json.loads((out / f"classes_d{d}.json").read_text())["summary"]["vertices"] == size
    code, _ = run(["classes", "--seed-perm", spec, "--budget", str(size - 1)], tmp_path, "short")
    assert code == EXIT_BUDGET


def test_classes_needs_a_seed(tmp_path):
    code, _ = run(["classes"], tmp_path)
    assert code == EXIT_USAGE


def test_classes_reducible_seed_is_usage(tmp_path, capsys):
    code, _ = run(["classes", "--seed-perm", "1,2,3/1,2,3"], tmp_path)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: reducible")


def test_bad_subcommand_is_usage(tmp_path):
    assert main(["no-such-command"]) == EXIT_USAGE


# -- induct -----------------------------------------------------------------


def test_induct_fixed_steps(tmp_path):
    code, out = run(
        ["induct", "--lengths", "987/1597,610/1597", "--perm", "s2",
         "--steps", "6"],
        tmp_path,
    )
    assert code == EXIT_OK
    trace = json.loads((out / "induct_trace.json").read_text())
    assert trace["steps"] == 6
    manifest = json.loads((out / "induct_manifest.json").read_text())
    assert manifest["config"]["lengths"] == ["987/1597", "610/1597"]


def test_induct_equality_case_exits_three(tmp_path):
    code, out = run(
        ["induct", "--lengths", "3/7,2/7,1/7,1/7", "--perm", "s4",
         "--steps", "10"],
        tmp_path,
    )
    assert code == EXIT_INDUCTION
    trace = json.loads((out / "induct_trace.json").read_text())
    assert trace["steps"] == 3


def test_induct_needs_exactly_one_stop(tmp_path):
    code, _ = run(
        ["induct", "--lengths", "2/3,1/3", "--perm", "s2",
         "--steps", "2", "--until", "positive"],
        tmp_path,
    )
    assert code == EXIT_USAGE


def test_induct_reducible_perm_is_usage(tmp_path, capsys):
    # the last two inputs end both rows in the same symbol, which compares an
    # interval with itself unless the walk checks irreducibility first
    for perm, lengths, stop in [
        ("1,2,3/1,3,2", "1/3,1/2,1/6", ["--steps", "3"]),
        ("2,1,3/1,2,3", "1/3,1/2,1/6", ["--steps", "3"]),
        ("1,2/1,2", "1/3,2/3", ["--until", "norm:5"]),
    ]:
        code, _ = run(
            ["induct", "--perm", perm, "--lengths", lengths, *stop], tmp_path
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: reducible")


@pytest.mark.parametrize(
    "until",
    ["norm:abc", "balanced:abc", "balanced:-1", "balanced:1/2", "norm:-5", "norm:0"],
)
def test_induct_malformed_until_is_usage(tmp_path, capsys, until):
    code, _ = run(
        ["induct", "--lengths", "2/3,1/3", "--perm", "s2", "--until", until],
        tmp_path,
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_induct_budget_exceeded(tmp_path):
    code, _ = run(
        ["induct", "--lengths", "987/1597,610/1597", "--perm", "s2",
         "--until", "norm:1e9", "--budget", "5"],
        tmp_path,
    )
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("until", ["norm:2.5", "norm:3", "norm:2.0000001"])
def test_induct_until_fractional_norm_rounds_up(tmp_path, until):
    # norm:N stops at the first matrix of norm >= N, so a fractional N acts
    # as the next integer: 3 steps to norm 3 here, never 1 step to norm 2
    code, out = run(
        ["induct", "--perm", "s3", "--lengths", "5/11,4/11,2/11", "--until", until],
        tmp_path,
    )
    assert code == EXIT_OK
    trace = json.loads((out / "induct_trace.json").read_text())
    norm = max(sum(int(row[j]) for row in trace["matrix"]) for j in range(3))
    assert (trace["steps"], norm) == (3, 3)


def test_induct_until_norm_below_one_is_usage(tmp_path, capsys):
    code, _ = run(
        ["induct", "--perm", "s3", "--lengths", "5/11,4/11,2/11",
         "--until", "norm:0.5"],
        tmp_path,
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_induct_until_perm_of_another_size_is_usage(tmp_path, capsys):
    # Rauzy moves keep d, so a d = 3 walk never reaches a d = 4 target; the
    # run used to go on to the equality case and exit 3
    code, out = run(
        ["induct", "--perm", "s3", "--lengths", "1/3,1/5,1/7", "--until", "perm:s4"],
        tmp_path,
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not (out / "induct_trace.json").exists()


def test_induct_until_balanced(tmp_path):
    code, out = run(
        ["induct", "--lengths", "509/1009,251/1009,151/1009,98/1009",
         "--perm", "s4", "--until", "balanced:10"],
        tmp_path,
    )
    assert code == EXIT_OK
    assert (out / "induct_trace.json").exists()
    # the stop is the first positive 3-balanced matrix, not the identity
    lengths = ",".join(map(str, sample_simplex_exact(5, Random(2))))
    code, out = run(
        ["induct", "--lengths", lengths, "--perm", "s5", "--until", "balanced:3"],
        tmp_path, "s5",
    )
    assert code == EXIT_OK
    trace = json.loads((out / "induct_trace.json").read_text())
    rows = [[int(x) for x in row] for row in trace["matrix"]]
    norms = [sum(col) for col in zip(*rows)]
    assert trace["steps"] > 0
    assert all(x > 0 for row in rows for x in row)
    assert max(norms) <= 3 * min(norms)


def test_induct_big_rationals(tmp_path):
    # five distinct 1000-digit denominators: the induced lengths and the
    # trace's strings pass the interpreter's default 4300-digit int/str cap,
    # which main lifts for the whole process, so the trace parses back here
    rng = Random(5)
    lengths = ",".join(
        f"{rng.randrange(10**998, 10**999)}/{rng.randrange(10**999, 10**1000)}"
        for _ in range(5)
    )
    code, out = run(
        ["induct", "--lengths", lengths, "--perm", "s5", "--steps", "60"], tmp_path
    )
    assert code == EXIT_OK
    trace = json.loads((out / "induct_trace.json").read_text())
    assert trace["steps"] == 60
    start = [Fraction(x) for x in trace["start"]["lengths"]]
    induced = [Fraction(x) for x in trace["induced_lengths"]]
    matrix = [[int(x) for x in row] for row in trace["matrix"]]
    assert [sum(a * x for a, x in zip(row, induced)) for row in matrix] == start
    assert max(len(str(x.denominator)) for x in induced) > 4300


# -- construct --------------------------------------------------------------


def construct_args(seed=11):
    return ["construct", "--d", "4", "--k0", "1", "--scale", "linear",
            "--stages", "3", "--seed", str(seed)]


def test_construct_manifests_byte_identical(tmp_path):
    code1, out1 = run(construct_args(), tmp_path, "a")
    code2, out2 = run(construct_args(), tmp_path, "b")
    assert code1 == code2 == EXIT_OK
    b1 = (out1 / "construct_manifest.json").read_bytes()
    b2 = (out2 / "construct_manifest.json").read_bytes()
    assert b1 == b2
    assert (out1 / "stages.csv").read_bytes() == (out2 / "stages.csv").read_bytes()


def test_construct_manifest_contents(tmp_path):
    code, out = run(construct_args(), tmp_path)
    assert code == EXIT_OK
    doc = json.loads((out / "construct_manifest.json").read_text())
    assert doc["stages_completed"] == 3
    assert not doc["failed"]
    assert len(doc["stages"]) == 3
    for rep in doc["conditions_star"]:
        assert rep["c2_pass"] and rep["c3_pass"] and rep["c4_pass"]
    for rep in doc["angle_monotonicity"]:
        assert rep["lhs_monotone"] and rep["rhs_monotone"]
    assert doc["limit"]["inter"] > 0.5


def test_construct_config_round_trips_through_estimate_dim(tmp_path):
    # every option away from its default, so a dropped or renamed field shows
    code, out = run(["construct", "--d", "5", "--k0", "2",
                     "--scale", "linear:0.7,0.35,0.2,0.1", "--stages", "3",
                     "--seed", "7", "--zeta", "16"], tmp_path)
    assert code == EXIT_OK
    config = json.loads((out / "construct_manifest.json").read_text())["config"]
    assert config == {"d": 5, "k0": 2, "scale": "linear:0.7,0.35,0.2,0.1",
                      "stages": 3, "seed": 7, "zeta": 16.0}
    rebuilt = cli._run_from_config(config)
    scale = ExponentScale.linear(0.7, 0.35, 0.2, 0.1)
    direct = run_construction(5, make_schedule(2, scale, 3, zeta=16), 7)
    assert [st.cumulative.rows for st in rebuilt.stages] == [
        st.cumulative.rows for st in direct.stages
    ]
    assert len(rebuilt.stages) == 3


def test_stage_stats_are_the_stage_columns():
    # the manifest and stages.csv name each stage column once, from the stats
    run_ = run_construction(4, make_schedule(1, ExponentScale.linear(), 3), seed=11)
    for st in run_.stages:
        assert sorted(st.stats) == sorted(_STAGE_COLUMNS[1:])


def test_construct_tower_scale_overflows(tmp_path):
    code, _ = run(
        ["construct", "--d", "4", "--scale", "tower", "--stages", "1"],
        tmp_path,
    )
    assert code == EXIT_BUDGET


def test_construct_angle_threshold_overflow_is_budget(tmp_path, capsys):
    # the schedule is valid, but 10^(-c* p6) of its angle thresholds is not
    # a float; this was an OverflowError traceback
    code, _ = run(
        ["construct", "--d", "4", "--stages", "1",
         "--scale", "linear:-7.5e12,1.5e13,0,0"],
        tmp_path,
    )
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_construct_runs_past_the_float_range_of_a_squared_entry(tmp_path, capsys):
    # the cumulative norm reaches 551 bits at stage 11: squaring a float of
    # its entries overflowed in the column angles, an OverflowError traceback
    code, out = run(
        ["construct", "--d", "4", "--stages", "11", "--seed", "1",
         "--scale", "linear:0.5,0.25,0.15,0.08"],
        tmp_path,
    )
    assert code == EXIT_OK
    doc = json.loads((out / "construct_manifest.json").read_text())
    assert int(doc["stages"][-1]["norm"]).bit_length() > 512
    assert "Traceback" not in capsys.readouterr().err


def test_construct_logs_each_recorded_warning_once_and_estimate_dim_none(tmp_path):
    # in a fresh interpreter, since pytest's log capture would take the
    # warnings off stderr here
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def job(*args):
        return subprocess.run([sys.executable, "-m", "ietkit.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    def recorded(stages):
        run_ = run_construction(4, make_schedule(1, ExponentScale.linear(), stages), 3)
        return "".join(f"{w}\n" for st in run_.stages
                       for path in st.phases.values() for w in path.warnings)

    built = job("construct", "--d", "4", "--stages", "3", "--seed", "3", "--out", "c")
    assert built.returncode == EXIT_OK
    assert built.stderr == recorded(3) and built.stderr.count("\n") == 2
    rebuilt = job("estimate-dim", "--manifest", "c/construct_manifest.json",
                  "--planes", "2", "--out", "e")
    assert rebuilt.returncode == EXIT_OK
    assert rebuilt.stderr == ""
    # a run that overflows at stage 9 still reports the stages it completed
    overflowed = job("construct", "--d", "4", "--stages", "9", "--seed", "3")
    assert overflowed.returncode == EXIT_BUDGET
    warnings, error = overflowed.stderr.rsplit("\n", 2)[:2]
    assert f"{warnings}\n" == recorded(8)
    assert error.startswith("budget exceeded: 10^19.5 ")


def test_construct_logs_the_failed_stage_warnings_before_its_failure(tmp_path):
    # stage 2's freedom-LHS overshoots, then its restriction runs out of a
    # budget of 40 moves; in a fresh interpreter, as above
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys\nimport ietkit.construction\n"
            "ietkit.construction.PHASE_BUDGET = 40\n"
            "from ietkit.cli import main\nsys.exit(main(sys.argv[1:]))")
    failed = subprocess.run(
        [sys.executable, "-c", code, "construct", "--d", "5", "--stages", "3",
         "--seed", "0", "--out", "c"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120,
    )
    assert failed.returncode == EXIT_STAGE
    assert failed.stderr == (
        "freedom-LHS: norm 799 overshot window [10^2.45, 10^2.75]; widened\n"
        "stage failure: stage 2 failed: restriction-LHS window unreachable "
        "within budget\n"
    )
    assert json.loads((tmp_path / "c" / "construct_manifest.json").read_text()) == {
        "command": "construct",
        "config": {"d": 5, "k0": 1, "scale": "linear", "seed": 0, "stages": 3,
                   "zeta": 32.0},
        "error": "stage 2 failed: restriction-LHS window unreachable within budget",
        "failed": True,
        "stages_completed": 1,
    }


def test_construct_stops_at_the_first_overflowing_stage(tmp_path, capsys):
    # the schedule builds no window past stage 9, whatever --stages asks for
    code, _ = run(["construct", "--d", "4", "--stages", "9"], tmp_path, "nine")
    assert code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: 10^19.5 ")
    code, _ = run(["construct", "--d", "4", "--stages", "1000000"], tmp_path, "many")
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err == err


def test_construct_unknown_scale_is_usage(tmp_path):
    code, _ = run(["construct", "--scale", "cubic"], tmp_path)
    assert code == EXIT_USAGE


def test_construct_failure_counts_completed_stages(tmp_path, capsys, monkeypatch):
    from ietkit import construction

    monkeypatch.setattr(construction, "PHASE_BUDGET", 40)  # stage 2's A' runs out
    code, out = run(
        ["construct", "--d", "5", "--stages", "3", "--seed", "0"], tmp_path
    )
    assert code == EXIT_STAGE
    assert capsys.readouterr().err.startswith("stage failure: stage 2 failed: ")
    doc = json.loads((out / "construct_manifest.json").read_text())
    assert doc["failed"] and doc["stages_completed"] == 1
    assert doc["error"].startswith("stage 2 failed: ")
    assert doc["config"] == {"d": 5, "k0": 1, "scale": "linear", "seed": 0,
                             "stages": 3, "zeta": 32.0}


def test_construct_steering_past_the_vertex_budget_is_a_stage_failure(
    tmp_path, capsys, monkeypatch
):
    from ietkit import perm

    # stage 1's restriction steers through 2^12 - 2 vertices at d = 16
    monkeypatch.setattr(perm, "VERTEX_BUDGET", 1000)
    code, out = run(["construct", "--d", "16", "--stages", "1"], tmp_path)
    assert code == EXIT_STAGE
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("stage failure: ")]
    assert failures == ["stage failure: stage 1 failed: search of the Rauzy "
                        "diagram exceeded vertex budget 1000"]
    doc = json.loads((out / "construct_manifest.json").read_text())
    assert doc["failed"] is True and doc["stages_completed"] == 0


@pytest.mark.parametrize("k0,scale", [
    (10**62, "tower"),  # float(k0) ** 6 overflows
    (10**300, "linear"),  # a window beyond the integer budget
    (10**309, "linear"),  # k0 itself is beyond the float range
], ids=["tower-1e62", "linear-1e300", "linear-1e309"])
def test_construct_huge_k0_is_budget(tmp_path, capsys, k0, scale):
    code, out = run(
        ["construct", "--stages", "1", "--k0", str(k0), "--scale", scale], tmp_path
    )
    assert code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    assert not (out / "construct_manifest.json").exists()


# -- JSON conventions -------------------------------------------------------


def test_json_keys_sorted_and_no_timestamps(tmp_path):
    _, out = run(construct_args(), tmp_path)
    raw = (out / "construct_manifest.json").read_text()
    doc = json.loads(raw)
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert not re.search(r"time|date|stamp", raw, re.IGNORECASE)


JSON_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "\ud800", "é\U0001f600"]),
)
JSON_INTS = st.one_of(st.integers(), st.integers(-(10**400), 10**400))
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_FLOATS, JSON_TEXT)
# the keys of one dict are all str, all numbers or bool, or None, so that
# sorting them raises no TypeError
JSON_KEYS = (JSON_TEXT, st.one_of(JSON_INTS, JSON_FLOATS, st.booleans()), st.none())
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.one_of(JSON_INTS, st.booleans()), max_size=4),
        *(st.dictionaries(k, children, max_size=4) for k in JSON_KEYS),
    ),
    max_leaves=24,
)


@pytest.mark.parametrize("doc", [
    {"a": object()}, [1, {2, 3}], {"a": [b"bytes"]}, Fraction(1, 2),
    {(1, 2): 0}, {"a": 1, 2: 3},
], ids=["object", "set", "bytes", "fraction", "tuple-key", "mixed-keys"])
def test_dump_json_refuses_what_json_refuses(tmp_path, doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dump_json(doc, tmp_path / "doc.json")
    assert not (tmp_path / "doc.json").exists()


def test_every_json_output_is_the_json_module_text(tmp_path):
    """Each JSON file a subcommand writes re-encodes to the same bytes."""
    runs = [
        ["classes", "--d", "5"],
        construct_args(),
        ["estimate-dim", "--manifest", str(tmp_path / "1" / "construct_manifest.json"),
         "--planes", "2"],
        *(["verify", suite, "--d", "4", "--paths", "5", "--samples", "200"]
          for suite in ("symplectic", "volume", "jacobian", "probdecay",
                        "concavity", "balance")),
    ]
    files = []
    for k, argv in enumerate(runs):
        code, out = run(argv, tmp_path, str(k))
        assert code in (EXIT_OK, EXIT_VIOLATED)
        files += sorted(out.glob("*.json"))
    assert len(files) == 2 * len(runs) - 1  # construct's manifest is its one
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_rationals_serialized_as_p_over_q(tmp_path):
    _, out = run(construct_args(), tmp_path)
    doc = json.loads((out / "construct_manifest.json").read_text())
    for s in doc["limit"]["representative_lengths"]:
        assert re.fullmatch(r"-?\d+(/\d+)?", s)
    for st in doc["stages"]:
        assert re.fullmatch(r"\d+", st["norm"])  # big ints as decimal strings


# -- verify -----------------------------------------------------------------


def test_verify_symplectic_ok(tmp_path):
    code, out = run(
        ["verify", "symplectic", "--d", "4", "--paths", "50"], tmp_path
    )
    assert code == EXIT_OK
    doc = json.loads((out / "verify_symplectic.json").read_text())
    assert doc["report"]["violations"] == 0


def test_verify_volume_ok(tmp_path):
    code, out = run(["verify", "volume", "--d", "3", "--paths", "40"], tmp_path)
    assert code == EXIT_OK
    doc = json.loads((out / "verify_volume.json").read_text())
    assert not doc["report"]["violated"]


def test_verify_balance_ok(tmp_path):
    code, out = run(
        ["verify", "balance", "--d", "4", "--samples", "2000"], tmp_path
    )
    assert code == EXIT_OK
    doc = json.loads((out / "verify_balance.json").read_text())
    assert doc["report"]["sigma_hat"] < 1


def test_balance_decides_by_the_upper_bound(tmp_path, monkeypatch):
    """A decay ratio fitted below 1 whose 95% upper bound is not is a
    violation, in the report as on the command line."""
    # slope log 0.9 with standard error 0.2: sigma_hat 0.9, upper bound 1.25
    monkeypatch.setattr(analysis, "_line_fit", lambda xs, ys: (math.log(0.9), 0.0, 0.2))
    rep = analysis.mc_balance(hyperelliptic_permutation(4), zeta=20.0, K=4.0, m=8,
                              samples=300, seed=0)
    assert rep.sigma_hat == pytest.approx(0.9)
    assert rep.sigma_ci_upper == pytest.approx(1.25, abs=0.01)
    assert rep.report.verdict == analysis.VIOLATED
    code, out = run(["verify", "balance", "--d", "4", "--samples", "300"], tmp_path)
    assert code == EXIT_VIOLATED
    assert json.loads((out / "verify_balance.json").read_text())["report"]["violated"]


def test_verify_inconclusive_is_not_ok(tmp_path, capsys):
    code, out = run(
        ["verify", "jacobian", "--samples", "0", "--d", "4"], tmp_path
    )
    assert code == EXIT_OK
    doc = json.loads((out / "verify_jacobian.json").read_text())
    assert doc["report"]["verdict"] == "inconclusive"
    assert capsys.readouterr().out == "verify jacobian: inconclusive\n"


def test_verify_balance_without_a_decay_fit_is_inconclusive(tmp_path, capsys):
    # at d=40 no scan balances below the norm limit: every fraction is 1.0
    code, out = run(["verify", "balance", "--d", "40", "--samples", "3"], tmp_path)
    assert code == EXIT_OK
    assert capsys.readouterr().out == "verify balance: inconclusive\n"
    report = json.loads((out / "verify_balance.json").read_text())["report"]
    assert report["fractions"] == [1.0] * 8
    assert report["verdict"] == "inconclusive"
    assert report["violated"] is False


def test_verify_balance_from_one_sample_is_inconclusive(tmp_path, capsys):
    # fractions 1, 1, 0, ..., 0: none in the fit window, so no decay ratio
    code, out = run(["verify", "balance", "--d", "4", "--samples", "1", "--seed", "3"],
                    tmp_path)
    assert code == EXIT_OK
    assert capsys.readouterr().out == "verify balance: inconclusive\n"
    report = json.loads((out / "verify_balance.json").read_text())["report"]
    assert report["fractions"] == [1.0, 1.0] + [0.0] * 6
    assert report["verdict"] == "inconclusive" and report["violated"] is False
    assert math.isnan(report["sigma_hat"]) and math.isnan(report["sigma_ci_upper"])


@pytest.mark.parametrize("zeta", ["nan", "inf", "-1", "1"])
def test_construct_zeta_must_be_finite_above_one(tmp_path, capsys, zeta):
    code, out = run(["construct", "--d", "4", "--stages", "1", "--zeta", zeta],
                    tmp_path)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: zeta must be finite")
    assert not (out / "construct_manifest.json").exists()


@pytest.mark.parametrize("suite", ["balance", "concavity", "jacobian", "probdecay"])
def test_verify_without_samples_is_inconclusive(tmp_path, capsys, suite):
    code, out = run(["verify", suite, "--samples", "0"], tmp_path)
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"verify {suite}: inconclusive\n"
    doc = json.loads((out / f"verify_{suite}.json").read_text())
    assert doc["report"]["violated"] is False
    assert doc["report"]["verdict"] == "inconclusive"


@pytest.mark.parametrize(("samples", "seed", "status"),
                         [(1, 8, "inconclusive"), (1, 4, "ok"), (1000, 428225, "ok")])
def test_verify_concavity_allows_for_sampling_error(tmp_path, capsys, samples, seed,
                                                    status):
    """Seed 8's one ball plane misses the ball, so that case is judged on
    nothing; at seed 4 a polytope case of a few planes, and at seed 428225
    one of 3 small sections in 74 (0.0405 against 0.04), are consistent
    within their sampling error."""
    code, out = run(["verify", "concavity", "--samples", str(samples),
                     "--seed", str(seed)], tmp_path)
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"verify concavity: {status}\n"
    report = json.loads((out / "verify_concavity.json").read_text())["report"]
    assert report["violated"] is False
    assert report.get("verdict") == ("inconclusive" if status == "inconclusive" else None)
    assert all(case["pass"] for case in report["cases"])
    assert math.isnan(report["cases"][0]["fraction"]) == (seed == 8)


def test_verify_concavity_below_a_planted_bound_is_violated(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simplex_geometry, "CONCAVITY_CONSTANT", -1.0)
    code, out = run(["verify", "concavity", "--samples", "300"], tmp_path)
    assert code == EXIT_VIOLATED
    assert capsys.readouterr().out == "verify concavity: VIOLATED\n"
    report = json.loads((out / "verify_concavity.json").read_text())["report"]
    assert report["violated"] is True and "verdict" not in report
    assert not report["cases"][0]["pass"]  # the ball, judged on about 235 planes


@pytest.mark.parametrize("suite", ["symplectic", "volume"])
def test_verify_without_paths_is_inconclusive(tmp_path, capsys, suite):
    code, out = run(["verify", suite, "--paths", "0"], tmp_path)
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"verify {suite}: inconclusive\n"
    report = json.loads((out / f"verify_{suite}.json").read_text())["report"]
    assert report == {"paths": 0, "violations": 0, "violated": False,
                      "verdict": "inconclusive"}
    code, out = run(["verify", suite, "--paths", "1"], tmp_path, "one")
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"verify {suite}: ok\n"
    assert "verdict" not in json.loads((out / f"verify_{suite}.json").read_text())["report"]


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--scale", "linear:1,-1,1,1"],  # ScheduleError: B' under B
        ["construct", "--scale", "linear:0,0,0,0"],  # ScheduleError: collapsed
    ],
)
def test_other_package_errors_exit_one(tmp_path, capsys, args):
    code, _ = run(args, tmp_path)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "jacobian", "--samples", "-1"],
        ["verify", "jacobian", "--samples", "inf"],  # was an OverflowError
        ["verify", "balance", "--samples", "-1"],
        ["verify", "symplectic", "--paths", "-1"],
        ["estimate-dim", "--manifest", "missing.json", "--planes", "-3"],
        ["induct", "--perm", "s3", "--lengths", "1/2,1/3,1/6", "--steps", "-1"],
        ["induct", "--perm", "s3", "--lengths", "1/2,1/3,1/6",
         "--until", "positive", "--budget", "-1"],
        ["classes", "--d", "4", "--budget", "-1"],
    ],
)
def test_negative_counts_are_usage(tmp_path, capsys, args):
    code, out = run(args, tmp_path)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {args[-2]}: ") and err.count("\n") == 1
    assert not out.exists()


# every count flag of the CLI, after the arguments its subcommand needs
COUNT_FLAGS = [
    (["classes", "--d", "4"], "--budget"),
    (["induct", "--perm", "s3", "--lengths", "1/2,1/3,1/6"], "--steps"),
    (["induct", "--perm", "s3", "--lengths", "1/2,1/3,1/6", "--until", "positive"],
     "--budget"),
    (["verify", "symplectic"], "--paths"),
    (["verify", "balance"], "--samples"),
    (["estimate-dim", "--manifest", "missing.json"], "--planes"),
]


def subparsers() -> dict:
    """Each subcommand's parser, by name."""
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_count_flag_reads_by_one_type():
    counts = {(name, a.option_strings[0]) for name, p in subparsers().items()
              for a in p._actions if a.type is cli._count}
    assert counts == {(argv[0], flag) for argv, flag in COUNT_FLAGS}


@pytest.mark.parametrize("text", ["2.7", "-0.5", "1e-3", "nan", "abc", "1e400"])
def test_samples_that_are_not_whole_are_usage(tmp_path, capsys, text):
    for argv, flag in COUNT_FLAGS:
        code, out = run([*argv, flag, text], tmp_path)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("text, samples", [
    ("2000", 2000), ("1e5", 10**5), ("1.5e3", 1500), ("2.0", 2),
    ("123456789012345678901", 123456789012345678901),  # past float precision
])
def test_whole_samples_are_read_exactly(text, samples):
    for argv, flag in COUNT_FLAGS:
        args = build_parser().parse_args([*argv, flag, text])
        assert getattr(args, flag[2:]) == samples


@pytest.mark.parametrize(
    "args",
    [
        ["induct", "--perm", "1,2/x", "--lengths", "1/3,2/3", "--steps", "1"],
        ["induct", "--perm", "pi_L:four", "--lengths", "1/3,2/3", "--steps", "1"],
        ["construct", "--scale", "linear:a,b,c,d"],
        ["construct", "--scale", "linear:nan,1,1,1"],
    ],
)
def test_malformed_specs_are_usage(tmp_path, capsys, args):
    code, _ = run(args, tmp_path)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


def test_verify_unknown_suite(tmp_path):
    code, _ = run(["verify", "astrology"], tmp_path)
    assert code == EXIT_USAGE


def test_violated_exit_code_is_distinct():
    assert EXIT_VIOLATED not in {
        EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_INDUCTION, EXIT_STAGE
    }


# -- estimate-dim -----------------------------------------------------------


def test_estimate_dim_missing_manifest(tmp_path):
    code, _ = run(
        ["estimate-dim", "--manifest", str(tmp_path / "nope.json")], tmp_path
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["induct", "--perm", "s3", "--lengths", "1/3,1/5,1/7", "--until", "perm:s4"],
    ["estimate-dim", "--manifest", "no/such/manifest.json"],
], ids=["induct-until-other-d", "estimate-dim-missing-manifest"])
def test_usage_error_leaves_no_out_directory(tmp_path, args):
    # the --out directory is made at the first write, not before the inputs
    # are read
    code, out = run(args, tmp_path)
    assert code == EXIT_USAGE
    assert not out.exists()


CONSTRUCT_CONFIG = {"d": 5, "k0": 1, "stages": 2, "seed": 0, "zeta": 32.0,
                    "scale": "linear"}


@pytest.mark.parametrize("content", [
    None, b"\xff\xfe", b"not json", b"[" * 100000 + b"]" * 100000, b"[1,2]",
    b'{"command":"construct","config":{}}',
    b'{"command":"construct","config":[]}',
    b'{"command":"synthetic-cantor","config":{"levels":"x"}}',
    b'{"command":"synthetic-cantor","config":{"levels":-3}}',
    b'{"command":"synthetic-cantor","config":{"levels":true}}',
    json.dumps({"command": "construct",
                "config": {**CONSTRUCT_CONFIG, "d": "5"}}).encode(),
    json.dumps({"command": "construct",
                "config": {**CONSTRUCT_CONFIG, "stages": 2.5}}).encode(),
], ids=["directory", "not-utf8", "not-json", "too-deep", "list", "no-fields",
        "config-list", "levels-str", "levels-negative", "levels-bool", "d-str",
        "stages-float"])
def test_estimate_dim_malformed_manifest_is_usage(tmp_path, capsys, content):
    manifest = tmp_path / "manifest.json"
    if content is None:
        manifest.mkdir()
    else:
        manifest.write_bytes(content)
    code, out = run(["estimate-dim", "--manifest", str(manifest)], tmp_path)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_estimate_dim_synthetic_cantor(tmp_path):
    manifest = tmp_path / "synthetic.json"
    manifest.write_text(
        json.dumps({"command": "synthetic-cantor", "config": {"levels": 5}})
    )
    code, out = run(
        ["estimate-dim", "--manifest", str(manifest)], tmp_path
    )
    assert code == EXIT_OK
    doc = json.loads((out / "estimate_dim.json").read_text())
    assert len(doc["families"]) == 1
    expo = doc["families"][0]["frostman_exponent"]
    assert expo == pytest.approx(1.2619, abs=0.15)
    assert (out / "dim_fit.csv").exists()


def cantor_manifest(tmp_path, levels=3):
    manifest = tmp_path / "synthetic.json"
    manifest.write_text(
        json.dumps({"command": "synthetic-cantor", "config": {"levels": levels}})
    )
    return manifest


@pytest.mark.parametrize("levels", [MAX_CANTOR_LEVELS + 1, 10**6])
def test_estimate_dim_refuses_cantor_levels_over_the_cap(tmp_path, capsys, monkeypatch,
                                                         levels):
    # each level costs about 4 times the one before, so the run stops before
    # its first square is built
    def no_square(*args):
        raise AssertionError("a square was built")

    monkeypatch.setattr(analysis, "_square", no_square)
    code, out = run(["estimate-dim", "--manifest", str(cantor_manifest(tmp_path, levels))],
                    tmp_path)
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err == (f"budget exceeded: {levels} Cantor levels are "
                                       f"beyond the cap of {MAX_CANTOR_LEVELS}\n")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["abc", "0,-1", "nan,inf", "1e-400", "0.5,,0.1", ""])
def test_estimate_dim_bad_r_grid_is_usage(tmp_path, capsys, grid):
    code, out = run(
        ["estimate-dim", "--manifest", str(cantor_manifest(tmp_path)),
         "--r-grid", grid],
        tmp_path,
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_estimate_dim_uses_the_given_r_grid(tmp_path):
    code, out = run(
        ["estimate-dim", "--manifest", str(cantor_manifest(tmp_path)),
         "--r-grid", f"1.5,0.5,{1 / 6},{1 / 18}"],
        tmp_path,
    )
    assert code == EXIT_OK
    fam = json.loads((out / "estimate_dim.json").read_text())["families"][0]
    # cells of side 3/2, 1/2, 1/6 and 1/18 meet 1, 4, 16 and 64 level-3 squares
    assert fam["box_dimension"] == pytest.approx(math.log(4) / math.log(3))


def test_estimate_dim_from_construct_manifest(tmp_path):
    _, cdir = run(construct_args(), tmp_path, "c")
    code, out = run(
        ["estimate-dim", "--manifest", str(cdir / "construct_manifest.json"),
         "--planes", "2", "--seed", "3"],
        tmp_path,
    )
    assert code == EXIT_OK
    doc = json.loads((out / "estimate_dim.json").read_text())
    assert len(doc["families"]) == 2
    for fam in doc["families"]:
        assert fam["depth"] >= 2
        assert all(0 < a <= 1 for a in fam["a"])


# -- every manifest echoes every parsed option ------------------------------

# a tiny job of each subcommand; estimate-dim's manifest is made by the test
TINY_JOBS = {
    "classes": ["classes", "--d", "3"],
    "induct": ["induct", "--perm", "s3", "--lengths", "1/3,1/5,1/7", "--steps", "2"],
    "construct": ["construct", "--d", "4", "--stages", "1"],
    "verify": ["verify", "volume", "--paths", "1"],
    "estimate-dim": ["estimate-dim", "--manifest"],
}


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_every_manifest_echoes_every_parsed_option(tmp_path, command):
    argv = TINY_JOBS[command]
    if command == "estimate-dim":
        argv = argv + [str(cantor_manifest(tmp_path, levels=1))]
    code, out = run(argv, tmp_path)
    assert code == EXIT_OK
    (manifest,) = out.glob("*_manifest.json")
    dests = {a.dest for a in subparsers()[command]._actions} - {"help", "out", "suite"}
    assert set(json.loads(manifest.read_text())["config"]) == dests


def test_construct_config_is_the_schema_estimate_dim_reads():
    dests = {a.dest for a in subparsers()["construct"]._actions} - {"help", "out"}
    assert dests == set(cli._MANIFEST_FIELDS["construct"])


def test_estimate_dim_echoes_its_seed_and_r_grid(tmp_path):
    manifest = cantor_manifest(tmp_path)
    configs = []
    for seed in (1, 2):
        code, out = run(["estimate-dim", "--manifest", str(manifest), "--seed", str(seed),
                         "--r-grid", "1.5,0.5"], tmp_path, f"seed{seed}")
        assert code == EXIT_OK
        configs.append(json.loads((out / "estimate_dim_manifest.json").read_text())["config"])
        assert json.loads((out / "estimate_dim.json").read_text())["config"] == configs[-1]
    assert configs == [
        {"manifest": str(manifest), "planes": 5, "r_grid": [1.5, 0.5], "seed": seed}
        for seed in (1, 2)
    ]


# -- one stderr line per failure --------------------------------------------

# the prefixes of the stderr line that main prints for each failing exit code
PREFIXES = {
    EXIT_USAGE: ("usage error: ", "error: "),
    EXIT_BUDGET: ("budget exceeded: ",),
    EXIT_INDUCTION: ("induction undefined: ",),
    EXIT_STAGE: ("stage failure: ",),
}


def assert_one_way_out(code: int, err: str) -> None:
    """A run that exits 1-4 ends its stderr with one line carrying its exit
    code's prefix, and prints no usage block and no traceback."""
    if code in PREFIXES:
        assert err.endswith("\n") and err.splitlines()[-1].startswith(PREFIXES[code]), err
        assert "usage:" not in err and "Traceback" not in err, err


EQUALITY_CASE = ["induct", "--lengths", "3/7,2/7,1/7,1/7", "--perm", "s4", "--steps", "10"]


@pytest.mark.parametrize("args, code", [
    (["verify", "balance", "--paths", "1.5"], EXIT_USAGE),
    (["verify", "balance", "--samples", "-1e5"], EXIT_USAGE),
    (["verify", "astrology"], EXIT_USAGE),
    (["no-such-command"], EXIT_USAGE),
    ([], EXIT_USAGE),
    (["classes"], EXIT_USAGE),
    (["classes", "--d", "4", "--seed-perm", "s4"], EXIT_USAGE),
    (["estimate-dim", "--manifest", "{tmp}/missing.json"], EXIT_USAGE),
    (["estimate-dim", "--manifest", "{tmp}/failed.json"], EXIT_USAGE),
    (["estimate-dim", "--manifest", "{tmp}/classes/classes_manifest.json"], EXIT_USAGE),
    (EQUALITY_CASE, EXIT_INDUCTION),
    (["induct", "--lengths", "1/2,1/3,1/6", "--perm", "s3"], EXIT_USAGE),
    (["induct", "--lengths", "1/2,1/3,1/6", "--perm", "s3", "--steps", "1",
      "--until", "positive"], EXIT_USAGE),
], ids=["paths-not-whole", "samples-negative-exponent", "unknown-suite",
        "unknown-command", "no-arguments", "classes-no-seed", "classes-both-seeds",
        "manifest-missing", "manifest-failed-run", "manifest-of-classes",
        "induct-equality", "induct-no-stop", "induct-both-stops"])
def test_every_failure_prints_one_stderr_line(tmp_path, capsys, args, code):
    assert main(["classes", "--d", "3", "--out", str(tmp_path / "classes")]) == EXIT_OK
    (tmp_path / "failed.json").write_text(json.dumps({
        "command": "construct", "config": CONSTRUCT_CONFIG, "failed": True,
        "stages_completed": 0, "error": "stage 1 failed",
    }))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in args]
    assert main(argv + ["--out", str(out)] if argv else argv) == code
    err = capsys.readouterr().err
    assert err.startswith(PREFIXES[code][0]) and err.count("\n") == 1, err
    if args == EQUALITY_CASE:  # the partial trace is still written
        assert json.loads((out / "induct_trace.json").read_text())["steps"] == 3


# -- value flags under arbitrary input --------------------------------------

# Malformed values are drawn freely; well-formed ones stay tiny (counts up to
# 40, free text up to four characters) so that no draw asks for a long run.
NOISE = st.text(alphabet="0123456789-+./,:eEnaifs_xLR", max_size=4)
PERMS = st.one_of(
    st.sampled_from([
        "s2", "s3", "s4", "hyperelliptic:3", "pi_L:4", "pi_R:5", "pi_prime:4",
        "1,2,3/3,2,1", "2,1/1,2", "1,2/1,2", "1,2/2,1,3", "1,1/2,2", "s1",
        "pi_L:3", "pi_L:x", "1,2/x", "", "hyperelliptic:-2",
    ]),
    NOISE,
)
SMALL_COUNTS = st.one_of(
    st.integers(-3, 40).map(str), st.sampled_from(["", "x", "1.5", "1e3", "inf"])
)
LENGTHS = st.one_of(
    st.lists(
        st.tuples(st.integers(-2, 30), st.integers(0, 30)).map(
            lambda pq: f"{pq[0]}/{pq[1]}"
        ),
        min_size=1, max_size=5,
    ).map(",".join),
    st.sampled_from(["1/2,1/3,1/6", "nan,1", "inf,1", "1e-5,1", "0.25,0.75"]),
    NOISE,
)
UNTIL = st.one_of(
    st.sampled_from(["positive", "balanced:2", "balanced:0", "balanced:1/0",
                     "norm:1e300", "norm:inf", "norm:-5", "perm:s3", "bogus"]),
    st.builds("perm:{}".format, PERMS),
    NOISE,
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr)
RADII = st.one_of(
    st.lists(st.one_of(FLOATS, st.sampled_from(["1e-400", "0.1", "-0"])),
             min_size=1, max_size=4).map(",".join),
    NOISE,
)
SCALES = st.one_of(
    st.sampled_from(["linear", "tower", "linear:1,2", "linear:"]),
    st.lists(FLOATS, min_size=4, max_size=4).map(
        lambda cs: "linear:" + ",".join(cs)
    ),
    NOISE,
)


@st.composite
def cli_argv(draw):
    """One subcommand with random values for its value flags."""
    command = draw(st.sampled_from(["classes", "induct", "construct", "estimate-dim"]))
    if command == "classes":
        return ["classes", "--seed-perm", draw(PERMS), "--budget", draw(SMALL_COUNTS)]
    if command == "induct":
        argv = ["induct", "--lengths", draw(LENGTHS), "--perm", draw(PERMS)]
        if draw(st.booleans()):
            return argv + ["--steps", draw(SMALL_COUNTS)]
        return argv + ["--until", draw(UNTIL), "--budget", draw(SMALL_COUNTS)]
    if command == "construct":
        return ["construct", "--d", "4", "--stages", "1", "--scale", draw(SCALES),
                "--zeta", draw(FLOATS)]
    return ["estimate-dim", "--r-grid", draw(RADII)]


@pytest.fixture(scope="module")
def flags_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("flags")


@settings(max_examples=120, deadline=None)
@given(argv=cli_argv())
def test_value_flags_never_escape_the_exit_codes(flags_dir, argv):
    if argv[0] == "estimate-dim":
        argv += ["--manifest", str(cantor_manifest(flags_dir, levels=2))]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv + ["--out", str(flags_dir / "out")])
    assert isinstance(code, int) and 0 <= code <= 5
    assert_one_way_out(code, err.getvalue())


# Config numbers stay within -2..4, so that no draw asks for a long run.
SMALL_NUMBERS = st.one_of(st.integers(-2, 4), st.floats(-2, 4))
CONFIG_VALUES = st.one_of(
    SMALL_NUMBERS, st.booleans(), st.none(), st.lists(SMALL_NUMBERS, max_size=2),
    st.sampled_from(["linear", "tower", "linear:1,1,1,1", "4", ""]),
)
CONFIGS = st.dictionaries(
    st.sampled_from(["d", "k0", "stages", "seed", "zeta", "scale", "levels"]),
    CONFIG_VALUES,
)
# well-typed configs, mostly in range, so that many draws run to the end
CONSTRUCT_CONFIGS = st.fixed_dictionaries({
    "d": st.integers(3, 4), "k0": st.integers(-2, 4), "stages": st.integers(0, 4),
    "seed": st.integers(-2, 4), "zeta": st.one_of(st.integers(-2, 4), st.floats(1, 4)),
    "scale": st.sampled_from(["linear", "tower", "linear:1,1,1,1"]),
})
MANIFESTS = st.one_of(
    JSON_DOCS,
    st.fixed_dictionaries({"command": st.just("construct"), "config": CONSTRUCT_CONFIGS},
                          optional={"failed": st.booleans()}),
    st.fixed_dictionaries({"command": st.just("synthetic-cantor"),
                           "config": st.fixed_dictionaries({"levels": st.integers(-2, 4)})}),
    st.fixed_dictionaries({
        "command": st.sampled_from(["construct", "synthetic-cantor", "classes"]),
        "config": st.one_of(CONFIGS, JSON_SCALARS),
    }),
)


@settings(max_examples=120, deadline=None)
@given(manifest=MANIFESTS)
def test_manifests_never_escape_the_exit_codes(flags_dir, manifest):
    path = flags_dir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["estimate-dim", "--manifest", str(path), "--planes", "2",
                     "--out", str(flags_dir / "out")])
    assert isinstance(code, int) and 0 <= code <= 5
    assert_one_way_out(code, err.getvalue())
