"""The construct-section benchmark's job sizes keep their output bytes, and
so do the construction's large steering searches.

sha256 of the files ``construct`` and ``estimate-dim`` write for runs of the
benchmark's sizes (6 stages, then 30 planes).  The d = 6 and d = 5 pins were
taken before the walk step, the exact sections and the dimension estimators
were made cheaper; the d = 4 pin, which runs the closed-form restriction,
before each stage became one loop over its phase table.
The manifests and ``stages.csv`` hold the construction's exact integers and
its float angles; ``estimate_dim.json`` and ``dim_fit.csv`` hold the
floats of the sections and the fits, which also pass through numpy's
Dirichlet stream (the base points), OpenBLAS's ``ddot`` (the chart and the
polygon areas) and glibc's ``hypot`` (the diameters).  The pins were taken
with numpy 2.4.6 and Python 3.11; ``ietkit._floats`` now computes those
floats without numpy, so they hold with numpy blocked from import, on any
BLAS, and on any Python from 3.10 on.  ``estimate_dim.json`` is pinned in two
parts: the sha256 of the document less its ``config``, the families, taken
before the config echoed ``seed`` and ``r_grid``, and the exact config.
One-stage runs at larger d, and the runs of the hyperplane-avoiding paths,
pin the moves the breadth-first steering chooses.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ietkit
from ietkit.cli import main
from ietkit.construction import hyperplane_avoiding_paths
from ietkit.perm import BOTTOM_WINS, TOP_WINS, hyperelliptic_permutation

def digest(path) -> str:
    """The sha256 of the file at ``path``; of ``estimate_dim.json`` less
    its config, written as the CLI writes JSON."""
    if path.name != "estimate_dim.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    doc = json.loads(path.read_text())
    del doc["config"]
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def config(path) -> dict:
    return json.loads(path.read_text())["config"]


# (d, construct --seed, estimate-dim --seed) -> file -> sha256 (by ``digest``)
PINNED = {
    (4, 11, 3): {
        "construct_manifest.json":
            "8f0b6bfb456bdc779bf04afcdac68ed83202b8939faedf081eb990253f65c878",
        "stages.csv":
            "4252818698f408767b403c972154c0e6e684152a23e2e5782b1fd90542d219ff",
        "estimate_dim.json":
            "f2a0d70afa9ce6c38067b406e3fcbd5f4c0445a8674985bc0dfa8ff4b0343d0f",
        "dim_fit.csv":
            "358e17cdc9fe10dc17e6bd6fae018545e8a27d0417773da5df212142d92e27c0",
    },
    (6, 244788, 148551): {
        "construct_manifest.json":
            "a3be54d1d661c081da3f00ff466bace3c193f2606432c640a083700af6db51d0",
        "stages.csv":
            "d7dc1c9a9c2fa6deee83c0deddff27a76975ede57cb448516d3191be24188a0e",
        "estimate_dim.json":
            "f57a2e64d13a7b11898f966b52e3fca64a74d30f56174407a3330dc39a3450c3",
        "dim_fit.csv":
            "d66c604e1f7331e5783293f7726df1d729cce56c2af30edf0ac86877f0c486a4",
    },
    (5, 115850, 961563): {
        "construct_manifest.json":
            "92ab4e2a38ed98a7e1d5db3b2aac1cb62487d9eababc6a02a56ff8badaed6e11",
        "stages.csv":
            "c7b8c15d9764d8ce349fe07b7bd4af852f9b8f71d8addee1964fb0ce76596a79",
        "estimate_dim.json":
            "38dc496509cf10ee113f9ef027bb1682cebb0e41efdbc72d508a4ec210983044",
        "dim_fit.csv":
            "4770a3405ca7a419c06c56a85f01905b507dedc99433fd32be8116609a75c55d",
    },
}


@pytest.mark.parametrize(("d", "construct_seed", "estimate_seed"), list(PINNED))
def test_construct_section_files_keep_their_pinned_bytes(
    monkeypatch, tmp_path, d, construct_seed, estimate_seed
):
    # estimate_dim.json records the manifest path as given: keep it relative
    monkeypatch.chdir(tmp_path)
    out = f"d{d}"
    assert main(["construct", "--d", str(d), "--stages", "6",
                 "--seed", str(construct_seed), "--out", out]) == 0
    assert main(["estimate-dim", "--manifest", f"{out}/construct_manifest.json",
                 "--planes", "30", "--seed", str(estimate_seed), "--out", out]) == 0
    digests = {
        name: digest(tmp_path / out / name)
        for name in PINNED[d, construct_seed, estimate_seed]
    }
    assert digests == PINNED[d, construct_seed, estimate_seed]
    assert config(tmp_path / out / "estimate_dim.json") == {
        "manifest": f"{out}/construct_manifest.json", "planes": 30,
        "r_grid": None, "seed": estimate_seed,
    }


def test_the_construct_section_pin_holds_without_numpy(tmp_path):
    # a fresh interpreter in which ``import numpy`` fails
    src = str(Path(ietkit.__file__).resolve().parents[1])
    d, construct_seed, estimate_seed = 6, 244788, 148551
    code = (
        "import sys\nsys.modules['numpy'] = None\nfrom ietkit.cli import main\n"
        f"assert main(['construct', '--d', '{d}', '--stages', '6', '--seed',"
        f" '{construct_seed}', '--out', 'out']) == 0\n"
        "assert main(['estimate-dim', '--manifest', 'out/construct_manifest.json',"
        f" '--planes', '30', '--seed', '{estimate_seed}', '--out', 'out']) == 0\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    pinned = PINNED[d, construct_seed, estimate_seed]
    assert {name: digest(tmp_path / "out" / name) for name in pinned} == pinned


# estimate-dim on a synthetic-cantor manifest of this many levels -> file ->
# sha256 (by ``digest``)
CANTOR_PINNED = {
    1: {
        "estimate_dim.json":
            "adea5b867e5391fa1451d73ec67aa15e6bb305426537734c8eedb0fcf996304a",
        "dim_fit.csv":
            "802490f2fb3c11fa664116b623d4b7228d81dc1e8d2ab8a17ce9b28e946a5fa1",
    },
    3: {
        "estimate_dim.json":
            "a6c863b800d0debe475c73c9f7fdd0ac345b52a87a81c61e9ba2bad58737c2bf",
        "dim_fit.csv":
            "e42855963418c8e3eec479d6bf2404e91386ae7be0947b2283a3dfa9a52a5006",
    },
    6: {
        "estimate_dim.json":
            "9e949eb766c39fba5ae5013fc3992cbabf281f864ac5ddca6004065835dfcc21",
        "dim_fit.csv":
            "cff4ef2abf577524ee46ad94ddb0f48ca65499529895ab4c4434d1922fb90aca",
    },
}


@pytest.mark.parametrize("levels", list(CANTOR_PINNED))
def test_synthetic_cantor_files_keep_their_pinned_bytes(monkeypatch, tmp_path, levels):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "synthetic.json").write_text(
        '{"command": "synthetic-cantor", "config": {"levels": %d}}' % levels
    )
    assert main(["estimate-dim", "--manifest", "synthetic.json", "--out", "out"]) == 0
    digests = {name: digest(tmp_path / "out" / name) for name in CANTOR_PINNED[levels]}
    assert digests == CANTOR_PINNED[levels]
    assert config(tmp_path / "out" / "estimate_dim.json") == {
        "manifest": "synthetic.json", "planes": 5, "r_grid": None, "seed": 0,
    }


# (d, construct --seed) of a one-stage run -> file -> sha256.  The steering
# searches of these runs reach the whole restricted sub-diagram, 2^(d-4) - 2
# vertices past pi_L, so the pins hold the order in which they draw the
# sides; they were taken before the two searches became one walker.
STEERING_PINNED = {
    (12, 0): {
        "construct_manifest.json":
            "27cfcd33052b807b954706c98c46f6be79c343e2a3ce3b749ca0edf7ca2980ec",
        "stages.csv":
            "7506e377cc05306d2b0d508f6dba7bcf935640e54c18ac3af8c6abf5e8e58a62",
    },
    (12, 1): {
        "construct_manifest.json":
            "29d63b759d7b98666d265501d46b1e0ea36434f4c0cdd19cad74583961f49c3a",
        "stages.csv":
            "d6498c4bde63d41f77a5e8cfa36092cff88f0064a7ed05db5e119376eb0b828e",
    },
    (16, 0): {
        "construct_manifest.json":
            "eb8417a57cf6be7e27e63c2dd31fa405528affe65d2ce96e49401e74ea0ffd08",
        "stages.csv":
            "7ff763210f0e01f3be5e0b4c3fceb27efd617dbb6eae5c2ae4d4593c98d85664",
    },
    (16, 1): {
        "construct_manifest.json":
            "96e2bbaaa904524b7525165f2882a867c31a527b68273c4fef9fb75369d1b9c0",
        "stages.csv":
            "ee6c93dfea3d4a8f617e80807cd7ff3d02271b2af52c4c773971d24cd91ccf8c",
    },
    (18, 0): {
        "construct_manifest.json":
            "21ab4310c6a513fbe542795fea31aba11398adcb148b2bf4e24b80d73023421f",
        "stages.csv":
            "c3aa12a8b352bcf5d72df3a96265c0b06eeb02538fefc2b77629f2312c6a3da6",
    },
    (18, 1): {
        "construct_manifest.json":
            "46456f938022c83ff08ca1cc1074f62e6d2a0cdb7829320063de85f598643fb7",
        "stages.csv":
            "261511fc421d6090b9138875547113452eb07f78b9221dba122ab8edd869b948",
    },
}


@pytest.mark.parametrize(("d", "seed"), list(STEERING_PINNED))
def test_one_stage_files_keep_their_pinned_bytes(monkeypatch, tmp_path, d, seed):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--d", str(d), "--stages", "1",
                 "--seed", str(seed), "--out", "out"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in STEERING_PINNED[d, seed]
    }
    assert digests == STEERING_PINNED[d, seed]


T, B = TOP_WINS, BOTTOM_WINS

# (d, i) -> the runs of hyperplane_avoiding_paths(d, i), which all end at
# pi_s.  Criterion 13 checks the paths' containment, not the paths; these
# pin the moves its edge-goal searches choose.
AVOIDING_RUNS = {
    (5, 1): ((B, 4),),
    (5, 2): ((T, 1), (B, 40), (T, 9), (B, 2)),
    (5, 3): ((T, 82), (B, 2)),
    (6, 1): ((B, 5),),
    (6, 2): ((T, 1), (B, 80), (T, 14), (B, 3)),
    (6, 3): ((T, 2), (B, 40), (T, 10), (B, 3)),
    (6, 4): ((T, 123), (B, 3)),
    (7, 1): ((B, 6),),
    (7, 2): ((T, 1), (B, 120), (T, 19), (B, 4)),
    (7, 3): ((T, 2), (B, 80), (T, 18), (B, 4)),
    (7, 4): ((T, 3), (B, 40), (T, 13), (B, 4)),
    (7, 5): ((T, 164), (B, 4)),
    (8, 1): ((B, 7),),
    (8, 2): ((T, 1), (B, 160), (T, 24), (B, 5)),
    (8, 3): ((T, 2), (B, 120), (T, 23), (B, 5)),
    (8, 4): ((T, 3), (B, 80), (T, 17), (B, 5)),
    (8, 5): ((T, 4), (B, 40), (T, 11), (B, 5)),
    (8, 6): ((T, 205), (B, 5)),
}


@pytest.mark.parametrize(("d", "i"), list(AVOIDING_RUNS))
def test_avoiding_paths_keep_their_pinned_runs(d, i):
    path = hyperplane_avoiding_paths(d, i)
    assert (path.runs, path.end) == (AVOIDING_RUNS[d, i], hyperelliptic_permutation(d))
