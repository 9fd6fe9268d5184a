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
dirichlet stream (the base points) and its BLAS (the polygon areas).  The
pins were taken with numpy 2.4.6.  One-stage runs at larger d, and the
runs of the hyperplane-avoiding paths, pin the moves the breadth-first
steering chooses.
"""
from __future__ import annotations

import hashlib

import pytest

from ietkit.cli import main
from ietkit.construction import hyperplane_avoiding_paths
from ietkit.perm import BOTTOM_WINS, TOP_WINS, hyperelliptic_permutation

# (d, construct --seed, estimate-dim --seed) -> file -> sha256
PINNED = {
    (4, 11, 3): {
        "construct_manifest.json":
            "8f0b6bfb456bdc779bf04afcdac68ed83202b8939faedf081eb990253f65c878",
        "stages.csv":
            "4252818698f408767b403c972154c0e6e684152a23e2e5782b1fd90542d219ff",
        "estimate_dim.json":
            "c0a1c38083e33516a7040d9ee1c6a40c89dfe8220f48d8de3fdbfbfd7088dc52",
        "dim_fit.csv":
            "358e17cdc9fe10dc17e6bd6fae018545e8a27d0417773da5df212142d92e27c0",
    },
    (6, 244788, 148551): {
        "construct_manifest.json":
            "a3be54d1d661c081da3f00ff466bace3c193f2606432c640a083700af6db51d0",
        "stages.csv":
            "d7dc1c9a9c2fa6deee83c0deddff27a76975ede57cb448516d3191be24188a0e",
        "estimate_dim.json":
            "5a8acb073dcd1714f890e6e9586e028d4aba6bf71e09e2949ac3acc372e67620",
        "dim_fit.csv":
            "d66c604e1f7331e5783293f7726df1d729cce56c2af30edf0ac86877f0c486a4",
    },
    (5, 115850, 961563): {
        "construct_manifest.json":
            "92ab4e2a38ed98a7e1d5db3b2aac1cb62487d9eababc6a02a56ff8badaed6e11",
        "stages.csv":
            "c7b8c15d9764d8ce349fe07b7bd4af852f9b8f71d8addee1964fb0ce76596a79",
        "estimate_dim.json":
            "70560a30c00100805f31d8c1f7cfdbe931332a66ff8e14c40d0fa3ba3304892e",
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
        name: hashlib.sha256((tmp_path / out / name).read_bytes()).hexdigest()
        for name in PINNED[d, construct_seed, estimate_seed]
    }
    assert digests == PINNED[d, construct_seed, estimate_seed]


# estimate-dim on a synthetic-cantor manifest of this many levels -> file -> sha256
CANTOR_PINNED = {
    1: {
        "estimate_dim.json":
            "98f4eb5e2f6457d6e16e968598fb8e566f8798a9c63a330ee307ef561922e9ca",
        "dim_fit.csv":
            "802490f2fb3c11fa664116b623d4b7228d81dc1e8d2ab8a17ce9b28e946a5fa1",
    },
    3: {
        "estimate_dim.json":
            "1da55be9843480173da4e063c9e72000c9abc1604b62c2183ec2d56419b140dc",
        "dim_fit.csv":
            "e42855963418c8e3eec479d6bf2404e91386ae7be0947b2283a3dfa9a52a5006",
    },
    6: {
        "estimate_dim.json":
            "5e7a7e057a07adc0f582420ccaf5a8a15af1de535784a1bca88f356412b737a2",
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
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in CANTOR_PINNED[levels]
    }
    assert digests == CANTOR_PINNED[levels]


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
