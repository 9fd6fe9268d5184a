"""Balance scans split into forked chunks: the same bytes at any number of
processes, and no process left behind.

``_fork._usable_cpus`` is patched to force the number of processes, since
this test process may run numpy's BLAS threads, which turn forking off.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path
from random import Random

import pytest

import ietkit
import ietkit._fork as _fork
import ietkit.analysis as analysis
from ietkit._fork import _MIN_CHUNK
from ietkit.analysis import mc_balance
from ietkit.cli import main
from ietkit.perm import hyperelliptic_permutation

SRC = Path(ietkit.__file__).resolve().parents[1]


def force_cpus(monkeypatch, cpus: int) -> list[int]:
    """Make ``cpus`` CPUs usable; return the list that records each fork."""
    forks: list[int] = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(_fork, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def balance_files(tmp_path, name, d, samples, seed) -> dict[str, bytes]:
    out = tmp_path / name
    code = main(["verify", "balance", "--d", str(d), "--samples", str(samples),
                 "--seed", str(seed), "--out", str(out)])
    assert code in (0, 5)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def balance(samples, d=4, seed=7):
    rep = mc_balance(hyperelliptic_permutation(d), zeta=20.0, K=4.0, m=8,
                     samples=samples, seed=seed)
    return repr((rep.fractions, rep.sigma_hat, rep.sigma_ci_upper,
                 rep.report.estimate, rep.report.stderr, rep.report.verdict))


@pytest.mark.parametrize("samples", [
    0, 3, _MIN_CHUNK - 1, _MIN_CHUNK, 2 * _MIN_CHUNK + 1, 1500, 10**4,
])
@pytest.mark.parametrize("d", [2, 4, 5, 7])
def test_forked_report_is_the_one_process_report(monkeypatch, tmp_path, d, samples):
    seed = 1000 * d + samples
    force_cpus(monkeypatch, 1)
    expected = balance_files(tmp_path, "one", d, samples, seed)
    forks = force_cpus(monkeypatch, 3)
    assert balance_files(tmp_path, "many", d, samples, seed) == expected
    assert len(forks) == max(1, min(3, samples // _MIN_CHUNK)) - 1
    assert_no_child_left()


# sha256 of verify_balance.json for the balance-mc job sizes, from the
# per-threshold loop that the bucket tally and the word sampler replaced
PINNED_BALANCE_FILES = {
    (4, 1500, 1): "c2f060b1436551b5748964303cef514a735436bd80dbd111f56575fa7635e032",
    (4, 1500, 2): "b37f57a9881a41b395f657aab725c6c42d1e430c270cb3e71d13370e4f2d5e67",
    (5, 750, 1): "7e62806b04497969cd057ef4b19f09f0878d475b1573b28bba0897651ac8c9d7",
    (5, 750, 2): "9a04d828f375f0d813742c3eadb230e8dc2cd9adb80de6a83a8c710764f33ca1",
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_balance_files_keep_their_pinned_bytes(monkeypatch, tmp_path, cpus):
    force_cpus(monkeypatch, cpus)
    for (d, samples, seed), digest in PINNED_BALANCE_FILES.items():
        files = balance_files(tmp_path, f"{d}-{seed}", d, samples, seed)
        assert hashlib.sha256(files["verify_balance.json"]).hexdigest() == digest
    assert_no_child_left()


def draw_words(rng: Random) -> list[int]:
    """A sample of one or more 8-bit words: words are drawn until one is
    below 64, so each sample reads a different number of them, as
    ``_draw_cuts`` does when it draws again."""
    words = [rng.getrandbits(8)]
    while words[-1] >= 64:
        words.append(rng.getrandbits(8))
    return words


def tally_words(samples) -> list[int]:
    counts = [0, 0, 0]  # samples, words, a position-weighted word sum
    for words in samples:
        counts[0] += 1
        counts[1] += len(words)
        counts[2] += sum(i * w for i, w in enumerate(words, 1))
    return counts


@pytest.mark.parametrize("failing", [False, True])
def test_a_caller_with_variable_draws_gets_the_one_stream_totals(monkeypatch, failing):
    n, seed = 3 * _MIN_CHUNK + 5, 11
    rng = Random(seed)
    expected = tally_words(draw_words(rng) for _ in range(n))
    parent = os.getpid()

    def tally(samples):
        if failing and os.getpid() != parent:
            raise RuntimeError("worker failure")
        return tally_words(samples)

    for cpus in (1, 2, 3):
        forks = force_cpus(monkeypatch, cpus)
        rng = Random(seed)
        assert _fork.fork_tallies(rng, n, draw_words, tally) == expected
        assert len(forks) == cpus - 1
        assert_no_child_left()


def test_failed_workers_give_the_one_process_result(monkeypatch):
    force_cpus(monkeypatch, 1)
    expected = balance(4 * _MIN_CHUNK)
    parent, scan = os.getpid(), analysis._balance_scan

    def failing_in_children(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker failure")
        return scan(*args)

    monkeypatch.setattr(analysis, "_balance_scan", failing_in_children)
    forks = force_cpus(monkeypatch, 4)
    assert balance(4 * _MIN_CHUNK) == expected
    assert len(forks) == 3
    assert_no_child_left()


def test_a_short_payload_is_tallied_again(monkeypatch):
    force_cpus(monkeypatch, 1)
    expected = balance(3 * _MIN_CHUNK)
    forks = force_cpus(monkeypatch, 3)
    dumps = _fork.marshal.dumps  # each child exits 0 after a short payload
    monkeypatch.setattr(_fork.marshal, "dumps", lambda tally: dumps(tally)[:-1])
    assert balance(3 * _MIN_CHUNK) == expected
    assert len(forks) == 2
    assert_no_child_left()


def test_a_scan_error_past_the_first_chunk_is_that_of_one_process(monkeypatch):
    # every sample after the first chunk fails, in whichever process scans it
    rng = Random(7)
    draws = [tuple(analysis._sample_gaps(4, rng)) for _ in range(4 * _MIN_CHUNK)]
    failing, scan = set(draws[_MIN_CHUNK:]), analysis._balance_scan

    def failing_past_first_chunk(pi, lengths, rule):
        if tuple(lengths) in failing:
            raise ArithmeticError("scan failure")
        return scan(pi, lengths, rule)

    monkeypatch.setattr(analysis, "_balance_scan", failing_past_first_chunk)
    for cpus in (1, 4):
        forks = force_cpus(monkeypatch, cpus)
        with pytest.raises(ArithmeticError, match="scan failure"):
            balance(4 * _MIN_CHUNK)
        assert len(forks) == cpus - 1
        assert_no_child_left()


def test_an_interrupt_in_the_parent_reaps_every_child(monkeypatch):
    forks = force_cpus(monkeypatch, 3)
    parent, cuts, draws = os.getpid(), analysis._draw_cuts, []

    def interrupted(d, rng):  # the parent draws through the children's chunks
        if os.getpid() == parent:
            draws.append(d)
            if len(draws) == 2 * _MIN_CHUNK:  # the parent's last draw through a child
                assert len(forks) == 2
                raise KeyboardInterrupt
        return cuts(d, rng)

    monkeypatch.setattr(analysis, "_draw_cuts", interrupted)
    with pytest.raises(KeyboardInterrupt):
        balance(3 * _MIN_CHUNK)
    assert len(forks) == 2
    assert_no_child_left()


def test_usable_cpus_is_one_with_a_second_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _fork._usable_cpus() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# a fresh interpreter: one thread, unflushed standard output, an atexit
# handler, and a caller's finally around a forked mc_balance that succeeds
# and one whose workers fail
HYGIENE = """
import atexit, os, sys
import ietkit._fork as _fork
import ietkit.analysis as analysis
from ietkit.analysis import mc_balance
from ietkit.perm import hyperelliptic_permutation

log = sys.argv[1]
assert _fork._usable_cpus() == len(os.sched_getaffinity(0))
_fork._usable_cpus = lambda: 3
atexit.register(print, "atexit", os.getpid())
print("unflushed", os.getpid())

def run(tag):
    try:
        return mc_balance(hyperelliptic_permutation(4), 20.0, 4.0, 8, 1500, 3)
    finally:
        with open(log, "a") as fh:
            fh.write(f"{tag} {os.getpid()}\\n")

good = run("success")
parent, scan = os.getpid(), analysis._balance_scan

def failing_in_children(*args):
    if os.getpid() != parent:
        raise RuntimeError("worker failure")
    return scan(*args)

analysis._balance_scan = failing_in_children
assert run("failure").fractions == good.fractions
"""


def test_children_run_no_caller_finally_atexit_or_flush(tmp_path):
    log = tmp_path / "finally.log"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", HYGIENE, str(log)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    pid = proc.stdout.split()[1]
    assert proc.stdout == f"unflushed {pid}\natexit {pid}\n"
    assert log.read_text() == f"success {pid}\nfailure {pid}\n"
