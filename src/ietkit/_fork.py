"""Integer tallies over a stream of random samples, summed over forked chunks.

``fork_tallies`` cuts the samples, drawn in order from one ``random.Random``,
into contiguous chunks and tallies all but the last in forked children.  The
parent draws through each child's chunk to reach the next one, tallies the
last chunk itself and adds up the tallies, which the children send back over
pipes.  A tally is a list of integers, so the sum does not depend on how many
chunks there are.  Only the standard library is used.
"""
from __future__ import annotations

import marshal
import os
from functools import partial
from random import Random
from typing import Callable

_MIN_CHUNK = 256  # samples below which a chunk does not pay for its fork


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where a fork is unsafe: no
    ``os.fork``, or more than one thread, since a child keeps only the
    forking thread but every lock the others held.  numpy's BLAS pool
    counts; a CLI job has none, as ``cli.console_main`` defaults
    ``OPENBLAS_NUM_THREADS`` to 1 (set it higher to get the pool back)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def fork_tallies(
    rng: Random, n: int, tally: Callable[[int], list[int]], skip: Callable[[int], None]
) -> list[int]:
    """The sum of ``tally`` over n samples, on up to ``_usable_cpus()``
    processes with at least ``_MIN_CHUNK`` samples each.  ``tally(k)`` draws
    the next k samples from ``rng`` and counts them; ``skip(k)``, which the
    parent runs to draw through a child's chunk, leaves ``rng`` where
    ``tally(k)`` would and does no more of the work than that takes (for
    ``mc_balance``, it draws the cuts of each sample).  A child's chunk whose tally does not arrive (no fork, a non-zero
    exit, a short payload) is tallied here from the generator state saved
    for it, so the result, or the error, is that of one process.  Every
    child is reaped before this returns or raises."""
    workers = max(1, min(_usable_cpus(), n // _MIN_CHUNK))
    cuts = [n * i // workers for i in range(workers + 1)]
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    children = []  # [pid or None, read end or -1, generator state, size]
    try:
        for size in sizes[:-1]:
            child = [None, -1, rng.getstate(), size]
            children.append(child)
            child[1], w = os.pipe()
            try:
                child[0] = os.fork()
            except OSError:  # no child: the chunk is tallied below
                pass
            if child[0] == 0:  # the child never returns into its caller
                code = 1
                try:
                    payload = memoryview(marshal.dumps(tally(size)))
                    while payload:
                        payload = payload[os.write(w, payload):]
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            skip(size)
        total = tally(sizes[-1])
        for child in children:
            pid, r, state, size = child
            part = None
            if pid is not None:  # read to the end before reaping
                payload = b"".join(iter(partial(os.read, r, 1 << 16), b""))
                child[0] = None
                if os.waitpid(pid, 0)[1] == 0:
                    try:
                        part = marshal.loads(payload)
                    except (EOFError, ValueError, TypeError):  # a short payload
                        pass
            if part is None:
                rng.setstate(state)
                part = tally(size)
            total = [a + b for a, b in zip(total, part)]
        return total
    finally:
        for child in children:
            pid, r = child[:2]
            child[:2] = None, -1
            if r >= 0:
                os.close(r)
            if pid is not None:
                import signal  # only on the way out of an error

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
