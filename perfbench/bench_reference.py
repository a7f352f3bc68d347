"""Reference loops that measure the machine's current speed.

On a shared host the same code runs up to 30% faster or slower from one
minute to the next, and not by the same factor for every kind of code: an
interpreter-bound loop and a memory-bound matvec drift apart.  Each workload
therefore names the loop whose drift follows its body (``reference`` on the
workload class) and the one that follows its set-up (``setup_reference``),
and the runner times them between repetitions.

The loops use only the standard library and NumPy, never ``qtnn``, so a
change to the program cannot move them.  Import this module only after the
BLAS thread count is pinned: it loads NumPy.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# built at import, so that no timed loop pays for it
_MATRIX = np.random.default_rng(0).standard_normal((1000, 1000)) / 40.0


def interpreter():
    """Pure-Python float arithmetic: the cost of bytecode dispatch."""
    acc = 0.0
    for i in range(400_000):
        acc += i * 0.5 - acc * 1e-9
    return acc


def matvec():
    """300 steps of y = tanh(M y) with a dense 1000x1000 M (8 MB, past L2)."""
    y = np.ones(1000)
    for _ in range(300):
        y = np.tanh(_MATRIX @ y)
    return y


LOOPS = {"interpreter": interpreter, "matvec": matvec}

# round figures near each loop's time on the 2-vCPU machine (Python 3.11,
# NumPy 2.4, OpenBLAS 0.3 on one thread) the bounds in BENCHMARK.json were
# set on; they fix the size of a reference second
REFERENCE_S = {"interpreter": 0.05, "matvec": 0.1}


def seconds(name):
    """Wall seconds the loop ``name`` takes now."""
    loop = LOOPS[name]
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def scale(name, before, after):
    """Reference seconds per wall second between two timings of loop ``name``.

    ``before`` and ``after`` map loop names to the seconds they took.
    """
    return REFERENCE_S[name] / ((before[name] + after[name]) / 2)
