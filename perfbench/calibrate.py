"""A fixed calibration kernel, timed next to every measured op and import.

On a shared virtual machine the speed of the whole guest changes by tens of
percent over tens of seconds with the load of other tenants: an identical op
repeated in one process took 0.75 s for a minute and then 1.2 s for the
next, and this kernel slowed by the same factor.  Such drift, not the
program, then decides the run-to-run spread of every timing.

The kernel does fixed work that does not involve the library: a Python loop
(interpreter), a batched ``numpy.linalg.eigh`` of small Hermitian matrices
(LAPACK), and an elementwise ``numpy.exp`` over a large array (memory).  A
time ``t`` measured between two kernel runs is reported as
``t * REFERENCE_S / k``, with ``k`` the mean of those two runs: seconds on a
machine where the kernel takes ``REFERENCE_S``.  A change to the library
moves the op time but not the kernel, so it shows in full.  The raw times are
printed as well.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.1


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((1500, 6, 6)) + 1j * rng.standard_normal((1500, 6, 6))
        self._hermitian = g + np.conj(np.swapaxes(g, 1, 2))
        self._phases = 1j * rng.standard_normal(1_500_000)
        self.seconds()  # first-call costs (page faults, LAPACK set-up) are not speed

    def seconds(self) -> float:
        """Wall time of one run of the fixed work."""
        t0 = time.perf_counter()
        acc = 0
        for j in range(250_000):
            acc += j
        np.linalg.eigh(self._hermitian)
        np.exp(self._phases)
        return time.perf_counter() - t0



def scale(before: float, after: float) -> float:
    """Factor to reference seconds for a time measured between two kernel runs."""
    return 2.0 * REFERENCE_S / (before + after)
