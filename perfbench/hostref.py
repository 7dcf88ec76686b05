"""A fixed numpy kernel, timed during a run to follow the host's speed.

On a shared host the same benchmark pass takes from 1x to 2x its time, and
the slow spells last minutes: on a 2-vCPU x86-64 VM, ten runs of each
workload made one after another in 20 minutes drifted together by 1.4x
to 1.7x, so a run's wall-clock rate says as much about the neighbours as
about the program. The kernel here does not involve ``bdris``, so it is
the same work in every commit, and its time, taken before and after every
pass, says how fast the host ran that pass. Over ten 40 s runs of each
workload on that VM, scaling each pass's rate by it brought the quartile
spread of the runs' median rates from 0.16-0.35 of their median down to
0.04-0.07. One factor per run, from the median sample, did less (0.11-0.25
over six runs), because the host's speed also changes within a run.

The kernel has two halves, each like a part of the solver's work: complex
QR factorizations of a batch of 32 x 32 matrices (BLAS-bound, with large
temporaries, as in the fc-r32 retraction) and many numpy calls on tiny
arrays (bound by per-call overhead, as on cdf-r8 and sc-r64).
"""

from __future__ import annotations

import time

import numpy as np

QR_SHAPE = (30, 32, 32)
QR_CALLS = 20
SMALL_SHAPES = ((4, 8, 8), (64, 1, 1))
SMALL_CALLS = 4000
# Time of one sample on a 2-vCPU x86-64 VM with one BLAS thread, host running fast.
NOMINAL_S = 0.1


class HostReference:
    def __init__(self):
        rng = np.random.default_rng(0)

        def cplx(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._batch = cplx(QR_SHAPE)
        self._small = [cplx(shape) for shape in SMALL_SHAPES]
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(QR_CALLS):
            np.linalg.qr(self._batch)
        for _ in range(SMALL_CALLS):
            for a in self._small:
                (a @ a.conj().swapaxes(-1, -2)).real.sum()
        self.samples.append(time.perf_counter() - start)

    def factors(self) -> list[float]:
        """Per pass: how much slower than nominal the host ran it.

        The mean of the samples taken just before and just after the pass,
        over the nominal time; ``sample`` must be called once before the
        first pass and once after every pass.
        """
        pairs = zip(self.samples, self.samples[1:])
        return [(before + after) / 2.0 / NOMINAL_S for before, after in pairs]
