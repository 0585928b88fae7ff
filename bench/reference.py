"""A fixed reference kernel that measures how fast the CPU runs right now.

On a shared virtual machine the same single-threaded code runs up to
1.5x slower for stretches of tens of seconds, while other guests load
the core or its caches.  The benchmark runs this kernel between its
operations and reports each measured CPU time ``t`` as
``t * REF_S / k``, where ``k`` is the kernel's CPU time measured next
to it: the time the operation would take on a CPU that runs the kernel
in ``REF_S`` seconds.  The kernel never calls duores, so a change to
the package cannot change it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

REF_S = 0.02  # nominal CPU seconds of one kernel run


def kernel() -> float:
    """Run the fixed work, the mix the workloads run (an interpreted
    loop and small numpy arithmetic); return its CPU seconds.  numpy is
    imported here, so that importing this module before the benchmark
    times its set-up leaves numpy's import inside that set-up."""
    import numpy as np

    t0 = time.process_time()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    a = np.arange(500.0)
    for _ in range(1000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.process_time() - t0


def kernel_median(runs: int = 3) -> float:
    return statistics.median(kernel() for _ in range(runs))


class Pace:
    """Runs the kernel at most every ``every_s`` elapsed seconds.

    Calling it runs the kernel when one is due and returns the index of
    the latest run; work done after that run is scaled by ``around``
    the index.  Call it between operations, never inside a timed one,
    and call ``tick`` once after the last operation.  ``spent`` is the
    kernel's CPU time so far, for a caller that times a stretch with
    kernel runs inside; inside ``held()`` the kernel never runs.
    """

    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0
        self._held = False

    def __call__(self) -> int:
        if not self._held and time.perf_counter() >= self._due:
            self.tick()
        return len(self.samples) - 1

    def tick(self) -> None:
        t = kernel()
        self.samples.append(t)
        self.spent += t
        self._due = time.perf_counter() + self.every_s

    @contextmanager
    def held(self):
        self._held = True
        try:
            yield self
        finally:
            self._held = False

    def around(self, index: int) -> float:
        """Mean CPU time of kernel run ``index`` and the next one, which
        bracket the work done between them."""
        return statistics.fmean(self.samples[index:index + 2])


def at_reference(seconds: float, ref_s: float) -> float:
    """``seconds`` measured next to a kernel run of ``ref_s``, scaled to
    a CPU that runs the kernel in ``REF_S``."""
    return seconds * REF_S / ref_s
