"""The frozen reference kernel that every timed operation is divided by.

The host's speed for identical work drifts by 15-20 % over minutes, and
process CPU time drifts with it, so raw seconds of a 1 s operation do not
repeat between runs. Running this kernel immediately before each operation
and reporting op / reference cancels the drift; multiplying the ratio by
``REFERENCE_SECONDS`` keeps the unit in seconds.

Rules that keep the kernel a fixed yardstick:
- it imports nothing from ``marginmi``, so a change to the program cannot
  change it;
- like the program, it mixes a pure-Python loop with numpy and
  ``scipy.special`` work on arrays of a few thousand elements;
- it calls no BLAS routine large enough to start threads (products are
  written as element-wise sums; the only LAPACK call is a 4x4 solve), and
  it draws from its own generator, never from global random state, so
  nothing the program sets at run time reaches it.

Do not edit this file: ``REFERENCE_SECONDS`` was measured once, as the
median wall time of ``reference_kernel()`` on the 2-vCPU host that defined
the benchmark, and every recorded figure is on that scale.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

REFERENCE_SECONDS = 0.065

_UNITS = 4000
_ROUNDS = 120
_PY_LOOP = 600
_SEED = 20201111


def reference_kernel() -> float:
    """A fixed ~0.07 s mix of Python, numpy and scipy.special; returns a checksum."""
    rng = np.random.Generator(np.random.PCG64(_SEED))
    base = rng.standard_normal(_UNITS)
    cols = (np.ones(_UNITS), (base > 0.0).astype(float),
            (base < -1.0).astype(float), np.sin(base))
    gram = np.array([[float(np.sum(a * b)) for b in cols] for a in cols])
    prec = gram / _UNITS + np.eye(4)
    beta = np.zeros(4)
    checksum = 0.0
    for k in range(_ROUNDS):
        lp = beta[0] * cols[0] + beta[1] * cols[1] + beta[2] * cols[2] + beta[3] * cols[3]
        positive = base > 0.1 * (k % 5)
        sign = np.where(positive, 1.0, -1.0)
        u = 1.0 - rng.random(_UNITS)
        v = np.clip(u * ndtr(sign * lp), 1e-300, None)
        latent = lp - sign * ndtri(v)
        rhs = np.array([float(np.sum(c * latent)) for c in cols]) / _UNITS
        beta = np.linalg.solve(prec, rhs)
        checksum += float(np.sum(log_ndtr(-np.abs(latent))))
        acc = 0.0
        for i in range(_PY_LOOP):
            acc += math.exp(-1e-3 * i) * ((i * (k + 1)) % 7)
        checksum += acc + float(beta.sum())
        checksum += len(",".join(repr(float(x)) for x in latent[:60]))
    return checksum


def timed_reference() -> float:
    """Wall seconds of one reference_kernel() call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Reference:
    """The reference kernel run on as many cores as the timed operation uses.

    With one core it runs in this process. With more, as many helper
    processes run it at the same moment and the mean of their walls is the
    reference: an operation spread over a process pool slows when any core
    is taken by another tenant, which one kernel on one core would miss.
    """

    def __init__(self, cores: int):
        self.helpers = []
        if cores > 1:
            self.helpers = [subprocess.Popen([sys.executable, __file__, "--serve"],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                             text=True)
                            for _ in range(cores)]

    def time(self) -> float:
        """Wall seconds of the reference, run immediately."""
        if not self.helpers:
            return timed_reference()
        for proc in self.helpers:
            proc.stdin.write("run\n")
            proc.stdin.flush()
        return statistics.mean(float(proc.stdout.readline()) for proc in self.helpers)

    def close(self) -> None:
        for proc in self.helpers:
            proc.stdin.close()
        for proc in self.helpers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    for _ in sys.stdin:
        print(timed_reference(), flush=True)
elif __name__ == "__main__":
    walls = sorted(timed_reference() for _ in range(200))
    print(f"median {walls[len(walls) // 2]:.6f} s, "
          f"min {walls[0]:.6f} s, max {walls[-1]:.6f} s over {len(walls)} calls")
