"""Small helpers shared by the workloads: failure tally, repetition over a
time budget, the reference clock, order statistics, witness checks and the
environment block."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

import dhp
from dhp import Bigraph, CycleWitness
from dhp.errors import DhpError


class Tally:
    """Counts operations and failed operations; failures are printed to
    stderr as they happen so a wrong output is loud."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, problems: list[str], what: str) -> bool:
        """Record one operation whose output checks found ``problems``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            msg = f"FAIL {what}: " + "; ".join(problems)
            self.messages.append(msg)
            print(msg, file=sys.stderr)
        return not problems


REFERENCE_NOMINAL_MS = 10.0  # about the kernel's median on the 2-core VM the bounds were set on
REFERENCE_EVERY_S = 0.25


def _reference_kernel() -> int:
    """Fixed pure-Python integer and list work, the same at every commit
    because it is the benchmark's own code.  It allocates no object the
    garbage collector tracks, so its time does not depend on how many
    objects the workload keeps alive."""
    x = 0
    buf = [0] * 1024
    for i in range(50_000):
        x += (i * 2654435761 & 0xFFFF).bit_count()
        buf[i & 1023] = x
    return x


class Reference:
    """The machine's speed during a run, read from a fixed kernel timed
    every REFERENCE_EVERY_S seconds between the workload's calls.

    The benchmark runs on machines shared with other tenants, where the
    same work runs up to a third slower for minutes at a time.  Timings
    scaled by ``scale()`` (nominal over the median kernel time in the run)
    move less from run to run than the raw ones.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            t0 = time.perf_counter()
            _reference_kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def median_ms(self) -> float:
        return median(self.samples) * 1e3

    def scale(self) -> float:
        """Factor that turns this run's times into reference-speed times."""
        return REFERENCE_NOMINAL_MS / self.median_ms()


def repeat_for(seconds: float, step, least: int = 1, ref: Reference | None = None) -> list:
    """Results of calling ``step()`` again and again over ``seconds``: at
    least ``least`` calls, and no call started that, judged by the longest
    call so far, would end after the time is up.  ``ref`` is sampled
    between calls."""
    results, longest = [], 0.0
    start = time.perf_counter()
    while len(results) < least or time.perf_counter() - start + longest <= seconds:
        if ref is not None:
            ref.tick()
        t0 = time.perf_counter()
        results.append(step())
        longest = max(longest, time.perf_counter() - t0)
    return results


def median(xs) -> float:
    return statistics.median(xs)


def percentile(xs, q: int) -> float:
    """The q-th percentile (inclusive method), for q in 1..99."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def cycle_problems(g: Bigraph, w: CycleWitness) -> list[str]:
    """What is wrong with ``w`` as a cycle of ``g`` through every X-vertex."""
    try:
        w.validate(g)
    except DhpError as exc:
        return [f"cycle invalid: {exc}"]
    return [] if sorted(w.xs) == list(range(g.nx)) else [f"cycle misses X-vertices: {w.xs}"]


def child_env() -> dict:
    """The caller's environment with the ``src`` that ``dhp`` was imported
    from first on the path; BLAS thread variables pass through untouched."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dhp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    """What produced the timings: cores, interpreter, numpy and its BLAS,
    and the BLAS thread variables exactly as found (never set here)."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # the config layout differs across numpy versions
        blas = {"error": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }
