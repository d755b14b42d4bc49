"""Seeded random-bigraph experiments around the property threshold.

Sampling is counter-based: each potential edge (i, j) gets its own 64-bit
uniform derived from (seed, i, j) by a fixed finalizer-style mixer, and the
edge is present exactly when that uniform falls below floor(p * 2^64).  Two
consequences drive the whole module design:

* bit-for-bit reproducibility across platforms and worker counts, since no
  generator state is shared or advanced; and

* exact common-random-numbers coupling: holding the seed fixed while p
  grows can only add edges, so any monotone graph property is monotone
  per sample along a threshold-offset grid, not just in expectation.

The heavy per-sample statistic is combinatorial: counts of X-pairs by how
many common neighbours they have, from which the pair conditions and the
size-3 obstacle scan both follow.  A matrix product does the counting; the
scan then touches only the rare pairs with exactly two common neighbours.

A sweep trial keeps its sample only as the bool matrix it is drawn as: it
reads the pair counts, the first size-3 obstacle and the maximum degree off
that matrix and its pair-count product, and packs a ``Bigraph`` only for
the exact measures.  Under common random numbers one task per seed draws
the uniform grid once and thresholds it for every offset c, visiting the
offsets in increasing p.  Its samples are then nested, so a pair's
common-neighbour count only grows from one offset to the next: the first
offset profiles every X-row, and each later one only the rows that were in
a pair with at most two common neighbours at the offset before, since
every bad pair (fewer than two) and every thin pair (exactly two) of a
later sample is among them.  Above the threshold those are a few dozen
rows of hundreds.  A parallel sweep runs on at most min(jobs, tasks,
usable cores) worker processes, and the process keeps that pool for its
later sweeps.  Every pair-count product runs on one thread of numpy's own
OpenBLAS, in the calling process and in the workers alike, and leaves the
caller's thread count as it found it: OpenBLAS spins its idle helper
threads for about 0.1 s after each multi-threaded product, which took a
core from the two workers of a parallel sweep.  Cores come from ``jobs``.
One fork hook holds the rule for this per-process state: a forked child
starts with no pool and fresh locks.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import contextlib
import functools
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Sequence

from .budget import EXACT_MEASURE_LIMIT, WorkBudget
from .checkers import Obstacle, check_dhp
from .core import Bigraph, CycleWitness, VertexSet
from .cycles import find_cycle_covering
from .errors import ConfigError, DomainError, ResourceLimitError

# numpy is imported where it is used, as in core and checkers, so that the
# CLI calls that never sample (construct, fmt, most checks and solves) start
# without loading it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "mix64",
    "sample_gnnp",
    "sample_bipartite",
    "ThresholdParams",
    "threshold_p",
    "count_bad_pairs",
    "scan_obstacles_size3",
    "surrogate_dhp",
    "check_hamiltonian",
    "PoissonReport",
    "poisson_gof",
    "chernoff_degree_check",
    "trial_seed",
    "SweepConfig",
    "TrialRecord",
    "CellStats",
    "SweepReport",
    "run_sweep",
    "EXACT_MEASURE_LIMIT",
    "MAX_SAMPLE_CELLS",
    "MAX_SWEEP_RECORDS",
]

MASK64 = (1 << 64) - 1

# Cap on nx * ny for one sample (n = 4096 square).  A trial holds its uniform
# grid (8 bytes per cell) while it thresholds it for every c, and the pair
# profile adds about 20 bytes per X-pair, so a trial at the cap stays near
# half a GiB; larger requests raise ResourceLimitError instead of an OOM.
MAX_SAMPLE_CELLS = 1 << 24

# Cap on cells x trials, the records of one sweep.  run_sweep builds every
# task before it draws a sample and keeps every record, about 520 bytes per
# trial at peak (n = 3, tracemalloc), so a sweep at the cap stays near half
# a GiB; larger requests raise ResourceLimitError before any task is built.
MAX_SWEEP_RECORDS = 1 << 20

_LOG_MAX_FLOAT = math.log(sys.float_info.max)

MEASURES = ("pair", "obstacle3", "exact", "hamiltonian", "maxdeg")


def mix64(z: int) -> int:
    """Finalizer-style 64-bit mixer (xor-shift and multiply rounds); a
    bijection on 64-bit words with good avalanche, used as the keyed
    counter-to-uniform map everywhere in this module."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _mix64_np(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``mix64`` over a uint64 array, in place: each xor-shift goes through
    ``tmp``, a scratch array of z's shape."""
    import numpy as np

    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _uniform_scalar(seed: int, i: int, j: int) -> int:
    """Reference implementation of the per-edge uniform; the vectorized
    kernel must agree with this exactly (tested)."""
    return mix64(mix64((seed ^ (i << 21)) & MASK64) ^ j)


def _uniform_grid(seed: int, nx: int, ny: int) -> np.ndarray:
    """The nx x ny grid of per-edge uniforms, mixed a block of about 2^14
    cells (at least one row) at a time through one scratch block, so that
    the block and its scratch stay in cache."""
    import numpy as np

    row_keys = np.full(nx, seed & MASK64, dtype=np.uint64)
    row_keys ^= np.arange(nx, dtype=np.uint64) << np.uint64(21)
    _mix64_np(row_keys, np.empty_like(row_keys))
    cols = np.arange(ny, dtype=np.uint64)
    grid = np.empty((nx, ny), dtype=np.uint64)
    step = max(1, (1 << 14) // max(1, ny))
    tmp = np.empty((min(step, nx), ny), dtype=np.uint64)
    for lo in range(0, nx, step):
        block = grid[lo : lo + step]
        np.bitwise_xor(row_keys[lo : lo + step, None], cols, out=block)
        _mix64_np(block, tmp[: len(block)])
    return grid


def _threshold_u64(p: float) -> int:
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return int(p * (1 << 64))


def _threshold(grid: np.ndarray, p: float) -> np.ndarray:
    """Adjacency matrix of the sample at edge probability p, from the
    seed's uniform grid: an edge where its uniform falls below p * 2^64."""
    import numpy as np

    thr = _threshold_u64(p)
    if thr >= 1 << 64:
        return np.ones(grid.shape, dtype=bool)
    return grid < np.uint64(thr)


def _check_sample_size(nx: int, ny: int) -> None:
    if nx * ny > MAX_SAMPLE_CELLS:
        raise ResourceLimitError(
            f"a {nx} x {ny} sample exceeds the cap of {MAX_SAMPLE_CELLS} cells"
        )


def _unpack_graph(g: Bigraph) -> np.ndarray:
    import numpy as np

    nbytes = (g.ny + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in g.adj_x)
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(g.nx, nbytes)
    return np.unpackbits(arr, axis=1, bitorder="little")[:, : g.ny].view(bool)


def sample_bipartite(nx: int, ny: int, p: float, seed: int) -> Bigraph:
    """Random bigraph with independent edge probability p, deterministic in
    (nx, ny, p, seed); the seed is a 64-bit word, in [0, 2^64)."""
    if nx < 0 or ny < 0:
        raise DomainError("side sizes must be non-negative")
    if not 0 <= seed <= MASK64:
        raise DomainError(f"seed must be in [0, 2^64), got {seed}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    _check_sample_size(nx, ny)
    return Bigraph.from_dense(_threshold(_uniform_grid(seed, nx, ny), p))


def sample_gnnp(n: int, p: float, seed: int) -> Bigraph:
    """The square case: both sides of size n."""
    return sample_bipartite(n, n, p, seed)


@dataclass(frozen=True)
class ThresholdParams:
    """A point on the threshold scale: side size n, offset c, and the edge
    probability the formula produces (clamped into [0, 1] when the offset
    pushes it outside; ``clamped`` records that)."""

    kind: str
    n: int
    c: float
    p: float
    clamped: bool


def threshold_p(n: int, c: float, kind: str = "dhp") -> ThresholdParams:
    """Edge probability at threshold offset c.

    Natural logarithms throughout.  kind="dhp" uses
    sqrt((2 ln n + ln ln n + c) / n); kind="hamiltonian" uses
    (ln n + ln ln n + c) / n, the classical covering-cycle scale, which
    sits asymptotically far below the dhp scale.
    """
    if kind not in ("dhp", "hamiltonian"):
        raise DomainError(f"unknown threshold kind {kind!r}")
    if n < 3:
        raise DomainError(f"threshold formula needs n >= 3, got {n}")
    if not math.isfinite(c):
        raise DomainError(f"threshold offset must be finite, got {c}")
    base = math.log(n) + math.log(math.log(n)) + c
    if kind == "dhp":
        radicand = (base + math.log(n)) / n
        raw = math.sqrt(radicand) if radicand >= 0 else -1.0
    else:
        raw = base / n
    clamped = not (0.0 <= raw <= 1.0)
    p = min(1.0, max(0.0, raw))
    return ThresholdParams(kind, n, float(c), p, clamped)


# -- per-sample statistics -----------------------------------------------------


@functools.lru_cache(maxsize=4)
def _not_above_diagonal(n: int) -> np.ndarray:
    """Read-only n x n mask of the entries (a, b) with a >= b."""
    import numpy as np

    mask = np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


@functools.cache
def _blas_thread_api() -> tuple | None:
    """(getter, setter) of the thread count of the OpenBLAS that numpy's
    products call, or None.  ``dlsym`` on numpy's own extension module also
    searches that module's dependencies, so the library found is numpy's,
    whatever its file is called.  Resolved once per process; a forked child
    inherits the answer along with the library."""
    import ctypes

    from numpy._core import _multiarray_umath

    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        getter = getattr(lib, name.format("get"), None)
        setter = getattr(lib, name.format("set"), None)
        if getter is not None and setter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter
    return None


# The one-BLAS-thread scope's state: how many threads are inside it, and the
# thread count it found on entry, to restore when the last one leaves.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: int | None = None


@contextlib.contextmanager
def _one_blas_thread():
    """Scope in which this process's OpenBLAS runs on one thread.

    OpenBLAS parks its helper threads by spinning for about 0.1 s after
    every multi-threaded product, and setting the thread count afterwards
    does not stop the spin, so a multi-threaded product burns a core well
    after it returns.  Threads may nest and overlap in the scope: the first
    one in saves the count and sets 1, and the last one out restores it.
    The library is numpy's own OpenBLAS (``_blas_thread_api``); without
    one the scope does nothing.  A child forked while a parent thread is
    inside gets the saved count back and a fresh lock.
    """
    global _blas_depth, _blas_saved
    api = _blas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


def _pair_profile(mat: np.ndarray, tri: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Counts of X-pairs with zero and with one common neighbour among the
    rows of the bool adjacency matrix ``mat``, plus the pair-count matrix:
    entry (a, b) with a < b is the number of common neighbours, every other
    entry is -1.  ``tri`` is the ``_not_above_diagonal`` mask at the row
    count, or the leading square of a larger one.  Uses one matrix product;
    counts up to 2**24 stay exact in float32, so the result does not depend
    on the BLAS.

    The product runs on one BLAS thread in whichever process runs it, and
    the caller's thread count is back afterwards (``_one_blas_thread``):
    a multi-threaded product leaves its helper threads spinning on the
    cores that parallel sweep workers need.  Cores come from ``jobs``."""
    import numpy as np

    a_mat = mat.astype(np.float32)
    with _one_blas_thread():
        common = a_mat @ a_mat.T
    common[tri] = -1  # count each pair a < b once
    n0 = int(np.count_nonzero(common == 0))
    n1 = int(np.count_nonzero(common == 1))
    return n0, n1, common


def _scan_thin(
    mat: np.ndarray, common: np.ndarray, xs: Sequence[int]
) -> Obstacle | None:
    """Size-3 minimal obstacle search over the pairs with two common
    neighbours, given the adjacency matrix rows of the X-vertices ``xs``
    (increasing) and their pair-count matrix.

    A minimal obstacle (S, T) with |S| = 3 forces |T| = 2 with both
    T-vertices adjacent to all of S, which makes every pair inside S have
    common neighbourhood exactly T.  So it suffices to extend each pair
    a < b with common neighbours {t1, t2} by a third X-vertex c > b
    adjacent to both whose pairs with a and with b also count two common
    neighbours.  The pairs are tested a block at a time in lexicographic
    order, and the first hit in lexicographic triple order is returned.
    """
    import numpy as np

    thin = common == 2  # above the diagonal only, so thin[b, c] means c > b
    rows, cols = np.divmod(np.flatnonzero(thin), thin.shape[1])  # row-major, so lexicographic
    # pairs per block of 64 Ki cells: a block holds rows of mat and of mat.T
    step = max(1, (1 << 16) // max(1, *mat.shape))
    for lo in range(0, len(rows), step):
        a, b = rows[lo : lo + step], cols[lo : lo + step]
        t1, t2 = (np.flatnonzero(mat[a] & mat[b]) % mat.shape[1]).reshape(-1, 2).T
        third = thin[a] & thin[b] & mat.T[t1] & mat.T[t2]
        found = np.flatnonzero(third.any(axis=1))
        if found.size:
            i = found[0]
            return Obstacle(
                s=VertexSet.xs(int(xs[v]) for v in (a[i], b[i], third[i].argmax())),
                t=VertexSet.ys((int(t1[i]), int(t2[i]))),
                minimal=True,
            )
    return None


def count_bad_pairs(g: Bigraph) -> tuple[int, int]:
    """(n0, n1): the number of X-pairs with no common neighbour and with
    exactly one.  Either kind being positive already refutes the pair case
    of the double Hall property."""
    n0, n1, _ = _pair_profile(_unpack_graph(g), _not_above_diagonal(g.nx))
    return n0, n1


def scan_obstacles_size3(g: Bigraph) -> Obstacle | None:
    """First (lexicographic) X-triple S forming a minimal obstacle with its
    two-element super-neighbourhood, or None."""
    mat = _unpack_graph(g)
    common = _pair_profile(mat, _not_above_diagonal(g.nx))[2]
    return _scan_thin(mat, common, range(g.nx))


def surrogate_dhp(g: Bigraph) -> bool:
    """Large-n stand-in for the exact property: all pair conditions hold
    and no size-3 minimal obstacle exists.

    In the threshold regime these two events are asymptotically the whole
    story; at finite n the surrogate can only err by missing an obstacle
    with |S| >= 4 whose triples are all clean, so it over-approximates.
    """
    mat = _unpack_graph(g)
    n0, n1, common = _pair_profile(mat, _not_above_diagonal(g.nx))
    if n0 or n1:
        return False
    return _scan_thin(mat, common, range(g.nx)) is None


def check_hamiltonian(
    g: Bigraph,
    *,
    limit: int = EXACT_MEASURE_LIMIT,
    budget: int | WorkBudget | None = None,
) -> CycleWitness | None:
    """Exact search for a cycle through every vertex of a square bigraph.

    Covering all of X in a square bigraph uses all 2n vertices, so this
    delegates to the covering-cycle search with the full X-set.
    """
    if g.nx != g.ny:
        raise DomainError(f"need equal sides, got {g.nx} and {g.ny}")
    if g.nx > limit:
        raise ResourceLimitError(
            f"exact search capped at n = {limit}, got {g.nx}"
        )
    if g.nx < 2:
        raise DomainError("need at least two vertices per side")
    return find_cycle_covering(g, g.full_x(), exact_x=True, budget=budget)


# -- distribution comparison ---------------------------------------------------


def _poisson_pmf(rate: float, k: int) -> float:
    """Poisson(rate) mass at k, in log space so that no power or
    factorial overflows a float."""
    if rate == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))


def _poisson_support(rate: float, kmax: int) -> range:
    """The k in [0, kmax] where the Poisson(rate) mass is a positive float:
    the pmf is unimodal, so this is one interval, walked out from the mode
    (or from kmax when the mode lies beyond it)."""
    mid = min(int(rate), kmax)
    if _poisson_pmf(rate, mid) == 0.0:
        return range(0)
    lo = hi = mid
    while lo > 0 and _poisson_pmf(rate, lo - 1) > 0.0:
        lo -= 1
    while hi < kmax and _poisson_pmf(rate, hi + 1) > 0.0:
        hi += 1
    return range(lo, hi + 1)


@dataclass(frozen=True)
class PoissonReport:
    rate: float
    n_samples: int
    tv: float
    table: tuple[dict, ...]

    def to_json_obj(self) -> dict:
        return {**asdict(self), "table": list(self.table)}


def poisson_gof(samples: Sequence[int], rate: float) -> PoissonReport:
    """Total-variation distance between the empirical distribution of the
    samples and Poisson(rate), with a bucketed comparison table for
    k in {0, 1, 2, 3, >=4}."""
    n = len(samples)
    if n < 100:
        raise DomainError(f"need at least 100 samples, got {n}")
    if not (math.isfinite(rate) and rate >= 0):
        raise DomainError(f"rate must be finite and non-negative, got {rate}")
    counts: dict[int, int] = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    if min(counts) < 0:
        raise DomainError(f"samples must be non-negative counts, got {min(counts)}")
    kmax = max(counts)
    total = 0.0
    cdf = 0.0
    # a k outside the pmf's float support that no sample takes adds exactly
    # +0.0 to both sums, so visiting only the support and the sampled k, in
    # increasing order, gives the floats of the full range 0..kmax
    for k in sorted(set(_poisson_support(rate, kmax)).union(counts)):
        pk = _poisson_pmf(rate, k)
        cdf += pk
        total += abs(counts.get(k, 0) / n - pk)
    tv = 0.5 * (total + max(0.0, 1.0 - cdf))
    table = []
    tail_cdf = 0.0
    for k in range(4):
        pk = _poisson_pmf(rate, k)
        tail_cdf += pk
        table.append(
            {"k": str(k), "empirical": counts.get(k, 0) / n, "expected": pk}
        )
    emp_tail = sum(v for k, v in counts.items() if k >= 4) / n
    table.append(
        {"k": "4+", "empirical": emp_tail, "expected": max(0.0, 1.0 - tail_cdf)}
    )
    return PoissonReport(rate, n, tv, tuple(table))


def chernoff_degree_check(g: Bigraph, p: float) -> dict:
    """Compare the maximum degree against the concentration bound
    (1 + delta) * n * p with delta = 3 (ln n / n)^(1/4).

    Meant for square samples with known p; n is taken as the larger side.
    """
    n = max(g.nx, g.ny)
    if n < 2:
        raise DomainError("need at least 2 vertices per side")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    mean = n * p
    delta = 3.0 * (math.log(n) / n) ** 0.25
    maxdeg = g.max_degree()
    return {
        "max_degree": maxdeg,
        "mean": mean,
        "ratio": maxdeg / mean if mean > 0 else None,
        "delta": delta,
        "within_bound": maxdeg <= (1.0 + delta) * mean,
    }


# -- sweeps --------------------------------------------------------------------


def trial_seed(master_seed: int, n: int, c_index: int, trial: int) -> int:
    """Fixed derivation of per-trial seeds: two mixer rounds over the cell
    key and the trial counter.  With common random numbers enabled the
    caller passes c_index = 0 so the whole offset grid shares seeds."""
    cell = mix64((master_seed ^ (n << 32) ^ c_index) & MASK64)
    return mix64(cell ^ trial)


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of a sweep; validation happens before any
    sampling so infeasible measurement requests fail fast."""

    n_list: tuple[int, ...]
    c_list: tuple[float, ...]
    trials: int
    master_seed: int
    measures: tuple[str, ...] = ("pair", "obstacle3", "maxdeg")
    jobs: int = 1
    crn: bool = True
    exact_limit: int = EXACT_MEASURE_LIMIT

    def validate(self) -> None:
        if not self.n_list:
            raise ConfigError("n_list is empty")
        if not self.c_list:
            raise ConfigError("c_list is empty")
        if not all(math.isfinite(c) for c in self.c_list):
            raise ConfigError(f"c values must be finite, got {list(self.c_list)}")
        if any(n < 3 for n in self.n_list):
            raise ConfigError("all n values must be >= 3 (threshold formula)")
        for n in self.n_list:
            _check_sample_size(n, n)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        records = len(self.n_list) * len(self.c_list) * self.trials
        if records > MAX_SWEEP_RECORDS:
            raise ResourceLimitError(
                f"{records} trial records exceed the sweep cap of {MAX_SWEEP_RECORDS}"
            )
        if not 0 <= self.master_seed <= MASK64:
            raise ConfigError(f"master seed must be in [0, 2^64), got {self.master_seed}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        unknown = [m for m in self.measures if m not in MEASURES]
        if unknown:
            raise ConfigError(
                f"unknown measures {unknown}; valid: {', '.join(MEASURES)}"
            )
        for m in ("exact", "hamiltonian"):
            if m in self.measures:
                big = [n for n in self.n_list if n > self.exact_limit]
                if big:
                    raise ConfigError(
                        f"measure {m!r} is exact and capped at "
                        f"n <= {self.exact_limit}; infeasible for n = {big}"
                    )

    def to_json_obj(self) -> dict:
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Everything measured on one sample; recomputable from (n, p, seed).
    Slotted, because a report holds one per trial."""

    seed: int
    n: int
    c: float
    p: float
    n0: int
    n1: int
    pair_ok: bool
    max_degree: int
    obstacle3: Obstacle | None = None
    surrogate: bool | None = None
    exact_dhp: bool | None = None
    hamiltonian: bool | None = None
    maxdeg_ratio: float | None = None

    @property
    def n_bad(self) -> int:
        return self.n0 + self.n1

    def to_json_obj(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["n_bad"] = self.n_bad
        out["surrogate_dhp"] = out.pop("surrogate")
        if self.obstacle3 is not None:
            out["obstacle3"] = self.obstacle3.to_json_obj()
        return out


def _run_seed(task: tuple) -> list[TrialRecord]:
    """The records of one seed at every (c, p) in the task, in that order:
    (seed, n, ((c, p), ...), measures, exact_limit).

    The seed's uniform grid is drawn once and thresholded for each p, in
    increasing p, while a sorted set R of X-rows shrinks.  At each p the
    maximum degree is read off the full bool matrix, but only the rows in R
    are profiled; R then shrinks to the rows in some pair with at most two
    common neighbours, and the thin-pair scan runs on that R x R block.
    This is exact because raising p only adds edges: a pair with at most
    two common neighbours at a larger p, and so the third vertex of a
    size-3 obstacle there, had at most two at every smaller p.  A
    ``Bigraph`` is packed only for the exact measures.
    """
    import numpy as np

    seed, n, cps, measures, exact_limit = task
    grid = _uniform_grid(seed, n, n)
    tri = _not_above_diagonal(n)
    rows = np.arange(n)  # R: increasing, so lexicographic order is kept
    records: list = [None] * len(cps)
    for k in sorted(range(len(cps)), key=lambda k: cps[k][1]):
        c, p = cps[k]
        mat = _threshold(grid, p)
        u8 = mat.view(np.uint8)  # its int32 sums take half the time of the bool matrix's
        maxdeg = int(max(u8.sum(0, dtype=np.int32).max(), u8.sum(1, dtype=np.int32).max()))
        sub = mat[rows]
        n0, n1, common = _pair_profile(sub, tri[: len(rows), : len(rows)])
        pair_ok = n0 == 0 and n1 == 0
        near = (common >= 0) & (common <= 2)
        keep = np.flatnonzero(near.any(axis=0) | near.any(axis=1))
        rows = rows[keep]
        obstacle = surtag = exact = ham = ratio = None
        if "obstacle3" in measures:
            obstacle = _scan_thin(sub[keep], common[np.ix_(keep, keep)], rows)
            surtag = pair_ok and obstacle is None
        if "exact" in measures or "hamiltonian" in measures:
            g = Bigraph.from_dense(mat)
            if "exact" in measures:
                exact = check_dhp(g).holds
            if "hamiltonian" in measures:
                ham = check_hamiltonian(g, limit=exact_limit) is not None
        if "maxdeg" in measures:
            ratio = maxdeg / math.sqrt(2 * n * math.log(n))
        records[k] = TrialRecord(
            seed=seed,
            n=n,
            c=c,
            p=p,
            n0=n0,
            n1=n1,
            pair_ok=pair_ok,
            max_degree=maxdeg,
            obstacle3=obstacle,
            surrogate=surtag,
            exact_dhp=exact,
            hamiltonian=ham,
            maxdeg_ratio=ratio,
        )
    return records


# This process's sweep workers: (worker count, executor) or None.  Parallel
# sweeps hold the lock, so threads take turns with the pool rather than one
# replacing it while another submits to it.
_pool: tuple[int, concurrent.futures.ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()

# Executors inherited through fork, never used: collecting one would take
# its lock, which a parent thread may have held, and wake the parent's pool.
_parent_pools: list[concurrent.futures.ProcessPoolExecutor] = []


def _drop_pool() -> None:
    """Shut the kept sweep pool down and forget it."""
    global _pool
    kept, _pool = _pool, None
    if kept is not None:
        kept[1].shutdown()


# The exit hook of concurrent.futures joins the workers first; this frees the
# executor while modules are intact, before its collection callback would run
# during module teardown and print an ignored AttributeError.
atexit.register(_drop_pool)


def _sweep_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The kept pool of ``workers`` processes, replacing one of another size.

    Its workers are forked at the first task and stay until the pool is
    dropped or the interpreter exits, when the exit hook of
    ``concurrent.futures`` joins them.
    """
    global _pool
    if _pool is None or _pool[0] != workers:
        _drop_pool()
        _pool = (workers, concurrent.futures.ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _start_child_state() -> None:
    """Fork hook for this module's per-process state.

    A forked child runs only the thread that forked, so no thread of its
    own is inside the BLAS scope or holds a lock.  It gives back the BLAS
    thread count that a parent thread inside the scope had saved, takes
    fresh locks, and starts with no sweep pool: the parent's workers and
    queues are the parent's, never shut down or reused from the child.
    """
    global _blas_lock, _blas_depth, _pool, _pool_lock
    if (_blas_depth or _blas_lock.locked()) and _blas_saved is not None:
        _blas_thread_api()[1](_blas_saved)
    _blas_lock = threading.Lock()
    _blas_depth = 0
    if _pool is not None:
        _parent_pools.append(_pool[1])
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_child_state)


def _mean(xs: Iterable[float]) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (n, c) grid cell, plus the raw trial records so
    every number here is recomputable."""

    n: int
    c: float
    p: float
    p_clamped: bool
    trials: int
    pr_pair_ok: float
    ci_halfwidth: float
    mean_nbad: float
    var_nbad: float
    tv_poisson: float | None
    pr_obstacle3: float | None
    pr_surrogate_dhp: float | None
    pr_exact_dhp: float | None
    pr_hamiltonian: float | None
    maxdeg_ratio_mean: float | None
    records: tuple[TrialRecord, ...] = field(repr=False)

    def to_json_obj(self, include_records: bool = False) -> dict:
        # not asdict: it would recurse into the records' Obstacle vertex sets
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        if include_records:
            out["records"] = [r.to_json_obj() for r in self.records]
        return out


CSV_COLUMNS = (
    "n",
    "c",
    "p",
    "trials",
    "pr_pair_ok",
    "ci_halfwidth",
    "mean_nbad",
    "tv_poisson",
    "pr_obstacle3",
    "pr_exact_dhp",
    "pr_hamiltonian",
    "maxdeg_ratio_mean",
    "pr_surrogate_dhp",
)


def _csv_num(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return format(v, ".6g")


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cells: tuple[CellStats, ...]

    def to_json_obj(self, include_records: bool = False) -> dict:
        return {
            "config": self.config.to_json_obj(),
            "cells": [c.to_json_obj(include_records) for c in self.cells],
        }

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for cell in self.cells:
            lines.append(",".join(_csv_num(getattr(cell, col)) for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def _aggregate_cell(
    n: int,
    c: float,
    tp: ThresholdParams,
    records: list[TrialRecord],
    measures: tuple[str, ...],
) -> CellStats:
    trials = len(records)
    pair_hits = sum(1 for r in records if r.pair_ok)
    pr_pair = pair_hits / trials
    ci = 1.96 * math.sqrt(pr_pair * (1 - pr_pair) / trials)
    nbads = [r.n_bad for r in records]
    mean_nbad = _mean(nbads)
    var_nbad = _mean((x - mean_nbad) ** 2 for x in nbads)
    tv = None
    if trials >= 100:
        # far below the threshold exp(-c) overflows; the TV distance to
        # Poisson(rate) tends to 1 as the rate grows without bound
        tv = 1.0 if -c > _LOG_MAX_FLOAT else poisson_gof(nbads, math.exp(-c)).tv
    pr_obs = pr_sur = pr_exact = pr_ham = ratio_mean = None
    if "obstacle3" in measures:
        pr_obs = sum(1 for r in records if r.obstacle3 is not None) / trials
        pr_sur = sum(1 for r in records if r.surrogate) / trials
    if "exact" in measures:
        pr_exact = sum(1 for r in records if r.exact_dhp) / trials
    if "hamiltonian" in measures:
        pr_ham = sum(1 for r in records if r.hamiltonian) / trials
    if "maxdeg" in measures:
        ratio_mean = _mean(r.maxdeg_ratio for r in records)
    return CellStats(
        n=n,
        c=c,
        p=tp.p,
        p_clamped=tp.clamped,
        trials=trials,
        pr_pair_ok=pr_pair,
        ci_halfwidth=ci,
        mean_nbad=mean_nbad,
        var_nbad=var_nbad,
        tv_poisson=tv,
        pr_obstacle3=pr_obs,
        pr_surrogate_dhp=pr_sur,
        pr_exact_dhp=pr_exact,
        pr_hamiltonian=pr_ham,
        maxdeg_ratio_mean=ratio_mean,
        records=tuple(records),
    )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the full (n, c) grid and aggregate.

    Per-trial seeds are derived, never sequential, so trials are
    independent tasks; with jobs > 1 they are distributed over processes
    and reassembled in task order, making the report identical for any
    worker count.  Each pair-count product runs on one BLAS thread in
    whichever process runs it, and the caller's BLAS thread count is back
    afterwards (see ``_pair_profile``): cores come from ``jobs``.  The pool
    has min(jobs, tasks, usable cores) workers, since more could not run at
    once.  They are forked at the first parallel sweep and kept: later
    sweeps with the same worker count reuse them, another count replaces
    the pool, and they are joined at interpreter exit.  Idle, they hold
    their memory.  A pool found broken before any task is sent is replaced
    once; a worker dying during the sweep raises ``BrokenProcessPool`` and
    drops the pool.  A child made by ``fork`` starts with no pool and
    fresh locks, so it forks workers of its own and leaves its parent's
    alone.  With crn enabled the seed derivation ignores the position of c
    in the grid, so each trial index sees the same uniforms at every
    offset: one task per (n, seed) draws its uniform grid once and
    thresholds it for every c.
    """
    config.validate()
    params = {
        (n, c): threshold_p(n, c, "dhp") for n in config.n_list for c in config.c_list
    }
    if config.crn:
        groups = [(n, 0, config.c_list) for n in config.n_list]
    else:
        groups = [
            (n, c_ix, (c,))
            for n in config.n_list
            for c_ix, c in enumerate(config.c_list)
        ]
    tasks = [
        (
            trial_seed(config.master_seed, n, seed_cix, t),
            n,
            tuple((c, params[n, c].p) for c in cs),
            config.measures,
            config.exact_limit,
        )
        for n, seed_cix, cs in groups
        for t in range(config.trials)
    ]
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    workers = min(config.jobs, len(tasks), cores)
    if workers > 1:
        # loaded before the fork, so every worker inherits numpy and its BLAS
        # instead of importing them on its own
        import numpy  # noqa: F401

        chunk = max(1, len(tasks) // (workers * 8))
        with _pool_lock:
            try:
                try:
                    pending = _sweep_pool(workers).map(_run_seed, tasks, chunksize=chunk)
                except concurrent.futures.BrokenExecutor:
                    # a worker died while the pool sat idle, so no task went out
                    _drop_pool()
                    pending = _sweep_pool(workers).map(_run_seed, tasks, chunksize=chunk)
                results = list(pending)
            except concurrent.futures.BrokenExecutor:
                _drop_pool()
                raise
    else:
        results = [_run_seed(t) for t in tasks]
    cells = []
    for g_ix, (n, _, cs) in enumerate(groups):
        rows = results[g_ix * config.trials : (g_ix + 1) * config.trials]
        for j, c in enumerate(cs):
            records = [row[j] for row in rows]
            cells.append(_aggregate_cell(n, c, params[n, c], records, config.measures))
    return SweepReport(config, tuple(cells))
