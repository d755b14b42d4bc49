"""Seeded instance generators shared by the unit and acceptance tests.

All functions take an explicit ``random.Random`` so every test run sees
the same instances.  Generation parameters were tuned once for acceptance
rate and left alone; nothing here depends on wall-clock or global state.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from dhp import (
    Bigraph,
    DesignSpec,
    check_dhp,
    check_snp,
)


def rand_bigraph(rng: random.Random, nx: int, ny: int, p: float) -> Bigraph:
    rows = tuple(
        sum(1 << j for j in range(ny) if rng.random() < p) for _ in range(nx)
    )
    return Bigraph(nx, ny, rows)


def iter_random_bigraphs(
    seed: int, count: int, max_nx: int = 8, max_ny: int = 8
) -> Iterator[Bigraph]:
    """Mixed-density random bigraphs with nx >= 2 (checker domain)."""
    rng = random.Random(seed)
    for _ in range(count):
        nx = rng.randrange(2, max_nx + 1)
        ny = rng.randrange(0, max_ny + 1)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        yield rand_bigraph(rng, nx, ny, p)


def dhp_samples(
    seed: int,
    count: int,
    min_nx: int = 2,
    max_nx: int = 4,
    max_ny: int = 4,
    p: float = 0.8,
) -> list[Bigraph]:
    """Rejection-sample graphs accepted by check_dhp."""
    rng = random.Random(seed)
    out: list[Bigraph] = []
    while len(out) < count:
        nx = rng.randrange(min_nx, max_nx + 1)
        ny = rng.randrange(2, max_ny + 1)
        g = rand_bigraph(rng, nx, ny, p)
        if check_dhp(g).holds:
            out.append(g)
    return out


def snp_samples(seed: int, nx: int, count: int) -> list[Bigraph]:
    """Rejection-sample graphs accepted by check_snp at a fixed nx."""
    rng = random.Random(seed)
    out: list[Bigraph] = []
    shapes = ((0, 0.75), (1, 0.7), (2, 0.65))
    while len(out) < count:
        extra, p = shapes[rng.randrange(len(shapes))]
        g = rand_bigraph(rng, nx, nx + extra, p)
        if check_snp(g).holds:
            out.append(g)
    return out


def degree_class_instances(
    seed: int, count: int, min_nx: int = 4, max_nx: int = 8
) -> list[Bigraph]:
    """dHp graphs whose Y-degrees all lie in {2, nx-2, nx-1, nx}, with nx
    drawn from min_nx..max_nx.

    Built column-wise so the degree classes hold by construction, then
    filtered for the double Hall property.
    """
    rng = random.Random(seed)
    out: list[Bigraph] = []
    while len(out) < count:
        nx = rng.randrange(min_nx, max_nx + 1)
        ny = rng.randrange(nx, 2 * nx + 1)
        classes = (2, nx - 2, nx - 1, nx, nx - 1, nx)
        rows = [0] * nx
        for j in range(ny):
            d = rng.choice(classes)
            for i in rng.sample(range(nx), d):
                rows[i] |= 1 << j
        g = Bigraph(nx, ny, tuple(rows))
        if check_dhp(g).holds:
            out.append(g)
    return out


def high_degree_instances(seed: int, k: int, count: int) -> list[Bigraph]:
    """Graphs meeting the high-degree solver preconditions for this k.

    Starts from a complete bigraph and deletes edges while keeping every
    Y-degree at nx - k or above.  For k >= 2 a degree-2 X-vertex is
    planted half the time so the sparse-side path machinery gets real
    work; the double Hall property then forces every other X-vertex to
    see both of its neighbours, which the construction respects.  |X| is
    drawn from the size floor up to 12, or up to floor + 2 for k >= 3,
    whose floor is 13 or more.
    """
    floor = max(2 * k + 2, k * (k + 1) + 1)
    rng = random.Random(seed)
    out: list[Bigraph] = []
    while len(out) < count:
        nx = rng.randrange(floor, max(13, floor + 3))
        ny = nx + rng.randrange(0, 3)
        rows = [(1 << ny) - 1] * nx
        protected: tuple[int, ...] = ()
        if k >= 2 and rng.random() < 0.5:
            ya, yb = rng.sample(range(ny), 2)
            rows[0] = (1 << ya) | (1 << yb)
            protected = (ya, yb)
        for j in range(ny):
            if j in protected:
                continue
            first = 1 if protected else 0
            for i in rng.sample(range(first, nx), min(k, nx - first)):
                if rng.random() < 0.4:
                    rows[i] &= ~(1 << j)
        g = Bigraph(nx, ny, tuple(rows))
        if min(g.degrees_y()) < nx - k:
            continue
        if check_dhp(g).holds:
            out.append(g)
    return out


def planted_path_instance(
    rng: random.Random, n: int
) -> tuple[Bigraph, list[int]]:
    """Dense graph plus a Y-to-Y walk y0, x1, ..., xn, yn covering X,
    endpoints degree-rich.

    Retries internally until the rotation guarantee
    deg(first) + deg(last) >= n + 2 holds.
    """
    while True:
        ny = n + 1
        xs = list(range(n))
        rng.shuffle(xs)
        ys = list(range(ny))
        rng.shuffle(ys)
        rows = [0] * n
        for t, x in enumerate(xs):
            rows[x] |= (1 << ys[t]) | (1 << ys[t + 1])
        for x in range(n):
            for j in range(ny):
                if rng.random() < 0.5:
                    rows[x] |= 1 << j
        g = Bigraph(n, ny, tuple(rows))
        if g.degree_y(ys[0]) + g.degree_y(ys[n]) < n + 2:
            continue
        return g, [v for t in range(n) for v in (ys[t], xs[t])] + [ys[n]]


def iter_design_specs(seed: int, count: int, max_v: int = 13) -> Iterator[DesignSpec]:
    """Symmetric-design candidates, by turns: a cyclic development of a
    random base block (difference sets among them), such a development with
    one block repeated in place of another, and v random blocks, a third of
    them malformed (a block missing, a point repeated, out of range or
    dropped).  Most get lambda = the pair count of points 0 and 1, so that
    many are designs."""
    rng = random.Random(seed)
    for i in range(count):
        v = rng.randrange(1, max_v + 1)
        k = rng.randrange(1, v + 1)
        if i % 3 < 2:
            base = rng.sample(range(v), k)
            blocks = [tuple(sorted((x + t) % v for x in base)) for t in range(v)]
            if i % 3 == 1:
                blocks[rng.randrange(v)] = blocks[rng.randrange(v)]
        else:
            blocks = [tuple(sorted(rng.sample(range(v), k))) for _ in range(v)]
            if rng.random() < 1 / 3:
                b = rng.randrange(v)
                fault = rng.randrange(4)
                if fault == 0:
                    del blocks[b]
                elif fault == 1:
                    blocks[b] = blocks[b] + blocks[b][:1]
                elif fault == 2:
                    blocks[b] = blocks[b][:-1] + (rng.choice((-1, v)),)
                else:
                    blocks[b] = blocks[b][:-1]
        if v >= 2 and rng.random() < 0.7:
            lam = sum(1 for block in blocks if 0 in block and 1 in block)
        else:
            lam = rng.randrange(0, 4)
        yield DesignSpec(v, k, lam, tuple(blocks))
