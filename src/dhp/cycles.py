"""Constructive search for cycles covering prescribed X-vertices.

The solvers here come in two flavours:

* exact backtracking (find_cycle_covering, find_disjoint_cycle_cover),
  which decides existence outright and is meant for small instances, and

* theorem-shaped pipelines (solve_high_degree, solve_degree_split) that
  assemble a covering cycle from structured pieces: path systems through
  the low-degree part, endpoint-pivot rotations that close a Y-to-Y path
  into a cycle, and absorption of helper edges that were never really
  there.  A failure is reported as None plus a diagnostics entry.  Under
  the documented degree preconditions it means a bug, except that above
  |X| = 12 solve_degree_split covers X by a maximal rather than a minimum
  path cover, and a failure there may come from that cover.

Every witness returned by any function in this module has been validated
against the input graph.  Input witnesses that fail validation raise
WitnessError (bad input); a witness this module built that fails raises
ContractViolationError, since that can only be a bug here.
"""

from __future__ import annotations

import itertools
import logging
from collections import defaultdict, deque
from typing import Iterator

from .budget import NODE_BUDGET_DEFAULT, WorkBudget, as_budget
from .checkers import check_dhp
from .core import (
    Bigraph,
    CycleWitness,
    VertexSet,
    X_SIDE,
    bit_list,
    bits,
    is_two_connected,
    mask_of,
)
from .errors import (
    ContractViolationError,
    DomainError,
    GraphInputError,
    ResourceLimitError,
    WitnessError,
)

logger = logging.getLogger(__name__)

__all__ = [
    "CYCLE_TARGET_LIMIT",
    "max_matching",
    "hall_violator",
    "find_cycle_covering",
    "find_disjoint_cycle_cover",
    "rotate_path_to_cycle",
    "absorb_virtual_edge",
    "solve_high_degree",
    "solve_degree_split",
]

# Cap on the X-vertices of one exact covering-cycle search.  The search
# recurses once per target, so a larger search could overflow Python's
# default recursion limit of 1000.
CYCLE_TARGET_LIMIT = 384


# -- checks shared by the searches and solvers --------------------------------


def _checked(cyc: CycleWitness, g: Bigraph) -> CycleWitness:
    """``cyc``, a cycle built here, after validating it against ``g``."""
    try:
        cyc.validate(g)
    except WitnessError as exc:
        raise ContractViolationError(f"constructed cycle failed validation: {exc}") from exc
    return cyc


def _ring_cycle(g: Bigraph, ring: list[int]) -> CycleWitness:
    """The cycle x, y, x, y, ... read off the alternating int list ``ring``,
    in canonical form and validated against ``g``."""
    return _checked(CycleWitness(tuple(ring[0::2]), tuple(ring[1::2])).canonical(), g)


def _verified_budget(g: Bigraph, budget: int | WorkBudget | None) -> WorkBudget:
    """The one budget of a solver call, already charged for deciding that
    ``g`` is dHp; a graph that is not raises DomainError."""
    b = as_budget(budget, NODE_BUDGET_DEFAULT, "node")
    v = check_dhp(g, budget=b)
    if not v.holds:
        raise DomainError(f"graph is not dHp; violating S = {v.witness['S']}")
    return b


# -- bipartite matching -------------------------------------------------------


def _augment(
    avail: list[int],
    y_slot: list[int],
    s: int,
    seen: int,
    undo: list[tuple[int, int]],
) -> int:
    """Kuhn's augmenting-path step: give slot ``s`` a Y-vertex of the mask
    ``avail[s]`` outside the mask ``seen``, re-matching the earlier holders.
    ``y_slot[y]`` is the slot holding y, or -1 when y is free.  Candidates
    are tried by increasing Y index.

    The undo log ``undo`` holds the path: each Y-vertex tried goes to the
    trying slot at once, is logged as (y, previous holder), and the step
    goes on from that holder.  A holder with no candidate left pops its
    entry, gives the Y-vertex back, and the slot that tried it resumes.  A
    slot's candidates are ``avail[s]`` outside every Y-vertex visited so
    far: one that a later slot visited leads back into the set a failure
    returns.

    Returns -1 on success, the free Y-vertex the path ended at being the
    last entry logged.  On failure the matching and ``undo`` are as they
    were, and the result is ``seen`` grown by every Y-vertex the step
    visited: a set that holds no free Y-vertex and is closed under
    alternating paths (the holder of each of its Y-vertices sees only
    Y-vertices inside it) when ``seen`` was one too, as the empty set is."""
    mark = len(undo)
    while True:
        c = avail[s] & ~seen
        if c:
            low = c & -c
            seen |= low
            y = low.bit_length() - 1
            holder = y_slot[y]
            undo.append((y, holder))
            y_slot[y] = s
            if holder < 0:
                return -1
            s = holder
        elif len(undo) > mark:
            y, holder = undo.pop()
            s = y_slot[y]
            y_slot[y] = holder
        else:
            return seen


def _matched(rows: list[int]) -> list[int]:
    """``y_slot`` of a maximum matching of the left vertices, whose
    Y-neighbourhoods are the masks ``rows``, found by Kuhn's algorithm."""
    y_slot = [-1] * max(rows, default=0).bit_length()
    for s in range(len(rows)):
        _augment(rows, y_slot, s, 0, [])
    return y_slot


def max_matching(rows: list[int]) -> dict[int, int]:
    """Maximum matching of left vertices with Y-neighbourhood masks
    ``rows``, as {left index: matched Y index}."""
    return dict(sorted((s, y) for y, s in enumerate(_matched(rows)) if s >= 0))


def hall_violator(rows: list[int]) -> tuple[int, ...] | None:
    """A set of left indices S with fewer than |S| joint Y-neighbours, the
    left vertices reachable by alternating paths from those a maximum
    matching leaves exposed.  None when the matching saturates the left
    side.

    Each exposed vertex's augmenting step fails, and the Y-set it returns
    is passed on to the next: the last one holds every Y-vertex reachable
    from an exposed vertex, and S is their holders and the exposed
    vertices."""
    y_slot = _matched(rows)
    matched = set(y_slot)
    exposed = [s for s in range(len(rows)) if s not in matched]
    if not exposed:
        return None
    reach_y = 0
    for s in exposed:
        reach_y = _augment(rows, y_slot, s, reach_y, [])
    return tuple(sorted({*exposed, *(y_slot[y] for y in bits(reach_y))}))


# -- exact covering-cycle search ----------------------------------------------


def _search_exact_cycle(
    g: Bigraph, targets: list[int], budget: WorkBudget
) -> CycleWitness | None:
    """Backtracking over cyclic orderings of ``targets``, with one distinct
    Y-vertex per consecutive pair maintained as an incremental matching.

    Canonical order: the smallest target anchors the cycle, candidates are
    tried in increasing index order, and the anchor's successor is kept
    smaller than its predecessor so each cycle is visited in one direction
    only.  Each node costs one unit, counted locally: the budget is charged
    once when the search ends, or at the first node past its remaining
    units, which raises there as a charge per node would.  Each pair takes
    its Y-vertex by ``_augment``, and backtracking pops the undo log that
    step writes.  When the lowest candidate Y-vertex is free, the step is
    ``_augment``'s first try and is taken inline: that Y-vertex is
    assigned and handed back by hand, and the call is made only when it
    is held.

    Each node also carries a dead set: the Y-vertices a failed
    ``_augment`` visited, which hold no free Y-vertex and are closed under
    alternating paths, so no augmenting path enters them.  A candidate
    whose common neighbours all lie in it is skipped, and every later step
    starts its ``seen`` from it.  Backtracking restores the matching, so
    the set stays dead for the rest of the node's loop; a successful step
    avoids it and leaves its holders alone, so it is passed down to the
    child.  Kuhn's search only skips branches that would fail, so the
    cycle, the Y-vertices and the node count are those of a search
    without it.

    A node where no placed pair sees a free Y-vertex takes all the held
    Y-vertices as its dead set.  Each is held by a placed slot, which sees
    only held ones, so the set is closed under alternating paths and holds
    no free Y-vertex: it is a dead set.  Every step of such a node is then
    the inline first try, since Kuhn's step would fail through each held
    candidate and take the pair's least free Y-vertex.  Each node is
    passed ``held``, the matched Y-vertices, and ``reach``, the OR of the
    placed slots' ``avail`` masks; an ``_augment`` success adds the free
    Y-vertex its path ended at, the last entry it logged.
    """
    m = len(targets)
    if m > CYCLE_TARGET_LIMIT:
        raise ResourceLimitError(f"cycle search capped at {CYCLE_TARGET_LIMIT} targets, got {m}")
    adj = g.adj_x
    if any(adj[x].bit_count() < 2 for x in targets):
        return None
    if g.ny == m and (  # such a cycle would pass through every Y-vertex
        any(row.bit_count() < 2 for row in g.adj_y) or (m == g.nx and not is_two_connected(g))
    ):
        return None

    # the search runs on positions in ``targets``; slot i joins order[i] to its successor
    common = [[adj[a] & adj[b] for b in targets] for a in targets]
    meets = [mask_of(j for j, c in enumerate(row) if c) for row in common]
    order, avail = [0] * m, [0] * m
    y_slot = [-1] * g.ny
    undo: list[tuple[int, int]] = []
    limit, nodes = budget.remaining, 0

    def extend(depth: int, last: int, dead: int, unused: int, held: int, reach: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            budget.spend(nodes)  # raises at the node a per-node charge would
        if not reach & ~held:
            dead = held  # no placed pair sees a free Y-vertex
        c = (unused or 1) & meets[last]  # with every target placed, close at the anchor
        row = common[last]
        if depth == m - 1 and m >= 3:
            c &= -1 << order[1]  # mirror image of an ordering already tried
        s = depth - 1
        while c:
            low = c & -c
            c ^= low
            j = low.bit_length() - 1
            r = row[j]
            free = r & ~dead
            if not free:
                continue  # its step would fail at once
            avail[s] = r
            bit = free & -free
            y = bit.bit_length() - 1
            if y_slot[y] < 0:
                y_slot[y] = s  # _augment's first try, taken inline and logged nowhere
                mark = -1
            else:
                mark = len(undo)
                seen = _augment(avail, y_slot, s, dead, undo)
                if seen >= 0:
                    dead = seen
                    continue
                bit = 1 << undo[-1][0]  # the free Y-vertex the path ended at
            if depth == m:
                return True
            order[depth] = j
            if extend(depth + 1, j, dead, unused ^ low, held | bit, reach | r):
                return True
            if mark < 0:
                y_slot[y] = -1  # a failed child leaves the undo log as it found it
                continue
            while len(undo) > mark:
                y, holder = undo.pop()
                y_slot[y] = holder
        return False

    found = extend(1, 0, 0, (1 << m) - 2, 0, 0)
    budget.spend(nodes)
    if not found:
        return None
    ys = sorted((y for y in range(g.ny) if y_slot[y] >= 0), key=y_slot.__getitem__)
    return _checked(CycleWitness(tuple(targets[i] for i in order), tuple(ys)).canonical(), g)


def find_cycle_covering(
    g: Bigraph,
    xs: VertexSet,
    exact_x: bool = True,
    *,
    budget: int | WorkBudget | None = None,
) -> CycleWitness | None:
    """A cycle whose X-vertices are exactly ``xs`` (exact_x=True) or a
    superset of it (exact_x=False); None when no such cycle exists.

    Cover mode tries candidate X-supersets of at least two vertices by
    increasing size, then lexicographically, so the returned cycle is the
    first the canonical order finds; ``xs`` may then have fewer than two.
    """
    if xs.side != X_SIDE:
        raise GraphInputError("find_cycle_covering expects an X-set")
    if xs.mask >> g.nx:
        raise GraphInputError("xs mentions vertices outside X")
    targets = list(xs.indices)
    b = as_budget(budget, NODE_BUDGET_DEFAULT, "node")
    if exact_x:
        if len(targets) < 2:
            raise DomainError("a covering cycle needs at least two X-vertices")
        return _search_exact_cycle(g, targets, b)
    others = [x for x in range(g.nx) if not xs.mask >> x & 1]
    for extra in range(max(0, 2 - len(targets)), len(others) + 1):
        for added in itertools.combinations(others, extra):
            cyc = _search_exact_cycle(g, sorted(targets + list(added)), b)
            if cyc is not None:
                return cyc
    return None


# -- pair-assignment search ---------------------------------------------------


def _pair_search(
    g: Bigraph, xs: list[int], budget: WorkBudget, *, paths: bool
) -> list[list[int]] | None:
    """Give each X-vertex of ``xs`` a pair of its Y-neighbours, no Y-vertex
    taken more than twice, so that the pairs, read as edges on Y, form
    disjoint cycles, or disjoint Y..Y paths when ``paths`` is set; None
    when no assignment does.

    Depth-first over ``xs`` in order, pairs in ``itertools.combinations``
    order, one node unit per state, on an explicit stack so that depth
    len(xs) does not meet Python's recursion limit.  ``paths`` decides
    three rules only: a cycle state is dropped when a Y-vertex taken once
    has no later X-vertex to take it again, a full cycle assignment is kept
    only when no Y-vertex is taken once, and a pair of one path's two ends,
    which would close it, is skipped at no cost.

    Components come back as alternating Y, x, Y, ... lists: each path from
    its smaller end, by increasing smaller end, then each cycle, by its
    first X-vertex in ``xs``, from that X-vertex's smaller Y-vertex round
    to the same Y-vertex again.
    """
    n = len(xs)
    adj = [g.adj_x[x] for x in xs]
    futures = [0] * (n + 1)  # the Y-vertices that xs[i:] see
    for i in range(n - 1, -1, -1):
        futures[i] = futures[i + 1] | adj[i]
    avail = (1 << g.ny) - 1  # Y-vertices taken at most once
    half = 0  # Y-vertices taken exactly once
    end = list(range(g.ny))  # the other end of a path end; y itself while y is untaken

    def path_pairs(cands: Iterator[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        for y1, y2 in cands:
            e1, e2 = end[y1], end[y2]
            if e1 != y2:  # y1 and y2 are not the two ends of one path
                end[e1], end[e2] = e2, e1  # the pair joins their two paths
                yield y1, y2
                end[e1], end[e2] = y1, y2  # drawn from again: the pair was given back

    choice: list[tuple[int, int]] = [(0, 0)] * n
    # for each X-vertex given a pair, the pairs it has left and the masks before it took one
    pairs: list[Iterator[tuple[int, int]]] = []
    saved: list[tuple[int, int]] = []
    while True:
        i = len(pairs)
        budget.spend()
        if i == n:
            if paths or not half:
                break
        elif paths or not half & ~futures[i]:
            cands = itertools.combinations(bit_list(adj[i] & avail), 2)
            pairs.append(path_pairs(cands) if paths else cands)
            saved.append((avail, half))
        # the deepest X-vertex with a pair left takes it
        while pairs:
            avail, half = saved[-1]
            pair = next(pairs[-1], None)
            if pair is not None:
                break
            pairs.pop()
            saved.pop()
        else:
            return None
        choice[len(pairs) - 1] = pair
        for y in pair:
            if half >> y & 1:
                avail ^= 1 << y
            half ^= 1 << y

    at: dict[int, list[int]] = defaultdict(list)  # the positions in xs taking each Y-vertex
    for i, pair in enumerate(choice):
        for y in pair:
            at[y].append(i)
    starts = [(y, at[y][0]) for y in sorted(at) if len(at[y]) == 1]
    starts += [(min(pair), i) for i, pair in enumerate(choice)]
    walked = [False] * n
    walks: list[list[int]] = []
    for y, i in starts:
        if walked[i]:
            continue
        walk = [y]
        while not walked[i]:
            walked[i] = True
            y1, y2 = choice[i]
            y = y2 if y == y1 else y1
            walk += (xs[i], y)
            i = at[y][-1] if at[y][0] == i else at[y][0]
        walks.append(walk)
    return walks


def find_disjoint_cycle_cover(
    g: Bigraph, *, budget: int | WorkBudget | None = None
) -> list[CycleWitness] | None:
    """Vertex-disjoint cycles covering every X-vertex, or None.

    Such a cover is exactly a spanning subgraph where every x has degree 2
    and every y degree 0 or 2, so the search assigns each x an unordered
    pair of Y-slots (capacity 2 per y) and rejects leftover degree-1 y's.
    Its cycles pass through exactly |X| Y-vertices, so a graph with fewer
    is answered None at no cost.
    """
    b = as_budget(budget, NODE_BUDGET_DEFAULT, "node")
    if g.nx == 0:
        return []
    if g.ny < g.nx or any(row.bit_count() < 2 for row in g.adj_x):
        return None
    walks = _pair_search(g, list(range(g.nx)), b, paths=False)
    if walks is None:
        return None
    return [_ring_cycle(g, w[1:]) for w in walks]


# -- endpoint-pivot rotation and edge absorption ------------------------------


def _close_yy_walk(g: Bigraph, walk: list[int]) -> CycleWitness | None:
    """Close an alternating walk y0, x1, y1, ..., xn, yn covering all of X
    into a cycle on the same X-vertices, by the endpoint pivot rule: find
    the first X-vertex walk[t] seen by y0 whose predecessor X-vertex
    walk[t - 2] sees yn, then reroute, dropping the Y-vertex between them.

    Whenever the endpoint degrees sum to at least (number of X's) + 2 such
    a pivot must exist by counting; the search runs regardless and simply
    reports None when there is no pivot.
    """
    adj_first, adj_last = g.adj_y[walk[0]], g.adj_y[walk[-1]]
    for t in range(3, len(walk) - 1, 2):
        if adj_first >> walk[t] & 1 and adj_last >> walk[t - 2] & 1:
            return _ring_cycle(g, walk[1 : t - 1] + walk[: t - 1 : -1] + walk[:1])
    return None


def rotate_path_to_cycle(g: Bigraph, walk: list[int]) -> CycleWitness | None:
    """Turn a Y-to-Y path covering all of X, given as the alternating walk
    y0, x1, y1, ..., xn, yn, into a cycle covering all of X using the
    endpoint pivot rule; the cycle keeps every X-vertex and all but one
    Y-vertex of the path.

    A walk that does not end on Y or does not pass every X-vertex exactly
    once raises GraphInputError; a repeated or out-of-range Y-vertex or a
    missing edge raises WitnessError.  Guaranteed to succeed when
    deg(y0) + deg(yn) >= |X| + 2; the pivot search is attempted regardless
    of degrees.
    """
    if len(walk) % 2 == 0:
        raise GraphInputError("rotation needs a walk y0, x1, ..., xn, yn with two Y endpoints")
    if sorted(walk[1::2]) != list(range(g.nx)):
        raise GraphInputError("rotation needs a walk through every X-vertex exactly once")
    seen = 0
    for t in range(0, len(walk), 2):
        y = walk[t]
        if not 0 <= y < g.ny:
            raise WitnessError(f"Y-vertex {y} out of range 0..{g.ny - 1}")
        if seen >> y & 1:
            raise WitnessError(f"Y-vertex {y} appears twice in the walk")
        seen |= 1 << y
        for x in walk[max(t - 1, 1) : t + 2 : 2]:
            if not g.adj_y[y] >> x & 1:
                raise WitnessError(f"missing edge (x{x}, y{y})")
    return _close_yy_walk(g, walk)


def absorb_virtual_edge(
    g: Bigraph,
    x: int,
    y: int,
    c: CycleWitness,
    *,
    diagnostics: dict | None = None,
) -> CycleWitness | None:
    """Rewrite a cycle that is valid in g plus the helper edge (x, y) into a
    cycle covering all of X that is valid in g itself.

    A cycle that never uses the helper edge is returned in canonical form,
    like every cycle this module returns.  Otherwise the cycle is cut at
    the helper edge, giving a path from y to x through every X-vertex, and
    one of two reroutes applies: extend the path by an off-path neighbour
    of x and close it with the endpoint pivot rule, or pivot on an on-path
    Y-vertex seen by x whose successor X-vertex is seen by y.  Both
    reroutes exist whenever deg(x) + deg(y) >= |X| + 1 and every Y-degree
    exceeds (|X| + 1) / 2; outside those hypotheses None is possible.
    """
    if not (0 <= x < g.nx and 0 <= y < g.ny):
        raise GraphInputError(f"vertex pair ({x}, {y}) out of range")
    if g.has_edge(x, y):
        raise DomainError(f"edge ({x}, {y}) is already present; nothing to absorb")
    aug = g.with_edge(x, y)
    c.validate(aug)
    if c.x_set().mask != (1 << g.nx) - 1:
        raise GraphInputError("absorption needs a cycle covering every X-vertex")
    n = g.nx
    diag = {} if diagnostics is None else diagnostics
    if diagnostics is not None:
        diag["degree_pair_ok"] = g.degree_x(x) + g.degree_y(y) >= n + 1
        diag["y_degrees_ok"] = all(2 * g.degree_y(j) > n + 1 for j in range(g.ny))

    # the ring from x, with x's two ring neighbours c.ys[p] and c.ys[p - 1]
    p = c.xs.index(x)
    ring = [v for t in range(p - n, p) for v in (c.xs[t], c.ys[t])]
    if ring[1] == y:
        walk = ring[1:] + ring[:1]
    elif ring[-1] == y:
        walk = ring[::-1]
    else:
        diag["case"] = "unused"
        return _ring_cycle(g, ring)
    # walk runs y, x_1, y_1, ..., y_{n-1}, x through every X-vertex

    for y2 in bits(g.adj_x[x] & ~mask_of(c.ys)):
        cyc = _close_yy_walk(g, walk + [y2])
        if cyc is not None:
            diag["case"], diag["pivot_y"] = "off-path", y2
            return cyc

    adj_y_end, adj_x_end = g.adj_y[y], g.adj_x[x]
    for t in range(3, len(walk) - 1, 2):
        if adj_y_end >> walk[t] & 1 and adj_x_end >> walk[t - 1] & 1:
            diag["case"], diag["pivot_y"] = "on-path", walk[t - 1]
            return _ring_cycle(g, walk[1:t] + walk[: t - 1 : -1] + walk[:1])
    diag["case"] = "failed"
    return None


# -- high-minimum-Y-degree pipeline -------------------------------------------


def solve_high_degree(
    g: Bigraph,
    k: int,
    *,
    budget: int | WorkBudget | None = None,
    diagnostics: dict | None = None,
) -> CycleWitness | None:
    """Covering cycle for a dHp graph whose Y-degrees are all at least
    |X| - k, with |X| > max(2k+1, k(k+1)).

    Pipeline: split X into the (at most k) vertices of degree at most k and
    the rest; complete the high-degree part against Y to get a helper
    graph; cover the low-degree part by disjoint Y-to-Y paths found
    exactly; join the paths through distinct high-degree X-vertices and
    close the cycle through the remaining ones; then absorb the helper
    edges one at a time.  Each absorption is guaranteed by the degree
    hypotheses and the dHp check, so a None return signals a bug rather
    than a bad input.  The dHp check and the search share ``budget``.
    """
    n = g.nx
    if k < 0:
        raise DomainError("k must be non-negative")
    floor = max(2 * k + 1, k * (k + 1))
    if n <= floor:
        raise DomainError(f"need |X| > max(2k+1, k(k+1)) = {floor}, got {n}")
    for j in range(g.ny):
        dj = g.degree_y(j)
        if dj < n - k:
            raise DomainError(f"Y-vertex {j} has degree {dj} < |X| - k = {n - k}")
    if g.ny < n:
        raise DomainError(f"|Y| = {g.ny} < |X| = {n}; the graph cannot be dHp")
    b = _verified_budget(g, budget)
    diag = {} if diagnostics is None else diagnostics

    xs_small = [xv for xv in range(n) if g.degree_x(xv) <= k]
    xl = [xv for xv in range(n) if g.degree_x(xv) > k]
    if len(xs_small) > k:
        raise ContractViolationError(
            f"{len(xs_small)} X-vertices of degree <= {k}; a dHp graph meeting "
            "the degree preconditions has at most k of them"
        )

    full_y = (1 << g.ny) - 1
    helper_rows = list(g.adj_x)
    for xv in xl:
        helper_rows[xv] = full_y
    helper = Bigraph(n, g.ny, tuple(helper_rows))

    if not xs_small:
        ring = [v for xv in range(n) for v in (xv, xv)]
    else:
        paths = _pair_search(g, xs_small, b, paths=True)
        if paths is None:
            diag["stage"] = "path-system"
            logger.warning(
                "no disjoint Y..Y path system covers the low-degree side; "
                "for k <= 7 this contradicts the covering theorem"
            )
            return None
        m = len(paths)
        if len(xl) < m + 1:
            raise ContractViolationError(
                "too few high-degree X-vertices to join and close the paths"
            )
        big = paths[0]
        for joiner, path in zip(xl, paths[1:]):
            big += [joiner, *path]
        rest = xl[m - 1 :]
        path_y = set(big[0::2])
        unused_ys = [j for j in range(g.ny) if j not in path_y]
        if len(unused_ys) < len(rest) - 1:
            raise ContractViolationError("not enough spare Y-vertices to close the cycle")
        # rest[0], a spare Y-vertex, rest[1], ..., rest[-1], then the joined paths
        ring = [rest[0]]
        for y, xv in zip(unused_ys, rest[1:]):
            ring += (y, xv)
        ring += big
    cyc = _ring_cycle(helper, ring)

    current = helper
    while True:
        virtual_used = sorted(
            (xv, yv)
            for t in range(cyc.m)
            for xv, yv in (
                (cyc.xs[t], cyc.ys[t]),
                (cyc.xs[(t + 1) % cyc.m], cyc.ys[t]),
            )
            if not (g.adj_x[xv] >> yv) & 1
        )
        if not virtual_used:
            break
        xv, yv = virtual_used[0]
        current = current.without_edge(xv, yv)
        nxt = absorb_virtual_edge(current, xv, yv, cyc)
        if nxt is None:
            diag["stage"] = "absorption"
            diag["edge"] = (xv, yv)
            logger.warning("absorption of helper edge (%d, %d) failed", xv, yv)
            return None
        cyc = nxt
    return _checked(cyc, g)


# -- split-Y-degree pipeline ----------------------------------------------------

_EXACT_PATH_COVER_MAX_X = 12  # the subset DP tries (3^|X| - 1)/2 pieces


def _min_path_cover_exact(n: int, xadj: list[int]) -> list[list[int]]:
    """Minimum number of vertex-disjoint paths covering all n vertices of a
    graph given by adjacency masks, via subset DP.  Exponential in n; the
    caller gates on size.  Each path holds the least vertex the paths
    before it leave, so the paths come out ordered by their least vertex."""
    size = 1 << n
    end = [0] * size
    for v in range(n):
        end[1 << v] = 1 << v
    for mask in range(1, size):
        e = end[mask]
        if not e:
            continue
        for v in bits(e):
            for u in bits(xadj[v] & ~mask):
                end[mask | (1 << u)] |= 1 << u

    # a mask's first piece holds its least vertex; among the pieces of a
    # minimum cover the smallest wins, since they are visited largest first
    best = [mask.bit_count() for mask in range(size)]  # one path per vertex
    parent = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = sub = mask ^ low
        while True:
            if end[sub | low] and best[rest ^ sub] < best[mask]:
                best[mask] = best[rest ^ sub] + 1
                parent[mask] = sub | low
            if not sub:
                break
            sub = (sub - 1) & rest

    paths = []
    mask = size - 1
    while mask:
        piece = parent[mask]
        mask ^= piece
        v = (end[piece] & -end[piece]).bit_length() - 1
        seq = [v]
        rest = piece ^ (1 << v)
        while rest:
            prev = end[rest] & xadj[seq[-1]]
            u = (prev & -prev).bit_length() - 1
            seq.append(u)
            rest ^= 1 << u
        seq.reverse()
        paths.append(seq)
    return paths


def _min_path_cover_greedy(n: int, xadj: list[int]) -> list[list[int]]:
    """Maximal path cover for larger instances, not necessarily minimum.
    Each path starts at the least unused vertex and takes the least unused
    vertex adjacent to either of its ends, at the tail when the tail sees
    it, until no unused vertex is.  So no end of one path is adjacent to an
    end of another, and the paths come out ordered by their least vertex."""
    paths = []
    left = (1 << n) - 1
    while left:
        path = deque([(left & -left).bit_length() - 1])
        left &= left - 1
        while near := (xadj[path[0]] | xadj[path[-1]]) & left:
            u = near & -near
            left ^= u
            if xadj[path[-1]] & u:
                path.append(u.bit_length() - 1)
            else:
                path.appendleft(u.bit_length() - 1)
        paths.append(list(path))
    return paths


def solve_degree_split(
    g: Bigraph,
    *,
    budget: int | WorkBudget | None = None,
    diagnostics: dict | None = None,
) -> CycleWitness | None:
    """Covering cycle for a dHp graph whose Y-degrees all lie in
    {2, |X|-2, |X|-1, |X|}.

    The degree-2 Y-vertices act as edges of a multigraph on X; a
    collection of disjoint X-to-X paths covering X is lifted back to the
    bigraph.  One path closes directly through two common neighbours of
    its endpoints.  Several paths are arranged in a ring, the arrangement
    is improved by segment reversals while the count of (endpoint pair,
    high-degree common neighbour) incidences grows, and a matching that
    assigns a distinct high-degree Y-vertex to every junction splices the
    ring into one cycle.  A Hall violation after the reversal search stops
    is reported via ``diagnostics`` and None.  For |X| <= 12 the path
    cover is minimum and a violation would contradict the covering
    theorem.  Beyond that the cover is the greedy one, maximal but not
    necessarily minimum, the result is flagged best-effort, and a failure
    may come from the cover rather than from a bug.  The dHp check and the
    reversal search share ``budget``, and the search spends one node unit
    on each segment (i, j) it tries.
    """
    n = g.nx
    if n < 2:
        raise DomainError("need |X| >= 2")
    allowed = {2, n - 2, n - 1, n}
    for j in range(g.ny):
        if g.degree_y(j) not in allowed:
            raise DomainError(
                f"Y-vertex {j} has degree {g.degree_y(j)}, outside {{2, n-2, n-1, n}}"
            )
    b = _verified_budget(g, budget)
    diag = {} if diagnostics is None else diagnostics

    ys_small = [j for j in range(g.ny) if g.degree_y(j) == 2]
    yl_mask = ((1 << g.ny) - 1) & ~mask_of(ys_small)

    xadj = [0] * n
    pair_y: dict[tuple[int, int], int] = {}  # the least degree-2 Y of an X-pair
    for j in ys_small:
        a, c = bit_list(g.adj_y[j])
        xadj[a] |= 1 << c
        xadj[c] |= 1 << a
        pair_y.setdefault((a, c), j)

    if n <= _EXACT_PATH_COVER_MAX_X:
        paths_x = _min_path_cover_exact(n, xadj)
    else:
        paths_x = _min_path_cover_greedy(n, xadj)
        diag["paths_best_effort"] = True

    # each path as an X..X walk x, y, x, ..., x, in ring order; the paths
    # are vertex-disjoint, so no X-pair joins two steps
    walks: list[list[int]] = []
    for p in paths_x:
        walk = p[:1]
        for u, w in zip(p, p[1:]):
            walk += (pair_y[(min(u, w), max(u, w))], w)
        walks.append(walk)
    m = len(walks)

    if m == 1:
        walk = walks[0]
        closers = g.adj_x[walk[0]] & g.adj_x[walk[-1]] & ~mask_of(walk[1::2])
        if closers == 0:
            diag["stage"] = "close-single-path"
            logger.warning(
                "single covering path has no off-path common neighbour to "
                "close on; contradicts the covering theorem for dHp inputs"
            )
            return None
        return _ring_cycle(g, walk + [(closers & -closers).bit_length() - 1])

    # rows[t]: the high-degree Y-vertices that can join junction t, the end
    # of walk t to the start of walk t + 1; counts[t] is its size
    adj = g.adj_x
    rows = [adj[walks[t][-1]] & adj[walks[(t + 1) % m][0]] & yl_mask for t in range(m)]
    counts = [r.bit_count() for r in rows]
    while True:
        for i, j in itertools.combinations_with_replacement(range(m), 2):
            if i == 0 and j == m - 1:
                continue  # reversing everything changes no junction
            b.spend()
            # reversing walks i..j replaces junctions i - 1 and j
            prev, nxt = adj[walks[i - 1][-1]], adj[walks[(j + 1) % m][0]]
            new_in = prev & adj[walks[j][-1]] & yl_mask
            new_out = adj[walks[i][0]] & nxt & yl_mask
            k_in, k_out = new_in.bit_count(), new_out.bit_count()
            if k_in + k_out > counts[i - 1] + counts[j]:
                walks[i : j + 1] = [w[::-1] for w in reversed(walks[i : j + 1])]
                rows[i:j] = rows[i:j][::-1]
                counts[i:j] = counts[i:j][::-1]
                rows[i - 1], rows[j] = new_in, new_out
                counts[i - 1], counts[j] = k_in, k_out
                break  # restart the scan from the first pair
        else:
            break

    assignment = max_matching(rows)
    if len(assignment) < m:
        violator = hall_violator(rows)
        diag["stage"] = "hall-matching"
        diag["violating_junctions"] = [
            (walks[t][-1], walks[(t + 1) % m][0]) for t in (violator or ())
        ]
        logger.warning(
            "junction matching is not saturating after reversal search; "
            "violating junction set %s (research-interest instance)",
            violator,
        )
        return None
    return _ring_cycle(g, [v for t in range(m) for v in (*walks[t], assignment[t])])
