"""Brute-force reference implementations used to cross-check the library.

Everything in this module favours obviousness over speed: plain sets,
exhaustive enumeration, no bitmask tricks.  The only thing shared with the
code under test is the public ``Bigraph`` read API, except in
``sweep_seed_reference``, which redoes a sweep kernel's records through the
public per-sample functions.
"""

from __future__ import annotations

import itertools
import math

from dhp import Bigraph


def neighbors(g: Bigraph, x: int) -> set[int]:
    return {j for j in range(g.ny) if g.has_edge(x, j)}


def neighbors_y(g: Bigraph, j: int) -> set[int]:
    return {i for i in range(g.nx) if g.has_edge(i, j)}


def lambda1(g: Bigraph, s) -> set[int]:
    """Y-vertices adjacent to at least one member of ``s``."""
    out: set[int] = set()
    for x in s:
        out |= neighbors(g, x)
    return out


def lambda2(g: Bigraph, s) -> set[int]:
    """Y-vertices adjacent to at least two members of ``s``."""
    hits: dict[int, int] = {}
    for x in s:
        for j in neighbors(g, x):
            hits[j] = hits.get(j, 0) + 1
    return {j for j, c in hits.items() if c >= 2}


def subsets_of_size_at_least(items, k: int):
    items = sorted(items)
    for size in range(k, len(items) + 1):
        yield from itertools.combinations(items, size)


def first_deficient_subset(g: Bigraph, min_size: int = 2):
    """Smallest, then lexicographically first, S with |lambda2(S)| < |S|."""
    for k in range(min_size, g.nx + 1):
        for s in itertools.combinations(range(g.nx), k):
            if len(lambda2(g, s)) < k:
                return s
    return None


def dhp_bruteforce(g: Bigraph) -> bool:
    return first_deficient_subset(g, 2) is None


def prefix_scan_reference(
    g: Bigraph, k_max: int, lookahead: bool = False, leaf_test=None, k_min: int = 2
):
    """The per-k depth-first prefix scan of the checkers, kept as the
    reference for verdict, witness and unit count.

    Without ``lookahead`` it is the scan of ``check_dhp`` and
    ``find_minimal_obstacle`` as it stood before the suffix-degree
    lookahead; with it, the scan as it stood before the level scan replaced
    it, with every layer of the suffix-degree table kept.  With
    ``leaf_test`` it is the scan of ``check_snp`` and ``check_supercyclic``
    before they moved to the level scan: nothing is pruned, and a leaf S
    fails when |twice-seen(S)| < |S| or, that count passing, when
    ``leaf_test(S, twice-seen mask)`` is false.
    Unlike the rest of this module it uses the bitmask rows, so that its
    unit count (one per prefix visited) means what the library's does.
    Returns (first failing S or None, its twice-seen set, units spent).
    """
    n = g.nx
    adj = g.adj_x
    units = 0
    later = _suffix_degree_sets(g) if lookahead else None

    def descend(k: int, chosen: tuple[int, ...], start: int, u1: int, u2: int, ahead: bool):
        nonlocal units
        need = k - len(chosen) - 1
        for i in range(start, n - (k - len(chosen)) + 1):
            units += 1
            row = adj[i]
            nu2 = u2 | (u1 & row)
            if len(chosen) + 1 == k:
                if nu2.bit_count() < k or (leaf_test and not leaf_test((*chosen, i), nu2)):
                    return (*chosen, i), nu2
                continue
            if nu2.bit_count() >= k and leaf_test is None:
                continue
            nu1 = u1 | row
            if ahead:
                masks, once = later[i + 1], n - i - need
                if (nu2 | (nu1 & masks[once]) | masks[once + 1]).bit_count() >= k:
                    continue
            hit = descend(k, (*chosen, i), i + 1, nu1, nu2, ahead)
            if hit is not None:
                return hit
        return None

    for k in range(k_min, k_max + 1):
        hit = descend(k, (), 0, 0, 0, lookahead and k > 2)
        if hit is not None:
            s, mask = hit
            return s, {j for j in range(g.ny) if mask >> j & 1}, units
    return None, set(), units


def _suffix_degree_sets(g: Bigraph) -> list[list[int]]:
    """later[s][t]: the Y-vertices with at least t neighbours among X-vertices
    s..n-1, for t <= n - s + 1 (a 0 at the end)."""
    n, adj = g.nx, g.adj_x
    later = [[(1 << g.ny) - 1, 0]]
    for s in range(n - 1, -1, -1):
        prev = later[0]
        later.insert(0, [prev[0]] + [
            prev[t] | (prev[t - 1] & adj[s]) for t in range(1, n - s + 1)
        ] + [0])
    return later


def _forced(later: list[list[int]], n: int, d: int, i: int, u1: int, u2: int, k: int) -> int:
    """The Y-vertices that every k-completion of a prefix sees twice: the
    prefix has depth d, last X-vertex i, and sees u1 once and u2 twice."""
    masks, once = later[i + 1], n - i - (k - d)
    return u2 | (u1 & masks[once]) | masks[once + 1]


def forced_sets(g: Bigraph, prefix: tuple[int, ...]) -> dict[int, int]:
    """``_forced`` of a non-empty prefix at every size k it can reach,
    len(prefix) < k <= len(prefix) + n - 1 - last."""
    n, adj = g.nx, g.adj_x
    later = _suffix_degree_sets(g)
    u1 = u2 = 0
    for x in prefix:
        u1, u2 = u1 | adj[x], u2 | (u1 & adj[x])
    d, i = len(prefix), prefix[-1]
    return {k: _forced(later, n, d, i, u1, u2, k) for k in range(d + 1, d + n - i)}


def window_scan_reference(g: Bigraph, k_lo: int, k_hi: int, lookahead: bool = True):
    """The window scan of ``check_dhp`` and ``find_minimal_obstacle``, one
    prefix at a time: the first S with k_lo <= |S| <= k_hi and
    |twice-seen(S)| < |S| in (size, lex) order, and the units spent.

    A prefix P at depth d with last X-vertex i is live at size k, for
    d < k <= d + n - 1 - i, when fewer than k Y-vertices are forced: seen
    twice by P, or, with ``lookahead``, seen once by P with more than
    ``slack`` neighbours after i, or with more than ``slack + 1``, where
    ``slack = (n - 1 - i) - (k - d)``.  A live prefix's children are the
    X-vertices after i up to n - k + d for its smallest live size k; the
    root's is k_lo.  Each prefix's sizes are searched from k_lo, not from
    its parent's smallest live size as in the library.  Each child made
    costs a unit.  A hit ends a one-size window; in a wider one it narrows
    the window to the sizes below it, and the scan goes on.  Like
    ``prefix_scan_reference`` it uses the bitmask rows.  Where no S
    exists the library spends these units whatever its chunk size; where
    S exists it spends what this scan spends on the window k_lo..|S|.
    Returns (S or None, its twice-seen set, units spent).
    """
    n, adj = g.nx, g.adj_x
    later = _suffix_degree_sets(g)
    units, best, hi = 0, None, k_hi

    def smallest_live(d: int, i: int, u1: int, u2: int):
        for k in range(max(k_lo, d + 1), min(hi, d + n - 1 - i) + 1):
            forced = _forced(later, n, d, i, u1, u2, k) if lookahead else u2
            if forced.bit_count() < k:
                return k
        return None

    def descend(chosen: tuple[int, ...], u1: int, u2: int, lo: int) -> bool:
        """Scan below a prefix live from size lo; True when the scan ends."""
        nonlocal units, best, hi
        d = len(chosen)
        for j in range(chosen[-1] + 1 if chosen else 0, n - lo + d + 1):
            if lo > hi:
                return False
            units += 1
            nu1, nu2 = u1 | adj[j], u2 | (u1 & adj[j])
            if d + 1 >= k_lo and nu2.bit_count() < d + 1:
                best, hi = ((*chosen, j), nu2), d
                if hi < k_lo or k_lo == k_hi:
                    return True
                continue
            k = smallest_live(d + 1, j, nu1, nu2)
            if k is not None and descend((*chosen, j), nu1, nu2, k):
                return True
        return False

    descend((), 0, 0, k_lo)
    if best is None:
        return None, set(), units
    s, mask = best
    return s, {j for j in range(g.ny) if mask >> j & 1}, units


def exact_cycle_search_reference(g: Bigraph, targets: list[int], budget):
    """``cycles._search_exact_cycle`` as it stood before its undo-log
    rewrite, kept as the reference for the cycle it returns (X-order and
    Y-vertices) and for its node count, one ``budget.spend()`` per node.

    Like ``prefix_scan_reference`` it is the library's algorithm, not a
    brute force: it shares the matching step ``cycles._augment`` and the
    output check ``cycles._checked`` with the code under test.  It undoes
    a failed step by restoring a snapshot and discards the step's undo
    log, and it starts every step from an empty ``seen`` mask, so the
    search's own use of that log and of its dead Y-set is checked against
    it.
    """
    from dhp.core import CycleWitness, is_two_connected
    from dhp.cycles import _augment, _checked

    m = len(targets)
    adj = g.adj_x
    if any(adj[x].bit_count() < 2 for x in targets):
        return None
    if g.ny == m:
        # such a cycle would pass through every Y-vertex
        if any(row.bit_count() < 2 for row in g.adj_y):
            return None
        if m == g.nx and not is_two_connected(g):
            return None

    order = [targets[0]]
    rest = targets[1:]
    used = [False] * len(rest)
    y_slot = [-1] * g.ny
    avail: list[int] = [0] * m

    def restore(snapshot: list[int]) -> None:
        y_slot[:] = snapshot

    result: list[CycleWitness] = []

    def extend(depth: int) -> bool:
        budget.spend()
        if depth == m:
            mask = adj[order[-1]] & adj[order[0]]
            if mask == 0:
                return False
            snapshot = y_slot[:]
            avail[m - 1] = mask
            if _augment(avail, y_slot, m - 1, 0, []) < 0:
                slot_y = [0] * m
                for y, s in enumerate(y_slot):
                    if s >= 0:
                        slot_y[s] = y
                result.append(CycleWitness(tuple(order), tuple(slot_y)))
                return True
            restore(snapshot)
            return False
        for idx in range(len(rest)):
            if used[idx]:
                continue
            cand = rest[idx]
            if depth == m - 1 and m >= 3 and cand < order[1]:
                continue  # mirror image of an ordering already tried
            mask = adj[order[-1]] & adj[cand]
            if mask == 0:
                continue
            snapshot = y_slot[:]
            avail[depth - 1] = mask
            if _augment(avail, y_slot, depth - 1, 0, []) < 0:
                used[idx] = True
                order.append(cand)
                if extend(depth + 1):
                    return True
                order.pop()
                used[idx] = False
            restore(snapshot)
        return False

    if extend(1):
        return _checked(result[0].canonical(), g)
    return None


def two_connected_bruteforce(g: Bigraph, xs: set[int], ys: set[int]) -> bool:
    """2-connectivity of the induced subgraph, by deleting each vertex."""
    verts = [("X", i) for i in sorted(xs)] + [("Y", j) for j in sorted(ys)]
    if len(verts) < 3:
        return False

    def connected_without(removed) -> bool:
        remaining = [v for v in verts if v != removed]
        seen = {remaining[0]}
        frontier = [remaining[0]]
        while frontier:
            side, idx = frontier.pop()
            for other in remaining:
                if other in seen:
                    continue
                oside, oidx = other
                if side == oside:
                    continue
                i, j = (idx, oidx) if side == "X" else (oidx, idx)
                if g.has_edge(i, j):
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(remaining)

    return connected_without(None) and all(connected_without(v) for v in verts)


def first_snp_violator(g: Bigraph):
    """First S with |S| >= 3, in (size, lex) order, that has fewer than |S|
    twice-seen Y-vertices or whose touched subgraph is not 2-connected."""
    for s in subsets_of_size_at_least(range(g.nx), 3):
        t = lambda2(g, s)
        if len(t) < len(s) or not two_connected_bruteforce(g, set(s), t):
            return s
    return None


def snp_bruteforce(g: Bigraph) -> bool:
    return first_snp_violator(g) is None


def _distinct_choice(sets: list[set[int]]) -> bool:
    """Can each set contribute a distinct element?  Plain backtracking."""

    def rec(i: int, used: frozenset[int]) -> bool:
        if i == len(sets):
            return True
        for v in sorted(sets[i] - used):
            if rec(i + 1, used | {v}):
                return True
        return False

    return rec(0, frozenset())


def covering_cycle_exists(g: Bigraph, xs) -> bool:
    """Is there a cycle whose X-vertices are exactly ``xs``?

    Tries every cyclic order of the targets and asks for distinct
    connecting Y-vertices.  Exponential, fine for the sizes tested.
    """
    xs = sorted(xs)
    m = len(xs)
    if m < 2:
        return False
    for perm in itertools.permutations(xs[1:]):
        order = [xs[0]] + list(perm)
        gaps = [
            neighbors(g, order[t]) & neighbors(g, order[(t + 1) % m])
            for t in range(m)
        ]
        if any(not gap for gap in gaps):
            continue
        if _distinct_choice(gaps):
            return True
    return False


def hamiltonian_bruteforce(g: Bigraph) -> bool:
    if g.nx != g.ny or g.nx < 2:
        return False
    return covering_cycle_exists(g, range(g.nx))


def first_cycleless_set(g: Bigraph, has_cycle=covering_cycle_exists):
    """First X-set of size >= 3, in (size, lex) order, with no cycle whose
    X-vertices are exactly it.  ``has_cycle(g, xs)`` decides existence."""
    for s in subsets_of_size_at_least(range(g.nx), 3):
        if not has_cycle(g, s):
            return s
    return None


def supercyclic_bruteforce(g: Bigraph) -> bool:
    return first_cycleless_set(g) is None


def critical_reference(g: Bigraph, has_cycle=covering_cycle_exists):
    """The witness ``check_critical`` must report, or None when ``g`` is
    critical, straight from the definition with clauses in order.

    Clause 3 asks whether the restriction of ``g`` to each X-set C with
    3 <= |C| < |X| (all of Y kept) is supercyclic, in (size, lex) order of
    C.  A cycle whose X-vertices are exactly S within C lies inside that
    restriction, so C fails when it contains a cycle-less set of ``g``.
    """
    s = first_snp_violator(g)
    if s is not None:
        return {"clause": 1, "detail": "not snp", "S": list(s)}
    cycleless = [
        set(s) for s in subsets_of_size_at_least(range(g.nx), 3) if not has_cycle(g, s)
    ]
    if not cycleless:
        return {"clause": 1, "detail": "graph is supercyclic"}
    unseen = sorted(set(range(g.ny)) - lambda2(g, range(g.nx)))
    if unseen:
        return {"clause": 2, "detail": "Y not fully seen twice", "T": unseen}
    for k in range(3, g.nx):
        for c in itertools.combinations(range(g.nx), k):
            if any(s <= set(c) for s in cycleless):
                return {"clause": 3, "detail": "proper restriction not supercyclic", "S": list(c)}
    return None


def saturated_critical_reference(g: Bigraph, has_cycle=covering_cycle_exists):
    """The witness ``check_saturated_critical`` must report, or None: the
    graph is critical and adding any one missing edge, in (x, y) order,
    leaves no cycle-less X-set."""
    inner = critical_reference(g, has_cycle)
    if inner is not None:
        return {"clause": "critical", "inner": inner}
    for x in range(g.nx):
        for y in sorted(set(range(g.ny)) - neighbors(g, x)):
            h = Bigraph.from_edges(g.nx, g.ny, [*g.edges(), (x, y)])
            s = first_cycleless_set(h, has_cycle)
            if s is not None:
                return {"clause": "augmentation", "x": x, "y": y, "S": list(s)}
    return None


def disjoint_cover_exists(g: Bigraph) -> bool:
    """Can X be partitioned into cycles with pairwise disjoint Y-sets?

    Such a cover is exactly a spanning subgraph in which every X-vertex
    keeps two incident edges and every Y-vertex keeps zero or two: with
    all degrees in {0, 2} the components are disjoint cycles, and every
    X-vertex lies on one.  Enumerate the neighbour pair kept at each
    X-vertex and check the Y-usage counts.
    """
    if g.nx == 0:
        return True
    per_x = []
    for i in range(g.nx):
        pairs = list(itertools.combinations(sorted(neighbors(g, i)), 2))
        if not pairs:
            return False
        per_x.append(pairs)
    for combo in itertools.product(*per_x):
        usage: dict[int, int] = {}
        for pair in combo:
            for y in pair:
                usage[y] = usage.get(y, 0) + 1
        if all(c == 2 for c in usage.values()):
            return True
    return False


def yy_path_system_exists(g: Bigraph, xs) -> bool:
    """Can each x in ``xs`` take a pair of its Y-neighbours, no Y-vertex
    taken more than twice, so that the pairs, read as edges on Y, form
    disjoint paths?

    Backtracks over the pairs of each x in turn.  With every Y-degree at
    most 2, the pairs form paths exactly when they close no cycle, which a
    union-find over Y rejects pair by pair.
    """
    xs = list(xs)

    def root(parent: list[int], y: int) -> int:
        while parent[y] != y:
            y = parent[y]
        return y

    def rec(i: int, parent: list[int], used: list[int]) -> bool:
        if i == len(xs):
            return True
        for y1, y2 in itertools.combinations(sorted(neighbors(g, xs[i])), 2):
            r1, r2 = root(parent, y1), root(parent, y2)
            if used[y1] == 2 or used[y2] == 2 or r1 == r2:
                continue
            joined, taken = list(parent), list(used)
            joined[r1] = r2
            taken[y1] += 1
            taken[y2] += 1
            if rec(i + 1, joined, taken):
                return True
        return False

    return rec(0, list(range(g.ny)), [0] * g.ny)


def obstacle3_bruteforce(g: Bigraph):
    """First (lex) size-3 S whose lambda2 fits in a 2-element T, minimal."""
    for s in itertools.combinations(range(g.nx), 3):
        t = lambda2(g, s)
        if len(t) > 2:
            continue
        if is_minimal_obstacle_bruteforce(g, set(s), t):
            return s, t
    return None


def obstacle3_thin_scan_reference(g: Bigraph):
    """The thin-pair scan over the adjacency bitmasks: extend each X-pair
    a < b with exactly two common neighbours {t1, t2} by the first c > b
    adjacent to both whose pairs with a and with b share exactly {t1, t2}.
    Returns (S, T) as index tuples, or None.  It enumerates pairs, not
    triples, so it reaches samples of n = 300."""
    for a in range(g.nx):
        for b in range(a + 1, g.nx):
            tmask = g.adj_x[a] & g.adj_x[b]
            if tmask.bit_count() != 2:
                continue
            t1, t2 = (j for j in range(g.ny) if tmask >> j & 1)
            both = g.adj_y[t1] & g.adj_y[t2]
            for c in range(b + 1, g.nx):
                if (
                    both >> c & 1
                    and g.adj_x[a] & g.adj_x[c] == tmask
                    and g.adj_x[b] & g.adj_x[c] == tmask
                ):
                    return (a, b, c), (t1, t2)
    return None


def sweep_seed_reference(task) -> list:
    """The records of a sweep task (seed, n, ((c, p), ...), measures), one
    offset at a time in task order, each from the full sample through the
    public per-sample functions; nothing is carried from one offset to the
    next."""
    from dhp import (
        check_dhp,
        check_hamiltonian,
        count_bad_pairs,
        sample_gnnp,
        scan_obstacles_size3,
    )
    from dhp.randlab import TrialRecord

    seed, n, cps, measures = task
    records = []
    for c, p in cps:
        g = sample_gnnp(n, p, seed)
        n0, n1 = count_bad_pairs(g)
        pair_ok = n0 == 0 and n1 == 0
        maxdeg = g.max_degree()
        obstacle = scan_obstacles_size3(g) if "obstacle3" in measures else None
        records.append(
            TrialRecord(
                seed=seed,
                n=n,
                c=c,
                p=p,
                n0=n0,
                n1=n1,
                pair_ok=pair_ok,
                max_degree=maxdeg,
                obstacle3=obstacle,
                surrogate=pair_ok and obstacle is None if "obstacle3" in measures else None,
                exact_dhp=check_dhp(g).holds if "exact" in measures else None,
                hamiltonian=(
                    check_hamiltonian(g) is not None if "hamiltonian" in measures else None
                ),
                maxdeg_ratio=(
                    maxdeg / math.sqrt(2 * n * math.log(n)) if "maxdeg" in measures else None
                ),
            )
        )
    return records


def design_spec_violation_reference(spec) -> str | None:
    """``DesignSpec.violation`` with its pair axioms as tuple loops over the
    blocks, as it stood before they moved to bitmask rows."""
    if spec.v < 1 or spec.k < 1 or spec.lam < 1:
        return "v, k, lambda must all be positive"
    if len(spec.blocks) != spec.v:
        return f"symmetric design needs {spec.v} blocks, got {len(spec.blocks)}"
    for bi, block in enumerate(spec.blocks):
        if len(set(block)) != len(block):
            return f"block {bi} repeats a point"
        if len(block) != spec.k:
            return f"block {bi} has size {len(block)}, expected k={spec.k}"
        for pt in block:
            if not (0 <= pt < spec.v):
                return f"block {bi} mentions point {pt} outside 0..{spec.v - 1}"
    for a, b in itertools.combinations(range(spec.v), 2):
        cnt = sum(1 for block in spec.blocks if a in block and b in block)
        if cnt != spec.lam:
            return f"points ({a}, {b}) lie in {cnt} common blocks, expected {spec.lam}"
    for bi, bj in itertools.combinations(range(len(spec.blocks)), 2):
        cnt = len(set(spec.blocks[bi]) & set(spec.blocks[bj]))
        if cnt != spec.lam:
            return f"blocks ({bi}, {bj}) meet in {cnt} points, expected {spec.lam}"
    return None


def design_violation_reference(g: Bigraph) -> str | None:
    """``design_violation`` on neighbour sets: the same axioms, in the same
    order, with the same text."""
    if g.nx != g.ny:
        return f"sides differ: |X| = {g.nx}, |Y| = {g.ny}"
    n = g.nx
    if n < 2:
        return f"too small: need at least 2 points, got {n}"
    nbx = [neighbors(g, i) for i in range(n)]
    nby = [neighbors_y(g, j) for j in range(n)]
    d = len(nbx[0])
    for i in range(n):
        if len(nbx[i]) != d:
            return f"not regular: deg(x{i}) = {len(nbx[i])} but deg(x0) = {d}"
    for j in range(n):
        if len(nby[j]) != d:
            return f"not regular: deg(y{j}) = {len(nby[j])} but deg(x0) = {d}"
    for side, nb in (("X", nbx), ("Y", nby)):
        for a, b in itertools.combinations(range(n), 2):
            c = len(nb[a] & nb[b])
            if c != 2:
                return f"{side}-pair ({a}, {b}) has {c} common neighbours, expected 2"
    if n != d * (d - 1) // 2 + 1:
        return f"point count {n} differs from C({d},2)+1 = {d * (d - 1) // 2 + 1}"
    return None


def is_obstacle_bruteforce(g: Bigraph, s: set[int], t: set[int]) -> bool:
    return len(s) >= 2 and len(s) > len(t) and lambda2(g, s) <= t


def is_minimal_obstacle_bruteforce(g: Bigraph, s: set[int], t: set[int]) -> bool:
    if not is_obstacle_bruteforce(g, s, t):
        return False
    for s_sub in powerset(s):
        for t_sub in powerset(t):
            if len(s_sub) + len(t_sub) < len(s) + len(t):
                if is_obstacle_bruteforce(g, set(s_sub), set(t_sub)):
                    return False
    return True


def powerset(items):
    items = sorted(items)
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def max_matching_bruteforce(sets: list[set[int]]) -> int:
    """Maximum number of sets that can take pairwise distinct elements."""
    best = 0
    n = len(sets)

    def rec(i: int, used: frozenset[int], size: int) -> None:
        nonlocal best
        best = max(best, size)
        if i == n or size + (n - i) <= best:
            return
        rec(i + 1, used, size)
        for v in sets[i] - used:
            rec(i + 1, used | {v}, size + 1)

    rec(0, frozenset(), 0)
    return best


def min_path_cover_bruteforce(n: int, edges: list[tuple[int, int]]) -> int:
    """Fewest vertex-disjoint paths covering all of 0..n-1.

    Walks every permutation and every way to cut it into blocks whose
    consecutive vertices are adjacent.  Only for n small enough that
    n! is nothing.
    """
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    best = n
    for perm in itertools.permutations(range(n)):
        pieces = 1
        for t in range(1, n):
            if perm[t] not in adj[perm[t - 1]]:
                pieces += 1
        best = min(best, pieces)
    return best


def poisson_tv_reference(samples, rate: float) -> float:
    """Total-variation distance between the samples' empirical distribution
    and Poisson(rate), summing the pmf over every k from 0 to the largest
    sample.  The pmf is the library's log-space formula, so the result can
    be compared for exact float equality."""
    n = len(samples)
    counts: dict[int, int] = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    total = 0.0
    cdf = 0.0
    for k in range(max(counts) + 1):
        if rate == 0.0:
            pk = 1.0 if k == 0 else 0.0
        else:
            pk = math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))
        cdf += pk
        total += abs(counts.get(k, 0) / n - pk)
    return 0.5 * (total + max(0.0, 1.0 - cdf))
