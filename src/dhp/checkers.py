"""Decision procedures for the double Hall property and its relatives.

All checkers share the same shape: enumerate X-subsets by increasing
cardinality and lexicographically within a cardinality, stop at the first
violation, and return a Verdict whose witness is that first violation.
That makes failure reports deterministic and as small as possible.

The scans are exact brute force by design; the only speedups used are ones
that provably cannot change the verdict or the witness: saturating bitmask
counters, and skipping subtrees that can no longer produce a violation,
either because the prefix already sees k Y-vertices twice or because the
suffix-degree lookahead shows that every completion will.

Every subset scan runs on one engine, the level scan ``_scan_sizes``:
each level of the prefix tree is a set of numpy arrays, expanded in
bounded lex-ordered chunks, and one pass covers a window of sizes, keeping
a prefix while some size of the window can still give a violation.
``check_dhp`` and ``find_minimal_obstacle`` scan for a deficient set: the
pairs in a window of their own, then every larger size in one window.
``check_snp`` and ``check_supercyclic`` pass a leaf test (2-connectivity,
a covering cycle), which must see every leaf, so their scans prune nothing
and take one size per window.

A scan is charged one unit per prefix a depth-first scan with the same
pruning makes, so the units do not depend on the chunk size.  Where the
property holds, that is every prefix made, and the scan runs out exactly
when the units pass the budget.  A failure at size k, in a window of one
size or more, is charged what the depth-first scan of the window narrowed
to the sizes up to k spends: every child of a prefix live at a size below
k, and of the others those up to the witness in depth-first order.  The
budget is checked once per chunk, before the chunk is made, against the
prefixes actually made, so a failing scan can run out under a cap that
covers its charge.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .budget import NODE_BUDGET_DEFAULT, SUBSET_BUDGET_DEFAULT, WorkBudget, as_budget
from .core import (
    Bigraph,
    VertexSet,
    X_SIDE,
    Y_SIDE,
    bit_list,
    bits,
    mask_of,
    neighborhood_at_least,
    two_connected_on,
)
from .errors import ContractViolationError, DomainError, GraphInputError

# numpy is imported where it is used, as in core: loaded here, ahead of the
# rest of the package, it raised the peak memory of `import dhp` by 1.5 MB.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Verdict",
    "Obstacle",
    "DegreeBoundReport",
    "check_dhp",
    "check_snp",
    "check_supercyclic",
    "check_critical",
    "check_saturated_critical",
    "check_snp_minimal",
    "find_minimal_obstacle",
    "is_obstacle",
    "obstacle_is_minimal",
    "check_degree_bound",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a property check, with a certificate on failure.

    ``witness`` is a small JSON-friendly mapping whose keys depend on the
    property; the X-subset at fault is always under "S".
    """

    prop: str
    holds: bool
    witness: Mapping[str, Any] | None = None

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "property": self.prop,
            "holds": self.holds,
            "witness": dict(self.witness) if self.witness is not None else None,
            "budget_exhausted": False,
        }


@dataclass(frozen=True)
class Obstacle:
    """A certificate (S, T) that the double Hall property fails:
    S is an X-set with |S| >= 2 whose twice-seen neighbourhood fits inside
    T with |T| < |S|, and no obstacle inside (S, T) has a smaller
    |S| + |T|.  Both producers report minimal obstacles only."""

    s: VertexSet
    t: VertexSet

    def validate(self, g: Bigraph) -> None:
        _check_obstacle_sets(g, self.s, self.t)
        if len(self.s) < 2:
            raise DomainError("obstacle needs |S| >= 2")
        if len(self.s) <= len(self.t):
            raise DomainError("obstacle needs |S| > |T|")
        lam2 = neighborhood_at_least(g, self.s, 2)
        if not lam2.issubset(self.t):
            raise DomainError("obstacle needs T to contain the twice-seen neighbourhood of S")
        if not obstacle_is_minimal(g, self.s, self.t):
            raise DomainError("obstacle is not minimal")

    def to_json_obj(self) -> dict[str, Any]:
        return {"S": list(self.s.indices), "T": list(self.t.indices)}


@dataclass(frozen=True)
class DegreeBoundReport:
    """How a graph sits relative to the bound n <= d(d-1)/2 + 1 that the
    double Hall property forces on |X| in terms of the maximum degree d."""

    n: int
    max_degree: int
    bound: int
    within_bound: bool
    tight: bool
    dhp_verified: bool

    def to_json_obj(self) -> dict[str, Any]:
        return asdict(self)


# -- subset scans ------------------------------------------------------------

# Cap on the suffix-degree table, in bits of memory.  The table takes at
# most half of it, which leaves the other half to the level scan's arrays.
# Past the cap only the lowest layers are kept; a missing layer reads as 0,
# so the lookahead prunes less but stays exact.
LOOKAHEAD_TABLE_BITS = 1 << 27

# Mask words the level scan expands at once: a chunk holds at most
# LEVEL_CHUNK_WORDS // words children, or one parent's children if that is
# more, so a chunk's arrays, with the lookahead's, stay under 2 MiB
# whatever the size of the level.
LEVEL_CHUNK_WORDS = 1 << 14


def _word_columns(masks: Sequence[int], words: int) -> list[np.ndarray]:
    """Bitmasks as ``words`` uint64 arrays: array w holds bits 64w..64w+63
    of each mask."""
    import numpy as np

    buf = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    table = np.frombuffer(buf, "<u8").reshape(len(masks), words)
    return [table[:, w].astype(np.uint64) for w in range(words)]


def _popcount(cols: list[np.ndarray]) -> np.ndarray:
    """Set bits per entry of a mask held as word columns."""
    import numpy as np

    if len(cols) == 1:
        return np.bitwise_count(cols[0])
    counts = np.bitwise_count(cols[0]).astype(np.int64)
    for col in cols[1:]:
        counts += np.bitwise_count(col)
    return counts


def _suffix_degree_table(adj: list[np.ndarray]) -> list[np.ndarray]:
    """Word columns of ``table[s, t]``, flattened to s * width + t: the mask
    of Y-vertices with at least t neighbours among X-vertices s..n-1, for
    1 <= t <= min(n - s, layers), and 0 for larger t below width.

    ``adj`` holds the X-rows as word columns.  Rows are filled right to
    left with bit-sliced saturating counters, layer 0 being all ones.
    ``width`` is layers + 3, so t + 1 can be read for every t <= layers + 1,
    and ``layers`` is the most that keeps the table within half of
    LOOKAHEAD_TABLE_BITS.
    """
    import numpy as np

    words, n = len(adj), len(adj[0])
    layers = max(0, min(n, LOOKAHEAD_TABLE_BITS // (128 * words * (n + 1)) - 3))
    table = np.zeros((words, n + 1, layers + 3), np.uint64)
    counts = np.zeros((words, layers + 1), np.uint64)
    counts[:, 0] = ~np.uint64(0)
    rows = np.stack(adj)
    for s in range(n - 1, -1, -1):
        top = min(n - s, layers)
        counts[:, 1 : top + 1] |= counts[:, :top] & rows[:, s, None]
        table[:, s, 1 : top + 1] = counts[:, 1 : top + 1]
    return [col.ravel() for col in table]


class _Level:
    """The surviving prefixes of one chunk at one depth, in lex order.

    ``last``: each prefix's last X-vertex; ``par``: its parent's index in
    the level above; ``once``/``twice``: word columns of the Y-vertices it
    sees at least once and at least twice; ``lo``: the smallest size it is
    live at; ``fan``: each prefix's number of children, the X-vertices
    after its last up to n - lo + depth, which leaves room for lo;
    ``ends``: their running total; ``before``: ``fans`` as the level
    found it; ``next``: the first prefix not yet expanded.  ``fans[k]``
    counts the children of the prefixes with ``lo`` = k over the levels
    made at this depth, and the level adds its own.
    """

    __slots__ = ("last", "par", "once", "twice", "lo", "fan", "ends", "before", "next")

    def __init__(self, last, par, once, twice, lo, depth, n, fans):
        import numpy as np

        self.last, self.par, self.once, self.twice, self.lo = last, par, once, twice, lo
        self.fan = n - lo + depth - last
        self.ends = self.fan.cumsum()
        self.before = fans.copy()
        fans += np.bincount(lo, self.fan, len(fans)).astype(np.int64)
        self.next = 0

    def narrow(self, k_hi: int) -> None:
        """No children for the prefixes live only above size ``k_hi``."""
        self.fan[self.lo > k_hi] = 0
        self.ends = self.fan.cumsum()


def _leaves(
    stack: list[_Level], last: np.ndarray, par: np.ndarray,
    twice: list[np.ndarray], pick: np.ndarray,
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The leaves ``pick`` of the chunk below ``stack``: their X-subsets and
    twice-seen masks."""
    import numpy as np

    cols, p = [last[pick]], par[pick]
    for level in reversed(stack[1:]):
        cols.append(level.last[p])
        p = level.par[p]
    sets = list(map(tuple, np.stack(cols[::-1], axis=1).tolist()))
    masks = [0] * len(pick)
    for w, col in enumerate(twice):
        masks = [m | v << (64 * w) for m, v in zip(masks, col[pick].tolist())]
    return sets, masks


def _rank(stack: list[_Level], k: int, last: int, p: int) -> int:
    """The children of prefixes with smallest live size k, up to a hit of
    size k in depth-first order.  The hit is the child with last X-vertex
    ``last`` of prefix ``p`` of the deepest level of ``stack``.  At each
    depth they are the children made by the earlier levels, by the
    level's prefixes before the hit's ancestor, and by that ancestor up to
    the hit's ancestor one depth down."""
    rank = 0
    for level in reversed(stack):
        rank += int(level.before[k]) + int(level.fan[:p][level.lo[:p] == k].sum())
        if level.lo[p] == k:
            rank += last - int(level.last[p])
        last, p = int(level.last[p]), int(level.par[p])
    return rank


def _smallest_live(
    table: list[np.ndarray], n: int, depth: int, last: np.ndarray,
    once: list[np.ndarray], twice: list[np.ndarray], lo: np.ndarray, hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The prefixes at ``depth`` that are live at some size k in lo..hi,
    each with its own bounds, as their indices and the smallest such k.

    A prefix is live at k when its forced set, the Y-vertices every
    k-completion sees twice, has fewer than k members.  That set only grows
    with k, so a prefix whose forced count f at k reaches k is dead at every
    size up to f and is tested again at f + 1.  The first pass decides most
    prefixes, and each pass raises the k of every prefix it leaves open.
    """
    import numpy as np

    width = len(table[0]) // (n + 1)
    found = np.zeros(len(last), np.intp)
    idx = np.arange(len(last))
    while idx.size:
        t = (last + 1) * width + np.minimum(n - last - (lo - depth), width - 2)
        forced = _popcount(
            [tw | (o & col[t]) | col[t + 1] for tw, o, col in zip(twice, once, table)]
        ).astype(np.intp)
        live = forced < lo
        found[idx[live]] = lo[live]
        more = ~live & (forced < hi)
        idx, last, lo, hi = idx[more], last[more], forced[more] + 1, hi[more]
        once = [col[more] for col in once]
        twice = [col[more] for col in twice]
    keep = found.nonzero()[0]
    return keep, found[keep]


def _scan_sizes(
    adj: list[np.ndarray],
    k_lo: int,
    k_hi: int,
    table: list[np.ndarray] | None,
    budget: WorkBudget,
    leaf_test: Callable[[tuple[int, ...], int], bool] | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """First X-subset S with k_lo <= |S| <= k_hi, in (size, lex) order, with
    |twice-seen(S)| < |S|, as (S, twice-seen mask), or None.  With a leaf
    test the window is one size, k_lo = k_hi = k, and S is also a k-subset
    with ``leaf_test(S, twice-seen mask)`` false.

    The prefix tree is expanded a level at a time as arrays: a parent's
    children come out contiguous and in order, so every level stays in lex
    order.  A prefix P at depth d with last X-vertex i is live at size k
    (d < k, and k - d <= n - 1 - i X-vertices left after i) when no
    k-completion is sure to see k Y-vertices twice: its forced set, the
    twice-seen set of P together with, from ``table`` (a
    ``_suffix_degree_table``), the Y-vertices seen once by P with more than
    ``slack`` neighbours after i and those with more than ``slack + 1``,
    where ``slack = (n - 1 - i) - (k - d)`` is how many of those X-vertices
    a completion skips, has fewer than k members.  Without a table the
    forced set is the twice-seen set alone.  Only a live prefix has
    children, and its children are the X-vertices after i that leave room
    for its smallest live size, so one scan covers every size of the
    window.  A child's forced set at k contains its parent's, so it is live
    at no size its parent is dead at, and its search starts at its parent's
    smallest live size.  With a leaf test every leaf must be tested, so no
    prefix is dropped and ``table`` must be None; in each chunk of leaves
    the test runs, in lex order, on those before the first that fails on
    count.

    Levels are expanded in lex-ordered chunks, depth first, so memory stays
    bounded by the chunk size, and the first hit found at each depth is the
    first of its size in lex order.  A hit of a one-size window ends the
    scan.  A hit of a wider window is kept, and the window is narrowed to
    the sizes below it: the scan goes on, since a deeper hit can come
    first, until the window is empty or the tree is done.

    Each chunk's children are checked against the budget before they are
    made.  The scan is charged when it ends, one unit per prefix that a
    depth-first scan with the same pruning makes, whatever the chunk
    size.  Where S does not exist, that is every prefix made.  If S
    exists, it is what the depth-first scan of the window k_lo..|S| makes:
    no smaller set is deficient, so its first hit is S, after which the
    window narrows to the sizes below |S|.  So the charge is every child
    of a prefix whose smallest live size is below |S|, which the scan
    makes whatever its hits, and of the children of prefixes whose
    smallest live size is |S|, those up to S in depth-first order
    (``_rank``); for a one-size window that is the depth-first rank of S.
    This is never more than one scan per size would be charged.  The
    prefixes made can be more, so a failing scan can run out under a cap
    that covers its charge.  A leaf test may spend from the same budget: it
    runs while its chunk is reserved but not yet charged, so its units add
    to the same total as in the depth-first scan, and a run past the budget
    still raises.
    """
    import numpy as np

    n = len(adj[0])
    chunk = max(1, LEVEL_CHUNK_WORDS // len(adj))
    spent, best, rank = 0, None, 0
    fans = [np.zeros(k_hi + 2, np.int64)]  # at each depth, the levels' fans by lo
    root = [np.zeros(1, np.uint64)] * len(adj)
    zero = np.zeros(1, np.intp)
    stack = [_Level(zero - 1, zero, root, root, zero + k_lo, 0, n, fans[0])]
    while stack:
        up = stack[-1]
        done = int(up.ends[up.next - 1]) if up.next else 0
        first = int(up.ends.searchsorted(done, "right"))  # skips the narrowed
        if first == len(up.last):
            stack.pop()
            continue
        depth = len(stack)  # of the children
        stop = max(first + 1, int(up.ends.searchsorted(done + chunk, "right")))
        total = int(up.ends[stop - 1]) - done
        if spent + total > budget.remaining:
            budget.spend(spent + total)  # raises
        spent += total
        up.next = stop

        # the children of parents first..stop-1, in lex order
        fan = up.fan[first:stop]
        par = np.arange(first, stop).repeat(fan)
        last = (up.last[first:stop] + 1 + fan - up.ends[first:stop]).repeat(fan)
        last += np.arange(done, done + total)
        seen = [o[par] for o in up.once]
        rows = [col[last] for col in adj]
        twice = [t[par] | (o & r) for t, o, r in zip(up.twice, seen, rows)]
        counts = _popcount(twice)

        if depth >= k_lo:  # the children are sets of the window
            short = (counts < depth).nonzero()[0]
            j = int(short[0]) if short.size else total
            if leaf_test is not None and j:
                sets, masks = _leaves(stack, last, par, twice, np.arange(j))
                j = next((i for i in range(j) if not leaf_test(sets[i], masks[i])), j)
            if j < total:
                (s,), (mask,) = _leaves(stack, last, par, twice, np.array([j]))
                best, k_hi = (s, mask), depth - 1
                rank = _rank(stack, depth, int(last[j]), int(par[j]))
                if k_hi < k_lo:
                    break
                del stack[k_hi:]
                for level in stack:
                    level.narrow(k_hi)
                continue
        if depth == k_hi:
            continue

        lo = up.lo[par]
        if leaf_test is None:
            hi = np.minimum(k_hi, depth + n - 1 - last)
            lo = np.maximum(np.maximum(lo, depth + 1), counts + 1)
            live = (lo <= hi).nonzero()[0]
            lo, hi = lo[live], hi[live]
        else:
            live = np.arange(total)
        up_par = par[live]
        last = last[live]
        once = [(o | r)[live] for o, r in zip(seen, rows)]
        twice = [col[live] for col in twice]
        if table is not None and live.size:
            keep, lo = _smallest_live(table, n, depth, last, once, twice, lo, hi)
            live, up_par, last = live[keep], up_par[keep], last[keep]
            once = [col[keep] for col in once]
            twice = [col[keep] for col in twice]
        if live.size:
            if depth == len(fans):
                fans.append(np.zeros(k_hi + 2, np.int64))
            stack.append(_Level(last, up_par, once, twice, lo, depth, n, fans[depth]))
    if best is not None:  # charged the children of prefixes live below |S|, and its rank
        spent = sum(int(row[: len(best[0])].sum()) for row in fans) + rank
    budget.spend(spent)
    return best


def _first_deficient(
    g: Bigraph,
    k_min: int,
    k_max: int,
    budget: WorkBudget,
    leaf_test: Callable[[tuple[int, ...], int], bool] | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """First X-subset S with k_min <= |S| <= k_max and |twice-seen(S)| < |S|
    or, with a leaf test, ``leaf_test(S, twice-seen mask)`` false, in
    (size, lex) order, as (S, twice-seen mask).

    Size k_min is scanned first on its own, without the suffix-degree
    table, so graphs that fail on it never pay for the table.  Without a
    leaf test one window then covers every larger size; with one, each
    size has a window of its own.
    """
    words = max(1, -(-g.ny // 64))
    adj = _word_columns(g.adj_x, words)
    hit = _scan_sizes(adj, k_min, k_min, None, budget, leaf_test)
    if hit is not None or k_min == k_max:
        return hit
    if leaf_test is None:
        return _scan_sizes(adj, k_min + 1, k_max, _suffix_degree_table(adj), budget)
    for k in range(k_min + 1, k_max + 1):
        hit = _scan_sizes(adj, k, k, None, budget, leaf_test)
        if hit is not None:
            break
    return hit


def check_dhp(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Decide the double Hall property: every S within X with |S| >= 2 sees
    at least |S| Y-vertices at least twice.

    On failure the witness "S" is the smallest violating set, ties broken
    by lexicographically least index tuple.
    """
    if g.nx < 2:
        raise DomainError(f"double Hall property needs |X| >= 2, got {g.nx}")
    hit = _first_deficient(g, 2, g.nx, as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset"))
    if hit is not None:
        return Verdict("dhp", False, {"S": list(hit[0])})
    return Verdict("dhp", True)


def check_snp(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Decide the super neighbourhood property: every S with |S| >= 3 has
    |twice-seen(S)| >= |S| and the subgraph induced by S together with its
    twice-seen neighbourhood is 2-connected.

    The witness carries a "reason" flag: cardinality or connectivity.

    A leaf S whose X-pairs all share at least two Y-vertices passes without
    the 2-connectivity scan.  Those common neighbours lie in twice-seen(S),
    so the induced subgraph is connected; without one X-vertex every other
    pair still shares two Y-vertices and every Y-vertex keeps one of its
    two or more neighbours in S; without one Y-vertex every pair still
    shares one.  The leaf test is only answered sooner: every scan, unit
    and witness is the same.
    """
    if g.nx < 3:
        raise DomainError(f"super neighbourhood property needs |X| >= 3, got {g.nx}")
    b = as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset")
    # rich[x]: the X-vertices sharing at least two Y-vertices with x
    rows = g.adj_x
    rich = [sum(1 << j for j, r in enumerate(rows) if (a & r).bit_count() > 1) for a in rows]

    def two_connected(chosen: tuple[int, ...], u2: int) -> bool:
        s = mask_of(chosen)
        return all(rich[x] & s == s for x in chosen) or two_connected_on(g, s, u2)

    hit = _first_deficient(g, 3, g.nx, b, two_connected)
    if hit is None:
        return Verdict("snp", True)
    s, u2 = hit
    reason = "cardinality" if u2.bit_count() < len(s) else "connectivity"
    return Verdict("snp", False, {"S": list(s), "reason": reason})


def check_supercyclic(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Decide supercyclicity: for every X' within X with |X'| >= 3 there is a
    cycle whose X-vertices are exactly X'.

    Runs the prefix scan with the cycle engine as its leaf test.  The
    scan's cardinality test is sound here: a cycle through exactly X' uses
    |X'| distinct Y-vertices, each seen twice from X'.  The witness "S" is
    the first X-set without a cycle in (size, lex) order.  Prefixes and
    search nodes share one node budget.
    """
    from .cycles import find_cycle_covering  # deferred to avoid an import cycle

    if g.nx < 3:
        raise DomainError(f"supercyclicity needs |X| >= 3, got {g.nx}")
    b = as_budget(budget, NODE_BUDGET_DEFAULT, "node")

    def has_cycle(chosen: tuple[int, ...], u2: int) -> bool:
        return find_cycle_covering(g, VertexSet.xs(chosen), exact_x=True, budget=b) is not None

    hit = _first_deficient(g, 3, g.nx, b, has_cycle)
    if hit is None:
        return Verdict("supercyclic", True)
    return Verdict("supercyclic", False, {"S": list(hit[0])})


def check_critical(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Decide criticality, reporting the first violated clause:

    1. the graph is snp but not supercyclic,
    2. every Y-vertex is seen twice from X,
    3. dropping any X-vertices (keeping at least 3) leaves a supercyclic graph.

    Clause 3 is read off the clause-1 witness: a restriction to C is
    supercyclic unless some X-set within C has no cycle, so the first
    failing C in (size, lex) order is the first cycle-less X-set itself,
    and clause 3 holds exactly when that set is all of X.
    """
    if g.nx < 3:
        raise DomainError(f"criticality needs |X| >= 3, got {g.nx}")
    b = as_budget(budget, NODE_BUDGET_DEFAULT, "node")

    snp_v = check_snp(g, budget=b)
    if not snp_v.holds:
        return Verdict(
            "critical", False, {"clause": 1, "detail": "not snp", "S": snp_v.witness["S"]}
        )
    sc_v = check_supercyclic(g, budget=b)
    if sc_v.holds:
        return Verdict("critical", False, {"clause": 1, "detail": "graph is supercyclic"})

    lam2_all = neighborhood_at_least(g, g.full_x(), 2)
    if lam2_all.mask != g.full_y().mask:
        missing = bit_list(g.full_y().mask & ~lam2_all.mask)
        return Verdict(
            "critical", False, {"clause": 2, "detail": "Y not fully seen twice", "T": missing}
        )

    s = sc_v.witness["S"]
    if len(s) < g.nx:
        detail = "proper restriction not supercyclic"
        return Verdict("critical", False, {"clause": 3, "detail": detail, "S": s})
    return Verdict("critical", True)


def check_saturated_critical(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Critical, and adding any single missing X-Y edge makes the graph
    supercyclic.

    On a critical graph every proper X-set of size >= 3 already has its
    cycle, and an added edge keeps them, so an augmented graph is
    supercyclic exactly when it has a cycle through all of X.
    """
    from .cycles import find_cycle_covering  # deferred to avoid an import cycle

    b = as_budget(budget, NODE_BUDGET_DEFAULT, "node")
    crit = check_critical(g, budget=b)
    if not crit.holds:
        return Verdict(
            "saturated-critical", False, {"clause": "critical", "inner": dict(crit.witness or {})}
        )
    for x in range(g.nx):
        for y in bits(((1 << g.ny) - 1) & ~g.adj_x[x]):
            if find_cycle_covering(g.with_edge(x, y), g.full_x(), budget=b) is None:
                return Verdict(
                    "saturated-critical",
                    False,
                    {"clause": "augmentation", "x": x, "y": y, "S": list(range(g.nx))},
                )
    return Verdict("saturated-critical", True)


def check_snp_minimal(
    g: Bigraph, *, budget: int | WorkBudget | None = None
) -> Verdict:
    """snp holds, but removing any one Y-vertex destroys it."""
    b = as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset")
    snp_v = check_snp(g, budget=b)
    if not snp_v.holds:
        return Verdict("snp-minimal", False, {"clause": "snp", "S": snp_v.witness["S"]})
    for y in range(g.ny):
        # y without edges lies in no twice-seen set, so snp is decided as on G - y
        keep = ~(1 << y)
        v = check_snp(Bigraph(g.nx, g.ny, tuple(row & keep for row in g.adj_x)), budget=b)
        if v.holds:
            return Verdict("snp-minimal", False, {"clause": "redundant-y", "y": y})
    return Verdict("snp-minimal", True)


# -- obstacles ---------------------------------------------------------------


def _check_obstacle_sets(g: Bigraph, s: VertexSet, t: VertexSet) -> None:
    """An obstacle pairs an X-set of ``g`` with a Y-set of ``g``."""
    if s.side != X_SIDE or t.side != Y_SIDE:
        raise DomainError("an obstacle pairs an X-set with a Y-set")
    if s.mask >> g.nx or t.mask >> g.ny:
        raise GraphInputError(
            f"obstacle mentions vertices outside the {g.nx} x {g.ny} graph"
        )


def is_obstacle(g: Bigraph, s: VertexSet, t: VertexSet) -> bool:
    _check_obstacle_sets(g, s, t)
    if len(s) < 2 or len(s) <= len(t):
        return False
    return neighborhood_at_least(g, s, 2).issubset(t)


def obstacle_is_minimal(g: Bigraph, s: VertexSet, t: VertexSet) -> bool:
    """No obstacle (S' within S, T' within T) has strictly smaller |S'|+|T'|.

    For a candidate S' the cheapest companion is T' = twice-seen(S'), which
    is automatically inside T, so only S' needs enumerating.
    """
    if not is_obstacle(g, s, t):
        return False
    total = len(s) + len(t)
    s_mask = s.mask
    sub = s_mask
    while sub:
        if sub != s_mask and sub.bit_count() >= 2:
            lam2 = len(neighborhood_at_least(g, VertexSet(X_SIDE, sub), 2))
            if lam2 < sub.bit_count():
                if sub.bit_count() + lam2 < total:
                    return False
        sub = (sub - 1) & s_mask
    # Keeping S' = S, the only smaller companion would be T' = twice-seen(S)
    # itself, so T larger than that neighbourhood is non-minimal.
    return len(t) == len(neighborhood_at_least(g, s, 2))


def find_minimal_obstacle(
    g: Bigraph, s_max: int, *, budget: int | WorkBudget | None = None
) -> Obstacle | None:
    """First obstacle in (increasing |S|, then lexicographic) order, with
    T = twice-seen(S), capped at |S| <= s_max.

    The first hit is automatically minimal: every proper subset of S was
    enumerated earlier (smaller cardinality) and found non-violating, so no
    sub-obstacle with a smaller total exists, and T cannot shrink below the
    twice-seen neighbourhood.
    """
    if g.nx < 2:
        raise DomainError("obstacles need |X| >= 2")
    if not (2 <= s_max <= g.nx):
        raise DomainError(f"s_max must be in 2..{g.nx}, got {s_max}")
    hit = _first_deficient(g, 2, s_max, as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset"))
    if hit is None:
        return None
    chosen, lam2 = hit
    return Obstacle(s=VertexSet.xs(chosen), t=VertexSet(Y_SIDE, lam2))


def check_degree_bound(
    g: Bigraph, *, verify_dhp: bool = False, budget: int | WorkBudget | None = None
) -> DegreeBoundReport:
    """Report n = |X| against the bound d(d-1)/2 + 1 where d is the maximum
    degree.  With ``verify_dhp`` the graph is first checked to be dHp, and a
    verified dHp graph exceeding the bound raises ContractViolationError
    (it would contradict the bound theorem)."""
    verified = False
    if verify_dhp:
        v = check_dhp(g, budget=budget)
        if not v.holds:
            raise DomainError(
                f"degree bound applies to dHp graphs; this one fails at S={v.witness['S']}"
            )
        verified = True
    n = g.nx
    d = g.max_degree()
    bound = d * (d - 1) // 2 + 1
    within = n <= bound
    if verified and not within:
        raise ContractViolationError(
            f"verified dHp graph has n={n} above the degree bound {bound} for d={d}"
        )
    return DegreeBoundReport(
        n=n,
        max_degree=d,
        bound=bound,
        within_bound=within,
        tight=n == bound,
        dhp_verified=verified,
    )
