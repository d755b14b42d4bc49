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
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping

from .budget import NODE_BUDGET_DEFAULT, SUBSET_BUDGET_DEFAULT, WorkBudget, as_budget
from .core import (
    Bigraph,
    VertexSet,
    X_SIDE,
    Y_SIDE,
    bit_list,
    bits,
    induced_subgraph,
    is_two_connected,
    neighborhood_at_least,
)
from .errors import ContractViolationError, DomainError, GraphInputError

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
    T with |T| < |S|."""

    s: VertexSet
    t: VertexSet
    minimal: bool

    def validate(self, g: Bigraph) -> None:
        _check_obstacle_sets(g, self.s, self.t)
        if len(self.s) < 2:
            raise DomainError("obstacle needs |S| >= 2")
        if len(self.s) <= len(self.t):
            raise DomainError("obstacle needs |S| > |T|")
        lam2 = neighborhood_at_least(g, self.s, 2)
        if not lam2.issubset(self.t):
            raise DomainError("obstacle needs T to contain the twice-seen neighbourhood of S")
        if self.minimal and not obstacle_is_minimal(g, self.s, self.t):
            raise DomainError("obstacle marked minimal is not minimal")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "S": list(self.s.indices),
            "T": list(self.t.indices),
            "minimal": self.minimal,
        }


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

# Cap on the suffix-degree table, in bits of memory: each stored mask is
# charged its full int object and list slot.  Past the cap only the lowest
# layers are kept; a missing layer reads as 0, so the lookahead prunes less
# but stays exact.
LOOKAHEAD_TABLE_BITS = 1 << 27


def _suffix_degree_table(g: Bigraph) -> list[list[int]]:
    """``table[s][t]``: mask of Y-vertices with at least t neighbours among
    X-vertices s..n-1, for 1 <= t <= min(n - s, layers).

    Each row starts with the full Y mask (t = 0) and ends in a 0, so
    ``table[s][t + 1]`` can be read whenever ``table[s][t]`` is a layer.
    Rows are filled right to left with bit-sliced saturating counters;
    ``layers`` is the most that keeps the rows and the working counters
    within LOOKAHEAD_TABLE_BITS.
    """
    n = g.nx
    full = (1 << g.ny) - 1
    mask_bits = 8 * (sys.getsizeof(full) + 8)
    row_bits = 8 * (sys.getsizeof([]) + 16)  # list header, the t = 0 and pad slots
    layers = max(0, min(n, (LOOKAHEAD_TABLE_BITS // (n + 2) - row_bits) // mask_bits))
    counts = [full] + [0] * layers
    table = [[full, 0]] * (n + 1)  # row n: no X-vertex left
    for s in range(n - 1, -1, -1):
        row = g.adj_x[s]
        top = min(n - s, layers)
        for t in range(top, 0, -1):
            counts[t] |= counts[t - 1] & row
        table[s] = counts[: top + 1] + [0]
    return table


def _first_violation(
    g: Bigraph,
    k: int,
    budget: WorkBudget,
    leaf_test: Callable[[tuple[int, ...], int], bool] | None = None,
    ahead: list[list[int]] | None = None,
) -> tuple[tuple[int, ...], int, str] | None:
    """Lexicographically first size-k X-subset S that violates, as
    (S, twice-seen(S) mask, reason).

    S violates with reason "cardinality" when |twice-seen(S)| < k, and with
    reason "connectivity" when ``leaf_test(S, twice-seen mask)`` is false.
    Saturating one-seen/twice-seen accumulators are carried down a prefix
    tree.  Without a leaf test, a prefix whose twice-seen count already
    reaches k is skipped: adding vertices can only grow the accumulator, so
    no completion can violate.  With one, every leaf must be tested, so
    nothing is skipped.  Budget is charged per prefix visited.

    ``ahead`` (a ``_suffix_degree_table``, pruning mode only) adds a
    lookahead: a completion of prefix P + i skips only ``slack`` of the
    X-vertices after i, so a Y-vertex with more than ``slack`` neighbours
    there is hit again, and one with more than ``slack + 1`` is hit twice.
    If those forced twice-seen vertices already number k, the prefix is
    skipped.
    """
    adj = g.adj_x
    n = g.nx
    prune = leaf_test is None
    chosen: list[int] = []

    def descend(start: int, u1: int, u2: int) -> tuple[tuple[int, ...], int, str] | None:
        depth = len(chosen)
        leaf = depth + 1 == k
        need = k - depth - 1  # vertices a completion adds after i
        # leave room for the remaining k - depth picks
        for i in range(start, n - (k - depth) + 1):
            budget.spend()
            row = adj[i]
            nu2 = u2 | (u1 & row)
            if leaf:
                if nu2.bit_count() < k:
                    return (*chosen, i), nu2, "cardinality"
                if not prune and not leaf_test((*chosen, i), nu2):
                    return (*chosen, i), nu2, "connectivity"
                continue
            if prune and nu2.bit_count() >= k:
                continue  # no superset of this prefix can violate
            nu1 = u1 | row
            if ahead is not None:
                later = ahead[i + 1]
                once = n - i - need  # slack + 1
                if once < len(later) - 1 and (
                    nu2 | (nu1 & later[once]) | later[once + 1]
                ).bit_count() >= k:
                    continue  # every completion sees k vertices twice
            chosen.append(i)
            hit = descend(i + 1, nu1, nu2)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    return descend(0, 0, 0)


def _first_deficient(
    g: Bigraph, k_max: int, budget: WorkBudget
) -> tuple[tuple[int, ...], int, str] | None:
    """First X-subset S with 2 <= |S| <= k_max and |twice-seen(S)| < |S|,
    in (size, lex) order, as ``_first_violation`` reports it.

    The suffix-degree table is built after the k = 2 pass, so graphs that
    fail on a pair never pay for it, and is shared by every larger k.
    """
    ahead = None
    for k in range(2, k_max + 1):
        hit = _first_violation(g, k, budget, ahead=ahead)
        if hit is not None:
            return hit
        if ahead is None and k < k_max:
            ahead = _suffix_degree_table(g)
    return None


def check_dhp(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Decide the double Hall property: every S within X with |S| >= 2 sees
    at least |S| Y-vertices at least twice.

    On failure the witness "S" is the smallest violating set, ties broken
    by lexicographically least index tuple.
    """
    if g.nx < 2:
        raise DomainError(f"double Hall property needs |X| >= 2, got {g.nx}")
    hit = _first_deficient(g, g.nx, as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset"))
    if hit is not None:
        return Verdict("dhp", False, {"S": list(hit[0])})
    return Verdict("dhp", True)


def check_snp(g: Bigraph, *, budget: int | WorkBudget | None = None) -> Verdict:
    """Decide the super neighbourhood property: every S with |S| >= 3 has
    |twice-seen(S)| >= |S| and the subgraph induced by S together with its
    twice-seen neighbourhood is 2-connected.

    The witness carries a "reason" flag: cardinality or connectivity.
    """
    if g.nx < 3:
        raise DomainError(f"super neighbourhood property needs |X| >= 3, got {g.nx}")
    b = as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset")

    def two_connected(chosen: tuple[int, ...], u2: int) -> bool:
        sub, _, _ = induced_subgraph(g, VertexSet.xs(chosen), VertexSet(Y_SIDE, u2))
        return is_two_connected(sub)

    for k in range(3, g.nx + 1):
        hit = _first_violation(g, k, b, two_connected)
        if hit is not None:
            s, _, reason = hit
            return Verdict("snp", False, {"S": list(s), "reason": reason})
    return Verdict("snp", True)


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

    for k in range(3, g.nx + 1):
        hit = _first_violation(g, k, b, has_cycle)
        if hit is not None:
            return Verdict("supercyclic", False, {"S": list(hit[0])})
    return Verdict("supercyclic", True)


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
    full_y_mask = (1 << g.ny) - 1
    for y in range(g.ny):
        sub, _, _ = induced_subgraph(
            g, g.full_x(), VertexSet(Y_SIDE, full_y_mask & ~(1 << y))
        )
        v = check_snp(sub, budget=b)
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
    hit = _first_deficient(g, s_max, as_budget(budget, SUBSET_BUDGET_DEFAULT, "subset"))
    if hit is None:
        return None
    chosen, lam2, _ = hit
    return Obstacle(s=VertexSet.xs(chosen), t=VertexSet(Y_SIDE, lam2), minimal=True)


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
