"""Generators for the structured extremal graphs used throughout the toolkit.

Three families live here: the pair gadget (two private witnesses per X-pair,
the minimum-edge way to make every pair condition tight), biplane incidence
graphs (symmetric 2-designs with pair multiplicity 2, which meet the degree
bound n = C(d,2)+1 with equality), and bipartite products, which multiply
degrees while preserving the double Hall property.  Padding with universal
vertices embeds any instance into a larger one without disturbing the
property.

The biplanes of orders 0 to 4 and 7 are built in from a table of difference
sets.  The larger known ones (k = 11 and 13) are import-only: ``import_design``
re-verifies every axiom, so no unverified incidence data can enter the system.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .core import Bigraph, bit_list, check_side_limit, int_error_message
from .errors import (
    ConstructionError,
    DesignImportError,
    DomainError,
    ParseError,
    ResourceLimitError,
)

__all__ = [
    "DesignSpec",
    "pair_gadget",
    "biplane_from_difference_set",
    "builtin_biplane",
    "BUILTIN_BIPLANE_ORDERS",
    "verify_design",
    "design_violation",
    "import_design",
    "design_to_bigraph",
    "bipartite_product",
    "iterated_product",
    "growth_report",
    "pad_with_universal",
]

# Cap on nx * ny of a product: at most 128 MiB of row bitsets each way;
# biplane(3)^4 (14641 per side) is admitted, biplane(3)^5 is not.
PRODUCT_CELL_LIMIT = 1 << 30

# order -> (v, base block, group addition).  Each base block is a
# difference set of its group (every nonzero element is a difference of two
# members exactly twice), so its v translates are the blocks of a biplane.
_BIPLANES = {
    0: (2, (0, 1), operator.add),
    1: (4, (0, 1, 2), operator.add),
    2: (7, (0, 3, 5, 6), operator.add),
    3: (11, (1, 3, 4, 5, 9), operator.add),
    4: (16, (0, 1, 2, 4, 8, 15), operator.xor),  # Z_2^4, no cyclic one exists
    7: (37, (1, 7, 9, 10, 12, 16, 26, 33, 34), operator.add),  # fourth powers mod 37
}

BUILTIN_BIPLANE_ORDERS = tuple(_BIPLANES)


def _first_bad_pair(rows, lam: int) -> tuple[int, int, int] | None:
    """The first (a, b, count) in combinations order whose rows share
    ``count != lam`` bits, or None when every pair shares exactly lam."""
    for a, b in itertools.combinations(range(len(rows)), 2):
        c = (rows[a] & rows[b]).bit_count()
        if c != lam:
            return a, b, c
    return None


@dataclass(frozen=True)
class DesignSpec:
    """A symmetric 2-design: v points, v blocks of size k, every point pair
    in exactly ``lam`` blocks and every block pair meeting in ``lam`` points.

    ``lam`` is 2 for biplanes, but it is a field because ``import_design``
    reads a design of any lambda.  Blocks may repeat only in the degenerate
    k = lam case, where the intersection axiom permits it.

    ``violation`` checks the point pairs only, since v blocks of size k
    whose point pairs each lie in lam blocks always meet pairwise in lam
    points.  Counting the pairs through a point p gives r_p (k - 1) =
    lam (v - 1), so every point lies in r = lam (v - 1) / (k - 1) blocks
    (k = 1 leaves a pair in no block once v >= 2), and vk = vr gives
    r = k.  With N the v x v point-block incidence matrix, N N^T =
    (k - lam) I + lam J and N J = J N = k J.  If k > lam, N N^T is
    invertible, so N is, N^-1 J = J / k, and N^T N = N^-1 (N N^T) N =
    (k - lam) I + lam J: every two blocks meet in lam points.  Otherwise
    k = lam (a pair lies in at most r = k blocks): two points lie in the
    same k blocks, so every block holds all v points.
    """

    v: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    def violation(self) -> str | None:
        """The first violated design axiom as text, or None when valid."""
        if self.v < 1 or self.k < 1 or self.lam < 1:
            return "v, k, lambda must all be positive"
        if len(self.blocks) != self.v:
            return f"symmetric design needs {self.v} blocks, got {len(self.blocks)}"
        for bi, block in enumerate(self.blocks):
            if len(set(block)) != len(block):
                return f"block {bi} repeats a point"
            if len(block) != self.k:
                return f"block {bi} has size {len(block)}, expected k={self.k}"
            for pt in block:
                if not (0 <= pt < self.v):
                    return f"block {bi} mentions point {pt} outside 0..{self.v - 1}"
        if bad := _first_bad_pair(design_to_bigraph(self).adj_x, self.lam):
            a, b, cnt = bad
            return f"points ({a}, {b}) lie in {cnt} common blocks, expected {self.lam}"
        return None  # so every two blocks meet in lam points (class docstring)

    def validate(self) -> None:
        msg = self.violation()
        if msg is not None:
            raise ConstructionError(msg)

    @property
    def order(self) -> int:
        return self.k - self.lam


def pair_gadget(n: int) -> Bigraph:
    """The graph with two private degree-2 witnesses per X-pair: every pair
    condition holds with the minimum conceivable slack.  nx = n,
    ny = n(n-1), X-degrees 2(n-1), Y-degrees 2."""
    if n < 2:
        raise DomainError(f"pair gadget needs n >= 2, got {n}")
    check_side_limit(n, n * (n - 1), "pair gadget")
    ny = n * (n - 1)
    # Pair p of combinations(range(n), 2) owns Y-vertices 2p and 2p + 1,
    # bits 3 << 2(p % 4) of byte p // 4.  Rows are packed as bytes, so the
    # build is linear in the output.
    first = list(itertools.accumulate(range(n - 1, 0, -1), initial=0))  # pair (a, a + 1)
    rows = []
    for i in range(n):
        below = [first[a] + i - a - 1 for a in range(i)]  # pairs (a, i)
        row = bytearray(-(-ny // 8))
        for p in below + list(range(first[i], first[i] + n - 1 - i)):
            row[p >> 2] |= 3 << 2 * (p & 3)
        rows.append(int.from_bytes(row, "little"))
    return Bigraph(n, ny, tuple(rows))


def _development(v: int, base: tuple[int, ...], add) -> tuple[tuple[int, ...], ...]:
    """The v translates of ``base`` in the group on 0..v-1 whose addition
    is ``add`` taken mod v (the mod is a no-op for XOR on a power of 2)."""
    return tuple(tuple(sorted(add(x, t) % v for x in base)) for t in range(v))


def biplane_from_difference_set(v: int, d_set) -> DesignSpec:
    """Develop a difference set D modulo v into a biplane design.

    Each translate D + t is a block, so points a and b share as many blocks
    as a - b arises as a difference of two set elements.  The development
    is thus a symmetric design with pair multiplicity 2 exactly when D is
    nonempty and every nonzero residue arises twice, the one condition
    checked; a failure names the least residue that breaks it.  At most
    C(k, 2) residues arise twice, so the check costs O(k^2) for any v.
    """
    elems = [int(x) for x in d_set]
    base = tuple(sorted(set(elems)))
    if len(base) != len(elems):
        raise ConstructionError("difference set has repeated elements")
    if any(not (0 <= x < v) for x in base):
        raise ConstructionError(f"difference set elements must lie in 0..{v - 1}")
    if not base:
        raise ConstructionError("difference set is empty")
    diff_count = Counter((a - b) % v for a, b in itertools.permutations(base, 2))
    for r in range(1, v):
        if diff_count[r] != 2:
            raise ConstructionError(
                f"difference {r} arises {diff_count[r]} times, expected 2"
            )
    return DesignSpec(v, len(base), 2, _development(v, base, operator.add))


def builtin_biplane(order: int) -> Bigraph:
    """Incidence graph of the biplane of the given order, one of
    BUILTIN_BIPLANE_ORDERS, developed from its difference set and re-verified:
    a (order+2)-regular bigraph on C(order+2, 2) + 1 vertices per side."""
    if order not in _BIPLANES:
        raise DomainError(
            f"no built-in biplane of order {order}, only of orders {BUILTIN_BIPLANE_ORDERS}; "
            "known biplanes have k in {3, 4, 5, 6, 9, 11, 13}, and k = 11 and 13 "
            "come through import_design"
        )
    v, base, add = _BIPLANES[order]
    spec = DesignSpec(v, len(base), 2, _development(v, base, add))
    spec.validate()
    return design_to_bigraph(spec)


def design_violation(g: Bigraph) -> str | None:
    """First failed axiom of the biplane incidence recognition, or None.

    Checked in order: equal sides of size >= 2, regularity, and X-pair
    common neighbourhoods of size exactly 2.  Y-pairs need no pass of their
    own: a square d-regular graph whose X-pairs share exactly 2 neighbours
    is the incidence graph of v blocks of size d with every point pair in 2
    blocks, and such blocks meet pairwise in 2 points (see ``DesignSpec``).
    Nor does the count identity n = C(d,2)+1: count the paths x-y-x' from
    one X-vertex x.  By y, x has d neighbours and each has d - 1 others, so
    there are d(d - 1); by x', each of the n - 1 other X-vertices shares 2
    neighbours with x, so there are 2(n - 1).
    """
    if g.nx != g.ny:
        return f"sides differ: |X| = {g.nx}, |Y| = {g.ny}"
    n = g.nx
    if n < 2:
        return f"too small: need at least 2 points, got {n}"
    d = g.degree_x(0)
    for i in range(n):
        if g.degree_x(i) != d:
            return f"not regular: deg(x{i}) = {g.degree_x(i)} but deg(x0) = {d}"
    for j in range(n):
        if g.degree_y(j) != d:
            return f"not regular: deg(y{j}) = {g.degree_y(j)} but deg(x0) = {d}"
    if bad := _first_bad_pair(g.adj_x, 2):
        a, b, c = bad
        return f"X-pair ({a}, {b}) has {c} common neighbours, expected 2"
    return None


def verify_design(g: Bigraph) -> DesignSpec | None:
    """Recognise ``g`` as a biplane incidence graph and recover its design,
    or return None (see design_violation for the reason)."""
    if design_violation(g) is not None:
        return None
    return DesignSpec(
        v=g.nx,
        k=g.degree_x(0),
        lam=2,
        blocks=tuple(tuple(bit_list(row)) for row in g.adj_y),
    )


def import_design(text: str) -> DesignSpec:
    """Parse and fully re-verify a design file.

    Format: a header line ``design <v> <k> <lambda>`` followed by v lines of
    k whitespace-separated point indices.  '#' starts a comment.  Any axiom
    failure rejects the import; nothing unverified gets through.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines:
        raise ParseError(1, "empty design file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "design":
        raise ParseError(lineno, "expected header 'design <v> <k> <lambda>'")
    try:
        v, k, lam = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(lineno, int_error_message(parts[1:], "v, k, lambda must be integers"))
    body_lines = lines[1:]
    if len(body_lines) != v:
        raise ParseError(
            lineno, f"expected {v} block lines, found {len(body_lines)}"
        )
    blocks = []
    for lineno, body in body_lines:
        try:
            pts = tuple(sorted(int(tok) for tok in body.split()))
        except ValueError:
            what = int_error_message(body.split(), f"non-integer point in block: {body!r}")
            raise ParseError(lineno, what)
        if len(pts) != k:
            raise ParseError(lineno, f"block has {len(pts)} points, expected {k}")
        blocks.append(pts)
    spec = DesignSpec(v, k, lam, tuple(blocks))
    msg = spec.violation()
    if msg is not None:
        raise DesignImportError(f"design axioms fail: {msg}")
    return spec


def design_to_bigraph(spec: DesignSpec) -> Bigraph:
    """Incidence bigraph: points as X, blocks as Y, adjacency = membership."""
    rows = [0] * spec.v
    for y, block in enumerate(spec.blocks):
        for pt in block:
            rows[pt] |= 1 << y
    return Bigraph(spec.v, len(spec.blocks), tuple(rows))


def _check_product_size(nx: int, ny: int, what: str = "product") -> None:
    check_side_limit(nx, ny, what)
    if nx * ny > PRODUCT_CELL_LIMIT:
        raise ResourceLimitError(
            f"{what} of {nx} x {ny} exceeds the limit of {PRODUCT_CELL_LIMIT} cells"
        )


def bipartite_product(g: Bigraph, h: Bigraph) -> Bigraph:
    """The product on X_g x X_h and Y_g x Y_h where (x, x') ~ (y, y') iff
    both coordinate edges exist.  Indices are row-major: (i, i') becomes
    i * h.nx + i' on the X side and likewise with h.ny on the Y side, so a
    product vertex decomposes back into its factors by divmod.
    """
    new_nx = g.nx * h.nx
    new_ny = g.ny * h.ny
    _check_product_size(new_nx, new_ny)
    rows = []
    for i in range(g.nx):
        g_row = g.adj_x[i]
        for i2 in range(h.nx):
            h_row = h.adj_x[i2]
            row = 0
            rest = g_row
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                row |= h_row << (j * h.ny)
                rest ^= low
            rows.append(row)
    return Bigraph(new_nx, new_ny, tuple(rows))


def iterated_product(g: Bigraph, k: int) -> Bigraph:
    """The k-fold bipartite product of ``g`` with itself (k >= 1).  The size
    of every power is checked before the first one is built."""
    if k < 1:
        raise DomainError(f"iterated product needs k >= 1, got {k}")
    if g.nx <= 1 and g.ny <= 1:
        return g  # its own power, however large k is
    for j in range(2, k + 1):
        _check_product_size(g.nx**j, g.ny**j)
    out = g
    for _ in range(k - 1):
        out = bipartite_product(out, g)
    return out


def _columns_all_count(g: Bigraph, d: int) -> bool:
    """Whether every Y-vertex has degree ``d``.  The X-rows are summed
    column-wise in bit planes, plane k holding bit k of every column's
    count, so the Y-side mirror is not built."""
    planes: list[int] = []
    for row in g.adj_x:
        carry = row
        for k, plane in enumerate(planes):
            if not carry:
                break
            planes[k], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    full = (1 << g.ny) - 1
    return d >> len(planes) == 0 and all(
        plane == (full if d >> k & 1 else 0) for k, plane in enumerate(planes)
    )


def growth_report(g: Bigraph) -> dict:
    """Size/degree summary: for a d-regular square bigraph, also the growth
    exponent alpha = log(d) / log(n), the figure of merit for how slowly
    degrees may grow while keeping the double Hall property."""
    degs = g.degrees_x()
    regular = g.nx == g.ny and len(set(degs)) == 1 and _columns_all_count(g, degs[0])
    d = degs[0] if regular else None
    alpha = None
    if d is not None and g.nx > 1 and d > 0:
        alpha = math.log(d) / math.log(g.nx)
    return {"nx": g.nx, "ny": g.ny, "regular_degree": d, "alpha": alpha}


def pad_with_universal(g: Bigraph, target_n: int) -> Bigraph:
    """Grow X to target_n by adding universal X-vertices, plus equally many
    fresh Y-vertices so the padding does not starve the original graph of
    witnesses.  Original vertices keep their indices and edges; the new
    X-vertices see all of the enlarged Y.

    For a double Hall input the padding stays double Hall exactly when no
    X-subset S with |S| >= 2 has a tight neighbourhood |N(S)| = |S|: a
    tight S plus one universal vertex demands |S| + 1 witnesses but still
    sees only N(S) twice.  K(2,2) padded by one vertex is the smallest
    graph losing the property this way; generously-connected inputs such
    as pair gadgets keep it.  The padded graph is held to the product's
    size caps."""
    if target_n < g.nx:
        raise DomainError(f"target {target_n} is smaller than |X| = {g.nx}")
    extra = target_n - g.nx
    if extra == 0:
        return g
    new_ny = g.ny + extra
    _check_product_size(target_n, new_ny, "padding")
    full = (1 << new_ny) - 1
    rows = list(g.adj_x) + [full] * extra
    return Bigraph(target_n, new_ny, tuple(rows))
