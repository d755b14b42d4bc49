"""Bipartite graphs with a fixed (X, Y) bipartition, backed by integer bitsets.

Adjacency is stored as one Python int per vertex, interpreted as a bitmask
over the opposite side.  Arbitrary-precision ints give branch-free set
algebra (``&``, ``|``, ``^``) and popcounts (``int.bit_count``), which is
where the subset scans in the property checkers spend nearly all of their
time.

Graphs are immutable: every edit constructs a new value, so checkers and
solvers stay pure and results can be cached or shared across workers
without defensive copies.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

from .errors import DomainError, GraphInputError, ResourceLimitError, WitnessError

__all__ = [
    "Side",
    "X_SIDE",
    "Y_SIDE",
    "Bigraph",
    "VertexSet",
    "CycleWitness",
    "PathWitness",
    "neighborhood_at_least",
    "induced_subgraph",
    "bipartite_complement",
    "is_two_connected",
    "SIDE_LIMIT",
]

Side = Literal["X", "Y"]

X_SIDE: Side = "X"
Y_SIDE: Side = "Y"

# Cap on the vertices per side of every graph.  A graph costs about 16
# bytes per declared vertex before its first edge, so a larger side raises
# ResourceLimitError instead of an OOM.
SIDE_LIMIT = 1 << 20


def check_side_limit(nx: int, ny: int, what: str) -> None:
    if nx > SIDE_LIMIT or ny > SIDE_LIMIT:
        raise ResourceLimitError(f"{what} side {max(nx, ny)} exceeds limit {SIDE_LIMIT}")


_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def int_error_message(tokens: Iterable[str], what: str) -> str:
    """The message for ``tokens`` after int() rejected one of them: ``what``,
    unless the first token it rejects is an integer longer than
    sys.get_int_max_str_digits(), for which int() raises the same
    ValueError as for a token that is not an integer at all."""
    for tok in tokens:
        try:
            int(tok)
        except ValueError:
            if _INT_LITERAL.fullmatch(tok.strip()):
                digits = sum(ch.isdecimal() for ch in tok)
                return (
                    f"integer of {digits} digits exceeds the limit of "
                    f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
                )
            break
    return what


def mask_of(indices: Iterable[int]) -> int:
    """Pack an iterable of bit positions into a bitmask."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


def _packed_rows(mat) -> tuple[int, ...]:
    """Rows of a 2-D bool numpy array as bitmasks (column j is bit j)."""
    import numpy as np

    packed = np.packbits(mat, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _opposite(side: Side) -> Side:
    return Y_SIDE if side == X_SIDE else X_SIDE


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A subset of one side of a bigraph, tagged with that side.

    The side tag exists to catch the classic bug of feeding an X-subset to
    an operation expecting Y-vertices; all set algebra requires matching
    sides.
    """

    side: Side
    mask: int

    def __post_init__(self):
        if self.side not in (X_SIDE, Y_SIDE):
            raise GraphInputError(f"side must be 'X' or 'Y', got {self.side!r}")
        if self.mask < 0:
            raise GraphInputError("vertex-set mask must be non-negative")

    @classmethod
    def from_indices(cls, side: Side, indices: Iterable[int]) -> "VertexSet":
        idx = list(indices)
        if any(i < 0 for i in idx):
            raise GraphInputError("vertex indices must be non-negative")
        if any(i >= SIDE_LIMIT for i in idx):  # before mask_of allocates that many bits
            raise GraphInputError(f"vertex indices must be below SIDE_LIMIT = {SIDE_LIMIT}")
        return cls(side, mask_of(idx))

    @classmethod
    def xs(cls, indices: Iterable[int]) -> "VertexSet":
        return cls.from_indices(X_SIDE, indices)

    @classmethod
    def ys(cls, indices: Iterable[int]) -> "VertexSet":
        return cls.from_indices(Y_SIDE, indices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, index: int) -> bool:
        return index >= 0 and (self.mask >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def _require_same_side(self, other: "VertexSet") -> None:
        if self.side != other.side:
            raise GraphInputError(
                f"cannot combine a {self.side}-set with a {other.side}-set"
            )

    def union(self, other: "VertexSet") -> "VertexSet":
        self._require_same_side(other)
        return VertexSet(self.side, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._require_same_side(other)
        return VertexSet(self.side, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._require_same_side(other)
        return VertexSet(self.side, self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._require_same_side(other)
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class Bigraph:
    """An immutable bipartite graph on vertex sets X = 0..nx-1, Y = 0..ny-1.

    ``adj_x[i]`` is the neighbourhood of x_i as a bitmask over Y.  The
    mirror ``adj_y`` is derived at construction time, so the two directions
    can never disagree.  There are no parallel edges by construction
    (edge lists are treated with set semantics).
    """

    nx: int
    ny: int
    adj_x: tuple[int, ...]
    adj_y: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.nx < 0 or self.ny < 0:
            raise GraphInputError("vertex counts must be non-negative")
        check_side_limit(self.nx, self.ny, "graph")
        if not isinstance(self.adj_x, tuple):
            object.__setattr__(self, "adj_x", tuple(self.adj_x))
        if len(self.adj_x) != self.nx:
            raise GraphInputError(
                f"adjacency has {len(self.adj_x)} rows, expected nx={self.nx}"
            )
        limit = 1 << self.ny
        mirror = [0] * self.ny
        for i, row in enumerate(self.adj_x):
            if row < 0 or row >= limit:
                raise GraphInputError(
                    f"adjacency row for x{i} mentions Y-vertices outside 0..{self.ny - 1}"
                )
            # character j of the reversed binary string is bit j, so one
            # str.find pass visits a row's edges without rewriting the row
            # once per bit (which cost about n^4 on wide sparse rows)
            digits = bin(row)[:1:-1]
            bit = 1 << i
            j = digits.find("1")
            while j >= 0:
                mirror[j] |= bit
                j = digits.find("1", j + 1)
        object.__setattr__(self, "adj_y", tuple(mirror))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, nx: int, ny: int, edges: Iterable[tuple[int, int]]
    ) -> "Bigraph":
        rows = [0] * nx
        for i, j in edges:
            if not (0 <= i < nx and 0 <= j < ny):
                raise GraphInputError(f"edge ({i}, {j}) out of range for {nx}x{ny}")
            rows[i] |= 1 << j
        return cls(nx, ny, tuple(rows))

    @classmethod
    def from_dense(cls, mat) -> "Bigraph":
        """Build from an (nx, ny) bool numpy adjacency matrix.

        Both orientations are packed with ``np.packbits``, so the mirror
        costs one transposed pack; a bool matrix cannot name a vertex out of
        range.
        """
        import numpy as np

        if not isinstance(mat, np.ndarray) or mat.dtype != np.bool_ or mat.ndim != 2:
            raise GraphInputError("from_dense needs a 2-D bool numpy array")
        check_side_limit(mat.shape[0], mat.shape[1], "graph")
        return cls._from_both(mat.shape[0], mat.shape[1], _packed_rows(mat), _packed_rows(mat.T))

    @classmethod
    def _from_both(
        cls, nx: int, ny: int, adj_x: tuple[int, ...], adj_y: tuple[int, ...]
    ) -> "Bigraph":
        """Build from rows the caller has already mirrored and range-checked,
        skipping the per-edge loop of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "nx", nx)
        object.__setattr__(g, "ny", ny)
        object.__setattr__(g, "adj_x", adj_x)
        object.__setattr__(g, "adj_y", adj_y)
        return g

    @classmethod
    def complete(cls, nx: int, ny: int) -> "Bigraph":
        full = (1 << ny) - 1
        return cls(nx, ny, tuple(full for _ in range(nx)))

    @classmethod
    def empty(cls, nx: int, ny: int) -> "Bigraph":
        return cls(nx, ny, tuple(0 for _ in range(nx)))

    # -- queries -----------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise GraphInputError(f"vertex pair ({i}, {j}) out of range")
        return (self.adj_x[i] >> j) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in lexicographic order."""
        for i, row in enumerate(self.adj_x):
            for j in bits(row):
                yield (i, j)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj_x)

    def degree_x(self, i: int) -> int:
        return self.adj_x[i].bit_count()

    def degree_y(self, j: int) -> int:
        return self.adj_y[j].bit_count()

    def degrees_x(self) -> list[int]:
        return [row.bit_count() for row in self.adj_x]

    def degrees_y(self) -> list[int]:
        return [row.bit_count() for row in self.adj_y]

    def max_degree(self) -> int:
        """Maximum degree over both sides (0 for an empty graph)."""
        best = 0
        for row in self.adj_x:
            c = row.bit_count()
            if c > best:
                best = c
        for row in self.adj_y:
            c = row.bit_count()
            if c > best:
                best = c
        return best

    def full_x(self) -> VertexSet:
        return VertexSet(X_SIDE, (1 << self.nx) - 1)

    def full_y(self) -> VertexSet:
        return VertexSet(Y_SIDE, (1 << self.ny) - 1)

    # -- edits (each returns a new graph) ------------------------------------

    def with_edge(self, i: int, j: int) -> "Bigraph":
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise GraphInputError(f"edge ({i}, {j}) out of range")
        rows = list(self.adj_x)
        rows[i] |= 1 << j
        return Bigraph(self.nx, self.ny, tuple(rows))

    def without_edge(self, i: int, j: int) -> "Bigraph":
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise GraphInputError(f"edge ({i}, {j}) out of range")
        rows = list(self.adj_x)
        rows[i] &= ~(1 << j)
        return Bigraph(self.nx, self.ny, tuple(rows))

    def __repr__(self) -> str:
        return f"Bigraph(nx={self.nx}, ny={self.ny}, edges={self.num_edges})"


# -- neighbourhood and structure operations ---------------------------------


def neighborhood_at_least(g: Bigraph, s: VertexSet, i: int) -> VertexSet:
    """Vertices on the opposite side adjacent to at least ``i`` members of ``s``.

    With i=1 this is the ordinary neighbourhood; i=2 is the "seen twice"
    neighbourhood that the double Hall property quantifies over.
    """
    if i < 1:
        raise DomainError(f"multiplicity threshold must be >= 1, got {i}")
    side_count = g.nx if s.side == X_SIDE else g.ny
    if s.mask >> side_count:
        raise GraphInputError(
            f"{s.side}-set mentions vertices outside 0..{side_count - 1}"
        )
    own_adj = g.adj_x if s.side == X_SIDE else g.adj_y
    opp_adj = g.adj_y if s.side == X_SIDE else g.adj_x
    if i == 1:
        out = 0
        for v in bits(s.mask):
            out |= own_adj[v]
        return VertexSet(_opposite(s.side), out)
    if i == 2:
        seen_once = 0
        seen_twice = 0
        for v in bits(s.mask):
            row = own_adj[v]
            seen_twice |= seen_once & row
            seen_once |= row
        return VertexSet(_opposite(s.side), seen_twice)
    out = 0
    for w, row in enumerate(opp_adj):
        if (row & s.mask).bit_count() >= i:
            out |= 1 << w
    return VertexSet(_opposite(s.side), out)


def induced_subgraph(
    g: Bigraph, sx: VertexSet, sy: VertexSet
) -> tuple[Bigraph, tuple[int, ...], tuple[int, ...]]:
    """Induced subgraph on (sx, sy), with index maps back to the parent.

    Returns ``(h, x_map, y_map)`` where ``x_map[new_index] == old_index``.
    """
    if sx.side != X_SIDE or sy.side != Y_SIDE:
        raise GraphInputError("induced_subgraph expects an X-set and a Y-set")
    if sx.mask >> g.nx or sy.mask >> g.ny:
        raise GraphInputError("induced subgraph members out of range")
    x_map = tuple(bits(sx.mask))
    y_map = tuple(bits(sy.mask))
    y_pos = {old: new for new, old in enumerate(y_map)}
    rows = []
    for old_x in x_map:
        row = 0
        for old_y in bits(g.adj_x[old_x] & sy.mask):
            row |= 1 << y_pos[old_y]
        rows.append(row)
    return Bigraph(len(x_map), len(y_map), tuple(rows)), x_map, y_map


def bipartite_complement(g: Bigraph) -> Bigraph:
    """The bigraph with exactly the non-edges of ``g`` (same bipartition)."""
    full = (1 << g.ny) - 1
    return Bigraph(g.nx, g.ny, tuple(row ^ full for row in g.adj_x))


def is_two_connected(g: Bigraph) -> bool:
    """Whether the underlying one-coloured graph on nx+ny vertices is
    2-connected: at least 3 vertices, connected, and no cut vertex.

    Isolated vertices count, so a graph with an untouched Y-vertex is not
    even connected.
    """
    return two_connected_on(g, (1 << g.nx) - 1, (1 << g.ny) - 1)


def two_connected_on(g: Bigraph, xmask: int, ymask: int) -> bool:
    """``is_two_connected`` of the subgraph of ``g`` induced on the X-vertices
    in ``xmask`` and the Y-vertices in ``ymask``, read off ``g``'s rows
    without building that subgraph."""
    n = xmask.bit_count() + ymask.bit_count()
    if n < 3:
        return False
    nx, adj_x, adj_y = g.nx, g.adj_x, g.adj_y

    # Vertex v < nx is X-vertex v, and v >= nx is Y-vertex v - nx.
    def neighbours(v: int) -> Iterator[int]:
        if v < nx:
            for j in bits(adj_x[v] & ymask):
                yield nx + j
        else:
            yield from bits(adj_y[v - nx] & xmask)

    # Iterative Tarjan lowpoint scan; recursion would overflow on long paths.
    root = (xmask & -xmask).bit_length() - 1 if xmask else nx + (ymask & -ymask).bit_length() - 1
    disc = [-1] * (nx + g.ny)
    low = disc[:]
    parent = disc[:]
    timer = 0
    root_children = 0
    stack: list[tuple[int, Iterator[int]]] = [(root, neighbours(root))]
    disc[root] = low[root] = timer
    timer += 1
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] == -1:
                parent[w] = v
                if v == root:
                    root_children += 1
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, neighbours(w)))
                advanced = True
                break
            elif w != parent[v]:
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p != root and low[v] >= disc[p]:
                    return False  # p is a cut vertex
    if timer != n:
        return False  # disconnected
    return root_children < 2


# -- witnesses ---------------------------------------------------------------


def _check_index(side: Side, idx: int, g: Bigraph) -> None:
    bound = g.nx if side == X_SIDE else g.ny
    if not (0 <= idx < bound):
        raise WitnessError(f"{side}-vertex {idx} out of range 0..{bound - 1}")


@dataclass(frozen=True, slots=True)
class CycleWitness:
    """A cycle x_0, y_0, x_1, y_1, ..., x_{m-1}, y_{m-1} (closing back to x_0).

    Edges used are (x_t, y_t) and (y_t, x_{t+1 mod m}).  All vertices are
    distinct within their side and m >= 2, so the shortest witness is a
    4-cycle.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.xs)

    def x_set(self) -> VertexSet:
        return VertexSet.xs(self.xs)

    def vertices(self) -> list[tuple[Side, int]]:
        out: list[tuple[Side, int]] = []
        for x, y in zip(self.xs, self.ys):
            out.append((X_SIDE, x))
            out.append((Y_SIDE, y))
        return out

    def validate(self, g: Bigraph) -> None:
        m = len(self.xs)
        if m != len(self.ys):
            raise WitnessError("cycle must alternate equally many x and y vertices")
        if m < 2:
            raise WitnessError("a bipartite cycle needs at least two X-vertices")
        if len(set(self.xs)) != m or len(set(self.ys)) != m:
            raise WitnessError("cycle vertices must be distinct within each side")
        for side, seq in ((X_SIDE, self.xs), (Y_SIDE, self.ys)):
            for v in seq:
                _check_index(side, v, g)
        for t in range(m):
            if not g.has_edge(self.xs[t], self.ys[t]):
                raise WitnessError(f"missing edge (x{self.xs[t]}, y{self.ys[t]})")
            nxt = self.xs[(t + 1) % m]
            if not g.has_edge(nxt, self.ys[t]):
                raise WitnessError(f"missing edge (x{nxt}, y{self.ys[t]})")

    def is_valid(self, g: Bigraph) -> bool:
        try:
            self.validate(g)
        except WitnessError:
            return False
        return True

    def canonical(self) -> "CycleWitness":
        """Rotation/reflection-normal form: the lexicographically least
        flattened sequence over both traversal directions."""
        m = len(self.xs)
        flat = []
        for x, y in zip(self.xs, self.ys):
            flat.extend((x, y))
        # Reverse traversal starting from the same x: x0, y_{m-1}, x_{m-1}, ...
        rev = [flat[0]] + flat[:0:-1]
        best: list[int] | None = None
        for seq in (flat, rev):
            for r in range(m):
                cand = seq[2 * r:] + seq[:2 * r]
                if best is None or cand < best:
                    best = cand
        assert best is not None
        return CycleWitness(tuple(best[0::2]), tuple(best[1::2]))

    def to_json_obj(self) -> dict:
        return {"cycle": [[side.lower(), i] for side, i in self.vertices()]}


@dataclass(frozen=True, slots=True)
class PathWitness:
    """An alternating path given as a (side, index) sequence.

    Endpoints may lie on either side; a single-vertex (trivial) path is
    representable but only accepted where an operation says so.
    """

    vertices: tuple[tuple[Side, int], ...]

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 1

    def endpoint_sides(self) -> tuple[Side, Side]:
        return (self.vertices[0][0], self.vertices[-1][0])

    def x_indices(self) -> tuple[int, ...]:
        return tuple(i for side, i in self.vertices if side == X_SIDE)

    def y_indices(self) -> tuple[int, ...]:
        return tuple(i for side, i in self.vertices if side == Y_SIDE)

    def validate(self, g: Bigraph, allow_trivial: bool = False) -> None:
        if not self.vertices:
            raise WitnessError("empty path")
        if len(self.vertices) == 1:
            if not allow_trivial:
                raise WitnessError("trivial single-vertex path not allowed here")
            side, idx = self.vertices[0]
            _check_index(side, idx, g)
            return
        for side, idx in self.vertices:
            _check_index(side, idx, g)
        for (s1, v1), (s2, v2) in zip(self.vertices, self.vertices[1:]):
            if s1 == s2:
                raise WitnessError("path must alternate sides")
            x, y = (v1, v2) if s1 == X_SIDE else (v2, v1)
            if not g.has_edge(x, y):
                raise WitnessError(f"missing edge (x{x}, y{y})")
        xs = self.x_indices()
        ys = self.y_indices()
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise WitnessError("path vertices must be distinct within each side")

    def is_valid(self, g: Bigraph, allow_trivial: bool = False) -> bool:
        try:
            self.validate(g, allow_trivial=allow_trivial)
        except WitnessError:
            return False
        return True

    def to_json_obj(self) -> dict:
        return {"path": [[side.lower(), idx] for side, idx in self.vertices]}
