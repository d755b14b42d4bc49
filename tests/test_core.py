"""Core graph type: construction, set algebra, witnesses, connectivity."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import time

import numpy as np
import pytest

try:
    from hypothesis import given, strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

import oracles
from strategies import bigraphs

from dhp import (
    Bigraph,
    CycleWitness,
    GraphInputError,
    ResourceLimitError,
    SIDE_LIMIT,
    VertexSet,
    WitnessError,
    X_SIDE,
    Y_SIDE,
    bipartite_product,
    builtin_biplane,
    check_dhp,
    induced_subgraph,
    is_two_connected,
    iterated_product,
    neighborhood_at_least,
    pair_gadget,
    parse_bigraph,
    serialize_bigraph,
)
from dhp.core import bits, two_connected_on


class TestVertexSet:
    def test_round_trip_indices(self) -> None:
        s = VertexSet.xs([5, 1, 3])
        assert s.indices == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s
        assert list(s) == [1, 3, 5]

    def test_algebra(self) -> None:
        a = VertexSet.ys([0, 1, 2])
        b = VertexSet.ys([2, 4])
        assert b.issubset(VertexSet.ys([0, 1, 2, 4]))
        assert not a.issubset(b)

    def test_side_mismatch_rejected(self) -> None:
        with pytest.raises(GraphInputError):
            VertexSet.xs([1]).issubset(VertexSet.ys([1]))

    def test_bad_values_rejected(self) -> None:
        with pytest.raises(GraphInputError):
            VertexSet("Z", 0)
        with pytest.raises(GraphInputError):
            VertexSet(X_SIDE, -1)
        with pytest.raises(GraphInputError):
            VertexSet.from_indices(Y_SIDE, [-2])


class TestBigraph:
    def test_from_edges_and_accessors(self) -> None:
        g = Bigraph.from_edges(3, 2, [(0, 0), (0, 1), (2, 1), (0, 1)])
        assert g.num_edges == 3
        assert sorted(g.edges()) == [(0, 0), (0, 1), (2, 1)]
        assert g.degree_x(0) == 2 and g.degree_x(1) == 0
        assert g.degree_y(1) == 2
        assert g.degrees_x() == [2, 0, 1]
        assert g.degrees_y() == [1, 2]

    def test_from_edges_out_of_range(self) -> None:
        with pytest.raises(GraphInputError):
            Bigraph.from_edges(2, 2, [(2, 0)])
        with pytest.raises(GraphInputError):
            Bigraph.from_edges(2, 2, [(0, -1)])

    def test_complete_and_empty(self) -> None:
        k = Bigraph.complete(3, 4)
        assert k.num_edges == 12
        assert k.max_degree() == 4
        e = Bigraph.empty(3, 4)
        assert e.num_edges == 0
        assert e.max_degree() == 0

    def test_edit_copies(self) -> None:
        g = Bigraph.empty(2, 2)
        h = g.with_edge(1, 0)
        assert not g.has_edge(1, 0)
        assert h.has_edge(1, 0)
        assert h.without_edge(1, 0).num_edges == 0

    @pytest.mark.parametrize("nx, ny", [(0, 5), (5, 0), (1, 1), (7, 8), (8, 65), (65, 7), (300, 300)])
    def test_from_dense_matches_rows(self, nx: int, ny: int) -> None:
        mat = np.random.default_rng(nx * 1000 + ny).random((nx, ny)) < 0.3
        rows = tuple(sum(1 << j for j in range(ny) if mat[i, j]) for i in range(nx))
        got = Bigraph.from_dense(mat)
        assert got == Bigraph(nx, ny, rows)
        # the mirror against the rows of mat.T, packed here rather than by
        # the one routine every builder shares
        assert got.adj_y == tuple(sum(1 << i for i, bit in enumerate(col) if bit) for col in mat.T)
        assert Bigraph.from_dense(np.ones((nx, ny), dtype=bool)) == Bigraph.complete(nx, ny)

    def test_from_dense_rejects_non_bool_or_non_matrix(self) -> None:
        for bad in (np.ones((3, 3), dtype=np.uint8), np.ones(3, dtype=bool), np.ones((2, 2, 2), dtype=bool), [[True]]):
            with pytest.raises(GraphInputError):
                Bigraph.from_dense(bad)

    @pytest.mark.parametrize("ny", [29, 30, 31, 63, 64, 65])
    def test_mirror_matches_definition(self, ny: int) -> None:
        rng = random.Random(ny)
        full = (1 << ny) - 1
        rows = (0, full, 1, 1 << (ny - 1)) + tuple(rng.getrandbits(ny) for _ in range(66))
        mirror = tuple(
            sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(ny)
        )
        assert Bigraph(len(rows), ny, rows).adj_y == mirror

    def test_mirror_build_is_linear_in_row_width(self) -> None:
        # 500 rows of 249,500 bits: peeling one bit at a time off each row
        # costs about n^4 and took seconds
        g = pair_gadget(500)
        t0 = time.perf_counter()
        mirror = Bigraph(g.nx, g.ny, g.adj_x).adj_y
        assert time.perf_counter() - t0 < 2.0
        # pair p of combinations(range(500), 2) owns columns 2p and 2p + 1
        pairs = itertools.combinations(range(g.nx), 2)
        assert mirror == tuple((1 << a) | (1 << b) for a, b in pairs for _ in range(2))

    def test_side_limit_checked_before_the_mirror(self) -> None:
        import tracemalloc

        # one X-vertex past the cap used to build for about 2.5 s
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            Bigraph.empty(SIDE_LIMIT + 1, 2)
        assert time.perf_counter() - t0 < 1.0
        wide = np.zeros((1, SIDE_LIMIT + 1), dtype=bool)
        tracemalloc.start()
        try:
            # one Y-vertex past the cap: its mirror list alone is 8 MB
            with pytest.raises(ResourceLimitError):
                Bigraph(1, SIDE_LIMIT + 1, (0,))
            with pytest.raises(ResourceLimitError):
                Bigraph.from_dense(wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(bigraphs())
    def test_adjacency_mirror_consistent(self, g: Bigraph) -> None:
        for i in range(g.nx):
            for j in range(g.ny):
                assert g.has_edge(i, j) == ((g.adj_y[j] >> i) & 1 == 1)

    @given(bigraphs())
    def test_edges_sorted_and_counted(self, g: Bigraph) -> None:
        es = list(g.edges())
        assert es == sorted(es)
        assert len(es) == g.num_edges

    def test_list_rows_become_a_tuple(self) -> None:
        g = Bigraph(2, 2, [1, 3])
        assert g.adj_x == (1, 3) and isinstance(g.adj_x, tuple)
        assert g == Bigraph(2, 2, (1, 3)) and hash(g) == hash(Bigraph(2, 2, (1, 3)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Bigraph(-1, 2, ()),
            lambda: Bigraph(2, -1, (0, 0)),
            lambda: Bigraph(2, 2, [1]),  # a list is coerced, then counted
            lambda: Bigraph(2, 2, (1, 2, 3)),
            lambda: Bigraph(1, 2, (4,)),
            lambda: Bigraph(1, 2, (-1,)),
            lambda: Bigraph.complete(2, 3).has_edge(2, 0),
            lambda: Bigraph.complete(2, 3).has_edge(0, 3),
            lambda: Bigraph.empty(2, 3).with_edge(0, 3),
            lambda: Bigraph.complete(2, 3).without_edge(-1, 0),
            lambda: induced_subgraph(Bigraph.complete(2, 3), VertexSet.ys([0]), VertexSet.ys([0])),
            lambda: induced_subgraph(Bigraph.complete(2, 3), VertexSet.xs([2]), VertexSet.ys([0])),
            lambda: induced_subgraph(Bigraph.complete(2, 3), VertexSet.xs([0]), VertexSet.ys([3])),
        ],
    )
    def test_input_guards_raise_graph_input_error(self, build) -> None:
        with pytest.raises(GraphInputError):
            build()


class TestLazyMirror:
    """``adj_y`` is derived on its first read: builders and the X-row
    readers leave it unbuilt, and the first read matches the transpose."""

    @staticmethod
    def _transpose(g: Bigraph) -> tuple[int, ...]:
        return tuple(sum(1 << i for i in range(g.nx) if g.adj_x[i] >> j & 1) for j in range(g.ny))

    def test_builders_leave_the_mirror_unbuilt(self) -> None:
        g = Bigraph.from_edges(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)])
        built = {
            "from_edges": g,
            "from_dense": Bigraph.from_dense(np.eye(3, 4, dtype=bool)),
            "parse_bigraph": parse_bigraph(serialize_bigraph(g)),
            "pair_gadget": pair_gadget(5),
            "bipartite_product": bipartite_product(g, g),
            "with_edge": g.with_edge(2, 0),
            "without_edge": g.without_edge(0, 0),
        }
        assert [name for name, h in built.items() if "adj_y" in h.__dict__] == []

    def test_x_row_readers_leave_the_mirror_unbuilt(self) -> None:
        g = builtin_biplane(3)
        check_dhp(g)
        serialize_bigraph(g)
        power = iterated_product(g, 2)
        neighborhood_at_least(g, VertexSet.xs([0, 1, 2]), 2)
        assert "adj_y" not in g.__dict__ and "adj_y" not in power.__dict__

    @pytest.mark.parametrize("g", [builtin_biplane(3), pair_gadget(6), Bigraph.empty(3, 5)], ids=repr)
    def test_max_degree_builds_the_mirror(self, g: Bigraph) -> None:
        assert "adj_y" not in g.__dict__
        want = self._transpose(g)
        assert g.max_degree() == max((row.bit_count() for row in g.adj_x + want), default=0)
        assert g.__dict__["adj_y"] == want


class TestNeighborhoods:
    def test_multiplicity_levels(self) -> None:
        g = Bigraph.from_edges(
            3, 3, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
        )
        s = g.full_x()
        assert neighborhood_at_least(g, s, 1).indices == (0, 1, 2)
        assert neighborhood_at_least(g, s, 2).indices == (0, 1)
        assert neighborhood_at_least(g, s, 3).indices == (0,)
        assert neighborhood_at_least(g, s, 4).indices == ()

    @given(bigraphs(min_nx=1, min_ny=1), st.integers(1, 4))
    def test_matches_counting_oracle(self, g: Bigraph, i: int) -> None:
        s = g.full_x()
        got = set(neighborhood_at_least(g, s, i).indices)
        expect = {
            j
            for j in range(g.ny)
            if sum(g.has_edge(x, j) for x in range(g.nx)) >= i
        }
        assert got == expect

    def test_works_from_the_y_side(self) -> None:
        g = Bigraph.from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        twice = neighborhood_at_least(g, g.full_y(), 2)
        assert twice.side == X_SIDE
        assert twice.indices == (0, 1)

    def test_rejects_bad_inputs(self) -> None:
        g = Bigraph.complete(2, 2)
        from dhp import DomainError

        with pytest.raises(DomainError):
            neighborhood_at_least(g, g.full_x(), 0)
        with pytest.raises(GraphInputError):
            neighborhood_at_least(g, VertexSet.xs([5]), 1)


class TestInducedAndComplement:
    @given(bigraphs(min_nx=1, min_ny=1))
    def test_induced_subgraph_preserves_edges(self, g: Bigraph) -> None:
        xs = VertexSet.xs(range(0, g.nx, 2))
        ys = VertexSet.ys(range(0, g.ny, 2))
        h, x_map, y_map = induced_subgraph(g, xs, ys)
        assert h.nx == len(xs) and h.ny == len(ys)
        for a, i in enumerate(x_map):
            for b, j in enumerate(y_map):
                assert h.has_edge(a, b) == g.has_edge(i, j)


class TestTwoConnected:
    def test_known_cases(self) -> None:
        assert is_two_connected(Bigraph.complete(2, 2))
        assert is_two_connected(Bigraph.complete(3, 3))
        # a path x0-y0-x1 has a cut vertex at y0
        assert not is_two_connected(Bigraph.from_edges(2, 1, [(0, 0), (1, 0)]))
        assert not is_two_connected(Bigraph.complete(1, 1))
        assert not is_two_connected(Bigraph.empty(2, 2))

    @given(bigraphs(max_nx=4, max_ny=4))
    def test_matches_deletion_oracle(self, g: Bigraph) -> None:
        expect = oracles.two_connected_bruteforce(
            g, set(range(g.nx)), set(range(g.ny))
        )
        assert is_two_connected(g) == expect

    def test_masks_match_deletion_oracle(self) -> None:
        # the induced subgraph is read off the parent's rows, never built
        rng = random.Random(20261018)
        for _ in range(3000):
            nx, ny = rng.randint(0, 6), rng.randint(0, 6)
            edges = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < 0.85]
            g = Bigraph.from_edges(nx, ny, edges)
            xmask = sum(1 << i for i in range(nx) if rng.random() < 0.8)
            ymask = sum(1 << j for j in range(ny) if rng.random() < 0.8)
            expect = oracles.two_connected_bruteforce(g, set(bits(xmask)), set(bits(ymask)))
            assert two_connected_on(g, xmask, ymask) == expect, (g, xmask, ymask)


class TestCycleWitness:
    def test_validate_and_sets(self) -> None:
        g = Bigraph.complete(3, 3)
        c = CycleWitness(xs=(0, 1, 2), ys=(0, 1, 2))
        c.validate(g)
        assert c.m == 3
        assert c.x_set() == VertexSet.xs([0, 1, 2])

    def test_validate_rejects_missing_edge(self) -> None:
        g = Bigraph.complete(2, 2).without_edge(1, 0)
        c = CycleWitness(xs=(0, 1), ys=(0, 1))
        with pytest.raises(WitnessError):
            c.validate(g)

    def test_validate_rejects_repeats(self) -> None:
        g = Bigraph.complete(3, 3)
        with pytest.raises(WitnessError):
            CycleWitness(xs=(0, 0), ys=(0, 1)).validate(g)

    def test_canonical_is_rotation_invariant(self) -> None:
        a = CycleWitness(xs=(1, 2, 0), ys=(1, 2, 0))
        b = CycleWitness(xs=(2, 0, 1), ys=(2, 0, 1))
        assert a.canonical() == b.canonical()
        assert a.canonical().xs[0] == min(a.xs)

    def test_canonical_is_reflection_invariant(self) -> None:
        # same 8-cycle walked in both directions
        fwd = CycleWitness(xs=(0, 1, 2, 3), ys=(0, 1, 2, 3))
        rev = CycleWitness(xs=(0, 3, 2, 1), ys=(3, 2, 1, 0))
        assert fwd.canonical() == rev.canonical()

    def test_canonical_idempotent(self) -> None:
        c = CycleWitness(xs=(2, 1, 3), ys=(5, 0, 4))
        assert c.canonical().canonical() == c.canonical()

    def test_canonical_rejects_unequal_sides(self) -> None:
        with pytest.raises(WitnessError, match="equally many"):
            CycleWitness((0, 1), (0,)).canonical()

    def test_canonical_rejects_empty(self) -> None:
        with pytest.raises(WitnessError, match="at least one"):
            CycleWitness((), ()).canonical()

    def test_canonical_pinned(self) -> None:
        # values from small ranges, so that X-vertices repeat, the least
        # one included, as they do in witnesses that validate rejects
        rng = random.Random(3232)
        out = []
        least_repeats = 0
        for _ in range(3000):
            m = rng.randint(1, 9)
            hi = rng.choice((2, 3, 5, 12))
            xs = tuple(rng.randrange(hi) for _ in range(m))
            ys = tuple(rng.randrange(hi) for _ in range(m))
            least_repeats += xs.count(min(xs)) > 1
            c = CycleWitness(xs, ys).canonical()
            out.append([c.xs, c.ys])
        assert least_repeats > 1000
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "734c824c6b197df256c92346cc6d6f273aded486405135ba542f7e0f32b3a67d"

    def test_validate_outcomes_pinned(self) -> None:
        # None or the exception's type and message, on witnesses drawn
        # distinct and in range half the time, so that some validate
        rng = random.Random(3233)
        out = []
        sites = set()
        for _ in range(4000):
            nx, ny = rng.randint(1, 6), rng.randint(1, 6)
            top = (1 << ny) - 1
            dense = rng.random() < 0.5
            g = Bigraph(nx, ny, tuple(
                top & ~(rng.getrandbits(ny) & rng.getrandbits(ny) if dense else rng.getrandbits(ny))
                for _ in range(nx)
            ))
            m = rng.randint(0, 5)
            if rng.random() < 0.5:
                xs = rng.sample(range(nx), min(m, nx))
                ys = rng.sample(range(ny), min(m, ny))
            else:
                xs = [rng.randrange(-1, nx + 1) for _ in range(m)]
                ys = [rng.randrange(-1, ny + 1) for _ in range(m + (rng.random() < 0.2))]
            try:
                CycleWitness(tuple(xs), tuple(ys)).validate(g)
            except WitnessError as e:
                out.append([type(e).__name__, str(e)])
                site = re.sub(r"-?\d+", "#", str(e))
                if site.startswith("missing"):
                    x, y = map(int, re.findall(r"\d+", str(e)))
                    site += " own" if xs[ys.index(y)] == x else " next"
                sites.add(site)
            else:
                out.append(None)
                sites.add(None)
        assert len(sites) == 8, sites
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "600426d58a43f1271ecbb7f7c1cb88085030f0832f87d5620ee5836a44294286"

    def test_json_shape(self) -> None:
        c = CycleWitness(xs=(0, 1), ys=(2, 3))
        obj = c.to_json_obj()
        assert obj == {
            "cycle": [["x", 0], ["y", 2], ["x", 1], ["y", 3]]
        }
