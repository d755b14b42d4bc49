"""Core graph type: construction, set algebra, witnesses, connectivity."""

from __future__ import annotations

import random
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
    PathWitness,
    ResourceLimitError,
    SIDE_LIMIT,
    VertexSet,
    WitnessError,
    X_SIDE,
    Y_SIDE,
    bipartite_complement,
    induced_subgraph,
    is_two_connected,
    neighborhood_at_least,
    pair_gadget,
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
        assert a.union(b).indices == (0, 1, 2, 4)
        assert a.intersection(b).indices == (2,)
        assert a.difference(b).indices == (0, 1)
        assert b.issubset(a.union(b))
        assert not a.issubset(b)

    def test_side_mismatch_rejected(self) -> None:
        with pytest.raises(GraphInputError):
            VertexSet.xs([0]).union(VertexSet.ys([0]))
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
        want = Bigraph(nx, ny, rows)
        got = Bigraph.from_dense(mat)
        assert got == want
        assert got.adj_y == want.adj_y
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
        rebuilt = Bigraph(g.nx, g.ny, g.adj_x)
        assert time.perf_counter() - t0 < 2.0
        assert rebuilt.adj_y == g.adj_y

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

    @given(bigraphs())
    def test_complement_involution(self, g: Bigraph) -> None:
        assert bipartite_complement(bipartite_complement(g)) == g

    def test_complement_edges(self) -> None:
        g = Bigraph.from_edges(2, 2, [(0, 0), (1, 1)])
        c = bipartite_complement(g)
        assert sorted(c.edges()) == [(0, 1), (1, 0)]


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
        assert c.vertices()[0] == (X_SIDE, 0)
        assert len(c.vertices()) == 6

    def test_validate_rejects_missing_edge(self) -> None:
        g = Bigraph.complete(2, 2).without_edge(1, 0)
        c = CycleWitness(xs=(0, 1), ys=(0, 1))
        with pytest.raises(WitnessError):
            c.validate(g)
        assert not c.is_valid(g)

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

    def test_json_shape(self) -> None:
        c = CycleWitness(xs=(0, 1), ys=(2, 3))
        obj = c.to_json_obj()
        assert obj == {
            "cycle": [["x", 0], ["y", 2], ["x", 1], ["y", 3]]
        }


class TestPathWitness:
    def test_validate_good_path(self) -> None:
        g = Bigraph.complete(2, 3)
        p = PathWitness(((Y_SIDE, 0), (X_SIDE, 0), (Y_SIDE, 1), (X_SIDE, 1)))
        p.validate(g)
        assert p.endpoint_sides() == (Y_SIDE, X_SIDE)
        assert p.x_indices() == (0, 1)
        assert p.y_indices() == (0, 1)

    def test_rejects_non_alternating(self) -> None:
        g = Bigraph.complete(2, 2)
        with pytest.raises(WitnessError):
            PathWitness(((X_SIDE, 0), (X_SIDE, 1))).validate(g)

    def test_rejects_missing_edge(self) -> None:
        g = Bigraph.empty(1, 1)
        with pytest.raises(WitnessError):
            PathWitness(((X_SIDE, 0), (Y_SIDE, 0))).validate(g)

    def test_trivial_path_gate(self) -> None:
        g = Bigraph.complete(1, 1)
        solo = PathWitness(((X_SIDE, 0),))
        assert solo.is_trivial
        with pytest.raises(WitnessError):
            solo.validate(g)
        solo.validate(g, allow_trivial=True)
