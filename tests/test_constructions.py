"""Gadgets, difference-set designs, products, and padding."""

from __future__ import annotations

import itertools
import math

import pytest

try:
    from hypothesis import HealthCheck, assume, given, settings, strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

import genutil
import oracles
from strategies import bigraphs, dense_bigraphs

from dhp import (
    Bigraph,
    ConstructionError,
    DesignImportError,
    DesignSpec,
    DomainError,
    ParseError,
    ResourceLimitError,
    bipartite_product,
    biplane_from_difference_set,
    builtin_biplane,
    check_dhp,
    design_to_bigraph,
    design_violation,
    growth_report,
    import_design,
    iterated_product,
    pad_with_universal,
    pair_gadget,
    verify_design,
)


class TestPairGadget:
    def test_structure(self) -> None:
        g = pair_gadget(4)
        assert g.nx == 4 and g.ny == 2 * math.comb(4, 2)
        assert all(d == 2 for d in g.degrees_y())
        # each x meets two private ys per partner: degree 2 * (nx - 1)
        assert all(d == 6 for d in g.degrees_x())

    def test_trivial_case(self) -> None:
        g = pair_gadget(2)
        assert g.nx == 2 and g.ny == 2
        assert g.degrees_y() == [2, 2]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_always_dhp(self, n: int) -> None:
        assert check_dhp(pair_gadget(n)).holds

    def test_too_small(self) -> None:
        with pytest.raises(DomainError):
            pair_gadget(1)

    def test_matches_bit_at_a_time_build(self) -> None:
        # the loop the packed build replaced, which cost about n^4
        for n in range(2, 31):
            rows, y = [0] * n, 0
            for i, j in itertools.combinations(range(n), 2):
                for _ in range(2):
                    rows[i] |= 1 << y
                    rows[j] |= 1 << y
                    y += 1
            g, ref = pair_gadget(n), Bigraph(n, y, tuple(rows))
            assert (g, g.adj_y) == (ref, ref.adj_y)

    def test_side_cap_checked_before_building(self) -> None:
        import tracemalloc

        tracemalloc.start()
        try:
            # 1025 * 1024 Y-vertices is just past SIDE_LIMIT = 2**20
            with pytest.raises(ResourceLimitError):
                pair_gadget(1025)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBiplanes:
    def test_builtin_sizes_and_regularity(self) -> None:
        expected = {0: (2, 2), 1: (4, 3), 2: (7, 4), 3: (11, 5)}
        for order, (v, k) in expected.items():
            g = builtin_biplane(order)
            assert g.nx == v and g.ny == v
            assert set(g.degrees_x()) == {k}
            assert set(g.degrees_y()) == {k}

    def test_builtins_are_designs(self) -> None:
        for order in range(4):
            g = builtin_biplane(order)
            assert design_violation(g) is None
            spec = verify_design(g)
            assert spec is not None
            assert spec.lam == 2
            assert spec.order == order

    def test_unknown_order_points_at_import(self) -> None:
        with pytest.raises(DomainError) as exc:
            builtin_biplane(4)
        assert "import" in str(exc.value)
        with pytest.raises(DomainError):
            builtin_biplane(-1)

    def test_difference_set_construction(self) -> None:
        spec = biplane_from_difference_set(11, {1, 3, 4, 5, 9})
        g = design_to_bigraph(spec)
        assert verify_design(g) is not None
        assert g == builtin_biplane(3)

    def test_fano_complement_equals_difference_set_route(self) -> None:
        # the complement of a block of the Fano plane is itself a
        # difference set; both roads lead to the same order-2 biplane
        direct = design_to_bigraph(biplane_from_difference_set(7, {0, 3, 5, 6}))
        assert direct == builtin_biplane(2)

    def test_bad_difference_sets_rejected(self) -> None:
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(11, {0, 1, 2, 3, 4})
        with pytest.raises(ConstructionError):
            # counting identity k(k-1) = 2(v-1) fails
            biplane_from_difference_set(11, {1, 3, 4})
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(5, {0, 1, 7})
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(4, {0, 1, 1})


class TestDesignRoundTrip:
    def test_serialize_import_round_trip(self) -> None:
        # the biplane of order 2, one block per line in builtin_biplane(2)'s order
        text = "design 7 4 2\n0 3 5 6\n0 1 4 6\n0 1 2 5\n1 2 3 6\n0 2 3 4\n1 3 4 5\n2 4 5 6\n"
        spec = import_design(text)
        assert design_to_bigraph(spec) == builtin_biplane(2)
        assert verify_design(builtin_biplane(2)) == spec

    def test_import_rejects_bad_syntax(self) -> None:
        with pytest.raises(ParseError):
            import_design("plan 7 4 2\n")
        with pytest.raises(ParseError):
            import_design("design 7 4\n")
        with pytest.raises(ParseError):
            import_design("design 7 4 2\n0 1 2\n")

    def test_import_rejects_axiom_failures(self) -> None:
        # right shape, wrong combinatorics: all blocks identical
        lines = ["design 7 4 2"] + ["0 1 2 3"] * 7
        with pytest.raises(DesignImportError) as exc:
            import_design("\n".join(lines) + "\n")
        assert "axioms" in str(exc.value)

    def test_violation_messages(self) -> None:
        assert design_violation(builtin_biplane(2)) is None
        assert design_violation(pair_gadget(3)) is not None
        assert design_violation(Bigraph.complete(3, 3)) is not None
        assert verify_design(Bigraph.complete(3, 3)) is None

    def test_design_spec_validates_eagerly(self) -> None:
        with pytest.raises(ConstructionError):
            DesignSpec(
                v=3, k=2, lam=1, blocks=((0, 1), (1, 2))
            ).validate()


class TestProduct:
    def test_complete_times_complete(self) -> None:
        a = Bigraph.complete(2, 2)
        assert bipartite_product(a, a) == Bigraph.complete(4, 4)

    def test_identity_shape(self) -> None:
        cube = builtin_biplane(1)
        sq = bipartite_product(cube, cube)
        assert sq.nx == 16 and sq.ny == 16
        assert set(sq.degrees_x()) == {9}

    @given(bigraphs(max_nx=3, max_ny=3), bigraphs(max_nx=3, max_ny=3))
    def test_edge_rule(self, a: Bigraph, b: Bigraph) -> None:
        prod = bipartite_product(a, b)
        assert prod.nx == a.nx * b.nx and prod.ny == a.ny * b.ny
        for i1 in range(a.nx):
            for i2 in range(b.nx):
                for j1 in range(a.ny):
                    for j2 in range(b.ny):
                        assert prod.has_edge(
                            i1 * b.nx + i2, j1 * b.ny + j2
                        ) == (a.has_edge(i1, j1) and b.has_edge(i2, j2))

    @given(
        dense_bigraphs(min_nx=2, max_nx=3, min_ny=2, max_ny=3),
        dense_bigraphs(min_nx=2, max_nx=3, min_ny=2, max_ny=3),
    )
    # both factors must pass the check independently, so most drawn
    # pairs are rejected; that filtering is the point of the test
    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_preserves_dhp(self, a: Bigraph, b: Bigraph) -> None:
        assume(check_dhp(a).holds and check_dhp(b).holds)
        assert check_dhp(bipartite_product(a, b)).holds

    def test_size_guard(self) -> None:
        wide = Bigraph.empty(1 << 11, 1)
        with pytest.raises(ResourceLimitError):
            bipartite_product(wide, wide)

    def test_cell_guard_checks_every_power_before_building(self) -> None:
        import tracemalloc

        b3 = builtin_biplane(3)
        wide = Bigraph.empty(1 << 10, 1 << 10)
        tracemalloc.start()
        try:
            # 161051 per side passes the side cap; the cell count does not
            with pytest.raises(ResourceLimitError, match="cells"):
                iterated_product(b3, 5)
            with pytest.raises(ResourceLimitError, match="cells"):
                bipartite_product(wide, wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cell_guard_admits_a_fourth_power_of_order_three_size(self) -> None:
        # biplane(3)^4 has 14641 vertices per side; an empty graph of that
        # shape is cheap to build
        g = iterated_product(Bigraph.empty(11, 11), 4)
        assert (g.nx, g.ny, g.num_edges) == (14641, 14641, 0)

    def test_iterated_product(self) -> None:
        cube = builtin_biplane(1)
        assert iterated_product(cube, 1) == cube
        assert iterated_product(cube, 2) == bipartite_product(cube, cube)
        with pytest.raises(DomainError):
            iterated_product(cube, 0)

    def test_power_of_a_graph_with_sides_at_most_one_is_itself(self) -> None:
        # such a graph is its own product, so k = 10**12 would run 10**12 steps
        for g in (Bigraph.from_edges(1, 1, [(0, 0)]), Bigraph.empty(1, 1), Bigraph.empty(0, 1)):
            assert iterated_product(g, 10**12) == g
            assert bipartite_product(g, g) == g

    def test_growth_report(self) -> None:
        sq = iterated_product(builtin_biplane(1), 2)
        rep = growth_report(sq)
        assert rep["nx"] == 16 and rep["ny"] == 16
        assert rep["regular_degree"] == 9
        assert rep["alpha"] == pytest.approx(math.log(9) / math.log(16))

    def test_growth_report_on_irregular_graph(self) -> None:
        rep = growth_report(pair_gadget(3))
        assert rep["regular_degree"] is None
        assert rep["alpha"] is None


class TestPadding:
    def test_no_op_at_current_size(self) -> None:
        g = pair_gadget(3)
        assert pad_with_universal(g, g.nx) == g

    def test_added_vertices_are_universal(self) -> None:
        g = pair_gadget(3)
        padded = pad_with_universal(g, 5)
        assert padded.nx == 5
        # Y grows in step with X so the new vertices cannot starve old ones
        assert padded.ny == g.ny + 2
        for i in (3, 4):
            assert padded.degree_x(i) == padded.ny
        old_y_mask = (1 << g.ny) - 1
        for i in range(3):
            assert padded.adj_x[i] == g.adj_x[i]
            assert padded.adj_x[i] & ~old_y_mask == 0

    def test_shrinking_rejected(self) -> None:
        with pytest.raises(DomainError):
            pad_with_universal(pair_gadget(3), 2)

    @pytest.mark.parametrize("target", [40_000, 10**7])
    def test_oversized_target_rejected(self, target: int) -> None:
        # past the product's cell cap, then past its side cap; before the
        # caps a target of 10**7 ran for minutes
        with pytest.raises(ResourceLimitError):
            pad_with_universal(builtin_biplane(3), target)

    def test_padded_gadget_keeps_dhp(self) -> None:
        padded = pad_with_universal(pair_gadget(3), 8)
        assert padded.nx == 8
        assert all(padded.degree_x(i) == padded.ny for i in range(3, 8))
        assert check_dhp(padded).holds

    def test_tight_neighbourhood_loses_dhp(self) -> None:
        # K(2,2) has N({x0, x1}) of size exactly 2; one universal vertex
        # then demands three witnesses where only two exist
        padded = pad_with_universal(Bigraph.complete(2, 2), 3)
        v = check_dhp(padded)
        assert not v.holds
        assert v.witness["S"] == [0, 1, 2]

    @given(dense_bigraphs(min_nx=2, max_nx=4, min_ny=2, max_ny=5), st.integers(1, 3))
    @settings(deadline=None)
    def test_padding_preserves_dhp_without_tight_subsets(
        self, g: Bigraph, extra: int
    ) -> None:
        assume(check_dhp(g).holds)
        padded = pad_with_universal(g, g.nx + extra)
        tight = any(
            len(oracles.lambda1(g, s)) == len(s)
            for s in oracles.subsets_of_size_at_least(range(g.nx), 2)
        )
        assert check_dhp(padded).holds == (not tight)


class TestGrowthFromSamples:
    def test_products_of_sampled_dhp_graphs(self) -> None:
        pool = genutil.dhp_samples(515, 12)
        for a, b in zip(pool[::2], pool[1::2]):
            prod = bipartite_product(a, b)
            assert check_dhp(prod).holds
