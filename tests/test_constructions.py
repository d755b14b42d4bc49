"""Gadgets, difference-set designs, products, and padding."""

from __future__ import annotations

import hashlib
import itertools
import math
import time

import pytest

try:
    from hypothesis import HealthCheck, assume, given, settings, strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

import genutil
import oracles
from strategies import bigraphs, dense_bigraphs

from dhp import (
    BUILTIN_BIPLANE_ORDERS,
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
    check_degree_bound,
    check_dhp,
    design_to_bigraph,
    design_violation,
    growth_report,
    import_design,
    iterated_product,
    pad_with_universal,
    pair_gadget,
    serialize_bigraph,
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
            rows, cols, y = [0] * n, [], 0
            for i, j in itertools.combinations(range(n), 2):
                for _ in range(2):
                    rows[i] |= 1 << y
                    rows[j] |= 1 << y
                    cols.append((1 << i) | (1 << j))  # the column's two endpoints
                    y += 1
            g = pair_gadget(n)
            assert (g, g.adj_y) == (Bigraph(n, y, tuple(rows)), tuple(cols))

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


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: biplane_from_difference_set(7, [1, 1, 2, 4]), ConstructionError),
        (lambda: import_design(""), ParseError),
        (lambda: import_design("# a comment alone\n"), ParseError),
        (lambda: import_design("design 2 2 1\n0 1\n0\n"), ParseError),
    ],
    ids=["repeated-difference", "empty-file", "comment-only-file", "block-size-not-k"],
)
def test_design_input_guards(call, error) -> None:
    with pytest.raises(error):
        call()


def test_design_violation_names_an_irregular_y_side() -> None:
    # every X-degree is 2, but y0 is seen three times
    g = Bigraph(3, 3, (0b011, 0b011, 0b101))
    assert design_violation(g) == "not regular: deg(y0) = 3 but deg(x0) = 2"
    assert verify_design(g) is None


class TestBiplanes:
    def test_builtin_sizes_and_regularity(self) -> None:
        expected = {0: (2, 2), 1: (4, 3), 2: (7, 4), 3: (11, 5), 4: (16, 6), 7: (37, 9)}
        assert BUILTIN_BIPLANE_ORDERS == tuple(expected) == (0, 1, 2, 3, 4, 7)
        for order, (v, k) in expected.items():
            g = builtin_biplane(order)
            assert g.nx == v and g.ny == v
            assert set(g.degrees_x()) == {k}
            assert set(g.degrees_y()) == {k}

    @pytest.mark.parametrize(
        "order, digest",
        [
            (0, "791ac3e56a85be20a2e8ecc7fcfe01bca10432711212cb1a126ae6d258f7ed20"),
            (1, "9b5a8959e10743d44176c83b93862e8c777b35717920970e7c6c2d5ee37e6a60"),
            (2, "57f6f5e8cf79e8d22b78b6092df48fae88306001592b42bc6f14ceceb8a4e546"),
            (3, "af42d5cb6789dcb1cb65851f499c373c925c41192c226e86b7a59fa80c78ff3f"),
        ],
    )
    def test_builtin_edge_lists_pinned(self, order: int, digest: str) -> None:
        # sha256 of the edge-list file, recorded before the built-ins moved
        # to one difference-set table
        text = serialize_bigraph(builtin_biplane(order))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_builtins_are_designs(self) -> None:
        for order in BUILTIN_BIPLANE_ORDERS:
            g = builtin_biplane(order)
            assert design_violation(g) is None
            spec = verify_design(g)
            assert spec is not None
            assert spec.lam == 2
            assert spec.order == order

    @pytest.mark.parametrize("order", [4, 7])
    def test_new_orders_are_dhp_and_tight(self, order: int) -> None:
        g = builtin_biplane(order)
        assert check_dhp(g).holds
        assert check_degree_bound(g, verify_dhp=True).tight

    def test_unknown_order_points_at_import(self) -> None:
        with pytest.raises(DomainError) as exc:
            builtin_biplane(5)
        assert "import_design" in str(exc.value)
        assert "{3, 4, 5, 6, 9, 11, 13}" in str(exc.value)
        with pytest.raises(DomainError):
            builtin_biplane(-1)

    def test_difference_set_construction(self) -> None:
        spec = biplane_from_difference_set(11, {1, 3, 4, 5, 9})
        g = design_to_bigraph(spec)
        assert verify_design(g) is not None
        assert g == builtin_biplane(3)

    def test_fano_complement_equals_difference_set_route(self) -> None:
        # {0, 3, 5, 6} is the complement of the Fano plane's difference set
        # {1, 2, 4}; both roads lead to the same order-2 biplane
        fano = design_to_bigraph(DesignSpec(7, 3, 1, tuple(
            tuple(sorted((x + t) % 7 for x in (1, 2, 4))) for t in range(7)
        )))
        complement = Bigraph(7, 7, tuple(row ^ 0x7F for row in fano.adj_x))
        direct = design_to_bigraph(biplane_from_difference_set(7, {0, 3, 5, 6}))
        assert direct == complement == builtin_biplane(2)

    def test_bad_difference_sets_rejected(self) -> None:
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(11, {0, 1, 2, 3, 4})
        with pytest.raises(ConstructionError):
            # 6 differences cannot hit 10 residues twice each
            biplane_from_difference_set(11, {1, 3, 4})
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(5, {0, 1, 7})
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(4, {0, 1, 1})
        with pytest.raises(ConstructionError):
            biplane_from_difference_set(1, set())

    def test_accepts_exactly_the_sets_whose_development_is_a_biplane(self) -> None:
        # every subset of Z_v for v <= 11: the one residue check against the
        # design axioms of the development
        for v in range(1, 12):
            for k in range(v + 1):
                for base in itertools.combinations(range(v), k):
                    blocks = tuple(tuple(sorted((x + t) % v for x in base)) for t in range(v))
                    valid = DesignSpec(v, k, 2, blocks).violation() is None
                    try:
                        spec = biplane_from_difference_set(v, base)
                    except ConstructionError:
                        assert not valid, (v, base)
                    else:
                        assert valid, (v, base)
                        assert spec == DesignSpec(v, k, 2, blocks)

    def test_large_bad_sets_rejected_before_development(self, monkeypatch) -> None:
        from dhp import constructions

        def never(*args):
            raise AssertionError("developed a rejected set")

        monkeypatch.setattr(constructions, "_development", never)
        with pytest.raises(ConstructionError, match="difference 2 arises 1 times"):
            biplane_from_difference_set(10**12, {0, 1, 2})
        # 200 elements and v = C(200, 2) + 1: as many differences as two per residue
        with pytest.raises(ConstructionError, match="difference 1 arises 199 times"):
            biplane_from_difference_set(19901, range(200))


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

    def test_violations_match_tuple_loop_reference(self) -> None:
        specs = list(genutil.iter_design_specs(21, 1500))
        assert sum(oracles.design_spec_violation_reference(s) is None for s in specs) > 100
        for spec in specs:
            assert spec.violation() == oracles.design_spec_violation_reference(spec)
        graphs = [
            design_to_bigraph(s)
            for s in specs
            if all(0 <= pt < s.v for block in s.blocks for pt in block)
        ]
        graphs += list(genutil.iter_random_bigraphs(22, 200))
        graphs += [builtin_biplane(o) for o in BUILTIN_BIPLANE_ORDERS]
        assert len(graphs) >= 1000
        assert sum(oracles.design_violation_reference(g) is None for g in graphs) > 50
        for g in graphs:
            assert design_violation(g) == oracles.design_violation_reference(g)

    def test_complete_design_imports_quickly(self) -> None:
        # k = lambda = v: C(240, 2) pairs of 240-point blocks, which took
        # about 20 s as tuple-membership loops
        line = " ".join(map(str, range(240))) + "\n"
        text = "design 240 240 240\n" + line * 240
        start = time.perf_counter()
        spec = import_design(text)
        assert time.perf_counter() - start < 2.0
        assert spec.order == 0 and len(spec.blocks) == 240

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

    @pytest.mark.parametrize(
        "g",
        [
            iterated_product(builtin_biplane(2), 2),
            Bigraph.complete(4, 4),
            Bigraph.complete(3, 3),
            Bigraph.empty(3, 3),
            Bigraph.empty(0, 0),
            Bigraph.complete(3, 4),
            pair_gadget(4),
            # every X-degree is 2, but the Y-degrees are 3, 2 and 1
            Bigraph.from_edges(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2)]),
        ],
        ids=repr,
    )
    def test_growth_report_counts_columns_without_the_mirror(self, g: Bigraph) -> None:
        rep = growth_report(g)
        assert "adj_y" not in g.__dict__
        degs = g.degrees_x() + g.degrees_y()
        regular = g.nx == g.ny and len(set(degs)) == 1
        assert rep["regular_degree"] == (degs[0] if regular else None)


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
