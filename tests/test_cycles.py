"""Cycle search, path rotation, virtual-edge absorption, and the two
constructive covering-cycle solvers."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

import genutil
import oracles
from strategies import bigraphs, dense_bigraphs, graph_with_xs

from dhp import (
    Bigraph,
    BudgetExceededError,
    DomainError,
    GraphInputError,
    PathWitness,
    ResourceLimitError,
    VertexSet,
    WorkBudget,
    X_SIDE,
    Y_SIDE,
    absorb_virtual_edge,
    builtin_biplane,
    check_dhp,
    find_cycle_covering,
    find_disjoint_cycle_cover,
    hall_violator,
    max_matching,
    pair_gadget,
    rotate_path_to_cycle,
    sample_bipartite,
    sample_gnnp,
    solve_degree_split,
    solve_high_degree,
    threshold_p,
)
from dhp.cycles import (
    CYCLE_TARGET_LIMIT,
    _min_path_cover_exact,
    _min_path_cover_greedy,
    _search_exact_cycle,
    _yy_path_system,
)


def _two_path_instance() -> Bigraph:
    """n = 21, k = 4: x0 and x1 are the only low-degree X-vertices and
    need two disjoint Y..Y paths, which the solver joins through x2."""
    return Bigraph(21, 21, tuple([0b11100, 0b10111] + [(1 << 21) - 1] * 19))


def _dhp_units(g: Bigraph) -> int:
    b = WorkBudget(10**6, "node")
    check_dhp(g, budget=b)
    return 10**6 - b.remaining


class TestMatching:
    def _instance(self, sets: list[set[int]]) -> list[int]:
        return [sum(1 << y for y in s) for s in sets]

    @given(
        st.lists(
            st.sets(st.integers(0, 5), min_size=0, max_size=4),
            min_size=0,
            max_size=5,
        )
    )
    def test_matching_size_matches_oracle(self, sets: list[set[int]]) -> None:
        inst = self._instance(sets)
        got = max_matching(inst)
        assert len(got) == oracles.max_matching_bruteforce(sets)
        used = list(got.values())
        assert len(used) == len(set(used))
        for left, y in got.items():
            assert y in sets[left]

    @given(
        st.lists(
            st.sets(st.integers(0, 4), min_size=0, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_hall_violator_certificate(self, sets: list[set[int]]) -> None:
        inst = self._instance(sets)
        bad = hall_violator(inst)
        saturated = oracles.max_matching_bruteforce(sets) == len(sets)
        assert (bad is None) == saturated
        if bad is not None:
            union = set().union(*(sets[i] for i in bad))
            assert len(union) < len(bad)

    def test_outputs_pinned(self) -> None:
        """sha256 of both results on 300 seeded row lists, recorded while
        the matching ran on ``MatchingInstance``'s ranked right side."""
        rng = random.Random(1415)
        out = []
        for _ in range(300):
            sets = [
                set(rng.sample(range(8), rng.randrange(0, 5)))
                for _ in range(rng.randrange(1, 8))
            ]
            inst = self._instance(sets)
            out.append([sorted(max_matching(inst).items()), hall_violator(inst)])
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "25fd548c732c97067dc97a3d707161e11d4951a162248f860107d83bac6fafca"


class TestFindCycleCovering:
    @given(graph_with_xs())
    @settings(deadline=None)
    def test_exact_mode_matches_oracle(self, gx) -> None:
        g, xs = gx
        cyc = find_cycle_covering(g, VertexSet.xs(xs))
        assert (cyc is not None) == oracles.covering_cycle_exists(g, xs)
        if cyc is not None:
            cyc.validate(g)
            assert sorted(cyc.xs) == xs

    @given(graph_with_xs())
    @settings(deadline=None)
    def test_cover_mode_returns_smallest_superset(self, gx) -> None:
        g, xs = gx
        cyc = find_cycle_covering(g, VertexSet.xs(xs), exact_x=False)
        if cyc is None:
            # no superset works either, in particular not xs itself
            assert not oracles.covering_cycle_exists(g, xs)
            return
        cyc.validate(g)
        assert set(xs) <= set(cyc.xs)
        if oracles.covering_cycle_exists(g, xs):
            assert sorted(cyc.xs) == xs

    def test_returns_canonical_form(self) -> None:
        g = Bigraph.complete(3, 3)
        cyc = find_cycle_covering(g, g.full_x())
        assert cyc is not None
        assert cyc == cyc.canonical()
        assert cyc == find_cycle_covering(g, g.full_x())

    def test_rejects_bad_targets(self) -> None:
        g = Bigraph.complete(3, 3)
        with pytest.raises(DomainError):
            find_cycle_covering(g, VertexSet.xs([0]))
        with pytest.raises(GraphInputError):
            find_cycle_covering(g, VertexSet.ys([0, 1]))
        with pytest.raises(GraphInputError):
            find_cycle_covering(g, VertexSet.xs([0, 7]))

    def test_target_past_side_limit_rejected_before_allocating(self) -> None:
        import tracemalloc

        tracemalloc.start()
        try:
            # a mask with bit 10**8 set would take 12.5 MB
            with pytest.raises(GraphInputError):
                find_cycle_covering(Bigraph.complete(3, 3), VertexSet.xs([0, 10**8]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_exhaustion(self) -> None:
        g = Bigraph.complete(6, 6)
        with pytest.raises(BudgetExceededError):
            find_cycle_covering(g, g.full_x(), budget=3)


def _ham_sample(n: int, c: float, seed: int) -> Bigraph:
    return sample_gnnp(n, threshold_p(n, c, "hamiltonian").p, seed)


# Whole-X searches pinned from the search before its undo-log rewrite:
# (graph, nodes spent, cycle X-order, cycle Y-vertices).
PINNED_CYCLE_SEARCHES = {
    "K(6,6)": (
        lambda: Bigraph.complete(6, 6), 6, (0, 5, 4, 3, 2, 1), (0, 1, 2, 3, 4, 5)
    ),
    "builtin_biplane(2)": (
        lambda: builtin_biplane(2), 7, (0, 6, 5, 4, 3, 2, 1), (0, 6, 5, 4, 3, 2, 1)
    ),
    "builtin_biplane(3)": (
        lambda: builtin_biplane(3),
        11,
        (0, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1),
        (6, 5, 4, 3, 2, 1, 0, 10, 9, 8, 7),
    ),
    "ham n=14 c=0 seed 28": (
        lambda: _ham_sample(14, 0.0, 28),
        861,
        (0, 12, 7, 10, 13, 9, 11, 4, 6, 8, 2, 5, 3, 1),
        (4, 12, 2, 8, 5, 10, 0, 1, 3, 7, 6, 13, 11, 9),
    ),
    "ham n=14 c=0 seed 34": (
        lambda: _ham_sample(14, 0.0, 34),
        2207,
        (0, 1, 2, 3, 8, 12, 11, 6, 13, 10, 4, 9, 7, 5),
        (3, 9, 5, 7, 13, 11, 12, 2, 1, 4, 6, 10, 0, 8),
    ),
}


def _capped_search(search, g: Bigraph, targets: list[int], cap: int):
    """(cycle as (xs, ys) or None, nodes spent), or "exhausted"."""
    b = WorkBudget(cap, "node")
    try:
        cyc = search(g, targets, b)
    except BudgetExceededError:
        return "exhausted"
    return (None if cyc is None else (cyc.xs, cyc.ys)), cap - b.remaining


class TestExactCycleSearch:
    """The undo-log search keeps the reference search's canonical order:
    same cycle, same Y-vertices, same node count, so a capped search runs
    out at the same node."""

    @pytest.mark.parametrize("name", sorted(PINNED_CYCLE_SEARCHES))
    def test_pinned_searches(self, name: str) -> None:
        build, nodes, xs, ys = PINNED_CYCLE_SEARCHES[name]
        g = build()
        targets = list(range(g.nx))
        assert _capped_search(_search_exact_cycle, g, targets, 10**6) == ((xs, ys), nodes)
        assert _capped_search(_search_exact_cycle, g, targets, nodes - 1) == "exhausted"

    def test_matches_reference_search(self) -> None:
        rng = random.Random(4002)
        found = 0
        for _ in range(1000):
            nx = rng.randrange(2, 9)
            ny = rng.randrange(2, 11)
            g = genutil.rand_bigraph(rng, nx, ny, rng.choice((0.3, 0.5, 0.7, 0.9)))
            if rng.random() < 0.5:
                targets = list(range(nx))
            else:
                targets = sorted(rng.sample(range(nx), rng.randrange(2, nx + 1)))
            ref = _capped_search(oracles.exact_cycle_search_reference, g, targets, 10**6)
            assert _capped_search(_search_exact_cycle, g, targets, 10**6) == ref
            units = ref[1]
            if units:
                for search in (oracles.exact_cycle_search_reference, _search_exact_cycle):
                    assert _capped_search(search, g, targets, units - 1) == "exhausted"
                    assert _capped_search(search, g, targets, units) == ref
            found += ref[0] is not None
        assert 300 <= found <= 700

    def test_target_cap_rejects_a_larger_search(self) -> None:
        g = Bigraph.complete(500, 500)  # raised RecursionError before the cap
        with pytest.raises(ResourceLimitError):
            find_cycle_covering(g, g.full_x())

    def test_target_cap_admits_its_own_size(self) -> None:
        g = Bigraph.complete(CYCLE_TARGET_LIMIT, CYCLE_TARGET_LIMIT)
        cyc = find_cycle_covering(g, g.full_x())
        assert cyc is not None and len(cyc.xs) == CYCLE_TARGET_LIMIT
        cyc.validate(g)

    def test_target_cap_applies_to_each_superset(self) -> None:
        # x0 has one neighbour, so every set holding it fails before search;
        # the first superset past the cap raises instead of searching
        n = CYCLE_TARGET_LIMIT + 1
        g = Bigraph(n, n, tuple([1] + [(1 << n) - 1] * (n - 1)))
        with pytest.raises(ResourceLimitError):
            find_cycle_covering(g, VertexSet.xs(range(n - 1)), exact_x=False)


class TestDisjointCycleCover:
    @given(dense_bigraphs(min_nx=2, max_nx=5, min_ny=2, max_ny=5))
    @settings(deadline=None)
    def test_matches_exact_cover_oracle(self, g: Bigraph) -> None:
        cover = find_disjoint_cycle_cover(g)
        assert (cover is not None) == oracles.disjoint_cover_exists(g)
        if cover is None:
            return
        seen_x: set[int] = set()
        seen_y: set[int] = set()
        for cyc in cover:
            cyc.validate(g)
            assert not (set(cyc.xs) & seen_x)
            assert not (set(cyc.ys) & seen_y)
            seen_x |= set(cyc.xs)
            seen_y |= set(cyc.ys)
        assert seen_x == set(range(g.nx))

    def test_empty_graph_has_empty_cover(self) -> None:
        assert find_disjoint_cycle_cover(Bigraph.empty(0, 3)) == []

    def test_single_pair_needs_two_commons(self) -> None:
        g = Bigraph.from_edges(2, 2, [(0, 0), (1, 0), (0, 1)])
        assert find_disjoint_cycle_cover(g) is None
        assert find_disjoint_cycle_cover(g.with_edge(1, 1)) is not None

    @pytest.mark.parametrize(
        "make, nodes, cover",
        [
            (lambda: pair_gadget(4), 33, [((0, 1), (0, 1)), ((2, 3), (10, 11))]),
            (
                lambda: sample_bipartite(8, 9, 0.35, 5),
                99,
                [((0, 3, 4, 5, 1, 2, 7, 6), (3, 7, 1, 5, 4, 8, 2, 6))],
            ),
            (lambda: sample_bipartite(8, 8, 0.45, 0), 52, None),
        ],
    )
    def test_search_order_and_nodes_are_pinned(self, make, nodes, cover) -> None:
        # recorded from the recursive search the explicit stack replaced
        b = WorkBudget(10**6, "node")
        found = find_disjoint_cycle_cover(make(), budget=b)
        assert 10**6 - b.remaining == nodes
        assert (None if found is None else [(c.xs, c.ys) for c in found]) == cover

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self) -> None:
        # one 2n-cycle, so the search runs n = 1100 X-vertices deep
        n = 1100
        g = Bigraph(n, n, tuple((1 << i) | (1 << (i + 1) % n) for i in range(n)))
        b = WorkBudget(10**6, "node")
        cover = find_disjoint_cycle_cover(g, budget=b)
        assert [len(c.xs) for c in cover] == [n]
        assert 10**6 - b.remaining == n + 1


def _any_covering_yy_path(g: Bigraph) -> PathWitness | None:
    """First Y-to-Y path through every X-vertex, by plain backtracking."""

    def extend(seq: list[tuple[str, int]], used_x: set[int], used_y: set[int]):
        if len(used_x) == g.nx:
            return list(seq)
        last_y = seq[-1][1]
        for x in range(g.nx):
            if x in used_x or not g.has_edge(x, last_y):
                continue
            for y in range(g.ny):
                if y in used_y or not g.has_edge(x, y):
                    continue
                seq.append((X_SIDE, x))
                seq.append((Y_SIDE, y))
                got = extend(seq, used_x | {x}, used_y | {y})
                if got is not None:
                    return got
                seq.pop()
                seq.pop()
        return None

    for y0 in range(g.ny):
        got = extend([(Y_SIDE, y0)], set(), {y0})
        if got is not None:
            return PathWitness(tuple(got))
    return None


class TestRotation:
    def test_planted_instances_close(self) -> None:
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randrange(3, 9)
            g, path = genutil.planted_path_instance(rng, n)
            cyc = rotate_path_to_cycle(g, path)
            cyc.validate(g)
            assert cyc.x_set() == g.full_x()

    def test_trivial_two_vertex_case(self) -> None:
        g = Bigraph.complete(2, 3)
        path = PathWitness(
            ((Y_SIDE, 0), (X_SIDE, 0), (Y_SIDE, 1), (X_SIDE, 1), (Y_SIDE, 2))
        )
        cyc = rotate_path_to_cycle(g, path)
        cyc.validate(g)

    def test_requires_y_endpoints(self) -> None:
        g = Bigraph.complete(2, 2)
        bad = PathWitness(((X_SIDE, 0), (Y_SIDE, 0), (X_SIDE, 1)))
        with pytest.raises(GraphInputError):
            rotate_path_to_cycle(g, bad)

    def test_requires_full_x_coverage(self) -> None:
        g = Bigraph.complete(3, 3)
        partial = PathWitness(
            ((Y_SIDE, 0), (X_SIDE, 0), (Y_SIDE, 1), (X_SIDE, 1), (Y_SIDE, 2))
        )
        with pytest.raises(GraphInputError):
            rotate_path_to_cycle(g, partial)

    def test_degree_starved_path_yields_none(self) -> None:
        # endpoints of degree 1 each: the guarantee premise fails, no
        # pivot exists, and the attempt reports None rather than a cycle
        g = Bigraph.from_edges(
            2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]
        )
        path = PathWitness(
            ((Y_SIDE, 0), (X_SIDE, 0), (Y_SIDE, 1), (X_SIDE, 1), (Y_SIDE, 2))
        )
        assert rotate_path_to_cycle(g, path) is None

    @given(dense_bigraphs(min_nx=3, max_nx=6, min_ny=4, max_ny=7))
    @settings(deadline=None)
    def test_guarantee_premise_forces_success(self, g: Bigraph) -> None:
        # build any covering Y-Y path, then only keep cases meeting the
        # endpoint degree premise; rotation must then always close it
        path = _any_covering_yy_path(g)
        assume(path is not None)
        first = path.vertices[0][1]
        last = path.vertices[-1][1]
        assume(g.degree_y(first) + g.degree_y(last) >= g.nx + 2)
        cyc = rotate_path_to_cycle(g, path)
        assert cyc is not None
        cyc.validate(g)
        assert cyc.x_set() == g.full_x()


@st.composite
def _near_complete_with_gap(draw):
    """A complete bigraph minus a few edges, plus one chosen non-edge."""
    nx = draw(st.integers(3, 6))
    ny = draw(st.integers(nx, nx + 2))
    g = Bigraph.complete(nx, ny)
    k = draw(st.integers(1, nx - 1))
    removals = draw(
        st.lists(
            st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    for i, j in removals:
        g = g.without_edge(i, j)
    return g, removals[0]


class TestAbsorption:
    def _aug_cycle_through(self, g: Bigraph, x: int, y: int):
        aug = g.with_edge(x, y)
        return find_cycle_covering(aug, aug.full_x())

    @given(_near_complete_with_gap())
    @settings(deadline=None)
    def test_absorbs_when_guarantees_hold(self, case) -> None:
        g, (x, y) = case
        n = g.nx
        assume(g.degree_x(x) + g.degree_y(y) >= n + 1)
        assume(all(2 * g.degree_y(j) > n + 1 for j in range(g.ny)))
        cyc = self._aug_cycle_through(g, x, y)
        assert cyc is not None
        diag: dict = {}
        out = absorb_virtual_edge(g, x, y, cyc, diagnostics=diag)
        assert out is not None
        out.validate(g)
        assert out.x_set() == g.full_x()
        assert diag["case"] in ("unused", "off-path", "on-path")

    def test_unused_virtual_edge_passes_through(self) -> None:
        g = Bigraph.complete(3, 3).without_edge(0, 0)
        cyc = find_cycle_covering(g, g.full_x())
        assert cyc is not None
        diag: dict = {}
        out = absorb_virtual_edge(g, 0, 0, cyc, diagnostics=diag)
        assert diag["case"] == "unused"
        assert out == cyc.canonical()

    def test_rejects_existing_edge(self) -> None:
        g = Bigraph.complete(2, 2)
        cyc = find_cycle_covering(g, g.full_x())
        with pytest.raises(DomainError):
            absorb_virtual_edge(g, 0, 0, cyc)

    def test_diagnostics_on_forced_failure(self) -> None:
        # a four-cycle through the virtual edge with nothing to pivot on
        g = Bigraph.from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
        aug = g.with_edge(0, 1)
        cyc = find_cycle_covering(aug, aug.full_x())
        assert cyc is not None
        diag: dict = {}
        assert absorb_virtual_edge(g, 0, 1, cyc, diagnostics=diag) is None
        assert diag["case"] == "failed"
        assert diag["degree_pair_ok"] is False


class TestHighDegreeSolver:
    def test_planted_low_degree_vertex(self) -> None:
        # x0 sees only two Y-vertices; everything else is complete except
        # one private miss per X-vertex
        n = 8
        rows = [0b11] + [((1 << n) - 1) & ~(1 << i) for i in range(2, n + 1)]
        rows = [rows[0]] + rows[1:]
        g = Bigraph(n, n, tuple(rows))
        cyc = solve_high_degree(g, 2)
        cyc.validate(g)
        assert cyc.x_set() == g.full_x()

    def test_generated_conforming_instances(self) -> None:
        for k in (0, 1, 2):
            for g in genutil.high_degree_instances(400 + k, k, 25):
                cyc = solve_high_degree(g, k)
                cyc.validate(g)
                assert cyc.x_set() == g.full_x()

    def test_size_floor_enforced(self) -> None:
        with pytest.raises(DomainError):
            solve_high_degree(Bigraph.complete(6, 6), 2)

    def test_y_degree_floor_enforced(self) -> None:
        g = Bigraph.complete(8, 8).without_edge(0, 0).without_edge(1, 0)
        g = g.without_edge(2, 0)
        with pytest.raises(DomainError):
            solve_high_degree(g, 2)

    def test_non_dhp_rejected(self) -> None:
        # verify=True is the default; a non-dHp graph trips the check
        g = Bigraph.from_edges(
            8, 8, [(i, j) for i in range(8) for j in range(8) if i > 1 or j < 1]
        )
        with pytest.raises(DomainError):
            solve_high_degree(g, 2)

    def test_narrow_y_side_rejected(self) -> None:
        with pytest.raises(DomainError):
            solve_high_degree(Bigraph.complete(8, 7), 2)

    def test_paths_joined_through_high_degree_vertex(self) -> None:
        g = _two_path_instance()
        assert len(_yy_path_system(g, [0, 1], WorkBudget(100))) == 2
        cyc = solve_high_degree(g, 4)
        cyc.validate(g)
        assert cyc.x_set() == g.full_x()
        assert cyc.xs == (0, 2, 1, *range(20, 2, -1))
        assert cyc.ys == (2, 1, 0, *range(20, 2, -1))

    def test_verification_is_charged_to_the_passed_budget(self) -> None:
        g = _two_path_instance()
        with pytest.raises(BudgetExceededError):
            solve_high_degree(g, 4, budget=WorkBudget(3, "node"))
        b = WorkBudget(10**6, "node")
        solve_high_degree(g, 4, budget=b)
        assert 10**6 - b.remaining >= _dhp_units(g)


class TestDegreeSplitSolver:
    def test_pair_gadget_solves(self) -> None:
        g = pair_gadget(4)
        cyc = solve_degree_split(g)
        assert cyc is not None
        cyc.validate(g)
        assert cyc.x_set() == g.full_x()

    def test_generated_instances_match_oracle(self) -> None:
        for g in genutil.degree_class_instances(77, 40):
            cyc = solve_degree_split(g)
            exists = oracles.covering_cycle_exists(g, range(g.nx))
            assert (cyc is not None) == exists
            if cyc is not None:
                cyc.validate(g)
                assert cyc.x_set() == g.full_x()

    def test_junction_matching_outputs_pinned(self, monkeypatch) -> None:
        """sha256 of the cycles and node counts on 60 seeded instances,
        recorded while the junction matching ran on ``MatchingInstance``;
        most of them need two or more paths, so the matching runs."""
        from dhp import cycles

        matchings = []
        real = cycles.max_matching

        def counted(*args):
            matchings.append(1)
            return real(*args)

        monkeypatch.setattr(cycles, "max_matching", counted)
        out = []
        for g in genutil.degree_class_instances(1414, 60):
            b = WorkBudget(10**6, "node")
            cyc = solve_degree_split(g, budget=b)
            out.append([None if cyc is None else [cyc.xs, cyc.ys], 10**6 - b.remaining])
        assert len(matchings) >= 50
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "0b2cec48a886e723666989d63a40d1a64a2992970519ffbd3674430165de6b60"

    def test_degree_class_enforced(self) -> None:
        # a Y-vertex of degree 3 in a 6-X graph sits in no allowed class
        g = Bigraph.complete(6, 6).without_edge(0, 0).without_edge(1, 0)
        g = g.without_edge(2, 0)
        with pytest.raises(DomainError) as exc:
            solve_degree_split(g)
        assert "Y-vertex 0" in str(exc.value)

    def test_non_dhp_rejected(self) -> None:
        g = Bigraph.empty(4, 4)
        with pytest.raises(DomainError):
            solve_degree_split(g)

    def test_greedy_path_cover_beyond_exact_size(self) -> None:
        g = pair_gadget(13)
        diag: dict = {}
        cyc = solve_degree_split(g, diagnostics=diag)
        assert cyc is not None
        cyc.validate(g)
        assert cyc.x_set() == g.full_x()
        assert diag["paths_best_effort"] is True

    def test_verification_is_charged_to_the_passed_budget(self) -> None:
        g = pair_gadget(5)
        b = WorkBudget(10**6, "node")
        solve_degree_split(g, budget=b)
        assert 10**6 - b.remaining >= _dhp_units(g)


class TestMinPathCover:
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=10,
                ),
            )
        )
    )
    def test_exact_cover_is_minimum(self, case) -> None:
        n, raw = case
        edges = [(a, b) for a, b in raw if a != b]
        xadj = [0] * n
        for a, b in edges:
            xadj[a] |= 1 << b
            xadj[b] |= 1 << a
        pieces = _min_path_cover_exact(n, xadj)
        assert sum(len(p) for p in pieces) == n
        covered = sorted(v for p in pieces for v in p)
        assert covered == list(range(n))
        for piece in pieces:
            for u, v in zip(piece, piece[1:]):
                assert (xadj[u] >> v) & 1
        assert len(pieces) == oracles.min_path_cover_bruteforce(n, edges)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=10,
                ),
            )
        )
    )
    def test_greedy_cover_is_valid(self, case) -> None:
        n, raw = case
        edges = [(a, b) for a, b in raw if a != b]
        xadj = [0] * n
        for a, b in edges:
            xadj[a] |= 1 << b
            xadj[b] |= 1 << a
        pieces = _min_path_cover_greedy(n, xadj)
        covered = sorted(v for p in pieces for v in p)
        assert covered == list(range(n))
        for piece in pieces:
            for u, v in zip(piece, piece[1:]):
                assert (xadj[u] >> v) & 1
