"""Cycle search, path rotation, virtual-edge absorption, and the two
constructive covering-cycle solvers."""

from __future__ import annotations

import hashlib
import itertools
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
    CycleWitness,
    DomainError,
    GraphInputError,
    ResourceLimitError,
    VertexSet,
    WitnessError,
    WorkBudget,
    absorb_virtual_edge,
    builtin_biplane,
    check_dhp,
    check_hamiltonian,
    check_supercyclic,
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
    _augment,
    _min_path_cover_exact,
    _min_path_cover_greedy,
    _pair_search,
    _search_exact_cycle,
)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: absorb_virtual_edge(Bigraph.empty(2, 2), 2, 0, CycleWitness((0, 1), (0, 1))), GraphInputError),
        (lambda: absorb_virtual_edge(Bigraph.empty(2, 2), 0, -1, CycleWitness((0, 1), (0, 1))), GraphInputError),
        # K(3, 3) minus (x0, y0): the 4-cycle on x1, x2 misses x0
        (
            lambda: absorb_virtual_edge(
                Bigraph.complete(3, 3).without_edge(0, 0), 0, 0, CycleWitness((1, 2), (1, 2))
            ),
            GraphInputError,
        ),
        (lambda: solve_high_degree(Bigraph.complete(3, 3), -1), DomainError),
        (lambda: solve_degree_split(Bigraph.complete(1, 1)), DomainError),
    ],
    ids=["absorb-x-out-of-range", "absorb-y-out-of-range", "absorb-cycle-misses-x",
         "high-degree-negative-k", "degree-split-nx-below-2"],
)
def test_solver_input_guards(call, error) -> None:
    with pytest.raises(error):
        call()


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

    def test_hall_violator_is_every_exposable_vertex(self) -> None:
        """The violator is exactly the left vertices some maximum matching
        leaves exposed, a set no choice of maximum matching changes: s is
        in it when removing s leaves the maximum matching size unchanged."""
        rng = random.Random(2718)
        proper = 0
        for _ in range(400):
            sets = [
                set(rng.sample(range(7), rng.randrange(0, 4)))
                for _ in range(rng.randrange(1, 8))
            ]
            size = oracles.max_matching_bruteforce(sets)
            exposable = tuple(
                s
                for s in range(len(sets))
                if oracles.max_matching_bruteforce(sets[:s] + sets[s + 1 :]) == size
            )
            assert hall_violator(self._instance(sets)) == (exposable or None)
            proper += 0 < len(exposable) < len(sets)
        assert proper > 100

    @staticmethod
    def _chain(n: int) -> list[int]:
        """n rows whose last one, {y0}, is matched only along an
        alternating path through all n."""
        return [(1 << i) | (1 << (i + 1)) for i in range(n - 1)] + [1]

    @pytest.mark.parametrize("n", [1100, 5000])
    def test_long_chain_is_matched_in_full(self, n: int) -> None:
        # the recursive step passed the default recursion limit of 1000 here
        rows = self._chain(n)
        assert len(max_matching(rows)) == n
        assert hall_violator(rows) is None

    def test_long_chain_below_the_recursion_limit_is_matched(self) -> None:
        rows = self._chain(900)
        assert len(max_matching(rows)) == 900
        assert hall_violator(rows) is None

    def _seeded_rows(self) -> list[list[int]]:
        rng = random.Random(1415)
        out = []
        for _ in range(300):
            sets = [
                set(rng.sample(range(8), rng.randrange(0, 5)))
                for _ in range(rng.randrange(1, 8))
            ]
            out.append(self._instance(sets))
        return out

    def test_outputs_pinned(self) -> None:
        """sha256 of both results on 300 seeded row lists, recorded while
        the matching ran on ``MatchingInstance``'s ranked right side."""
        out = [[sorted(max_matching(r).items()), hall_violator(r)] for r in self._seeded_rows()]
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "25fd548c732c97067dc97a3d707161e11d4951a162248f860107d83bac6fafca"

    def test_candidates_tried_pinned(self) -> None:
        """The Y-vertices ``_augment`` tries on the 300 seeded row lists, run
        as ``max_matching`` and ``hall_violator`` run it: each try is one
        append to the undo log.  A step whose slots kept the candidates
        they had on entry, and so retried those a later slot visited, made
        1,377 tries with the same outputs."""
        tried = 0

        class Log(list):
            def append(self, entry) -> None:
                nonlocal tried
                tried += 1
                super().append(entry)

        for rows in self._seeded_rows():
            y_slot = [-1] * max(rows, default=0).bit_length()
            for s in range(len(rows)):
                _augment(rows, y_slot, s, 0, Log())
            reach_y = 0
            for s in sorted(set(range(len(rows))) - set(y_slot)):
                reach_y = _augment(rows, y_slot, s, reach_y, Log())
        assert tried == 1373

    def test_long_inputs_pinned(self) -> None:
        """sha256 of both results on the 900-row chain and on the 300
        all-Y junction rows of K(300, 300), whose alternating paths run
        hundreds of slots long; recorded from the recursive step."""
        out = [
            [sorted(max_matching(rows).items()), hall_violator(rows)]
            for rows in (self._chain(900), [(1 << 300) - 1] * 300)
        ]
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "ae044fdde078af6b3f54d7e9fef9238af1edfc61a1ff89da4487a9894a65334e"


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

    @given(graph_with_xs(min_size=0))
    @settings(deadline=None)
    def test_cover_mode_returns_smallest_superset(self, gx) -> None:
        g, xs = gx
        # the first X-set of two or more vertices, by size and then
        # lexicographically, that holds xs and has a covering cycle
        first = next(
            (
                list(s)
                for size in range(max(2, len(xs)), g.nx + 1)
                for s in itertools.combinations(range(g.nx), size)
                if set(xs) <= set(s) and oracles.covering_cycle_exists(g, s)
            ),
            None,
        )
        cyc = find_cycle_covering(g, VertexSet.xs(xs), exact_x=False)
        if cyc is None:
            assert first is None
            return
        cyc.validate(g)
        assert sorted(cyc.xs) == first

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


# Whole-X searches pinned from the search before its undo-log rewrite, and
# seed 4, the benchmark corpus's heaviest call, from the search before its
# dead Y-set: (graph, nodes spent, cycle X-order, cycle Y-vertices).
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
    "ham n=14 c=0 seed 4": (
        lambda: _ham_sample(14, 0.0, 4),
        224358,
        (0, 3, 2, 1, 7, 4, 5, 11, 8, 9, 10, 12, 6, 13),
        (2, 3, 1, 12, 13, 8, 4, 5, 7, 0, 9, 6, 10, 11),
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

    # sha256 of the JSON list of (cycle X-order and Y-vertices or None, nodes
    # spent), or "exhausted", of the benchmark corpus's 48 n = 14 searches
    CORPUS_SEARCHES = "f82a883fd44947859766bfc05a850b19d934cfa15f13cf065a4a313ec904c5ff"

    def test_corpus_searches_pinned(self) -> None:
        """``check_hamiltonian`` on the c = 0 samples at seeds 0-39, and
        ``find_cycle_covering`` on the c = 2 samples at seeds
        1000000-1000007 under the corpus's 4,000-node cap."""
        searches = (
            (0.0, range(40), 10**6, lambda g, _, b: check_hamiltonian(g, limit=14, budget=b)),
            (2.0, range(10**6, 10**6 + 8), 4_000, lambda g, _, b: find_cycle_covering(g, g.full_x(), budget=b)),
        )
        outcomes = [
            _capped_search(search, _ham_sample(14, c, seed), [], cap)
            for c, seeds, cap, search in searches
            for seed in seeds
        ]
        assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == self.CORPUS_SEARCHES

    # (``_augment`` calls of the search, calls while the step recursed and
    # its inner calls went through the module global too); before a node
    # where no placed pair sees a free Y-vertex took every held one as dead
    # they were 1628 and 5305, before the inline first try 2088 and 7022,
    # before the dead Y-set 2658 and 17255
    AUGMENT_CALLS = {"ham n=14 c=0 seed 28": (430, 973), "ham n=14 c=0 seed 34": (422, 917)}

    @pytest.mark.parametrize("name", sorted(AUGMENT_CALLS))
    def test_augment_calls_pinned(self, name: str, monkeypatch) -> None:
        """The matching work of a search is deterministic: count its steps
        through the module global."""
        import dhp.cycles

        calls = 0
        step = dhp.cycles._augment

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(dhp.cycles, "_augment", counted)
        build, nodes, xs, ys = PINNED_CYCLE_SEARCHES[name]
        g = build()
        assert _capped_search(_search_exact_cycle, g, list(range(g.nx)), 10**6) == ((xs, ys), nodes)
        now, before = self.AUGMENT_CALLS[name]
        assert calls == now < before

    # Recorded from the search that spent its budget at every node: (units
    # spent, sha256 of ``budget.remaining`` after the call under each cap
    # from 0 to those units, negative where the call raised).
    SHARED_BUDGETS = {
        "cover mode, ham n=14 c=0 seed 4, xs {0, 1}": (
            lambda b: find_cycle_covering(
                _ham_sample(14, 0.0, 4), VertexSet.xs([0, 1]), exact_x=False, budget=b
            ),
            70,
            "3ca5050c2a31157d78c8d8d888a77afefa3575f78d175d63231496606a30bb92",
        ),
        "check_supercyclic, pair_gadget(5)": (
            lambda b: check_supercyclic(pair_gadget(5), budget=b),
            93,
            "0c872b7e250a4619917f2bbed1c38454291280078dc14a53c3dcb4d9f44c1af0",
        ),
    }

    @pytest.mark.parametrize("name", sorted(SHARED_BUDGETS))
    def test_shared_budget_is_charged_as_before(self, name: str) -> None:
        """One budget across several searches (cover mode tries superset
        after superset) or across a scan whose leaf test searches while
        its chunk is reserved: the same units, and under every smaller cap
        the same exhaustion point and ``remaining``."""
        call, units, digest = self.SHARED_BUDGETS[name]
        left = []
        for cap in range(units + 1):
            b = WorkBudget(cap, "node")
            try:
                call(b)
            except BudgetExceededError as exc:
                assert str(exc) == "node budget exhausted"
            left.append(b.remaining)
        assert left[-1] == 0 and max(left[:-1]) < 0
        assert hashlib.sha256(json.dumps(left).encode()).hexdigest() == digest

    @staticmethod
    def _reference_outcome(g: Bigraph, targets: list[int], cap: int):
        """The reference search's outcome under ``cap``, after checking that
        the search under test gives the same, and that both run out one
        node short of a search's units."""
        ref = _capped_search(oracles.exact_cycle_search_reference, g, targets, cap)
        assert _capped_search(_search_exact_cycle, g, targets, cap) == ref
        if ref != "exhausted" and ref[1]:
            units = ref[1]
            for search in (oracles.exact_cycle_search_reference, _search_exact_cycle):
                assert _capped_search(search, g, targets, units - 1) == "exhausted"
                assert _capped_search(search, g, targets, units) == ref
        return ref

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
            found += self._reference_outcome(g, targets, 10**6)[0] is not None
        assert 300 <= found <= 700
        # square threshold samples, whose searches reach many nodes where
        # no placed pair sees a free Y-vertex; capped, so some run out
        rng = random.Random(4003)
        found = exhausted = 0
        for _ in range(200):
            n = rng.randrange(9, 13)
            g = _ham_sample(n, rng.choice((1.0, 2.0, 3.0)), rng.randrange(10**6))
            ref = self._reference_outcome(g, list(range(n)), 5_000)
            if ref == "exhausted":
                exhausted += 1
            else:
                found += ref[0] is not None
        assert (found, exhausted) == (145, 11)

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

    def test_fewer_y_than_x_is_answered_at_no_cost(self) -> None:
        # a search over its X-vertices would spend 597,264 units on the None
        g = sample_bipartite(8, 7, 0.85, 3622760345)
        assert min(g.degrees_x()) >= 2
        b = WorkBudget(10, "node")
        assert find_disjoint_cycle_cover(g, budget=b) is None
        assert b.remaining == 10

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self) -> None:
        # one 2n-cycle, so the search runs n = 1100 X-vertices deep
        n = 1100
        g = Bigraph(n, n, tuple((1 << i) | (1 << (i + 1) % n) for i in range(n)))
        b = WorkBudget(10**6, "node")
        cover = find_disjoint_cycle_cover(g, budget=b)
        assert [len(c.xs) for c in cover] == [n]
        assert 10**6 - b.remaining == n + 1


def _any_covering_yy_path(g: Bigraph) -> list[int] | None:
    """First Y-to-Y walk y0, x1, y1, ..., xn, yn through every X-vertex, by
    plain backtracking."""

    def extend(walk: list[int], used_x: set[int], used_y: set[int]):
        if len(used_x) == g.nx:
            return list(walk)
        last_y = walk[-1]
        for x in range(g.nx):
            if x in used_x or not g.has_edge(x, last_y):
                continue
            for y in range(g.ny):
                if y in used_y or not g.has_edge(x, y):
                    continue
                walk += [x, y]
                got = extend(walk, used_x | {x}, used_y | {y})
                if got is not None:
                    return got
                del walk[-2:]
        return None

    for y0 in range(g.ny):
        got = extend([y0], set(), {y0})
        if got is not None:
            return got
    return None


class TestRotation:
    def test_planted_instances_close(self) -> None:
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randrange(3, 9)
            g, walk = genutil.planted_path_instance(rng, n)
            cyc = rotate_path_to_cycle(g, walk)
            cyc.validate(g)
            assert cyc.x_set() == g.full_x()

    def test_trivial_two_vertex_case(self) -> None:
        g = Bigraph.complete(2, 3)
        # y0 sees x1 and y2 sees x0, so the pivot drops y1
        cyc = rotate_path_to_cycle(g, [0, 0, 1, 1, 2])
        assert cyc == CycleWitness((0, 1), (0, 2))
        cyc.validate(g)

    def test_closes_every_valid_walk(self) -> None:
        # in K_{2,3} the two ends see |X| + 2 X-vertices between them
        g = Bigraph.complete(2, 3)
        for x1, x2 in itertools.permutations(range(2)):
            for y0, y1, y2 in itertools.permutations(range(3)):
                cyc = rotate_path_to_cycle(g, [y0, x1, y1, x2, y2])
                cyc.validate(g)
                assert cyc.x_set() == g.full_x()
                assert set(cyc.ys) < {y0, y1, y2}

    def test_single_vertex_walk_is_no_path(self) -> None:
        g = Bigraph.complete(1, 1)
        with pytest.raises(GraphInputError, match="every X-vertex exactly once"):
            rotate_path_to_cycle(g, [0])
        with pytest.raises(GraphInputError, match="two Y endpoints"):
            rotate_path_to_cycle(g, [0, 0])
        # with no X-vertex a lone Y-vertex covers X, but closes no cycle
        assert rotate_path_to_cycle(Bigraph.complete(0, 1), [0]) is None

    def test_requires_y_endpoints(self) -> None:
        # an even length means the walk ends on an X-vertex
        g = Bigraph.complete(2, 2)
        for walk in ([0, 0, 1, 1], [0, 0], []):
            with pytest.raises(GraphInputError, match="two Y endpoints"):
                rotate_path_to_cycle(g, walk)

    def test_requires_full_x_coverage(self) -> None:
        g = Bigraph.complete(3, 5)
        for walk in (
            [0, 0, 1, 1, 2],  # x2 missing
            [0, 0, 1, 1, 2, 0, 3, 2, 4],  # x0 twice
            [0, 0, 1, 1, 2, 3, 3],  # x3 out of range
            [0, 0, 1, 1, 2, -1, 3],  # negative X-index
            [0],  # a single Y-vertex
        ):
            with pytest.raises(GraphInputError, match="every X-vertex exactly once"):
                rotate_path_to_cycle(g, walk)

    def test_rejects_repeated_y(self) -> None:
        g = Bigraph.complete(2, 3)
        with pytest.raises(WitnessError, match="appears twice"):
            rotate_path_to_cycle(g, [0, 0, 1, 1, 0])

    def test_rejects_out_of_range_y(self) -> None:
        g = Bigraph.complete(2, 3)
        for walk in ([0, 0, 1, 1, 3], [-1, 0, 1, 1, 2]):
            with pytest.raises(WitnessError, match="out of range"):
                rotate_path_to_cycle(g, walk)

    def test_rejects_missing_edge(self) -> None:
        # an X-vertex must see the Y-vertex before it and the one after it
        for x, y in ((0, 0), (0, 1), (1, 1), (1, 2)):
            g = Bigraph.complete(2, 3).without_edge(x, y)
            with pytest.raises(WitnessError, match=f"missing edge \\(x{x}, y{y}\\)"):
                rotate_path_to_cycle(g, [0, 0, 1, 1, 2])

    def test_degree_starved_path_yields_none(self) -> None:
        # endpoints of degree 1 each: the guarantee premise fails, no
        # pivot exists, and the attempt reports None rather than a cycle
        g = Bigraph.from_edges(
            2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]
        )
        assert rotate_path_to_cycle(g, [0, 0, 1, 1, 2]) is None

    @given(dense_bigraphs(min_nx=3, max_nx=6, min_ny=4, max_ny=7))
    @settings(deadline=None)
    def test_guarantee_premise_forces_success(self, g: Bigraph) -> None:
        # build any covering Y-Y walk, then only keep cases meeting the
        # endpoint degree premise; rotation must then always close it
        walk = _any_covering_yy_path(g)
        assume(walk is not None)
        assume(g.degree_y(walk[0]) + g.degree_y(walk[-1]) >= g.nx + 2)
        cyc = rotate_path_to_cycle(g, walk)
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


def _random_yy_path(rng: random.Random) -> tuple[Bigraph, list[int]]:
    """A random bigraph with a planted Y..Y path through every X-vertex and
    no degree premise, so that some rotations find no pivot."""
    n = rng.randrange(2, 8)
    ny = n + 1 + rng.randrange(3)
    g = genutil.rand_bigraph(rng, n, ny, rng.choice((0.3, 0.5, 0.7)))
    xs = rng.sample(range(n), n)
    ys = rng.sample(range(ny), n + 1)
    rows = list(g.adj_x)
    for t, x in enumerate(xs):
        rows[x] |= (1 << ys[t]) | (1 << ys[t + 1])
    walk = [ys[0]]
    for t, x in enumerate(xs):
        walk += [x, ys[t + 1]]
    return Bigraph(n, ny, tuple(rows)), walk


def test_rotation_and_absorption_outputs_are_pinned() -> None:
    """sha256 over seeded results: 400 rotations, on planted paths and on
    random Y..Y paths, some without a pivot; then the absorption of every
    non-edge of 150 small dense graphs whose helper graph has a covering
    cycle, given as the canonical cycle and rotated by one slot, each with
    its diagnostics dict."""
    rng = random.Random(2525)
    out: list = []
    unclosed = 0
    for i in range(400):
        if i % 2:
            g, walk = genutil.planted_path_instance(rng, rng.randrange(2, 9))
        else:
            g, walk = _random_yy_path(rng)
        cyc = rotate_path_to_cycle(g, walk)
        unclosed += cyc is None
        out.append(None if cyc is None else [cyc.xs, cyc.ys])
    cases: dict[str, int] = {}
    for _ in range(150):
        nx = rng.randrange(2, 6)
        g = genutil.rand_bigraph(rng, nx, nx + rng.randrange(3), rng.choice((0.6, 0.75, 0.9)))
        for x in range(g.nx):
            for y in range(g.ny):
                if g.has_edge(x, y):
                    continue
                aug = g.with_edge(x, y)
                cyc = find_cycle_covering(aug, aug.full_x())
                if cyc is None:
                    continue
                turned = CycleWitness(cyc.xs[1:] + cyc.xs[:1], cyc.ys[1:] + cyc.ys[:1])
                for c in (cyc, turned):
                    diag: dict = {}
                    got = absorb_virtual_edge(g, x, y, c, diagnostics=diag)
                    cases[diag["case"]] = cases.get(diag["case"], 0) + 1
                    out.append([None if got is None else [got.xs, got.ys], diag])
    assert unclosed == 84
    assert cases == {"unused": 498, "off-path": 136, "on-path": 146, "failed": 228}
    blob = json.dumps(out).encode()
    assert hashlib.sha256(blob).hexdigest() == "a22e90ec73c64224723b71026d7a7a4cd8b300a1a3051b36d7a993421d1fed2e"


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
        for k in (0, 1, 2, 3):
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
        assert len(_pair_search(g, [0, 1], WorkBudget(100), paths=True)) == 2
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


def test_pair_search_paths_match_oracle() -> None:
    """The Y..Y path mode of ``_pair_search`` on seeded small inputs, where
    it backtracks over pairs that joined two paths: it finds a path system
    exactly when the brute-force oracle does, and each walk alternates
    Y, x, ..., Y on edges of g, with every x of ``xs`` once and no Y-vertex
    in two places."""
    rng = random.Random(3434)
    found = 0
    for _ in range(400):
        nx, ny = rng.randint(2, 5), rng.randint(3, 7)
        p = rng.choice((0.4, 0.6, 0.8))
        g = Bigraph(nx, ny, tuple(
            sum(1 << j for j in range(ny) if rng.random() < p) for _ in range(nx)
        ))
        xs = rng.sample(range(nx), rng.randint(1, nx))
        walks = _pair_search(g, xs, WorkBudget(10**6), paths=True)
        assert (walks is not None) == oracles.yy_path_system_exists(g, xs), (g, xs)
        if walks is None:
            continue
        found += 1
        for walk in walks:
            assert len(walk) % 2 == 1
            for t in range(1, len(walk), 2):
                assert g.has_edge(walk[t], walk[t - 1]) and g.has_edge(walk[t], walk[t + 1])
        assert sorted(x for walk in walks for x in walk[1::2]) == sorted(xs)
        ys = [y for walk in walks for y in walk[0::2]]
        assert len(ys) == len(set(ys))
    assert 100 < found < 400


def _outcome_units_short(call) -> list:
    """The result of ``call(budget)``, the node units it spent and, when it
    spent any, whether a cap one unit short raises."""
    b = WorkBudget(10**6, "node")
    out = call(b)
    units = 10**6 - b.remaining
    short = None
    if units:
        try:
            call(WorkBudget(units - 1, "node"))
            short = False
        except BudgetExceededError:
            short = True
    return [out, units, short]


def test_pair_assignment_searches_are_pinned() -> None:
    """sha256 over seeded inputs of each outcome, its units and whether one
    unit less raises: the disjoint cycle cover on 600 random bigraphs, and
    ``solve_high_degree`` at k = 2, whose instances plant a degree-2
    X-vertex half the time, so that its Y..Y path search runs.  Recorded
    again when the cover began to answer |Y| < |X| at no cost: 51 of those
    inputs then spent 1,011,319 units on a None, and every outcome is
    unchanged."""
    rng = random.Random(2424)
    out = []
    for _ in range(600):
        nx, ny = rng.randrange(1, 9), rng.randrange(1, 10)
        g = sample_bipartite(nx, ny, rng.choice((0.4, 0.55, 0.7, 0.85)), rng.randrange(2**32))
        out.append(
            _outcome_units_short(
                lambda b: None
                if (cover := find_disjoint_cycle_cover(g, budget=b)) is None
                else [[c.xs, c.ys] for c in cover]
            )
        )
    planted = 0
    for g in genutil.high_degree_instances(2424, 2, 150):
        planted += min(g.degrees_x()) <= 2
        out.append(
            _outcome_units_short(
                lambda b: None
                if (cyc := solve_high_degree(g, 2, budget=b)) is None
                else [cyc.xs, cyc.ys]
            )
        )
    assert planted == 30
    blob = json.dumps(out).encode()
    assert hashlib.sha256(blob).hexdigest() == "d1d0ddab5052044e9861f8ae487d625b5b0876b72d234bb0349f936f1ea51207"


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
        most of them need two or more paths, so the matching runs.  The
        counts include the dHp check; they were recorded again when it
        moved to the window scan, with every cycle unchanged."""
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
        assert hashlib.sha256(blob).hexdigest() == "c95684d9e028c6209489f65acbdae5cbd8456c661dbdfa5f06b935e45d085198"

    def test_greedy_branch_outputs_pinned(self, monkeypatch) -> None:
        """sha256 on the greedy path-cover branch (|X| = 13..16): for 60
        seeded degree-class graphs, 53 of which make a reversal, and
        ``pair_gadget(13..16)``, each cycle, node count, diagnostics dict
        and the junction rows the matching is given, then the diagnostics
        of the same call with the matching forced to fail, which names
        every junction as violating."""
        from dhp import cycles

        graphs = genutil.degree_class_instances(2828, 60, min_nx=13, max_nx=16)
        graphs += [pair_gadget(n) for n in range(13, 17)]
        real = cycles.max_matching
        seen: list[list[int]] = []

        def recorded(rows):
            seen.append(list(rows))
            return real(rows)

        out = []
        for g in graphs:
            seen.clear()
            monkeypatch.setattr(cycles, "max_matching", recorded)
            b = WorkBudget(10**6, "node")
            diag: dict = {}
            cyc = solve_degree_split(g, budget=b, diagnostics=diag)
            out.append(
                [None if cyc is None else [cyc.xs, cyc.ys], 10**6 - b.remaining, diag, seen[:]]
            )
            monkeypatch.setattr(cycles, "max_matching", lambda rows: {})
            monkeypatch.setattr(cycles, "hall_violator", lambda rows: tuple(range(len(rows))))
            diag = {}
            out.append([solve_degree_split(g, diagnostics=diag) is None, diag])
            monkeypatch.undo()
        assert all(r[2] == {"paths_best_effort": True} for r in out[::2])
        assert sum(1 for r in out[::2] if r[3]) == 60
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "62e155f87d3435578745b4a68a6bd0203588a9ab6940b91f9cb08b0c7a59ce41"

    def test_complete_graph_cycle_pinned(self) -> None:
        """sha256 of the cycle on K(300, 300): 300 one-vertex paths, so the
        junction matching runs on 300 all-Y rows; recorded from the
        recursive augmenting step."""
        cyc = solve_degree_split(Bigraph.complete(300, 300))
        blob = json.dumps([cyc.xs, cyc.ys]).encode()
        assert hashlib.sha256(blob).hexdigest() == "cacf7a09567fa9fae80938993c020e3106613cd598f2df2bf1489c9f87fb05e6"

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
        # maximal: no end of one path sees an end of another
        for a, b in itertools.combinations(pieces, 2):
            for u, v in itertools.product({a[0], a[-1]}, {b[0], b[-1]}):
                assert not (xadj[u] >> v) & 1

    def test_greedy_cover_pinned(self) -> None:
        """sha256 of the greedy cover, paths in order, on 400 seeded graphs
        with n = 1..16 and edge densities from 0.05 to 0.5."""
        rng = random.Random(28)
        out = []
        for _ in range(400):
            n = rng.randrange(1, 17)
            p = rng.choice((0.05, 0.1, 0.2, 0.3, 0.5))
            xadj = [0] * n
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    xadj[a] |= 1 << b
                    xadj[b] |= 1 << a
            out.append(_min_path_cover_greedy(n, xadj))
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "399436ca993d6a808ce46eae6f1d7cfcd73f3a3ebc72ab7f3a7db4bee44e7b0c"

    def test_exact_cover_pinned(self) -> None:
        """sha256 of the exact cover, paths in order, on 200 seeded graphs
        with n = 1..12 and edge densities from 0.05 to 0.5."""
        rng = random.Random(29)
        out = []
        for _ in range(200):
            n = rng.randrange(1, 13)
            p = rng.choice((0.05, 0.1, 0.2, 0.3, 0.5))
            xadj = [0] * n
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    xadj[a] |= 1 << b
                    xadj[b] |= 1 << a
            out.append(_min_path_cover_exact(n, xadj))
        blob = json.dumps(out).encode()
        assert hashlib.sha256(blob).hexdigest() == "bd6544b9db9ef3460a916a346c7623370011ea56def3b9f1253978873d0c37f9"
