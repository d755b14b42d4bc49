"""Property checkers against brute-force oracles and theory facts."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

import oracles
from strategies import bigraphs, dense_bigraphs

from dhp import (
    BUILTIN_BIPLANE_ORDERS,
    Bigraph,
    BudgetExceededError,
    DomainError,
    GraphInputError,
    Obstacle,
    VertexSet,
    WorkBudget,
    check_degree_bound,
    check_critical,
    check_dhp,
    check_saturated_critical,
    check_snp,
    check_snp_minimal,
    check_supercyclic,
    builtin_biplane,
    find_minimal_obstacle,
    is_obstacle,
    obstacle_is_minimal,
    pair_gadget,
    sample_bipartite,
    sample_gnnp,
    threshold_p,
)
from dhp import checkers, cycles
from dhp.budget import SUBSET_BUDGET_DEFAULT
from dhp.checkers import LOOKAHEAD_TABLE_BITS
from dhp.core import Y_SIDE, induced_subgraph, is_two_connected


@pytest.mark.parametrize(
    "call",
    [
        lambda: Obstacle(VertexSet.xs([0]), VertexSet.ys([])).validate(Bigraph.complete(3, 3)),
        lambda: Obstacle(VertexSet.xs([0, 1]), VertexSet.ys([0, 1])).validate(Bigraph.complete(3, 3)),
        lambda: check_critical(Bigraph.complete(2, 2)),
        lambda: find_minimal_obstacle(Bigraph.complete(1, 2), 2),
        lambda: find_minimal_obstacle(Bigraph.complete(3, 3), 1),
        lambda: find_minimal_obstacle(Bigraph.complete(3, 3), 4),
    ],
    ids=["obstacle-s-below-2", "obstacle-s-not-above-t", "critical-nx-below-3",
         "minimal-obstacle-nx-below-2", "s-max-below-2", "s-max-above-nx"],
)
def test_checker_input_guards_raise_domain_error(call) -> None:
    with pytest.raises(DomainError):
        call()


class TestDhp:
    @given(bigraphs(min_nx=2))
    def test_matches_oracle(self, g: Bigraph) -> None:
        assert check_dhp(g).holds == oracles.dhp_bruteforce(g)

    @given(bigraphs(min_nx=2))
    def test_witness_is_first_violator(self, g: Bigraph) -> None:
        v = check_dhp(g)
        expect = oracles.first_deficient_subset(g)
        if expect is None:
            assert v.holds and v.witness is None
        else:
            assert not v.holds
            assert tuple(v.witness["S"]) == expect

    def test_small_x_rejected(self) -> None:
        with pytest.raises(DomainError):
            check_dhp(Bigraph.complete(1, 5))

    def test_known_instances(self) -> None:
        assert check_dhp(Bigraph.complete(2, 2)).holds
        assert not check_dhp(Bigraph.empty(2, 2)).holds
        # one shared neighbour is not enough for a pair
        g = Bigraph.from_edges(2, 3, [(0, 0), (1, 0), (0, 1), (1, 2)])
        v = check_dhp(g)
        assert not v.holds and v.witness["S"] == [0, 1]

    def test_budget_exhaustion_raises(self) -> None:
        with pytest.raises(BudgetExceededError):
            check_dhp(Bigraph.complete(8, 8), budget=10)

    def test_budget_sharing_across_calls(self) -> None:
        b = WorkBudget(10_000, "subset")
        check_dhp(Bigraph.complete(5, 5), budget=b)
        spent_once = 10_000 - b.remaining
        assert spent_once > 0
        check_dhp(Bigraph.complete(5, 5), budget=b)
        assert 10_000 - b.remaining == 2 * spent_once


# Units spent (one per prefix made) and witnesses of the three prefix
# scans: holding graphs, pair and larger cardinality failures, and an snp
# connectivity failure.  Witnesses and snp units were recorded from the
# separate per-checker scans the shared engine replaced.  The dhp and
# obstacle units are the window scan's, the pair window and then one
# window for every larger size, as window_scan_reference counts them.
PINNED_SCANS = [
    (
        "biplane(2)",
        lambda: builtin_biplane(2),
        (65, None),
        (213, None),
        (65, None),
    ),
    ("pair_gadget(6)", lambda: pair_gadget(6), (49, None), (94, None), (49, None)),
    ("K(6,6)", lambda: Bigraph.complete(6, 6), (24, None), (94, None), (24, None)),
    (
        "sample(12x8, p=0.6, seed 34)",
        lambda: sample_bipartite(12, 8, 0.6, 34),
        (138, {"S": [5, 6, 8]}),
        (234, {"S": [5, 6, 8], "reason": "cardinality"}),
        (138, ([5, 6, 8], [3, 7])),
    ),
    (
        "sample(12x8, p=0.7, seed 1)",
        lambda: sample_bipartite(12, 8, 0.7, 1),
        (95, {"S": list(range(9))}),
        (7010, {"S": list(range(9)), "reason": "cardinality"}),
        (95, (list(range(9)), list(range(8)))),
    ),
    (
        "G(12,12,0.6) seed 0",
        lambda: sample_gnnp(12, 0.6, 0),
        (8, {"S": [0, 7]}),
        (42, {"S": [0, 5, 7], "reason": "connectivity"}),
        (8, ([0, 7], [9])),
    ),
]


@pytest.mark.parametrize(
    "make, dhp_scan, snp_scan, obstacle_scan",
    [case[1:] for case in PINNED_SCANS],
    ids=[case[0] for case in PINNED_SCANS],
)
def test_scan_units_and_witnesses_are_pinned(make, dhp_scan, snp_scan, obstacle_scan) -> None:
    g = make()
    limit = 10**6

    def spent(run):
        b = WorkBudget(limit, "subset")
        result = run(b)
        return limit - b.remaining, result

    units, v = spent(lambda b: check_dhp(g, budget=b))
    assert (units, v.witness) == dhp_scan
    units, v = spent(lambda b: check_snp(g, budget=b))
    assert (units, v.witness) == snp_scan
    units, obst = spent(lambda b: find_minimal_obstacle(g, g.nx, budget=b))
    found = None if obst is None else (list(obst.s.indices), list(obst.t.indices))
    assert (units, found) == obstacle_scan


def test_snp_units_on_leaf_test_heavy_graphs_are_pinned() -> None:
    # Both scans test every leaf.  The corpus records the gadget call as
    # running out of its 2000-subset cap; a scan that started pruning would
    # spend fewer units and finish, so both counts are pinned here.
    b = WorkBudget(2000, "subset")
    with pytest.raises(BudgetExceededError):
        check_snp(pair_gadget(20), budget=b)
    assert 2000 - b.remaining == 2468
    b = WorkBudget(10**6, "subset")
    assert check_snp(builtin_biplane(3), budget=b).holds
    assert 10**6 - b.remaining == 4007


def _skewed_bigraph(rng: random.Random) -> Bigraph:
    """nx <= 12, with uniform, per-X-row or per-Y-column edge rates; the
    near-universal Y-vertices of the last two are where the suffix-degree
    lookahead fires."""
    nx, ny = rng.randrange(2, 13), rng.randrange(0, 15)
    px, py = [1.0] * nx, [1.0] * ny
    kind = rng.randrange(3)
    if kind == 0:
        px = [rng.choice((0.3, 0.5, 0.7, 0.9))] * nx
    elif kind == 1:
        px = [rng.choice((0.2, 0.5, 0.8, 1.0)) for _ in range(nx)]
    else:
        py = [rng.choice((0.1, 0.5, 0.9, 1.0)) for _ in range(ny)]
    rows = tuple(
        sum(1 << j for j in range(ny) if rng.random() < px[i] * py[j]) for i in range(nx)
    )
    return Bigraph(nx, ny, rows)


def _window_reference(g: Bigraph, s_max: int) -> tuple[tuple[int, ...] | None, set[int], int]:
    """The scan of check_dhp and find_minimal_obstacle by the window-scan
    oracle: the pair window without lookahead, then one window for every
    larger size, charged on a hit S as the window 3..|S| is.  Returns
    (S or None, T, units)."""
    s, t, units = oracles.window_scan_reference(g, 2, 2, lookahead=False)
    if s is None and s_max > 2:
        s, t, more = oracles.window_scan_reference(g, 3, s_max)
        if s is not None:
            more = oracles.window_scan_reference(g, 3, len(s))[2]
        units += more
    return s, t, units


def _check_window_scan(g: Bigraph, s_max: int, ref=None) -> tuple:
    """find_minimal_obstacle, and check_dhp when s_max = nx, agree with the
    window-scan oracle (or with ``ref``, its result) on witness, T and
    units.  Returns (S or None, T, units)."""
    ref_s, ref_t, ref_units = ref or _window_reference(g, s_max)
    limit = 10**8
    b = WorkBudget(limit, "subset")
    obst = find_minimal_obstacle(g, s_max, budget=b)
    units = limit - b.remaining
    found = None if obst is None else (obst.s.indices, set(obst.t.indices))
    assert (found, units) == (None if ref_s is None else (ref_s, ref_t), ref_units)
    if s_max == g.nx:
        b = WorkBudget(limit, "subset")
        v = check_dhp(g, budget=b)
        assert v.witness == (None if ref_s is None else {"S": list(ref_s)})
        assert limit - b.remaining == units
    return ref_s, ref_t, units


def _assert_matches_prefix_scan(g: Bigraph, s_max: int) -> bool:
    """check_dhp (when s_max = nx) and find_minimal_obstacle agree with the
    per-size scan without lookahead on verdict, witness and T, and spend no
    more units; returns whether they spent fewer."""
    ref_s, ref_t, ref_units = oracles.prefix_scan_reference(g, s_max)
    s, t, units = _check_window_scan(g, s_max)
    assert (s, t) == (ref_s, ref_t)
    assert units <= ref_units
    return units < ref_units


class TestSuffixDegreeLookahead:
    def test_small_graphs_match_prefix_scan(self) -> None:
        rng = random.Random(2024)
        saved = 0
        for _ in range(2400):
            g = _skewed_bigraph(rng)
            s_max = g.nx if rng.random() < 0.75 else rng.randrange(2, g.nx + 1)
            saved += _assert_matches_prefix_scan(g, s_max)
        assert saved >= 500

    @pytest.mark.parametrize("n", [40, 60])
    @pytest.mark.parametrize("c", [0.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threshold_samples_match_prefix_scan(self, n: int, c: float, seed: int) -> None:
        g = sample_gnnp(n, threshold_p(n, c, "dhp").p, seed)
        _assert_matches_prefix_scan(g, n)

    def test_n80_threshold_sample_decided_within_default_budget(self) -> None:
        # the scan without lookahead exhausts the 2^24-unit default here
        g = sample_gnnp(80, threshold_p(80, 2.0, "dhp").p, 0)
        assert check_dhp(g).holds

    def test_n100_threshold_sample_decided_within_default_budget(self) -> None:
        # one scan per size spent 38.1 M units here, past the 2^24 default
        g = sample_gnnp(100, threshold_p(100, 0.0, "dhp").p, 0)
        b = WorkBudget(SUBSET_BUDGET_DEFAULT, "subset")
        assert check_dhp(g, budget=b).holds
        assert SUBSET_BUDGET_DEFAULT - b.remaining == 4_416_945

    def test_table_memory_is_bounded(self) -> None:
        # past k = 2 the table is built; kept whole it would take about
        # 90 MB here, so only its lowest layers fit under the bound
        n = 1024
        g = Bigraph.complete(n, n)
        pair_pass = (n - 1) + n * (n - 1) // 2
        tracemalloc.start()
        try:
            check_dhp(g, budget=pair_pass + 5000)
        except BudgetExceededError:
            pass
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < LOOKAHEAD_TABLE_BITS // 8


def _wide_bigraph(rng: random.Random, ny: int) -> Bigraph:
    """nx <= 10 with sparse rows, plus a few near-universal Y-vertices at
    the top of the last word column for the lookahead to count."""
    nx = rng.randrange(2, 11)
    p = rng.choice((0.05, 0.1, 0.2, 0.4))
    hubs = rng.choice((0, 1, 2, 4, 8))
    rows = tuple(
        sum(1 << j for j in range(ny) if rng.random() < (0.95 if j >= ny - hubs else p))
        for _ in range(nx)
    )
    return Bigraph(nx, ny, rows)


def _assert_matches_depth_first_scan(g: Bigraph, s_max: int) -> bool:
    """find_minimal_obstacle, and check_dhp when s_max = nx, agree with the
    per-size depth-first scan with lookahead on verdict, witness and T, and
    spend no more units, and with the window-scan oracle on units; returns
    whether the property holds up to s_max."""
    ref_s, ref_t, ref_units = oracles.prefix_scan_reference(g, s_max, lookahead=True)
    s, t, units = _check_window_scan(g, s_max)
    assert (s, t) == (ref_s, ref_t)
    assert units <= ref_units
    return ref_s is None


class TestLevelScan:
    @pytest.mark.parametrize("ny", [63, 64, 65, 128, 129])
    def test_matches_depth_first_scan_across_word_columns(self, ny: int) -> None:
        rng = random.Random(ny)
        holds = 0
        for _ in range(120):
            g = _wide_bigraph(rng, ny)
            s_max = g.nx if rng.random() < 0.75 else rng.randrange(2, g.nx + 1)
            holds += _assert_matches_depth_first_scan(g, s_max)
        assert 10 <= holds <= 110  # both outcomes are covered

    @pytest.mark.parametrize("chunk_words", [1, 2, 5, 64])
    def test_chunking_changes_nothing(self, chunk_words: int, monkeypatch) -> None:
        # with one word column a chunk holds chunk_words children, or one
        # parent's children when those are more
        monkeypatch.setattr(checkers, "LEVEL_CHUNK_WORDS", chunk_words)
        rng = random.Random(chunk_words)
        for _ in range(300):
            g = _skewed_bigraph(rng)
            s_max = g.nx if rng.random() < 0.75 else rng.randrange(2, g.nx + 1)
            _assert_matches_depth_first_scan(g, s_max)
        for ny in (65, 129):
            for _ in range(20):
                g = _wide_bigraph(rng, ny)
                _assert_matches_depth_first_scan(g, g.nx)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_threshold_units_match_depth_first_scan(self, seed: int) -> None:
        g = sample_gnnp(40, threshold_p(40, 0.0, "dhp").p, seed)
        _assert_matches_depth_first_scan(g, 40)

    def test_wide_levels_are_expanded_in_bounded_chunks(self) -> None:
        # the widest level here holds far more than one chunk's children;
        # expanded whole, the levels took a peak of 22 MiB
        g = sample_gnnp(100, threshold_p(100, 2.0, "dhp").p, 0)
        tracemalloc.start()
        try:
            assert check_dhp(g).holds
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_budget_raises_whenever_depth_first_scan_would(self) -> None:
        rng = random.Random(8)
        for _ in range(300):
            g = _skewed_bigraph(rng)
            ref_s, _, ref_units = _window_reference(g, g.nx)
            scans = [(check_dhp, None if ref_s is None else {"S": list(ref_s)}, ref_units)]
            if 3 <= g.nx <= 10:  # as in TestLeafTestScan, for the run time
                scans.append((check_snp, *_snp_reference(g)))
            for check, witness, units in scans:
                for cap in {0, units // 2, units - 1, units, rng.randrange(units + 1)}:
                    b = WorkBudget(max(cap, 0), "subset")
                    try:
                        v = check(g, budget=b)
                    except BudgetExceededError:
                        # where the property holds, exactly when the scan would
                        assert witness is not None or cap < units
                        continue
                    assert cap >= units
                    assert v.witness == witness
                    assert cap - b.remaining == units

    def test_failing_scan_exhausts_a_whole_chunk_at_a_time(self) -> None:
        # the first deficient pair is 8th in depth-first order, but the
        # level scan makes all 11 + 66 prefixes of the pair pass first
        g = sample_gnnp(12, 0.6, 0)
        with pytest.raises(BudgetExceededError):
            check_dhp(g, budget=76)
        b = WorkBudget(77, "subset")
        assert check_dhp(g, budget=b).witness == {"S": [0, 7]}
        assert b.remaining == 77 - 8


class TestWindowScan:
    """check_dhp and find_minimal_obstacle against the window-scan oracle,
    and the oracle against the per-size scan with lookahead."""

    def test_matches_oracle_at_every_chunk_size(self, monkeypatch) -> None:
        rng = random.Random(2024)
        cases = []
        for _ in range(2400):
            g = _skewed_bigraph(rng)
            cases.append((g, g.nx if rng.random() < 0.75 else rng.randrange(2, g.nx + 1)))
        graphs = [
            sample_gnnp(n, threshold_p(n, c, "dhp").p, seed)
            for n in (40, 60) for c in (0.0, 2.0) for seed in range(3)
        ]
        graphs += [pair_gadget(n) for n in range(3, 9)]
        graphs += [builtin_biplane(order) for order in range(5)]
        cases += [(g, g.nx) for g in graphs]
        refs = []
        for g, s_max in cases:
            ref = _window_reference(g, s_max)
            assert ref[:2] == oracles.prefix_scan_reference(g, s_max, lookahead=True)[:2]
            refs.append(ref)
        # graphs that hold, and failures on a pair and on larger sets
        assert {0, 2, 3, 4} <= {0 if ref[0] is None else len(ref[0]) for ref in refs}
        for chunk_words in (checkers.LEVEL_CHUNK_WORDS, 1, 2, 5, 64):
            monkeypatch.setattr(checkers, "LEVEL_CHUNK_WORDS", chunk_words)
            for (g, s_max), ref in zip(cases, refs):
                _check_window_scan(g, s_max, ref)

    @given(bigraphs(min_nx=2, max_nx=9, max_ny=9), st.data())
    def test_child_is_live_only_where_its_parent_is(self, g: Bigraph, data) -> None:
        # the scan starts a child's sizes at its parent's smallest live one,
        # and skips the sizes a forced count shows dead; both rest on this
        size = data.draw(st.integers(1, g.nx - 1))
        prefix = tuple(sorted(data.draw(st.sets(st.integers(0, g.nx - 2), min_size=size, max_size=size))))
        child = (*prefix, data.draw(st.integers(prefix[-1] + 1, g.nx - 1)))
        parent, kid = oracles.forced_sets(g, prefix), oracles.forced_sets(g, child)
        for k, forced in kid.items():
            assert parent[k] & forced == parent[k]
        for k in parent:
            if k + 1 in parent:
                assert parent[k] & parent[k + 1] == parent[k]
        live = {k for k, forced in parent.items() if forced.bit_count() < k}
        assert {k for k, forced in kid.items() if forced.bit_count() < k} <= live


def _snp_reference(g: Bigraph) -> tuple[dict | None, int]:
    """check_snp's witness and units by the depth-first scan that tests
    every leaf, with check_snp's 2-connectivity test."""

    def two_connected(s: tuple[int, ...], u2: int) -> bool:
        sub, _, _ = induced_subgraph(g, VertexSet.xs(s), VertexSet(Y_SIDE, u2))
        return is_two_connected(sub)

    ref_s, ref_t, units = oracles.prefix_scan_reference(g, g.nx, leaf_test=two_connected, k_min=3)
    if ref_s is None:
        return None, units
    reason = "cardinality" if len(ref_t) < len(ref_s) else "connectivity"
    return {"S": list(ref_s), "reason": reason}, units


def _supercyclic_reference(g: Bigraph) -> tuple[dict | None, int]:
    """check_supercyclic's witness and units by the depth-first scan, its
    cycle searches spending from a budget of their own."""
    limit = 10**8
    nodes = WorkBudget(limit, "node")

    def has_cycle(s: tuple[int, ...], u2: int) -> bool:
        return cycles.find_cycle_covering(g, VertexSet.xs(s), exact_x=True, budget=nodes) is not None

    ref_s, _, units = oracles.prefix_scan_reference(g, g.nx, leaf_test=has_cycle, k_min=3)
    return (None if ref_s is None else {"S": list(ref_s)}), units + limit - nodes.remaining


class TestLeafTestScan:
    """check_snp and check_supercyclic on the level scan against the
    depth-first scan they ran on before: verdict, witness and units."""

    @pytest.mark.parametrize("chunk_words", [None, 3])
    def test_matches_depth_first_scan(self, chunk_words, monkeypatch) -> None:
        if chunk_words is not None:
            monkeypatch.setattr(checkers, "LEVEL_CHUNK_WORDS", chunk_words)
        rng = random.Random(11 if chunk_words is None else chunk_words)
        limit = 10**8
        outcomes = set()
        left = 1000 if chunk_words is None else 200
        while left:
            # past ten X-vertices a holding graph tests four thousand leaves
            # per check, which would add a minute to the run
            g = _skewed_bigraph(rng)
            if not 3 <= g.nx <= 10:
                continue
            left -= 1
            b = WorkBudget(limit, "subset")
            v = check_snp(g, budget=b)
            assert (v.witness, limit - b.remaining) == _snp_reference(g)
            outcomes.add(v.witness["reason"] if v.witness else "holds")
            b = WorkBudget(limit, "node")
            v = check_supercyclic(g, budget=b)
            assert (v.witness, limit - b.remaining) == _supercyclic_reference(g)
            outcomes.add("cycle-less" if v.witness else "supercyclic")
        assert outcomes == {"holds", "cardinality", "connectivity", "cycle-less", "supercyclic"}


class TestSnp:
    @given(bigraphs(min_nx=3, max_nx=4, max_ny=4))
    def test_matches_oracle(self, g: Bigraph) -> None:
        assert check_snp(g).holds == oracles.snp_bruteforce(g)

    @given(bigraphs(min_nx=3, max_nx=4, max_ny=4))
    def test_witness_reason_is_accurate(self, g: Bigraph) -> None:
        v = check_snp(g)
        if v.holds:
            return
        s = v.witness["S"]
        t = oracles.lambda2(g, s)
        if v.witness["reason"] == "cardinality":
            assert len(t) < len(s)
        else:
            assert len(t) >= len(s)
            assert not oracles.two_connected_bruteforce(g, set(s), t)

    def test_small_x_rejected(self) -> None:
        with pytest.raises(DomainError):
            check_snp(Bigraph.complete(2, 5))

    def test_complete_graphs_pass(self) -> None:
        assert check_snp(Bigraph.complete(3, 3)).holds
        assert check_snp(Bigraph.complete(5, 5)).holds

    def test_wide_complete_graph_fails_on_cardinality(self) -> None:
        # five X-vertices can never see five distinct Y-vertices twice
        # when only four exist
        v = check_snp(Bigraph.complete(5, 4))
        assert not v.holds
        assert v.witness == {"S": [0, 1, 2, 3, 4], "reason": "cardinality"}


class TestSnpLeafShortcut:
    """check_snp's leaf test runs the 2-connectivity scan only on leaves
    holding an X-pair with fewer than two common Y-vertices."""

    @staticmethod
    def _scans(g: Bigraph, monkeypatch) -> tuple[int, int, dict | None]:
        """2-connectivity scans run, units spent and witness of check_snp."""
        calls = []
        real = checkers.two_connected_on

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(checkers, "two_connected_on", counted)
        b = WorkBudget(10**6, "subset")
        v = check_snp(g, budget=b)
        return len(calls), 10**6 - b.remaining, v.witness

    def test_biplane_runs_no_connectivity_scan(self, monkeypatch) -> None:
        assert self._scans(builtin_biplane(3), monkeypatch) == (0, 4007, None)

    @pytest.mark.parametrize("n, c, seed", [(10, 0.0, 0), (10, 2.0, 1), (12, 0.0, 2), (12, 2.0, 0)])
    def test_dhp_threshold_samples_run_no_connectivity_scan(self, n, c, seed, monkeypatch) -> None:
        g = sample_gnnp(n, threshold_p(n, c, "dhp").p, seed)
        assert check_dhp(g).holds
        calls, _, witness = self._scans(g, monkeypatch)
        assert (calls, witness) == (0, None)

    def test_connectivity_failure_still_runs_the_scan(self, monkeypatch) -> None:
        calls, units, witness = self._scans(sample_gnnp(12, 0.6, 0), monkeypatch)
        assert calls >= 1
        assert (units, witness) == (42, {"S": [0, 5, 7], "reason": "connectivity"})


class TestSupercyclic:
    @given(bigraphs(min_nx=3, max_nx=4, max_ny=4))
    @settings(deadline=None)
    def test_matches_oracle(self, g: Bigraph) -> None:
        v = check_supercyclic(g)
        first = oracles.first_cycleless_set(g)
        assert v.holds == (first is None)
        if not v.holds:
            assert v.witness["S"] == list(first)

    def test_small_x_rejected(self) -> None:
        with pytest.raises(DomainError):
            check_supercyclic(Bigraph.complete(2, 2))

    def test_biplanes_are_supercyclic(self) -> None:
        for order in (1, 2):
            assert check_supercyclic(builtin_biplane(order)).holds


class TestTheoryImplications:
    """Chains the implications between the three properties."""

    @given(dense_bigraphs(min_nx=3, max_nx=4, min_ny=2, max_ny=4, ny_at_least_nx=True))
    def test_dhp_implies_snp(self, g: Bigraph) -> None:
        """dHp at |A| = 2 says every X-pair shares two Y-vertices, and then
        every S with |S| >= 3 induces, with twice-seen(S), a 2-connected
        subgraph.  A common neighbour of two vertices of S is seen twice
        from S, so the X-vertices are pairwise joined through twice-seen(S)
        and every Y-vertex there has two neighbours in S: the subgraph is
        connected.  Without one X-vertex the others, at least two, are
        still pairwise joined through two Y-vertices, and every Y-vertex
        keeps a neighbour.  Without one Y-vertex every pair is still joined
        through the other, and every remaining Y-vertex keeps its two
        neighbours.  The cardinality half of snp is dHp itself."""
        assume(check_dhp(g).holds)
        assert check_snp(g).holds

    @given(dense_bigraphs(min_nx=3, max_nx=5, min_ny=2, max_ny=5))
    def test_pairs_sharing_two_y_vertices_are_two_connected(self, g: Bigraph) -> None:
        # the lemma above for a single S, which check_snp's leaf test uses
        for k in range(3, g.nx + 1):
            for s in itertools.combinations(range(g.nx), k):
                if all(
                    len(oracles.neighbors(g, a) & oracles.neighbors(g, b)) >= 2
                    for a, b in itertools.combinations(s, 2)
                ):
                    assert oracles.two_connected_bruteforce(g, set(s), oracles.lambda2(g, s))

    @given(dense_bigraphs(min_nx=3, max_nx=4, min_ny=2, max_ny=4, ny_at_least_nx=True))
    def test_supercyclic_implies_snp(self, g: Bigraph) -> None:
        assume(check_supercyclic(g).holds)
        assert check_snp(g).holds

    @given(dense_bigraphs(min_nx=3, max_nx=4, min_ny=2, max_ny=4, ny_at_least_nx=True))
    def test_small_snp_implies_supercyclic(self, g: Bigraph) -> None:
        # at seven or fewer X-vertices the two predicates coincide
        assume(check_snp(g).holds)
        assert check_supercyclic(g).holds


def _block_cycles(monkeypatch, blocked: set[tuple[Bigraph, frozenset[int]]]):
    """Make the cycle engine report no cycle through exactly S in graph H
    for each (H, S) in ``blocked``, and return the matching existence test
    for the references.  No critical graph is known, so this is the only
    way to reach the later clauses of the criticality checks."""
    real = cycles.find_cycle_covering

    def patched(g, xs, exact_x=True, *, budget=None):
        if exact_x and (g, frozenset(xs.indices)) in blocked:
            return None
        return real(g, xs, exact_x, budget=budget)

    monkeypatch.setattr(cycles, "find_cycle_covering", patched)
    return lambda g, s: (g, frozenset(s)) not in blocked and oracles.covering_cycle_exists(g, s)


def _first_missing_edge(g: Bigraph) -> tuple[int, int]:
    return next((x, y) for x in range(g.nx) for y in range(g.ny) if not g.has_edge(x, y))


class TestCriticalFamily:
    @given(bigraphs(min_nx=3, max_nx=4, max_ny=4))
    @settings(deadline=None)
    def test_critical_matches_reference(self, g: Bigraph) -> None:
        assert check_critical(g).witness == oracles.critical_reference(g)
        assert check_saturated_critical(g).witness == oracles.saturated_critical_reference(g)

    @pytest.mark.parametrize(
        "make, blocks, clause",
        [
            # all of X cycle-less, every proper set fine: critical, saturated
            (lambda: builtin_biplane(1), lambda g: [(g, range(4))], None),
            # ... and the first augmented graph stays without a spanning cycle
            (
                lambda: builtin_biplane(1),
                lambda g: [(g, range(4)), (g.with_edge(*_first_missing_edge(g)), range(4))],
                "augmentation",
            ),
            # a Y-vertex seen once
            (
                lambda: Bigraph(4, 5, tuple(builtin_biplane(1).adj_x)).with_edge(0, 4),
                lambda g: [(g, range(4))],
                2,
            ),
            # a proper cycle-less set
            (lambda: builtin_biplane(1), lambda g: [(g, (1, 2, 3))], 3),
            (lambda: builtin_biplane(2), lambda g: [(g, (2, 4, 5, 6)), (g, (0, 1, 3, 6))], 3),
            (lambda: builtin_biplane(2), lambda g: [(g, range(7)), (g, (1, 2, 3, 4, 5))], 3),
            (lambda: builtin_biplane(2), lambda g: [(g, range(7))], None),
        ],
    )
    def test_blocked_cycles_match_reference(self, make, blocks, clause, monkeypatch) -> None:
        g = make()
        assert check_snp(g).holds
        blocked = {(h, frozenset(s)) for h, s in blocks(g)}
        has_cycle = _block_cycles(monkeypatch, blocked)
        crit = check_critical(g)
        sat = check_saturated_critical(g)
        assert crit.witness == oracles.critical_reference(g, has_cycle)
        assert sat.witness == oracles.saturated_critical_reference(g, has_cycle)
        if clause is None:
            assert crit.holds and sat.holds
        elif clause == "augmentation":
            assert crit.holds and sat.witness["clause"] == "augmentation"
        else:
            assert crit.witness["clause"] == clause
            assert sat.witness == {"clause": "critical", "inner": crit.witness}

    def test_one_node_budget_pays_for_scan_and_search(self) -> None:
        g = builtin_biplane(1)
        for check in (check_supercyclic, check_critical, check_saturated_critical):
            b = WorkBudget(10**6, "node")
            check(g, budget=b)
            assert 0 < b.remaining < 10**6
            with pytest.raises(BudgetExceededError, match="node budget"):
                check(g, budget=3)
            with pytest.raises(TypeError):
                check(g, budget_subsets=10)

    def test_supercyclic_graph_is_not_critical(self) -> None:
        v = check_critical(builtin_biplane(1))
        assert not v.holds
        assert v.witness["clause"] == 1

    def test_non_snp_graph_is_not_critical(self) -> None:
        g = Bigraph.from_edges(
            3, 3, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2)]
        )
        v = check_critical(g)
        assert not v.holds and v.witness["clause"] == 1

    def test_saturated_needs_critical(self) -> None:
        v = check_saturated_critical(builtin_biplane(1))
        assert not v.holds
        assert v.witness["clause"] == "critical"

    def test_snp_minimal_flags_redundant_y(self) -> None:
        g = Bigraph.complete(3, 5)
        v = check_snp_minimal(g)
        assert not v.holds
        assert v.witness["clause"] == "redundant-y"
        assert v.witness["y"] == 0

    def test_snp_minimal_flags_non_snp(self) -> None:
        g = Bigraph.from_edges(
            3, 3, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 2)]
        )
        v = check_snp_minimal(g)
        assert not v.holds and v.witness["clause"] == "snp"

    @given(dense_bigraphs(min_nx=3, max_nx=4, min_ny=2, max_ny=4))
    def test_snp_minimal_verdict_matches_deletion_scan(self, g: Bigraph) -> None:
        v = check_snp_minimal(g)
        snp_now = oracles.snp_bruteforce(g)
        if not snp_now:
            assert not v.holds and v.witness["clause"] == "snp"
            return
        deletions = []
        for y in range(g.ny):
            keep = [j for j in range(g.ny) if j != y]
            sub = Bigraph.from_edges(
                g.nx,
                len(keep),
                [
                    (i, keep.index(j))
                    for i, j in g.edges()
                    if j != y
                ],
            )
            deletions.append(oracles.snp_bruteforce(sub))
        assert v.holds == (not any(deletions))


# Units spent by the checks that run the cycle engine as a leaf test, or
# check_snp once per Y-vertex, per graph: biplane(2), pair_gadget(4),
# pair_gadget(5).  Recorded from the depth-first scan the level scan
# replaced; check_snp_minimal spends subset units, the others node units.
PINNED_NODE_UNITS = [
    (check_supercyclic, "node", (612, 29, 93)),
    (check_critical, "node", (825, 42, 131)),
    (check_saturated_critical, "node", (825, 42, 131)),
    (check_snp_minimal, "subset", (1704, 26, 76)),
]


@pytest.mark.parametrize(
    "check, label, pinned",
    PINNED_NODE_UNITS,
    ids=[case[0].__name__ for case in PINNED_NODE_UNITS],
)
def test_node_units_are_pinned(check, label, pinned) -> None:
    limit = 10**6
    spent = []
    for g in (builtin_biplane(2), pair_gadget(4), pair_gadget(5)):
        b = WorkBudget(limit, label)
        check(g, budget=b)
        spent.append(limit - b.remaining)
    assert tuple(spent) == pinned


class TestObstacles:
    @given(bigraphs(min_nx=2, max_nx=4, max_ny=4), st.data())
    def test_is_obstacle_matches_oracle(self, g: Bigraph, data) -> None:
        s_idx = data.draw(
            st.lists(st.integers(0, g.nx - 1), min_size=2, max_size=g.nx, unique=True)
        )
        t_size = data.draw(st.integers(0, max(0, g.ny - 1)))
        t_idx = data.draw(
            st.lists(
                st.integers(0, max(0, g.ny - 1)),
                min_size=t_size,
                max_size=t_size,
                unique=True,
            )
            if g.ny
            else st.just([])
        )
        s = VertexSet.xs(s_idx)
        t = VertexSet.ys(t_idx)
        assert is_obstacle(g, s, t) == oracles.is_obstacle_bruteforce(
            g, set(s_idx), set(t_idx)
        )
        assert obstacle_is_minimal(g, s, t) == oracles.is_minimal_obstacle_bruteforce(
            g, set(s_idx), set(t_idx)
        )

    def test_side_mixup_rejected(self) -> None:
        g = Bigraph.complete(2, 2)
        with pytest.raises(DomainError):
            is_obstacle(g, g.full_y(), g.full_y())

    def test_out_of_range_s_rejected(self) -> None:
        g = builtin_biplane(1)
        s = VertexSet.xs([0, 99])
        with pytest.raises(GraphInputError):
            is_obstacle(g, s, VertexSet.ys([]))
        with pytest.raises(GraphInputError):
            obstacle_is_minimal(g, s, VertexSet.ys([]))

    def test_out_of_range_t_rejected(self) -> None:
        g = Bigraph.empty(3, 3)
        s, t = VertexSet.xs([0, 1]), VertexSet.ys([99])
        with pytest.raises(GraphInputError):
            is_obstacle(g, s, t)
        with pytest.raises(GraphInputError):
            Obstacle(s, t).validate(g)

    def test_range_checked_before_size(self) -> None:
        g = Bigraph.empty(3, 3)
        with pytest.raises(GraphInputError):
            is_obstacle(g, VertexSet.xs([99]), VertexSet.ys([]))
        with pytest.raises(GraphInputError):
            Obstacle(VertexSet.xs([99]), VertexSet.ys([])).validate(g)

    @given(bigraphs(min_nx=2, max_nx=5, max_ny=5))
    def test_find_minimal_obstacle_agrees_with_dhp(self, g: Bigraph) -> None:
        obst = find_minimal_obstacle(g, g.nx)
        assert (obst is None) == check_dhp(g).holds
        if obst is not None:
            obst.validate(g)
            assert obstacle_is_minimal(g, obst.s, obst.t)

    def test_found_obstacle_is_first_in_order(self) -> None:
        # x0 and x2 share only y0; the pair (0, 1) shares two, so the
        # first violator in lexicographic order is (0, 2)
        g = Bigraph.from_edges(
            3,
            3,
            [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0)],
        )
        obst = find_minimal_obstacle(g, 3)
        assert obst is not None
        assert obst.s.indices == (0, 2)

    def test_validate_rejects_non_obstacle(self) -> None:
        g = Bigraph.complete(3, 3)
        bad = Obstacle(s=VertexSet.xs([0, 1]), t=VertexSet.ys([0]))
        with pytest.raises(DomainError):
            bad.validate(g)

    @pytest.mark.parametrize(
        "s, t",
        [((0, 1, 2), ()), ((0, 1), (0,)), ((0, 1, 2), (3,))],
        ids=["deficient-pair-inside", "t-past-twice-seen", "both"],
    )
    def test_validate_rejects_non_minimal_obstacle(self, s, t) -> None:
        # a perfect matching plus an isolated y3: every X-set of two or
        # more is an obstacle with an empty twice-seen neighbourhood, so
        # each (S, T) here is one, but the pair (x0, x1) with T empty is
        # smaller
        g = Bigraph.from_edges(3, 4, [(0, 0), (1, 1), (2, 2)])
        s, t = VertexSet.xs(s), VertexSet.ys(t)
        assert is_obstacle(g, s, t) and not obstacle_is_minimal(g, s, t)
        with pytest.raises(DomainError, match="obstacle is not minimal"):
            Obstacle(s, t).validate(g)
        Obstacle(VertexSet.xs([0, 1]), VertexSet.ys([])).validate(g)


class TestDegreeBound:
    def test_report_fields(self) -> None:
        g = Bigraph.complete(3, 3)
        r = check_degree_bound(g)
        assert r.n == 3 and r.max_degree == 3
        assert r.bound == 4 and r.within_bound and not r.tight
        assert not r.dhp_verified

    def test_tight_for_biplanes(self) -> None:
        for order in BUILTIN_BIPLANE_ORDERS:
            g = builtin_biplane(order)
            r = check_degree_bound(g, verify_dhp=True)
            assert r.tight and r.within_bound and r.dhp_verified

    def test_verify_rejects_non_dhp(self) -> None:
        with pytest.raises(DomainError):
            check_degree_bound(Bigraph.empty(2, 2), verify_dhp=True)

    @given(dense_bigraphs(min_nx=2, max_nx=5, min_ny=2, max_ny=5, ny_at_least_nx=True))
    def test_bound_holds_whenever_dhp_does(self, g: Bigraph) -> None:
        assume(check_dhp(g).holds)
        r = check_degree_bound(g, verify_dhp=True)
        d = r.max_degree
        assert r.bound == d * (d - 1) // 2 + 1
        assert r.within_bound

    def test_pair_gadget_not_tight(self) -> None:
        r = check_degree_bound(pair_gadget(4), verify_dhp=True)
        assert r.within_bound and not r.tight
