"""Seeded sampling, threshold formulas, per-sample scans, and sweeps."""

from __future__ import annotations

import math
import os
import random

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

import oracles
from strategies import bigraphs

from dhp import (
    Bigraph,
    ConfigError,
    DomainError,
    ResourceLimitError,
    SweepConfig,
    check_dhp,
    check_hamiltonian,
    chernoff_degree_check,
    count_bad_pairs,
    builtin_biplane,
    poisson_gof,
    run_sweep,
    sample_bipartite,
    sample_gnnp,
    scan_obstacles_size3,
    surrogate_dhp,
    threshold_p,
)
from dhp import randlab
from dhp.randlab import CSV_COLUMNS, trial_seed


class TestSampling:
    def test_determinism(self) -> None:
        a = sample_bipartite(20, 30, 0.4, seed=99)
        b = sample_bipartite(20, 30, 0.4, seed=99)
        assert a == b
        assert a != sample_bipartite(20, 30, 0.4, seed=100)

    def test_extreme_probabilities(self) -> None:
        assert sample_bipartite(5, 5, 0.0, seed=1) == Bigraph.empty(5, 5)
        assert sample_bipartite(5, 5, 1.0, seed=1) == Bigraph.complete(5, 5)

    def test_square_shortcut(self) -> None:
        assert sample_gnnp(7, 0.5, seed=3) == sample_bipartite(7, 7, 0.5, seed=3)

    def test_edge_count_is_plausible(self) -> None:
        g = sample_bipartite(100, 100, 0.3, seed=42)
        mean = 100 * 100 * 0.3
        assert abs(g.num_edges - mean) < 4 * math.sqrt(mean)

    @given(st.integers(0, 2**32), st.floats(0.1, 0.9), st.floats(0.0, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_monotone_coupling_in_p(self, seed: int, p: float, bump: float) -> None:
        # same seed, higher p: the edge set can only grow
        lo = sample_bipartite(8, 8, p, seed=seed)
        hi = sample_bipartite(8, 8, min(1.0, p + bump), seed=seed)
        for i in range(8):
            assert lo.adj_x[i] & ~hi.adj_x[i] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize(
        "nx, ny", [(1, 1), (3, 5), (9, 4), (70, 66), (130, 200), (3, (1 << 14) + 5)]
    )
    def test_vectorized_kernel_matches_scalar_reference(self, seed, nx, ny) -> None:
        want = [[randlab._uniform_scalar(seed, i, j) for j in range(ny)] for i in range(nx)]
        assert randlab._uniform_grid(seed, nx, ny).tolist() == want
        thr = randlab._threshold_u64(0.37)
        edges = [(i, j) for i in range(nx) for j in range(ny) if want[i][j] < thr]
        assert sample_bipartite(nx, ny, 0.37, seed) == Bigraph.from_edges(nx, ny, edges)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    def test_seed_outside_64_bits_rejected(self, seed: int) -> None:
        # such seeds used to alias the in-range seed with the same low 64 bits
        with pytest.raises(DomainError, match="seed"):
            sample_bipartite(20, 20, 0.5, seed)
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig((10,), (0.0,), 5, master_seed=seed).validate()

    def test_rejects_bad_arguments(self) -> None:
        with pytest.raises(DomainError):
            sample_bipartite(-1, 3, 0.5, seed=0)
        with pytest.raises(DomainError):
            sample_bipartite(3, 3, 1.5, seed=0)
        with pytest.raises(DomainError):
            sample_bipartite(3, 3, float("nan"), seed=0)


class TestThreshold:
    def test_dhp_golden_value(self) -> None:
        tp = threshold_p(10, 0.0)
        assert tp.kind == "dhp"
        assert tp.p == pytest.approx(0.7375095003615919, abs=1e-12)
        assert not tp.clamped

    def test_hamiltonian_golden_value(self) -> None:
        tp = threshold_p(10, 0.0, kind="hamiltonian")
        assert tp.p == pytest.approx(0.3136617538242002, abs=1e-12)

    def test_clamping(self) -> None:
        high = threshold_p(3, 50.0)
        assert high.p == 1.0 and high.clamped
        low = threshold_p(3, -50.0, kind="hamiltonian")
        assert low.p == 0.0 and low.clamped

    def test_monotone_in_c(self) -> None:
        ps = [threshold_p(300, c).p for c in (-2.0, 0.0, 2.0)]
        assert ps == sorted(ps)

    def test_domain_errors(self) -> None:
        with pytest.raises(DomainError):
            threshold_p(2, 0.0)
        with pytest.raises(DomainError):
            threshold_p(10, 0.0, kind="weird")

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, c: float) -> None:
        for kind in ("dhp", "hamiltonian"):
            with pytest.raises(DomainError):
                threshold_p(300, c, kind=kind)
        with pytest.raises(ConfigError):
            SweepConfig((300,), (0.0, c), 1, 0).validate()


class TestPairScan:
    def test_complete_pairs_are_clean(self) -> None:
        assert count_bad_pairs(Bigraph.complete(2, 2)) == (0, 0)

    def test_empty_graph_all_pairs_zero(self) -> None:
        assert count_bad_pairs(Bigraph.empty(3, 3)) == (3, 0)

    def test_single_shared_neighbour(self) -> None:
        g = Bigraph.from_edges(2, 3, [(0, 0), (1, 0), (0, 1), (1, 2)])
        assert count_bad_pairs(g) == (0, 1)

    @given(bigraphs(min_nx=2, max_nx=6, max_ny=6))
    def test_matches_counting_oracle(self, g: Bigraph) -> None:
        n0 = n1 = 0
        for a in range(g.nx):
            for b in range(a + 1, g.nx):
                common = len(
                    oracles.neighbors(g, a) & oracles.neighbors(g, b)
                )
                if common == 0:
                    n0 += 1
                elif common == 1:
                    n1 += 1
        assert count_bad_pairs(g) == (n0, n1)


class TestObstacleScan:
    def test_clean_graph_has_none(self) -> None:
        assert scan_obstacles_size3(Bigraph.complete(4, 4)) is None
        assert scan_obstacles_size3(Bigraph.complete(2, 2)) is None

    def test_planted_triple_found(self) -> None:
        # three x's pinned to the same two ys, everything else generous
        g = Bigraph.from_edges(
            5,
            6,
            [(i, 0) for i in range(3)]
            + [(i, 1) for i in range(3)]
            + [(3, j) for j in range(6)]
            + [(4, j) for j in range(6)],
        )
        obst = scan_obstacles_size3(g)
        assert obst is not None
        obst.validate(g)
        assert obst.minimal
        assert obst.s.indices == (0, 1, 2)
        assert obst.t.indices == (0, 1)

    @given(bigraphs(min_nx=3, max_nx=6, max_ny=6))
    def test_matches_bruteforce_triples(self, g: Bigraph) -> None:
        got = scan_obstacles_size3(g)
        expect = oracles.obstacle3_bruteforce(g)
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.s.indices == expect[0]
            assert set(got.t.indices) == expect[1]

    def test_matches_thin_scan_reference_on_sweep_samples(self) -> None:
        # below the threshold a sample has many pairs with exactly two
        # common neighbours; the records and the public scan must both
        # name the reference scan's first obstacle
        cfg = SweepConfig((20, 40, 100, 300), (-4.0, -2.0, 0.0, 2.0), 6, master_seed=8)
        found = thin = 0
        for cell in run_sweep(cfg).cells:
            for rec in cell.records:
                g = sample_gnnp(rec.n, rec.p, rec.seed)
                want = oracles.obstacle3_thin_scan_reference(g)
                for got in (rec.obstacle3, scan_obstacles_size3(g)):
                    assert (None if got is None else (got.s.indices, got.t.indices)) == want
                found += want is not None
                if cell.c == -4.0:
                    thin += sum(
                        (g.adj_x[a] & g.adj_x[b]).bit_count() == 2
                        for a in range(g.nx)
                        for b in range(a + 1, g.nx)
                    )
        assert found > 0 and thin > 1000


class TestSurrogate:
    @given(bigraphs(min_nx=2, max_nx=6, max_ny=6))
    def test_never_stricter_than_exact(self, g: Bigraph) -> None:
        if check_dhp(g).holds:
            assert surrogate_dhp(g)

    def test_agrees_with_exact_on_threshold_samples(self) -> None:
        # at n = 12 the surrogate and the exact check coincide on every
        # sample drawn at the threshold; disagreement needs a size-4+
        # obstacle with all-clean triples, which threshold samples lack
        p = threshold_p(12, 0.0).p
        mismatches = 0
        for t in range(300):
            g = sample_gnnp(12, p, seed=trial_seed(5150, 12, 0, t))
            if surrogate_dhp(g) != check_dhp(g).holds:
                mismatches += 1
        assert mismatches == 0

    def test_pair_failure_rejects(self) -> None:
        g = Bigraph.from_edges(2, 3, [(0, 0), (1, 0), (0, 1), (1, 2)])
        assert not surrogate_dhp(g)


class TestHamiltonianSearch:
    def test_complete_and_biplane(self) -> None:
        c = check_hamiltonian(Bigraph.complete(3, 3))
        assert c is not None and c.m == 3
        cube = builtin_biplane(1)
        c = check_hamiltonian(cube)
        assert c is not None and c.m == 4
        c.validate(cube)

    def test_none_when_absent(self) -> None:
        g = Bigraph.from_edges(2, 2, [(0, 0), (1, 0), (0, 1)])
        assert check_hamiltonian(g) is None

    def test_guards(self) -> None:
        with pytest.raises(DomainError):
            check_hamiltonian(Bigraph.complete(3, 4))
        with pytest.raises(ResourceLimitError):
            check_hamiltonian(Bigraph.complete(17, 17))
        with pytest.raises(DomainError):
            check_hamiltonian(Bigraph.complete(1, 1))

    @given(bigraphs(min_nx=2, max_nx=5, min_ny=2, max_ny=5))
    @settings(deadline=None)
    def test_matches_oracle_on_squares(self, g: Bigraph) -> None:
        if g.nx != g.ny:
            return
        got = check_hamiltonian(g)
        assert (got is not None) == oracles.hamiltonian_bruteforce(g)


class TestPoissonGof:
    def test_exact_fit_is_tiny(self) -> None:
        rng = random.Random(7)
        rate = 1.0
        samples = []
        for _ in range(20000):
            # inverse-transform Poisson sampling, good enough for rate 1
            u = rng.random()
            k, acc = 0, math.exp(-rate)
            total = acc
            while u > total and k < 50:
                k += 1
                acc *= rate / k
                total += acc
            samples.append(k)
        rep = poisson_gof(samples, rate)
        assert rep.tv < 0.02
        assert rep.n_samples == 20000
        assert [row["k"] for row in rep.table] == ["0", "1", "2", "3", "4+"]
        for row in rep.table:
            assert row["empirical"] == pytest.approx(row["expected"], abs=0.02)

    def test_wrong_rate_is_visible(self) -> None:
        rep = poisson_gof([0] * 500, rate=2.0)
        assert rep.tv > 0.5

    def test_needs_enough_samples(self) -> None:
        with pytest.raises(DomainError):
            poisson_gof([0] * 99, rate=1.0)

    def test_rate_too_large_for_float_powers(self) -> None:
        # far below the threshold every pair of a 20-vertex side is bad:
        # rate**k and k! overflow a float long before the pmf is small
        rep = poisson_gof([190] * 100, math.exp(10))
        assert rep.tv == pytest.approx(1.0)
        assert rep.table[-1]["expected"] == pytest.approx(1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_rate_must_be_finite_and_non_negative(self, rate: float) -> None:
        with pytest.raises(DomainError):
            poisson_gof([0] * 100, rate)

    def test_negative_samples_rejected(self) -> None:
        with pytest.raises(DomainError):
            poisson_gof([0] * 99 + [-1], 1.0)

    def test_tv_equals_full_range_sum(self) -> None:
        # rates from far above to far below the threshold (c in [-9, 6],
        # rate e^-c), samples around the rate, at the top of a 60-vertex
        # side's pair count, or mixed, so that sampled k fall inside,
        # below and above the pmf's float support
        rng = random.Random(2024)
        rates = [0.0, 1e-300, 0.5, 1.0, math.exp(9.0), 1e4]
        rates += [math.exp(-rng.uniform(-9.0, 6.0)) for _ in range(200)]
        for rate in rates:
            kind = rng.randrange(3)
            if kind == 0:
                spread = 4 * math.sqrt(rate) + 3
                samples = [max(0, round(rng.gauss(rate, spread))) for _ in range(100)]
            elif kind == 1:
                samples = [1770 - rng.randrange(3) for _ in range(100)]
            else:
                samples = [rng.choice((0, 1, 2, 1770, round(rate))) for _ in range(150)]
            assert poisson_gof(samples, rate).tv == oracles.poisson_tv_reference(samples, rate)

    def test_far_below_threshold_is_quick(self) -> None:
        # every pair of a 2000-vertex side bad: the full-range sum made
        # about two million pmf calls; the support is about ten thousand
        bad = 2000 * 1999 // 2
        rep = poisson_gof([bad] * 100, math.exp(10))
        assert rep.tv == pytest.approx(1.0)
        assert len(randlab._poisson_support(math.exp(10), bad)) < 20_000


class TestChernoff:
    def test_complete_graph_ratio(self) -> None:
        rep = chernoff_degree_check(Bigraph.complete(9, 9), 1.0)
        assert rep["max_degree"] == 9
        assert rep["ratio"] == pytest.approx(1.0)
        assert rep["within_bound"]

    def test_zero_probability(self) -> None:
        rep = chernoff_degree_check(Bigraph.empty(5, 5), 0.0)
        assert rep["max_degree"] == 0
        assert rep["ratio"] is None

    @pytest.mark.parametrize("p", [-0.1, 1.5, 2.0, math.inf, math.nan])
    def test_probability_outside_unit_interval_rejected(self, p: float) -> None:
        with pytest.raises(DomainError):
            chernoff_degree_check(Bigraph.complete(9, 9), p)


@pytest.fixture
def no_kept_pool(monkeypatch):
    """Shut the kept sweep pool down, so the test's sweep builds its pool
    through ``ProcessPoolExecutor``; the pool the test keeps is forgotten."""
    randlab._drop_pool()
    monkeypatch.setattr(randlab, "_pool", None)


class TestSweeps:
    def test_config_validation(self) -> None:
        good = SweepConfig((10,), (0.0,), 5, 1)
        good.validate()
        with pytest.raises(ConfigError):
            SweepConfig((), (0.0,), 5, 1).validate()
        with pytest.raises(ConfigError):
            SweepConfig((10,), (), 5, 1).validate()
        with pytest.raises(ConfigError):
            SweepConfig((2,), (0.0,), 5, 1).validate()
        with pytest.raises(ConfigError):
            SweepConfig((10,), (0.0,), 0, 1).validate()
        with pytest.raises(ConfigError):
            SweepConfig((10,), (0.0,), 5, 1, measures=("zeta",)).validate()
        with pytest.raises(ConfigError):
            SweepConfig(
                (300,), (0.0,), 5, 1, measures=("pair", "exact")
            ).validate()

    def test_sweep_repeatability(self) -> None:
        cfg = SweepConfig((12,), (-1.0, 1.0), 40, master_seed=77)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.to_csv() == b.to_csv()
        assert a.to_json_obj() == b.to_json_obj()

    def test_worker_count_invariance(self) -> None:
        serial = SweepConfig((12,), (0.0,), 30, master_seed=5, jobs=1)
        parallel = SweepConfig((12,), (0.0,), 30, master_seed=5, jobs=2)
        assert run_sweep(serial).to_csv() == run_sweep(parallel).to_csv()

    @pytest.mark.parametrize("c", [-10.0, -800.0])
    def test_far_below_threshold_tv_tends_to_one(self, c: float) -> None:
        # p clamps to 0, so all 190 pairs are bad and the rate exp(-c) is
        # beyond float powers (c = -10) or beyond a float at all (c = -800)
        cell = run_sweep(SweepConfig((20,), (c,), 100, master_seed=1)).cells[0]
        assert cell.p == 0.0 and cell.mean_nbad == 190
        assert cell.tv_poisson == pytest.approx(1.0)

    @pytest.mark.usefixtures("no_kept_pool")
    @pytest.mark.parametrize("cores, want", [(1, None), (2, 2), (64, 3)])
    def test_workers_bounded_by_tasks_and_cores(self, monkeypatch, cores, want) -> None:
        import concurrent.futures

        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        cfg = SweepConfig((10,), (0.0,), 3, master_seed=9, jobs=10**6)
        got = run_sweep(cfg).to_csv()
        assert started == ([] if want is None else [want])
        assert got == run_sweep(SweepConfig((10,), (0.0,), 3, master_seed=9)).to_csv()

    @pytest.mark.parametrize(
        "measures, packs",
        [
            (("pair", "obstacle3", "maxdeg"), False),
            (("pair", "exact"), True),
            (("pair", "hamiltonian"), True),
        ],
    )
    def test_bigraph_packed_only_for_exact_measures(self, monkeypatch, measures, packs) -> None:
        calls = []
        from_dense = Bigraph.from_dense.__func__

        def counting(cls, mat):
            calls.append(mat.shape)
            return from_dense(cls, mat)

        monkeypatch.setattr(Bigraph, "from_dense", classmethod(counting))
        run_sweep(SweepConfig((8,), (-1.0, 1.0), 3, master_seed=4, measures=measures))
        assert len(calls) == (6 if packs else 0)

    def test_records_are_recomputable(self) -> None:
        # every recorded statistic, redone through the public functions
        cfg = SweepConfig((10,), (0.0,), 10, master_seed=13)
        rep = run_sweep(cfg)
        for rec in rep.cells[0].records:
            g = sample_gnnp(rec.n, rec.p, rec.seed)
            n0, n1 = count_bad_pairs(g)
            obstacle = scan_obstacles_size3(g)
            maxdeg = g.max_degree()
            again = randlab.TrialRecord(
                seed=rec.seed,
                n=rec.n,
                c=rec.c,
                p=rec.p,
                n0=n0,
                n1=n1,
                pair_ok=n0 == 0 and n1 == 0,
                max_degree=maxdeg,
                obstacle3=obstacle,
                surrogate=surrogate_dhp(g),
                maxdeg_ratio=maxdeg / math.sqrt(2 * rec.n * math.log(rec.n)),
            )
            assert again == rec
            assert type(rec.max_degree) is int

    def test_crn_shares_seeds_across_offsets(self) -> None:
        cfg = SweepConfig((10,), (-1.0, 1.0), 8, master_seed=3, crn=True)
        rep = run_sweep(cfg)
        lo, hi = rep.cells
        assert [r.seed for r in lo.records] == [r.seed for r in hi.records]
        # and the coupling makes the sampled graphs nested edge-wise,
        # so every pair statistic moves the right way
        for a, b in zip(lo.records, hi.records):
            assert a.n_bad >= b.n_bad

    def test_no_crn_uses_distinct_seeds(self) -> None:
        cfg = SweepConfig((10,), (-1.0, 1.0), 8, master_seed=3, crn=False)
        rep = run_sweep(cfg)
        lo, hi = rep.cells
        assert [r.seed for r in lo.records] != [r.seed for r in hi.records]

    def test_csv_shape(self) -> None:
        cfg = SweepConfig((10,), (0.0,), 5, master_seed=2)
        text = run_sweep(cfg).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert len(row) == len(CSV_COLUMNS)
        # measures that were not requested leave their columns empty
        empty = {
            CSV_COLUMNS.index("pr_exact_dhp"),
            CSV_COLUMNS.index("pr_hamiltonian"),
            CSV_COLUMNS.index("tv_poisson"),
        }
        for ix in empty:
            assert row[ix] == ""

    def test_records_with_an_obstacle_serialize(self) -> None:
        import json

        from dhp.checkers import Obstacle
        from dhp.core import VertexSet

        rep = run_sweep(SweepConfig((7,), (-2.0,), 5, master_seed=0))
        obj = json.loads(json.dumps(rep.to_json_obj(include_records=True)))
        records = obj["cells"][0]["records"]
        assert all("surrogate_dhp" in r and "surrogate" not in r for r in records)
        found = [r for r in records if r["obstacle3"] is not None]
        assert len(found) == 2
        for rec in found:
            obstacle = Obstacle(
                s=VertexSet.xs(rec["obstacle3"]["S"]),
                t=VertexSet.ys(rec["obstacle3"]["T"]),
                minimal=rec["obstacle3"]["minimal"],
            )
            obstacle.validate(sample_gnnp(rec["n"], rec["p"], rec["seed"]))

    def test_exact_measures_in_small_sweeps(self) -> None:
        cfg = SweepConfig(
            (8,),
            (0.0,),
            25,
            master_seed=21,
            measures=("pair", "obstacle3", "exact", "hamiltonian"),
        )
        rep = run_sweep(cfg)
        cell = rep.cells[0]
        assert cell.pr_exact_dhp is not None
        assert cell.pr_hamiltonian is not None
        for rec in cell.records:
            g = sample_gnnp(rec.n, rec.p, rec.seed)
            assert rec.exact_dhp == check_dhp(g).holds


class TestNestedKernel:
    """A sweep task visits its offsets in increasing p and profiles, after
    the first, only the rows still in a pair with at most two common
    neighbours; the records must be those of the full sample at each p."""

    @staticmethod
    def _count_profiled_rows(monkeypatch) -> list[int]:
        sizes = []
        profile = randlab._pair_profile

        def counting(mat, tri):
            sizes.append(len(mat))
            return profile(mat, tri)

        monkeypatch.setattr(randlab, "_pair_profile", counting)
        return sizes

    def test_matches_per_offset_reference(self, monkeypatch) -> None:
        sizes = self._count_profiled_rows(monkeypatch)
        rng = random.Random(20)
        # +-1000 clamp p to 0 and to 1; at p = 1 no pair has <= 2 common
        # neighbours, so a repeated p = 1 profiles no rows at all
        offsets = (-1000.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 1000.0)
        fixed = [(2.0, -2.0, 0.0, -2.0), (1000.0, -2.0, 1000.0), (0.0,), (-1000.0,)]
        tasks = shrunk = emptied = 0
        for n in (3, 4, 7, 30, 100, 300):
            for t in range(50):
                if t < len(fixed):
                    cs = fixed[t]
                else:
                    cs = tuple(rng.choice(offsets) for _ in range(rng.randint(1, 5)))
                measures = ("pair", "obstacle3", "maxdeg")
                if t % 5 == 1:
                    measures = ("pair", "maxdeg")
                elif t % 5 == 2 and n <= 7:
                    measures = ("pair", "obstacle3", "exact", "hamiltonian")
                cps = tuple((c, threshold_p(n, c).p) for c in cs)
                task = (rng.getrandbits(64), n, cps, measures, 16)
                want = oracles.sweep_seed_reference(task)
                start = len(sizes)
                assert randlab._run_seed(task) == want, task
                first, *later = sizes[start:]
                assert first == n and len(later) == len(cps) - 1
                shrunk += any(m < n for m in later)
                emptied += 0 in later
                tasks += 1
        assert tasks >= 300 and shrunk > 100 and emptied >= 6

    def test_one_full_profile_per_seed(self, monkeypatch) -> None:
        # at the bench shape only the first offset of a seed profiles all
        # n rows; three full products per seed would fail here
        sizes = self._count_profiled_rows(monkeypatch)
        trials, n = 4, 300
        run_sweep(SweepConfig((n,), (2.0, -2.0, 0.0), trials, master_seed=3))
        assert len(sizes) == 3 * trials
        for t in range(trials):
            first, *later = sizes[3 * t : 3 * t + 3]
            assert first == n and all(m < n for m in later)


class TestSampleSizeCap:
    def test_over_cap_raises_before_allocating(self) -> None:
        import tracemalloc

        side = 4097  # 4097**2 > MAX_SAMPLE_CELLS = 4096**2
        assert side * side > randlab.MAX_SAMPLE_CELLS >= 4096 * 4096
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                sample_bipartite(side, side, 0.5, 0)
            with pytest.raises(ResourceLimitError):
                sample_gnnp(side, 0.0, 0)
            with pytest.raises(ResourceLimitError):
                run_sweep(SweepConfig((10, side), (0.0,), 1, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_admits_its_own_size(self) -> None:
        SweepConfig((4096,), (0.0,), 1, 0).validate()
        assert sample_bipartite(1 << 12, 0, 0.5, 0).nx == 1 << 12


class TestSweepRecordCap:
    def test_over_cap_raises_before_building_tasks(self) -> None:
        import tracemalloc

        cap = randlab.MAX_SWEEP_RECORDS
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="sweep cap"):
                run_sweep(SweepConfig((3,), (0.0,), cap + 1, 0))
            with pytest.raises(ResourceLimitError, match="sweep cap"):
                run_sweep(SweepConfig((3, 4), (0.0, 1.0), cap // 4 + 1, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_admits_its_own_size(self) -> None:
        SweepConfig((3, 4), (0.0, 1.0), randlab.MAX_SWEEP_RECORDS // 4, 0).validate()


class TestSweepOutputPinned:
    """sha256 of the CSV plus the sorted records JSON, recorded before the
    sweep kernel worked from the dense sample."""

    CASES = {
        "crn_jobs1_n12_n40": (
            SweepConfig((12, 40), (-1.0, 0.0, 1.0), 30, master_seed=7, jobs=1, crn=True),
            "f1f71b57488a7514f2e919ad3e9d5020c25bfca14ad470b5391db2fbcec18973",
        ),
        "nocrn_jobs2_n13": (
            SweepConfig((13,), (-2.0, 2.0), 25, master_seed=11, jobs=2, crn=False),
            "10d8f73af929a5ce2a48e6d835796c6232185378431270214acda402665136f5",
        ),
        "clamped_n5": (
            SweepConfig((5,), (-30.0, 50.0), 20, master_seed=3),
            "630e0993ff6622cb4706365cb2517c3451096addbcb081917610a12748ab31ad",
        ),
        "exact_ham_n10": (
            SweepConfig(
                (10,),
                (-1.0, 1.0),
                15,
                master_seed=19,
                jobs=2,
                measures=("pair", "obstacle3", "exact", "hamiltonian", "maxdeg"),
            ),
            "bd9eee6abbaef84353c9849ac0b5ae51cdee37c19d153d9b6b90874754cc4f43",
        ),
        "crn_jobs2_n100": (
            SweepConfig((100,), (-2.0, 0.0, 2.0), 10, master_seed=5, jobs=2, crn=True),
            "467848d17a9be078ef56991796fb616540af917a17f83aba3c666dfdce8673a0",
        ),
        # recorded before the kernel visited a seed's offsets in increasing p
        "bench_shape_n300": (
            SweepConfig((300,), (-2.0, 0.0, 2.0), 5, master_seed=1),
            "6db49365765d3aea28ea64d12cb8451b946c0785b9252c1cb475716e0e597315",
        ),
        "unsorted_repeat_jobs2_n60": (
            SweepConfig((60,), (2.0, -2.0, 0.0, -2.0), 20, master_seed=9, jobs=2),
            "32d23c8323c8ba0cc30d158b2e9ccd814b18fb05e5ba8cc37b8865e1a67ceff5",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_bytes_unchanged(self, name: str) -> None:
        import hashlib
        import json

        cfg, want = self.CASES[name]
        rep = run_sweep(cfg)
        blob = rep.to_csv() + json.dumps(rep.to_json_obj(include_records=True), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == want

    def test_clamped_case_clamps_both_ends(self) -> None:
        low, high = (threshold_p(5, c) for c in (-30.0, 50.0))
        assert (low.p, low.clamped, high.p, high.clamped) == (0.0, True, 1.0, True)


def _blas_function(kind: str):
    """The thread-count getter (``kind`` "get") or setter ("set") of the
    OpenBLAS that numpy's products call, if it exports one."""
    import ctypes

    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        fn = getattr(lib, name.format(kind), None)
        if fn is not None:
            fn.argtypes = [] if kind == "get" else [ctypes.c_int]
            fn.restype = ctypes.c_int if kind == "get" else None
            return fn
    return None


def _blas_threads() -> int | None:
    """This process's OpenBLAS thread count, if a loaded library reports it."""
    get = _blas_function("get")
    return None if get is None else get()


def _spy_unpack(seen: list):
    """An ``_unpack_graph`` whose matrices append to ``seen`` the BLAS thread
    count each of their matrix products starts at."""
    import numpy as np

    class Spy(np.ndarray):
        def __matmul__(self, other):
            seen.append(_blas_threads())
            return np.asarray(self) @ np.asarray(other)

    unpack = randlab._unpack_graph
    return lambda g: unpack(g).view(Spy)


def _threads_in_product() -> tuple[list, int | None]:
    """The BLAS thread counts that one ``count_bad_pairs`` call's products
    run at, and this process's count after the call."""
    seen: list = []
    unpack = randlab._unpack_graph
    randlab._unpack_graph = _spy_unpack(seen)
    try:
        count_bad_pairs(sample_gnnp(60, 0.3, 1))
    finally:
        randlab._unpack_graph = unpack
    return seen, _blas_threads()


@pytest.fixture
def two_blas_threads():
    """This process's OpenBLAS set to two threads, then set back."""
    before = _blas_threads()
    if before is None:
        pytest.skip("no loaded OpenBLAS reports its thread count")
    _blas_function("set")(2)
    yield
    _blas_function("set")(before)


@pytest.fixture
def fresh_blas_lookup():
    """The scope's library lookup made again in the test, and after it."""
    randlab._blas_thread_api.cache_clear()
    yield
    randlab._blas_thread_api.cache_clear()


class TestWorkerBlasThreads:
    """Every pair-count product runs on one BLAS thread, and the caller's
    thread count is back afterwards."""

    def test_product_pinned_in_the_caller(self, two_blas_threads) -> None:
        assert _threads_in_product() == ([1], 2)

    def test_workers_pinned_and_parent_untouched(self, two_blas_threads, monkeypatch) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        randlab._drop_pool()
        try:
            run_sweep(SweepConfig((12,), (0.0,), 4, master_seed=1, jobs=2))
            worker = randlab._pool[1].submit(_threads_in_product)
            assert worker.result(timeout=60) == ([1], 2)
        finally:
            randlab._drop_pool()
        assert _blas_threads() == 2

    def test_threads_share_the_scope(self, two_blas_threads, monkeypatch) -> None:
        import sys
        import threading

        g = sample_gnnp(40, 0.3, 5)
        want = count_bad_pairs(g)
        seen: list = []
        monkeypatch.setattr(randlab, "_unpack_graph", _spy_unpack(seen))
        got: list = []

        def work() -> None:
            got.extend(count_bad_pairs(g) for _ in range(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 400
        assert seen == [1] * 400
        assert _blas_threads() == 2

    def test_fork_inside_the_scope(self, two_blas_threads) -> None:
        import signal
        import threading
        import time

        inside, leave = threading.Event(), threading.Event()

        def hold() -> None:
            with randlab._one_blas_thread():
                inside.set()
                leave.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert inside.wait(timeout=60)
            child = os.fork()
            if child == 0:  # the child reports through its exit status
                status = 1
                try:
                    status = 0 if _threads_in_product() == ([1], 2) else 2
                finally:
                    os._exit(status)
            deadline = time.monotonic() + 60
            while (done := os.waitpid(child, os.WNOHANG)) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(child, signal.SIGKILL)
                    os.waitpid(child, 0)
                    pytest.fail("the forked child hung in its product")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(done[1]) == 0
        finally:
            leave.set()
            holder.join(timeout=60)
        assert not holder.is_alive()
        assert _blas_threads() == 2

    def _scope_is_silent(self) -> None:
        assert randlab._blas_thread_api() is None
        g = sample_gnnp(30, 0.2, 2)
        common = [
            len(oracles.neighbors(g, a) & oracles.neighbors(g, b))
            for a in range(g.nx)
            for b in range(a + 1, g.nx)
        ]
        with randlab._one_blas_thread():
            assert count_bad_pairs(g) == (common.count(0), common.count(1))

    def test_scope_is_silent_without_symbols(self, monkeypatch, fresh_blas_lookup) -> None:
        import ctypes

        class NoSymbols:
            pass

        class GettersOnly:  # half of each pair is not a pair
            scipy_openblas_get_num_threads64_ = openblas_get_num_threads = staticmethod(lambda: 2)

        for lib in (NoSymbols, GettersOnly):
            with monkeypatch.context() as m:
                m.setattr(ctypes, "CDLL", lambda path: lib())
                randlab._blas_thread_api.cache_clear()
                self._scope_is_silent()

    def test_scope_is_silent_with_unloadable_library(
        self, monkeypatch, fresh_blas_lookup, tmp_path
    ) -> None:
        import ctypes

        from numpy._core import _multiarray_umath

        def unloadable(path):
            raise OSError(path)

        not_a_library = tmp_path / "not_a_library.so"
        not_a_library.write_text("text\n")
        for target, name, value in (
            (ctypes, "CDLL", unloadable),
            (_multiarray_umath, "__file__", str(not_a_library)),
        ):
            with monkeypatch.context() as m:
                m.setattr(target, name, value)
                randlab._blas_thread_api.cache_clear()
                self._scope_is_silent()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pids() -> set[int]:
    import multiprocessing

    return {p.pid for p in multiprocessing.active_children()}


def _kill_own_worker(task) -> None:
    """A trial kernel that kills the sweep worker running it."""
    import multiprocessing
    import signal

    assert multiprocessing.parent_process() is not None, "not in a sweep worker"
    os.kill(os.getpid(), signal.SIGKILL)


def _report_bytes(rep) -> str:
    """The CSV and every cell with its records: all but the config echo."""
    import json

    cells = [cell.to_json_obj(include_records=True) for cell in rep.cells]
    return rep.to_csv() + json.dumps(cells, sort_keys=True)


class TestKeptPool:
    """A parallel sweep keeps its worker pool for the process's later sweeps.
    Two usable cores are reported, so every pool here has two workers."""

    CONFIG = SweepConfig((12, 20), (-1.0, 1.0), 6, master_seed=21, jobs=2)

    @pytest.fixture(autouse=True)
    def own_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        randlab._drop_pool()
        yield
        randlab._drop_pool()

    def _serial_bytes(self) -> str:
        import dataclasses

        return _report_bytes(run_sweep(dataclasses.replace(self.CONFIG, jobs=1)))

    def test_consecutive_sweeps_share_their_workers(self) -> None:
        first = _report_bytes(run_sweep(self.CONFIG))
        pids = _worker_pids()
        second = _report_bytes(run_sweep(self.CONFIG))
        assert len(pids) == 2 and _worker_pids() == pids
        assert first == second == self._serial_bytes()

    def test_threads_take_turns_with_one_pool(self) -> None:
        import threading

        want = self._serial_bytes()
        got = []

        def sweeps():
            for _ in range(3):
                got.append(_report_bytes(run_sweep(self.CONFIG)))

        threads = [threading.Thread(target=sweeps) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 6
        assert len(_worker_pids()) == 2

    def test_new_worker_count_replaces_the_pool(self) -> None:
        run_sweep(self.CONFIG)
        old_pids, old_pool = _worker_pids(), randlab._pool[1]
        # a one-worker pool forks nothing before its first task
        assert randlab._sweep_pool(1) is not old_pool
        assert not any(_alive(pid) for pid in old_pids)
        assert _worker_pids() == set()
        assert _report_bytes(run_sweep(self.CONFIG)) == self._serial_bytes()
        assert randlab._pool[0] == 2
        assert len(_worker_pids()) == 2 and not _worker_pids() & old_pids

    def test_killed_worker_is_replaced_by_a_fresh_pool(self) -> None:
        import signal
        import time

        want = _report_bytes(run_sweep(self.CONFIG))
        old_pids = _worker_pids()
        os.kill(min(old_pids), signal.SIGKILL)
        # the pool notices the death on its own, stops the other worker and
        # reaps both; wait for that, so the next sweep finds the pool broken
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in old_pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(_alive(pid) for pid in old_pids)
        assert _report_bytes(run_sweep(self.CONFIG)) == want
        assert len(_worker_pids()) == 2 and not _worker_pids() & old_pids

    def test_worker_killed_during_a_sweep_drops_the_pool(self, monkeypatch) -> None:
        from concurrent.futures.process import BrokenProcessPool

        want = self._serial_bytes()
        with monkeypatch.context() as m:
            # the pool's workers are forked at its first task, so they run this kernel
            m.setattr(randlab, "_run_seed", _kill_own_worker)
            with pytest.raises(BrokenProcessPool):
                run_sweep(self.CONFIG)
        assert randlab._pool is None and _worker_pids() == set()
        assert _report_bytes(run_sweep(self.CONFIG)) == want
        assert len(_worker_pids()) == 2

    def _forked_sweep(self, want: str) -> dict:
        """Fork a child that runs ``CONFIG`` with an inline pool, and return
        the worker counts of the pools it started and whether its report
        bytes are ``want``.  A child that hangs fails the test."""
        import concurrent.futures
        import json
        import signal
        import time

        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:  # the child reports through the pipe and never returns
            status = 1
            try:
                os.close(read_end)
                started = []

                class InlinePool:
                    def __init__(self, max_workers):
                        started.append(max_workers)

                    def map(self, fn, items, chunksize=1):
                        return map(fn, items)

                # a reused pool would send the tasks to the parent's
                # workers, whose results no thread of the child collects
                concurrent.futures.ProcessPoolExecutor = InlinePool
                same = _report_bytes(run_sweep(self.CONFIG)) == want
                os.write(write_end, json.dumps({"started": started, "same": same}).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        deadline = time.monotonic() + 60
        while os.waitpid(child, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
                pytest.fail("the forked child hung in its sweep")
            time.sleep(0.01)
        with os.fdopen(read_end) as fh:
            return json.loads(fh.read())

    def test_forked_child_does_not_reuse_the_pool(self, monkeypatch) -> None:
        import threading

        want = _report_bytes(run_sweep(self.CONFIG))
        pids = _worker_pids()
        # forked while the pool is idle
        assert self._forked_sweep(want) == {"started": [2], "same": True}
        # forked while another thread is inside a parallel sweep, holding the
        # pool's lock: its first pool lookup waits until the fork is done
        inside, leave = threading.Event(), threading.Event()
        sweep_pool, hold = randlab._sweep_pool, [True]

        def held_pool(workers):
            if hold:  # emptied before the fork, so the child passes through
                hold.clear()
                inside.set()
                leave.wait(timeout=60)
            return sweep_pool(workers)

        monkeypatch.setattr(randlab, "_sweep_pool", held_pool)
        busy: list = []
        thread = threading.Thread(target=lambda: busy.append(_report_bytes(run_sweep(self.CONFIG))))
        thread.start()
        try:
            assert inside.wait(timeout=60)
            got = self._forked_sweep(want)
        finally:
            leave.set()
            thread.join(timeout=120)
        assert got == {"started": [2], "same": True}
        assert not thread.is_alive() and busy == [want]
        # the children left the parent's pool alone
        assert _report_bytes(run_sweep(self.CONFIG)) == want
        assert _worker_pids() == pids

    def test_no_worker_outlives_its_caller(self) -> None:
        import json
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import json, multiprocessing, os
            from dhp import SweepConfig, run_sweep

            os.sched_getaffinity = lambda pid: {0, 1}
            run_sweep(SweepConfig((12,), (0.0,), 4, master_seed=1, jobs=2))
            print(json.dumps(sorted(p.pid for p in multiprocessing.active_children())))
            """
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(randlab.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        pids = json.loads(proc.stdout.splitlines()[-1])
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)
