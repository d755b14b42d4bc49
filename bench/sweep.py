"""Workload ``sweep_n300``: ``run_sweep`` at the shape of the acceptance
fixture, n = 300 and c in {-2, 0, 2} under common random numbers, measuring
``pair,obstacle3,maxdeg``.

Why: the paper's threshold numbers come from sweeps of this shape.  Almost
all of their time goes to sampling, the ``Bigraph`` build, the BLAS pair
profile and the process pool; ``checkers`` and ``cycles`` do no work here.

Each repetition runs the same grid (one master seed per repetition) once
with jobs = 2 and once with jobs = 1, alternating which goes first.  Checks:
the two reports are identical, per-seed indicators are monotone in c, and
a few records per grid recompute exactly through the public functions.
The sha256 of the first grid's CSV is reported but not gated on, because
the seed derivation is expected to change on purpose.

The traced replay re-draws the trials of the first grid stage by stage:
``trial_seed`` -> ``sample_gnnp`` -> ``Bigraph`` rebuild ->
``count_bad_pairs`` -> ``scan_obstacles_size3`` -> ``max_degree``.
``sample_gnnp`` builds its ``Bigraph`` inside, so its reported time is its
span minus the separately timed rebuild.  ``count_bad_pairs`` is the pair
profile alone; ``scan_obstacles_size3`` computes the profile again and then
scans the thin pairs, which is what a sweep trial does once.  So the
per-trial overhead of ``run_sweep`` is its per-trial worker time minus the
stages a trial does once: ``trial_seed``, ``sample_gnnp`` (with its
``Bigraph``), ``scan_obstacles_size3`` and ``max_degree``.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

from dhp import (
    Bigraph,
    SweepConfig,
    count_bad_pairs,
    run_sweep,
    sample_gnnp,
    scan_obstacles_size3,
    threshold_p,
)
from dhp.errors import DhpError
from dhp.randlab import trial_seed

from tracer import NULL, Tracer
from util import median, repeat_for

N = 300
C_LIST = (-2.0, 0.0, 2.0)
MEASURES = ("pair", "obstacle3", "maxdeg")
TRIALS = 25  # per cell
GRID_TRIALS = len(C_LIST) * TRIALS
JOBS = 2
RECOMPUTED_PER_GRID = 3

STAGES = (
    "randlab.trial_seed",
    "randlab.sample_gnnp",
    "core.Bigraph",
    "randlab.count_bad_pairs",
    "randlab.scan_obstacles_size3",
    "core.Bigraph.max_degree",
)


def setup(seed: int) -> dict:
    """The seed the grids derive from, a seeded picker of the records to
    recompute, and the edge probabilities the cells must use."""
    return {
        "seed": seed,
        "rng": random.Random(seed),
        "p": {c: threshold_p(N, c, "dhp").p for c in C_LIST},
    }


def _config(seed: int, rep: int, jobs: int) -> SweepConfig:
    return SweepConfig(
        n_list=(N,),
        c_list=C_LIST,
        trials=TRIALS,
        master_seed=seed * 1000 + rep,
        measures=MEASURES,
        jobs=jobs,
        crn=True,
    )


def _recompute(rec) -> list[str]:
    """Redo one trial record through the public functions."""
    g = sample_gnnp(rec.n, rec.p, rec.seed)
    n0, n1 = count_bad_pairs(g)
    obs = scan_obstacles_size3(g)
    pair_ok = n0 == 0 and n1 == 0
    maxdeg = g.max_degree()
    want = (
        n0,
        n1,
        pair_ok,
        maxdeg,
        None if obs is None else obs.to_json_obj(),
        pair_ok and obs is None,
        maxdeg / math.sqrt(2 * rec.n * math.log(rec.n)),
    )
    got = (
        rec.n0,
        rec.n1,
        rec.pair_ok,
        rec.max_degree,
        None if rec.obstacle3 is None else rec.obstacle3.to_json_obj(),
        rec.surrogate,
        rec.maxdeg_ratio,
    )
    problems = []
    if want != got:
        problems.append(f"record seed={rec.seed} c={rec.c} recomputes as {want}, report has {got}")
    if obs is not None:
        try:
            obs.validate(g)
        except DhpError as exc:
            problems.append(f"record seed={rec.seed}: obstacle invalid: {exc}")
    return problems


def _check_report(state: dict, report) -> list[str]:
    cfg = report.config
    problems = []
    cells = sorted(report.cells, key=lambda cell: cell.c)
    if [cell.c for cell in cells] != list(C_LIST):
        return [f"cells {[cell.c for cell in cells]} != {list(C_LIST)}"]
    for cell in cells:
        if cell.p != state["p"][cell.c] or len(cell.records) != TRIALS:
            problems.append(f"cell c={cell.c} has p={cell.p}, {len(cell.records)} records")
    for t in range(TRIALS):
        recs = [cell.records[t] for cell in cells]
        want_seed = trial_seed(cfg.master_seed, N, 0, t)
        if any(r.seed != want_seed for r in recs):
            problems.append(f"trial {t}: seeds differ across c under CRN")
        for flag in ("pair_ok", "surrogate"):
            seq = [bool(getattr(r, flag)) for r in recs]
            if seq != sorted(seq):
                problems.append(f"trial {t}: {flag} not monotone in c: {seq}")
    for _ in range(RECOMPUTED_PER_GRID):
        cell = state["rng"].choice(cells)
        problems += _recompute(state["rng"].choice(cell.records))
    return problems


def _grid_pair(state: dict, rep: int, tally, times: dict, ref) -> dict:
    """Run one grid at jobs = 2 and jobs = 1, check both; return the reports."""
    reports = {}
    for jobs in ((JOBS, 1) if rep % 2 == 0 else (1, JOBS)):
        if ref is not None:
            ref.tick()
        cfg = _config(state["seed"], rep, jobs)
        t0 = time.perf_counter()
        reports[jobs] = run_sweep(cfg)
        times[jobs].append(time.perf_counter() - t0)
    one, many = reports[1], reports[JOBS]
    tally.op(_check_report(state, one), f"run_sweep jobs=1 rep={rep}")
    same = [c.to_json_obj(include_records=True) for c in one.cells] == [
        c.to_json_obj(include_records=True) for c in many.cells
    ] and one.to_csv() == many.to_csv()
    tally.op([] if same else ["jobs=1 and jobs=2 reports differ"], f"run_sweep jobs={JOBS} rep={rep}")
    return reports


def _grids(state: dict, seconds: float, tally, ref=None):
    """Grid pairs over ``seconds``: (grid seconds by jobs, first jobs-1 report)."""
    times = {JOBS: [], 1: []}
    pairs = repeat_for(seconds, lambda: _grid_pair(state, len(times[1]), tally, times, ref), least=2)
    return times, pairs[0][1]


def _trials_per_s(times: dict) -> dict:
    """Trials per second of the median grid, by jobs setting."""
    return {j: GRID_TRIALS / median(ts) for j, ts in times.items()}


def run(state: dict, seconds: float, tally, ref) -> tuple[dict, dict, dict]:
    times, first = _grids(state, seconds, tally, ref)
    tput = _trials_per_s(times)
    metrics = {"throughput_per_s": tput[JOBS], "latency_ms": 1e3 / tput[1]}
    report = {
        "sweep_trials_per_s": (tput[JOBS], "trials/s"),
        "sweep_trials_per_s_jobs1": (tput[1], "trials/s"),
        "grids_per_jobs_setting": (len(times[1]), "count"),
        "sweep_csv_sha256": (hashlib.sha256(first.to_csv().encode()).hexdigest(), "sha256"),
    }
    return metrics, report, {"grid_s_by_jobs": times}


def _replay(report, tracer, tally) -> None:
    cfg = report.config
    problems = []
    for cell in report.cells:
        for t, rec in enumerate(cell.records):
            cid = f"c={cell.c}/t={t}"
            with tracer.span("trial", cid):
                with tracer.span("randlab.trial_seed", cid):
                    seed = trial_seed(cfg.master_seed, N, 0, t)
                with tracer.span("randlab.sample_gnnp", cid):
                    g = sample_gnnp(N, cell.p, seed)
                with tracer.span("core.Bigraph", cid):
                    Bigraph(g.nx, g.ny, g.adj_x)
                with tracer.span("randlab.count_bad_pairs", cid):
                    n0, n1 = count_bad_pairs(g)
                with tracer.span("randlab.scan_obstacles_size3", cid):
                    obs = scan_obstacles_size3(g)
                with tracer.span("core.Bigraph.max_degree", cid):
                    maxdeg = g.max_degree()
            got = (seed, n0, n1, None if obs is None else obs.to_json_obj(), maxdeg)
            want = (
                rec.seed,
                rec.n0,
                rec.n1,
                None if rec.obstacle3 is None else rec.obstacle3.to_json_obj(),
                rec.max_degree,
            )
            if got != want:
                problems.append(f"replayed trial {cid} gives {got}, sweep gave {want}")
    tally.op(problems, "sweep replay")


def trace(state: dict, seconds: float, tally, tracer: Tracer) -> dict:
    """Per-stage times of the replayed trials, with the sweep's own
    per-trial cost and the jobs-2 speed-up for comparison."""
    times, first = _grids(state, seconds / 2, tally)
    tput = _trials_per_s(times)
    plain, traced, stage_ms = [], [], []

    def replay_pair():
        t0 = time.perf_counter()
        _replay(first, NULL, tally)
        plain.append(time.perf_counter() - t0)
        mark = tracer.mark()
        t0 = time.perf_counter()
        _replay(first, tracer, tally)
        traced.append(time.perf_counter() - t0)
        by_name = tracer.self_ms_by_name(mark)
        stage_ms.append({s: by_name.get(s, 0.0) / GRID_TRIALS for s in STAGES})

    repeat_for(seconds / 2, replay_pair)
    stage = {s: median(d[s] for d in stage_ms) for s in STAGES}
    stage["randlab.sample_gnnp"] -= stage["core.Bigraph"]
    once = sum(v for s, v in stage.items() if s != "randlab.count_bad_pairs")
    worker_ms = JOBS * 1e3 / tput[JOBS]
    out = {f"{s}.ms": v for s, v in stage.items()}
    out.update(
        {
            "randlab.run_sweep.overhead_ms_per_trial": worker_ms - once,
            "randlab.run_sweep.jobs2_speedup": tput[JOBS] / tput[1],
            "randlab.run_sweep.trials_per_s_jobs1": tput[1],
            "trace.overhead_ms": (median(traced) - median(plain)) * 1e3,
        }
    )
    return out
