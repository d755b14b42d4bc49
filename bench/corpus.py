"""Workload ``exact_corpus``: a fixed list of single calls into the exact
exponential code, ``checkers`` and ``cycles``.

Why: all of its time goes to the pure-Python subset scans and cycle
searches; randlab only draws a few small graphs.  It mixes full scans
(the property holds) with early exits (it fails), so a prune or a shared
search that helps one side at the other's cost shows.

Every call gets its own explicit work cap through a ``WorkBudget`` made
here, and its work units are read back from outside (limit - remaining).
A call that runs out of its cap is a counted outcome, ``budget_exhausted``,
not a failure: some items are sized to exhaust on purpose.
``solve_high_degree`` and ``solve_degree_split`` under-count their units,
because their verify step runs ``check_dhp`` on a fresh budget instead of
the one passed in; the counts are recorded as they are.

The corpus has a fixed part, the same for every seed, and a part drawn
from the seed.  The fixed part holds the expensive full scans, so the
pass time does not swing with which graphs a seed happens to draw.  Every
verdict and first witness is checked with the library's own validators;
outcomes of calls listed in ``expected_corpus.json`` (all calls of the
default seed, recorded from the library as it was when the benchmark was
written) must match that table exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from dhp import (
    Bigraph,
    CycleWitness,
    VertexSet,
    WorkBudget,
    builtin_biplane,
    check_dhp,
    check_hamiltonian,
    check_snp,
    find_cycle_covering,
    find_disjoint_cycle_cover,
    find_minimal_obstacle,
    induced_subgraph,
    is_two_connected,
    neighborhood_at_least,
    pair_gadget,
    sample_gnnp,
    solve_degree_split,
    solve_high_degree,
    surrogate_dhp,
    threshold_p,
)
from dhp.errors import BudgetExceededError, DhpError

from tracer import NULL, Tracer
from util import cycle_problems, median, repeat_for

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_corpus.json")

SUBSET_CAP = 10**8  # default cap of a checker call; a pass needs about 1.3e7 in all
NODE_CAP = 10**6  # default cap of a cycle search, instead of the library's 10**8
SNP_GADGET_CAP = 2_000  # check_snp on pair_gadget(20) exhausts this on purpose
HAM_C2_CAP = 4_000  # Hamiltonian searches at c = 2 sized to exhaust often

DHP_FIXED = [(n, c, s) for n in (40, 60) for c in (0.0, 2.0) for s in range(3)]
HAM_FIXED = [(14, 0.0, s) for s in range(40)]
DHP_DRAWN = {True: 6, False: 2}  # n = 40 samples drawn per c, by surrogate verdict
HAM_DRAWN = 8  # n = 14, c = 2 samples drawn under HAM_C2_CAP
HIGH_DEGREE = [(8, 1), (8, 2), (10, 2)]  # (n, k) for the built graphs


@dataclass(frozen=True)
class Item:
    """One corpus call: ``fn(graph, budget)`` under span ``name`` (a layer
    and a function), returning (JSON outcome, raw result);
    ``check(graph, outcome, raw)`` lists what is wrong with it.  Checkers
    count subsets, cycle searches count nodes."""

    name: str
    what: str
    graph: Bigraph
    fn: Callable
    check: Callable
    cap: int | None = None

    @property
    def key(self) -> str:
        return f"{self.name.rsplit('.', 1)[1]}/{self.what}"

    @property
    def label(self) -> str:
        return "subset" if self.name.startswith("checkers.") else "node"

    @property
    def limit(self) -> int:
        if self.cap is not None:
            return self.cap
        return SUBSET_CAP if self.label == "subset" else NODE_CAP


# -- outcome summaries and validators -----------------------------------------


def _check_deficient(g: Bigraph, s: list[int]) -> list[str]:
    sv = VertexSet.xs(s)
    twice = neighborhood_at_least(g, sv, 2)
    if len(s) < 2 or len(twice) >= len(s):
        return [f"witness S={s} is not deficient (twice-seen {len(twice)})"]
    return []


def _dhp(g, b):
    v = check_dhp(g, budget=b)
    return {"holds": v.holds, "S": None if v.holds else list(v.witness["S"])}, v


def _check_dhp_outcome(g, out, _) -> list[str]:
    if out["holds"]:
        return [] if surrogate_dhp(g) else ["holds, but the surrogate (a necessary condition) fails"]
    return _check_deficient(g, out["S"])


def _snp(g, b):
    v = check_snp(g, budget=b)
    if v.holds:
        return {"holds": True, "S": None, "reason": None}, v
    return {"holds": False, "S": list(v.witness["S"]), "reason": v.witness["reason"]}, v


def _check_snp_outcome(g, out, _) -> list[str]:
    if out["holds"]:
        return []
    s = out["S"]
    twice = neighborhood_at_least(g, VertexSet.xs(s), 2)
    if out["reason"] == "cardinality":
        return [] if len(twice) < len(s) else [f"S={s} meets the cardinality condition"]
    sub, _, _ = induced_subgraph(g, VertexSet.xs(s), twice)
    return [f"S={s} spans a 2-connected subgraph"] if is_two_connected(sub) else []


def _obstacle(g, b):
    obs = find_minimal_obstacle(g, g.nx, budget=b)
    return {"obstacle": None if obs is None else obs.to_json_obj()}, obs


def _check_obstacle(g, out, obs) -> list[str]:
    if obs is None:
        return [] if check_dhp(g).holds else ["no obstacle, but check_dhp fails"]
    try:
        obs.validate(g)
    except DhpError as exc:
        return [f"obstacle invalid: {exc}"]
    return []


def _cycle(cyc):
    return {"cycle": None if cyc is None else cyc.to_json_obj()["cycle"]}, cyc


def _covering(g, b):
    return _cycle(find_cycle_covering(g, g.full_x(), budget=b))


def _hamiltonian(g, b):
    return _cycle(check_hamiltonian(g, limit=g.nx, budget=b))


def _check_spanning_cycle(g, out, w: CycleWitness | None) -> list[str]:
    return [] if w is None else cycle_problems(g, w)


def _disjoint(g, b):
    cycles = find_disjoint_cycle_cover(g, budget=b)
    return {"cycles": None if cycles is None else [c.to_json_obj()["cycle"] for c in cycles]}, cycles


def _check_disjoint(g, out, cycles) -> list[str]:
    if cycles is None:
        return []
    seen = []
    for c in cycles:
        try:
            c.validate(g)
        except DhpError as exc:
            return [f"cycle invalid: {exc}"]
        seen.extend(c.xs)
    return [] if sorted(seen) == list(range(g.nx)) else [f"cycles do not partition X: {seen}"]


def _split(g, b):
    return _cycle(solve_degree_split(g, budget=b))


def _high(k):
    def call(g, b):
        return _cycle(solve_high_degree(g, k, budget=b))

    return call


def _check_solver_cycle(g, out, w) -> list[str]:
    if w is None:
        return ["solver returned no cycle on a graph meeting its preconditions"]
    return _check_spanning_cycle(g, out, w)


# -- the corpus ----------------------------------------------------------------


def _structured_items(items: list) -> None:
    named = [("pair_gadget(20)", pair_gadget(20))]
    named += [(f"builtin_biplane({o})", builtin_biplane(o)) for o in (1, 2, 3)]
    for label, g in named:
        items.append(Item("checkers.check_dhp", label, g, _dhp, _check_dhp_outcome))
        cap = SNP_GADGET_CAP if label.startswith("pair_gadget") else None
        items.append(Item("checkers.check_snp", label, g, _snp, _check_snp_outcome, cap))
        items.append(Item("checkers.find_minimal_obstacle", label, g, _obstacle, _check_obstacle))
    for label, g in named[1:]:
        items.append(Item("cycles.find_cycle_covering", label, g, _covering, _check_spanning_cycle))
        items.append(Item("cycles.find_disjoint_cycle_cover", label, g, _disjoint, _check_disjoint))
    for n in range(3, 8):
        items.append(Item("cycles.solve_degree_split", f"pair_gadget({n})", pair_gadget(n), _split, _check_solver_cycle))


def _dhp_sample(n: int, c: float, s: int) -> Bigraph:
    return sample_gnnp(n, threshold_p(n, c, "dhp").p, s)


def _ham_sample(n: int, c: float, s: int) -> Bigraph:
    return sample_gnnp(n, threshold_p(n, c, "hamiltonian").p, s)


def _high_degree_graph(rng: random.Random, n: int, k: int) -> Bigraph:
    """Complete K(n, n) minus up to k random edges at every Y-vertex, so
    every Y-degree stays at least n - k; redrawn until it is dHp."""
    while True:
        rows = list(Bigraph.complete(n, n).adj_x)
        for y in range(n):
            for x in rng.sample(range(n), rng.randint(0, k)):
                rows[x] &= ~(1 << y)
        g = Bigraph(n, n, tuple(rows))
        if check_dhp(g).holds:
            return g


def _digest(g: Bigraph) -> str:
    return hashlib.sha256(repr(g.adj_x).encode()).hexdigest()[:12]


def build(seed: int) -> list[Item]:
    items: list[Item] = []
    for n, c, s in DHP_FIXED:
        items.append(Item("checkers.check_dhp", f"dhp n={n} c={c:g} s={s}", _dhp_sample(n, c, s), _dhp, _check_dhp_outcome))
    _structured_items(items)
    for n, c, s in HAM_FIXED:
        items.append(Item("randlab.check_hamiltonian", f"ham n={n} c={c:g} s={s}", _ham_sample(n, c, s), _hamiltonian, _check_spanning_cycle))

    # Drawn from the seed: disjoint from the fixed sample seeds above.
    # The n = 40 samples are stratified by the cheap surrogate, so that every
    # seed brings the same number of full scans (holds) and early exits.
    base = (seed + 1) * 10**6
    for c in (0.0, 2.0):
        wanted = dict(DHP_DRAWN)
        s = base
        while any(wanted.values()):
            g = _dhp_sample(40, c, s)
            verdict = surrogate_dhp(g)
            if wanted[verdict]:
                wanted[verdict] -= 1
                items.append(Item("checkers.check_dhp", f"dhp n=40 c={c:g} s={s}", g, _dhp, _check_dhp_outcome))
            s += 1
    for s in range(base, base + HAM_DRAWN):
        items.append(Item("cycles.find_cycle_covering", f"ham n=14 c=2 s={s}", _ham_sample(14, 2.0, s), _covering, _check_spanning_cycle, HAM_C2_CAP))
    rng = random.Random(seed)
    for n, k in HIGH_DEGREE:
        g = _high_degree_graph(rng, n, k)
        items.append(Item("cycles.solve_high_degree", f"built n={n} k={k} {_digest(g)}", g, _high(k), _check_solver_cycle))
    return items


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def setup(seed: int) -> dict:
    return {"items": build(seed), "expected": load_expected()}


# -- running -------------------------------------------------------------------


def run_item(item: Item, tracer) -> tuple[dict, object, int, float]:
    """Call ``item`` under its cap; return (outcome, raw, units, seconds).
    Units are read from outside the call: cap minus what the budget has left."""
    budget = WorkBudget(item.limit, item.label)
    t0 = time.perf_counter()
    try:
        with tracer.span(item.name, item.key):
            out, raw = item.fn(item.graph, budget)
    except BudgetExceededError:
        out, raw = {"budget_exhausted": True}, None
    return out, raw, item.limit - budget.remaining, time.perf_counter() - t0


def _problems(item: Item, out: dict, raw, expected: dict) -> list[str]:
    if out.get("budget_exhausted"):
        problems = []
    else:
        try:
            problems = item.check(item.graph, out, raw)
        except DhpError as exc:
            problems = [f"validator raised {exc!r}"]
    want = expected.get(item.key)
    if want is not None and want != out:
        problems.append(f"outcome {out} differs from the recorded {want}")
    return problems


def one_pass(state: dict, tally, tracer=NULL, ref=None) -> tuple[list[float], dict]:
    """Run the corpus once, sampling ``ref`` between calls; return (seconds
    of each call, per-name stats)."""
    secs_by_item = []
    stats: dict = defaultdict(lambda: defaultdict(float))
    for item in state["items"]:
        if ref is not None:
            ref.tick()
        out, raw, units, secs = run_item(item, tracer)
        secs_by_item.append(secs)
        st = stats[item.name]
        st["calls"] += 1
        st["ms"] += secs * 1e3
        st["units"] += units
        if out.get("budget_exhausted"):
            st["budget_exhausted"] += 1
        elif "holds" in out:
            st["units.holds" if out["holds"] else "units.fails"] += units
        tally.op(_problems(item, out, raw, state["expected"]), item.key)
    return secs_by_item, stats


def corpus_seconds(passes: list[list[float]]) -> float:
    """Corpus wall time: the sum over calls of each call's median time
    across passes."""
    return sum(median(times) for times in zip(*passes))


def run(state: dict, seconds: float, tally, ref) -> tuple[dict, dict, dict]:
    passes = repeat_for(seconds, lambda: one_pass(state, tally, ref=ref)[0])
    calls = len(state["items"])
    corpus_s = corpus_seconds(passes)
    metrics = {"throughput_per_s": calls / corpus_s, "latency_ms": corpus_s * 1e3}
    report = {
        "exact_corpus_s": (corpus_s, "s"),
        "exact_corpus_calls": (calls, "count"),
        "exact_corpus_passes": (len(passes), "count"),
    }
    return metrics, report, {"call_s_by_pass": passes}


LAYER_METRICS = {
    "checkers.check_dhp": ("subset", ("units.holds", "units.fails")),
    "checkers.check_snp": ("subset", ("budget_exhausted",)),
    "checkers.find_minimal_obstacle": ("subset", ()),
    "randlab.check_hamiltonian": ("node", ("budget_exhausted",)),
    "cycles.find_cycle_covering": ("node", ("budget_exhausted",)),
    "cycles.find_disjoint_cycle_cover": ("node", ()),
    "cycles.solve_degree_split": ("node", ()),
    "cycles.solve_high_degree": ("node", ()),
}


def layer_metrics(stats: dict, ms: dict) -> dict:
    """Per-layer metrics of one pass: self ms by span name (``ms``), and the
    work units and exhausted caps counted in ``stats``."""
    out = {}
    for name, (label, extras) in LAYER_METRICS.items():
        st = stats.get(name, {})
        unit_name = "subsets" if label == "subset" else "nodes"
        out[f"{name}.ms"] = ms.get(name, 0.0)
        out[f"{name}.{unit_name}"] = int(st.get("units", 0))
        for extra in extras:
            key = extra.replace("units", unit_name)
            out[f"{name}.{key}"] = int(st.get(extra, 0))
    dhp_ms = out["checkers.check_dhp.ms"]
    out["checkers.check_dhp.subsets_per_s"] = out["checkers.check_dhp.subsets"] / (dhp_ms / 1e3) if dhp_ms else 0.0
    return out


def trace(state: dict, seconds: float, tally, tracer: Tracer) -> dict:
    """One untraced and one traced pass, repeated while time is left."""
    plain, traced, ms_by_pass, stats_by_pass = [], [], [], []

    def pass_pair():
        plain.append(one_pass(state, tally)[0])
        mark = tracer.mark()
        secs, stats = one_pass(state, tally, tracer)
        traced.append(secs)
        stats_by_pass.append(stats)
        ms_by_pass.append(tracer.self_ms_by_name(mark))

    repeat_for(seconds, pass_pair)
    out = layer_metrics(stats_by_pass[-1], {name: median(d.get(name, 0.0) for d in ms_by_pass) for name in LAYER_METRICS})
    out["trace.overhead_ms"] = (corpus_seconds(traced) - corpus_seconds(plain)) * 1e3
    return out
