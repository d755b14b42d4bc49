"""Workload ``cli_roundtrip``: sequential subprocess calls of
``python -m dhp.cli``, each with its exit code and output checked.

Why: this is how users meet the toolkit.  A call's cost is mostly
interpreter start and package import (numpy among it), then parsing and
serializing graph files, which the other workloads never time.  Both scan
engines are bypassed: every exponential call here is small.

One pass builds biplane(3) and its 121-per-side product through the CLI,
converts the product edge list -> JSON -> edge list, runs ``check`` (dhp,
snp, degree-bound, design), ``solve`` (cover-cycle, hamiltonian) and a
small ``random sweep``.  The expected outputs are computed in process from
the public API during set-up.

The traced replay runs the same argument lists through ``dhp.cli.main`` in
process and times the ``constructions`` and ``formats`` calls they rest on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

from dhp import (
    Bigraph,
    CycleWitness,
    SweepConfig,
    bipartite_product,
    builtin_biplane,
    check_degree_bound,
    check_dhp,
    check_hamiltonian,
    check_snp,
    load_bigraph,
    parse_bigraph,
    parse_bigraph_json,
    run_sweep,
    sample_gnnp,
    serialize_bigraph,
    serialize_bigraph_json,
    threshold_p,
)
from dhp.cli import main as cli_main
from dhp.errors import BudgetExceededError, DhpError

from tracer import NULL, Tracer
from util import child_env, cycle_problems, median, percentile, repeat_for

NODE_CAP = 10**6
HAM_CAP = 20_000  # a Hamiltonian search on a seeded n = 14 sample may exhaust it
SWEEP_ARGS = dict(n=30, c=(-1.0, 0.0, 1.0), trials=20)
MIN_CALLS = 100  # so that at least ten calls lie beyond the 90th percentile


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph_file_is(path: str, want: Bigraph) -> list[str]:
    try:
        got = load_bigraph(_read(path))
    except (OSError, DhpError) as exc:
        return [f"{os.path.basename(path)} unreadable: {exc}"]
    return [] if got == want else [f"{os.path.basename(path)} holds a different graph"]


def _json_out(stdout: str) -> dict:
    return json.loads(stdout)


def _verdict_is(want_holds: bool, want_witness) -> "callable":
    def check(rc: int, stdout: str) -> list[str]:
        out = _json_out(stdout)
        problems = []
        if rc != (0 if want_holds else 1):
            problems.append(f"exit {rc}")
        if out.get("holds") != want_holds or out.get("witness") != want_witness:
            problems.append(f"verdict {out.get('holds')} {out.get('witness')}, want {want_holds} {want_witness}")
        return problems

    return check


def _cycle_is_spanning(g: Bigraph, want_rc: int = 0, want_cycle=None) -> "callable":
    def check(rc: int, stdout: str) -> list[str]:
        out = _json_out(stdout)
        if rc != want_rc:
            return [f"exit {rc}, want {want_rc}"]
        if want_rc == 3:
            return [] if out.get("budget_exhausted") is True else ["exit 3 without budget_exhausted"]
        if want_rc == 1:
            return [] if out.get("witness") is None else ["a witness where none exists"]
        seq = out["witness"]["cycle"]
        w = CycleWitness(tuple(v for s, v in seq if s == "x"), tuple(v for s, v in seq if s == "y"))
        if want_cycle is not None and seq != want_cycle:
            return ["cycle differs from the library's"]
        return cycle_problems(g, w)

    return check


def _rc_and_file(path: str, want: Bigraph) -> "callable":
    def check(rc: int, stdout: str) -> list[str]:
        return ([f"exit {rc}"] if rc != 0 else []) + _graph_file_is(path, want)

    return check


def _csv_is(path: str, want_csv: str) -> "callable":
    def check(rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}"]
        body = _read(path).split("\n", 1)[1]  # drop the "# config:" line
        return [] if body == want_csv else ["sweep CSV differs from run_sweep's"]

    return check


def setup(seed: int, workdir: str) -> dict:
    """Write the seeded input graphs and compute every expected output."""
    os.makedirs(workdir, exist_ok=True)
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    b3 = builtin_biplane(3)
    prod = bipartite_product(b3, b3)
    sample = sample_gnnp(40, threshold_p(40, 0.0, "dhp").p, (seed + 1) * 10**6)
    ham = sample_gnnp(14, threshold_p(14, 0.0, "hamiltonian").p, (seed + 1) * 10**6)
    with open(f("sample.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize_bigraph_json(sample))
    with open(f("ham.txt"), "w", encoding="utf-8") as fh:
        fh.write(serialize_bigraph(ham))

    v_sample, v_snp, v_b3 = check_dhp(sample), check_snp(b3), check_dhp(b3)
    degree = check_degree_bound(prod)
    try:
        cyc = check_hamiltonian(ham, limit=14, budget=HAM_CAP)
        ham_rc, ham_cycle = (1, None) if cyc is None else (0, cyc.to_json_obj()["cycle"])
    except BudgetExceededError:
        ham_rc, ham_cycle = 3, None
    sweep_csv = run_sweep(
        SweepConfig((SWEEP_ARGS["n"],), SWEEP_ARGS["c"], SWEEP_ARGS["trials"], master_seed=seed)
    ).to_csv()

    calls = [
        (["construct", "biplane", "--order", "3", "-o", f("b3.txt")], _rc_and_file(f("b3.txt"), b3)),
        (["construct", "product", f("b3.txt"), f("b3.txt"), "-o", f("prod.txt")], _rc_and_file(f("prod.txt"), prod)),
        (["fmt", "-i", f("prod.txt"), "--format", "json", "-o", f("prod.json")], _rc_and_file(f("prod.json"), prod)),
        (["fmt", "-i", f("prod.json"), "--format", "edge-list", "-o", f("prod2.txt")], _rc_and_file(f("prod2.txt"), prod)),
        (["check", "dhp", "-i", f("b3.txt")], _verdict_is(v_b3.holds, v_b3.witness)),
        (["check", "dhp", "-i", f("sample.json")], _verdict_is(v_sample.holds, v_sample.witness)),
        (["check", "snp", "-i", f("b3.txt")], _verdict_is(v_snp.holds, v_snp.witness)),
        (["check", "degree-bound", "-i", f("prod.txt")], _verdict_is(degree.within_bound, degree.to_json_obj())),
        (["check", "design", "-i", f("b3.txt")], _verdict_is(True, {"v": 11, "k": 5, "lambda": 2})),
        (["solve", "cover-cycle", "--xs", "all", "-i", f("b3.txt"), "--budget-nodes", str(NODE_CAP)], _cycle_is_spanning(b3)),
        (
            ["solve", "hamiltonian", "-i", f("ham.txt"), "--limit", "14", "--budget-nodes", str(HAM_CAP)],
            _cycle_is_spanning(ham, ham_rc, ham_cycle),
        ),
        (
            ["random", "sweep", "--n-list", str(SWEEP_ARGS["n"]), "--c-list", *map(str, SWEEP_ARGS["c"]),
             "--trials", str(SWEEP_ARGS["trials"]), "--seed", str(seed), "--out", f("sweep.csv")],
            _csv_is(f("sweep.csv"), sweep_csv),
        ),
    ]
    return {"calls": calls, "b3": b3, "prod": prod, "env": child_env()}


def _subprocess_call(state: dict, argv: list[str]) -> tuple[int, str, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dhp.cli", *argv],
        env=state["env"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def _checked(tally, what: str, check, rc: int, stdout: str) -> None:
    try:
        problems = check(rc, stdout)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable or malformed output
        problems = [f"output unreadable: {exc!r}"]
    tally.op(problems, what)


def _subprocess_calls(state: dict, seconds: float, tally, ref) -> list[list[float]]:
    """The calls in order, round and round, for ``seconds`` and at least
    MIN_CALLS calls; returns the ms of every call, by position in the round."""
    calls = state["calls"]
    ms: list[list[float]] = [[] for _ in calls]

    def step():
        i = sum(map(len, ms)) % len(calls)
        argv, check = calls[i]
        rc, stdout, secs = _subprocess_call(state, argv)
        _checked(tally, "dhp " + " ".join(argv[:2]), check, rc, stdout)
        ms[i].append(secs * 1e3)

    repeat_for(seconds, step, least=max(MIN_CALLS, len(calls)), ref=ref)
    return ms


def run(state: dict, seconds: float, tally, ref) -> tuple[dict, dict, dict]:
    ms = _subprocess_calls(state, seconds, tally, ref)
    times = [t for per_call in ms for t in per_call]
    round_ms = sum(map(median, ms))  # one round of the calls, each at its median
    by_sub = defaultdict(list)
    for (argv, _), per_call in zip(state["calls"], ms):
        by_sub[argv[0]].extend(per_call)
    metrics = {"throughput_per_s": len(ms) * 1e3 / round_ms, "latency_ms": median(times)}
    report = {
        "cli_call_ms_p50": (median(times), "ms"),
        "cli_call_ms_p90": (percentile(times, 90), "ms"),
        "cli_calls": (len(times), "count"),
    }
    report.update({f"cli_call_ms_p50.{sub}": (median(v), "ms") for sub, v in sorted(by_sub.items())})
    return metrics, report, {"call_ms_by_position": ms}


def _in_process_pass(state: dict, tally, tracer) -> None:
    """The CLI pass through ``dhp.cli.main`` in this process, plus the
    constructions and format conversions it rests on."""
    for n, (argv, check) in enumerate(state["calls"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer.span(f"cli.main.{argv[0]}", n):
            rc = cli_main(argv)
        _checked(tally, "main " + " ".join(argv[:2]), check, rc, buf.getvalue())
    b3, prod = state["b3"], state["prod"]
    with tracer.span("constructions.builtin_biplane", "b3"):
        got_b3 = builtin_biplane(3)
    with tracer.span("constructions.bipartite_product", "b3xb3"):
        got = bipartite_product(got_b3, got_b3)
    with tracer.span("core.Bigraph", "b3xb3"):
        Bigraph(got.nx, got.ny, got.adj_x)
    with tracer.span("formats.serialize_bigraph", "b3xb3"):
        text = serialize_bigraph(got)
    with tracer.span("formats.parse_bigraph", "b3xb3"):
        back = parse_bigraph(text)
    with tracer.span("formats.serialize_bigraph_json", "b3xb3"):
        jtext = serialize_bigraph_json(got)
    with tracer.span("formats.parse_bigraph_json", "b3xb3"):
        jback = parse_bigraph_json(jtext)
    ok = got_b3 == b3 and got == prod and back == prod and jback == prod
    tally.op([] if ok else ["in-process construction or format round trip differs"], "formats round trip")


def trace(state: dict, seconds: float, tally, tracer: Tracer) -> dict:
    """In-process passes, untraced and traced in turn."""
    plain, traced, ms_by_pass = [], [], []

    def pass_pair():
        t0 = time.perf_counter()
        _in_process_pass(state, tally, NULL)
        plain.append(time.perf_counter() - t0)
        mark = tracer.mark()
        t0 = time.perf_counter()
        _in_process_pass(state, tally, tracer)
        traced.append(time.perf_counter() - t0)
        ms_by_pass.append(tracer.self_ms_by_name(mark))

    repeat_for(seconds, pass_pair)
    names = sorted({name for d in ms_by_pass for name in d})
    out = {f"{name}.ms": median(d.get(name, 0.0) for d in ms_by_pass) for name in names}
    out["trace.overhead_ms"] = (median(traced) - median(plain)) * 1e3
    return out
