"""The dhp benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (one client process, one call at a time; nothing runs
concurrently except the sweep's own worker pool):

* ``sweep_n300``    run_sweep at n = 300, c in {-2, 0, 2}, jobs 2 and 1
                    (sweep.py)
* ``exact_corpus``  single calls into checkers and cycles (corpus.py)
* ``cli_roundtrip`` subprocess calls of ``python -m dhp.cli`` (cli_calls.py)

Each module's docstring says why the workload exists and what it checks.

The benchmark imports ``dhp`` from ``src/`` of the checkout it sits in and
calls public functions only.  Inputs come from ``--seed``; the program
receives only the generated inputs.

With ``--trace 0`` the run measures end to end, tracing off, and the last
line of stdout is a JSON object whose metrics are, for every workload:

* ``setup_s``           import ``dhp`` and build the inputs; median of
                        several set-ups, each in a fresh interpreter
* ``throughput_per_s``  sweep_n300: trials/s at jobs = 2; exact_corpus:
                        corpus calls per second; cli_roundtrip: CLI calls
                        per second
* ``latency_ms``        sweep_n300: ms per trial at jobs = 1; exact_corpus:
                        ms per pass over the corpus; cli_roundtrip: ms per
                        CLI call
* ``peak_rss_mb``       peak resident memory of this process plus that of
                        its largest child

The run repeats its fixed work for ``--seconds`` and takes the median of
each repeated unit (a grid, a corpus call, a CLI call).  The machine it
was written on is shared with other tenants, and its speed drifts by a
quarter or more from one minute to the next, so the timings are scaled to
a reference speed: a fixed kernel of the benchmark's own (util.Reference)
is timed between calls, and every time is multiplied by
REFERENCE_NOMINAL_MS over the kernel's median time in the run (rates are
divided by it).  Over ten seeds on a 2-core VM this cut the run-to-run
spread (quartile distance over median) of ``latency_ms`` from 0.095 to
0.071 on sweep_n300 and from 0.118 to 0.066 on exact_corpus.  The
lines before the JSON give the raw values (``*.raw``), the kernel's time
and the workload's own figures (``sweep_trials_per_s``,
``exact_corpus_s``, ``cli_call_ms_p50``, ``cli_call_ms_p90`` with its
sample count, and so on), with units; the report file in ``.bench_out/``
also holds every timed sample.

With ``--trace 1`` the run records spans around each call into a layer,
keeps them in memory and writes them to ``.bench_out/`` at the end; the
metrics are the per-layer figures (``PER_LAYER``).  Every trace run replays
the calls of all three workloads, one round each for the other two and the
rest of ``--seconds`` for the named one, so every per-layer figure is
measured on the workload whose calls reach that layer.

A wrong output is printed to stderr as it happens, counted in ``failed``,
sets ``correct`` to false and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
SETUP_REPEATS = 5
PROBE_REPEATS = 5

WORKLOADS = {
    "sweep_n300": "sweep",
    "exact_corpus": "corpus",
    "cli_roundtrip": "cli_calls",
}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}

_SEARCHES = (
    "checkers.check_snp",
    "checkers.find_minimal_obstacle",
    "randlab.check_hamiltonian",
    "cycles.find_cycle_covering",
    "cycles.find_disjoint_cycle_cover",
    "cycles.solve_degree_split",
    "cycles.solve_high_degree",
)

PER_LAYER = {
    # sweep_n300, per replayed trial
    "randlab.trial_seed.ms": "ms",
    "randlab.sample_gnnp.ms": "ms",
    "core.Bigraph.ms": "ms",
    "randlab.count_bad_pairs.ms": "ms",
    "randlab.scan_obstacles_size3.ms": "ms",
    "core.Bigraph.max_degree.ms": "ms",
    "randlab.run_sweep.overhead_ms_per_trial": "ms",
    "randlab.run_sweep.jobs2_speedup": "ratio",
    "randlab.run_sweep.trials_per_s_jobs1": "1/s",
    # exact_corpus, per corpus pass
    "checkers.check_dhp.ms": "ms",
    "checkers.check_dhp.subsets": "count",
    "checkers.check_dhp.subsets.holds": "count",
    "checkers.check_dhp.subsets.fails": "count",
    "checkers.check_dhp.subsets_per_s": "1/s",
    **{f"{name}.ms": "ms" for name in _SEARCHES},
    "checkers.check_snp.subsets": "count",
    "checkers.check_snp.budget_exhausted": "count",
    "checkers.find_minimal_obstacle.subsets": "count",
    "randlab.check_hamiltonian.nodes": "count",
    "randlab.check_hamiltonian.budget_exhausted": "count",
    "cycles.find_cycle_covering.nodes": "count",
    "cycles.find_cycle_covering.budget_exhausted": "count",
    "cycles.find_disjoint_cycle_cover.nodes": "count",
    "cycles.solve_degree_split.nodes": "count",
    "cycles.solve_high_degree.nodes": "count",
    # cli_roundtrip, per in-process pass
    "constructions.builtin_biplane.ms": "ms",
    "constructions.bipartite_product.ms": "ms",
    "formats.parse_bigraph.ms": "ms",
    "formats.serialize_bigraph.ms": "ms",
    "formats.serialize_bigraph_json.ms": "ms",
    "formats.parse_bigraph_json.ms": "ms",
    "cli.main.construct.ms": "ms",
    "cli.main.fmt.ms": "ms",
    "cli.main.check.ms": "ms",
    "cli.main.solve.ms": "ms",
    "cli.main.random.ms": "ms",
    # every workload
    "cli.python_startup_ms": "ms",
    "cli.import_dhp_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _import_dhp():
    """Put the checkout's ``src`` first on the path and import ``dhp`` from
    it; exit with an error when the checkout has no package."""
    if not os.path.isfile(os.path.join(SRC, "dhp", "__init__.py")):
        sys.exit(f"error: no dhp package under {SRC}")
    sys.path.insert(0, SRC)
    import dhp

    if os.path.dirname(os.path.dirname(os.path.abspath(dhp.__file__))) != SRC:
        sys.exit(f"error: imported dhp from {dhp.__file__}, not from {SRC}")


def _setup(module, workload: str, seed: int, workdir: str):
    if workload == "cli_roundtrip":
        return module.setup(seed, workdir)
    return module.setup(seed)


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _wall_ms(argv: list[str]) -> float:
    from util import child_env

    t0 = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True, capture_output=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def _trace_all(args, state, tally, tracer, workdir: str) -> dict:
    """Traced replays of every workload's calls, so that every per-layer
    figure is measured in every trace run: first one round of each other
    workload, then the named one for the time that is left."""
    start = time.perf_counter()
    layer = {}
    for name in sorted(WORKLOADS, key=lambda w: w == args.workload):
        module = importlib.import_module(WORKLOADS[name])
        if name == args.workload:
            seconds = max(0.0, args.seconds - (time.perf_counter() - start))
            layer.update(module.trace(state, seconds, tally, tracer))
        else:
            layer.update(module.trace(_setup(module, name, args.seed, workdir), 0.0, tally, tracer))
    layer.update(_interpreter_costs())
    return layer


def _interpreter_costs() -> dict:
    """The floor no change to the repo can move (a bare interpreter), and
    what importing the package adds to it."""
    from util import median

    bare = median(_wall_ms([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS))
    with_dhp = median(_wall_ms([sys.executable, "-c", "import dhp"]) for _ in range(PROBE_REPEATS))
    return {"cli.python_startup_ms": bare, "cli.import_dhp_ms": with_dhp - bare}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    t0 = time.perf_counter()
    _import_dhp()
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        state = _setup(module, args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        return _measure(args, module, state, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, module, state, tag: str, workdir: str) -> int:
    from tracer import Tracer
    from util import Reference, Tally, environment, median

    tally = Tally()
    report: dict = {}
    samples: dict = {}
    setup_samples: list[float] = []
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        tracer = Tracer()
        layer = _trace_all(args, state, tally, tracer, workdir)
        unknown = sorted(set(layer) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"per-layer names missing from PER_LAYER: {unknown}")
        metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.dump(os.path.join(OUT, f"{tag}-spans.json"))
    else:
        ref = Reference()
        for _ in range(SETUP_REPEATS):
            ref.tick()
            setup_samples.append(_setup_probe(args.workload, args.seed))
        raw, report, samples = module.run(state, args.seconds, tally, ref)
        samples["reference_s"] = ref.samples
        raw["setup_s"] = median(setup_samples)
        for name, value in raw.items():
            report[f"{name}.raw"] = (value, END_TO_END[name])
        report["reference_ms"] = (ref.median_ms(), "ms")
        report["reference_samples"] = (len(ref.samples), "count")
        scale = ref.scale()
        e2e = {name: v / scale if name == "throughput_per_s" else v * scale for name, v in raw.items()}
        e2e["peak_rss_mb"] = _peak_rss_mb()
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    env = environment()
    for name, (value, unit) in report.items():
        print(f"{name} = {value} {unit}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print("# setup_s samples: " + json.dumps(setup_samples))
    print("# env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "args": vars(args),
                "env": env,
                "setup_s_samples": setup_samples,
                "report": report,
                "samples": samples,
                "failures": tally.messages,
                "result": result,
            },
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
