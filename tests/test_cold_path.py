"""Which modules a call loads.  Importing the package loads none of its
submodules, and a CLI call loads only the library modules its leaf runs.
The calls that never sample or scan with arrays (construct, fmt, the design
and degree-bound checks, and the solves that do not decide dHp first) start
without numpy; the subset-scan checks, which all run on the level scan, the
solves that decide dHp first, and sweeps load it, and a sweep loads it
before its worker pool forks so the workers inherit its BLAS.

Each test runs in a fresh interpreter, since this one has numpy loaded.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

import dhp
from dhp import Bigraph, builtin_biplane, serialize_bigraph
from dhp.cli import _COMMANDS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dhp.__file__)))


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter that imports dhp from this
    checkout; it prints one JSON object as its last line of stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CLI_CALLS = """
    import json, sys
    from dhp.cli import main

    codes = [main(argv.split()) for argv in sys.argv[1:]]
    print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_import_dhp_leaves_numpy_unloaded() -> None:
    got = run_fresh(
        """
        import json, sys
        import dhp, dhp.cli

        print(json.dumps({"numpy": "numpy" in sys.modules}))
        """
    )
    assert got == {"numpy": False}


def test_construct_fmt_and_check_design_leave_numpy_unloaded(tmp_path) -> None:
    graph, out = tmp_path / "b2.txt", tmp_path / "out"
    got = run_fresh(
        CLI_CALLS,
        f"construct biplane --order 2 -o {graph}",
        f"construct product {graph} {graph} -o {out}",
        f"fmt -i {graph} --format json -o {out}",
        f"check design -i {graph} -o {out}",
        f"solve cover-cycle -i {graph} -o {out}",
    )
    assert got == {"codes": [0, 0, 0, 0, 0], "numpy": False}


# Whether each check and solve leaf loads numpy, on K(4, 4), which every one
# of them runs its engine on: the subset-scan checks run on the level scan,
# and degree-split and high-degree decide dHp before they search.
NUMPY_BY_LEAF = {
    "check dhp": True,
    "check snp": True,
    "check supercyclic": True,
    "check critical": True,
    "check saturated-critical": True,
    "check snp-minimal": True,
    "check design": False,
    "check degree-bound": False,
    "solve cover-cycle": False,
    "solve cycle-cover": False,
    "solve degree-split": True,
    "solve high-degree --k 1": True,
    "solve hamiltonian": False,
}

LEAF_CALL = """
    import json, sys
    from dhp.cli import main

    code = main(sys.argv[1:])
    print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def test_numpy_table_names_every_check_and_solve_leaf() -> None:
    leaves = {f"{cmd} {leaf}" for cmd in ("check", "solve") for leaf in _COMMANDS[cmd][3]}
    assert {" ".join(call.split()[:2]) for call in NUMPY_BY_LEAF} == leaves


@pytest.mark.parametrize("call", NUMPY_BY_LEAF)
def test_leaf_loads_numpy_only_for_the_level_scan(call: str, tmp_path) -> None:
    graph = tmp_path / "k44.txt"
    graph.write_text(serialize_bigraph(Bigraph.complete(4, 4)))
    got = run_fresh(LEAF_CALL, *call.split(), "-i", str(graph), "-o", str(tmp_path / "out"))
    # exit 0 or 1: the leaf reached its engine and gave a verdict
    assert got["code"] in (0, 1)
    assert got["numpy"] is NUMPY_BY_LEAF[call]


def test_import_dhp_loads_no_submodule() -> None:
    got = run_fresh(
        """
        import json, sys
        import dhp

        print(json.dumps({"loaded": sorted(m for m in sys.modules if m.startswith("dhp."))}))
        """
    )
    assert got == {"loaded": []}


def test_star_import_binds_exactly_all() -> None:
    got = run_fresh(
        """
        import json
        names = set(globals())
        from dhp import *
        import dhp

        bound = set(globals()) - names - {"names", "dhp"}
        print(json.dumps({
            "bound_is_all": bound == set(dhp.__all__),
            "missing_from_dir": sorted(set(dhp.__all__) - set(dir(dhp))),
        }))
        """
    )
    assert got == {"bound_is_all": True, "missing_from_dir": []}


# The library modules a call of `python -m dhp.cli` must not load; {g} is
# the biplane of order 2.
UNLOADED_BY_CALL = {
    "construct biplane --order 2": {"checkers", "cycles", "randlab"},
    "construct product {g} {g}": {"checkers", "cycles", "randlab"},
    "fmt -i {g}": {"checkers", "cycles", "randlab"},
    "check dhp -i {g}": {"cycles", "randlab"},
    "solve cover-cycle -i {g}": {"randlab"},
}


@pytest.mark.parametrize("call", UNLOADED_BY_CALL)
def test_cli_call_loads_only_the_modules_its_leaf_runs(call: str, tmp_path) -> None:
    graph = tmp_path / "b2.txt"
    graph.write_text(serialize_bigraph(builtin_biplane(2)))
    got = run_fresh(
        """
        import json, runpy, sys

        try:
            runpy.run_module("dhp.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
        loaded = sorted(m[4:] for m in sys.modules if m.startswith("dhp."))
        print(json.dumps({"code": code, "loaded": loaded}))
        """,
        *call.format(g=graph).split(),
        "-o",
        str(tmp_path / "out"),
    )
    assert got["code"] == 0
    assert UNLOADED_BY_CALL[call].isdisjoint(got["loaded"]), got["loaded"]


START_METHOD = (
    multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
)


@pytest.mark.skipif(
    START_METHOD != "fork", reason="pool workers inherit the parent's modules only when forked"
)
def test_sweep_workers_inherit_numpy_and_its_blas(tmp_path) -> None:
    # the spy wraps the trial kernel and records, in each worker before its
    # first trial, whether numpy came with the fork and whether the BLAS
    # thread lookup finds numpy's OpenBLAS, as it does in the parent; a
    # barrier holds each worker's first trial until both have one, and two
    # usable cores are reported so that the sweep starts a two-worker pool
    # on any machine
    log = tmp_path / "workers.jsonl"
    got = run_fresh(
        """
        import json, multiprocessing, os, sys
        from dhp import SweepConfig, randlab, run_sweep

        log = sys.argv[1]
        run_seed = randlab._run_seed
        both = multiprocessing.Barrier(2)
        first = []

        def spy(task):
            if not first:
                first.append(True)
                api = randlab._blas_thread_api() is not None
                line = {"numpy": "numpy" in sys.modules, "api": api}
                with open(log, "a") as fh:
                    fh.write(json.dumps(line) + "\\n")
                both.wait(timeout=60)
            return run_seed(task)

        randlab._run_seed = spy
        os.sched_getaffinity = lambda pid: {0, 1}
        before = "numpy" in sys.modules
        run_sweep(SweepConfig((12,), (0.0,), 4, master_seed=1, jobs=2))
        print(json.dumps({"before": before, "api": randlab._blas_thread_api() is not None}))
        """,
        str(log),
    )
    workers = [json.loads(line) for line in log.read_text().splitlines()]
    assert got["before"] is False
    assert workers == [{"numpy": True, "api": got["api"]}] * 2
