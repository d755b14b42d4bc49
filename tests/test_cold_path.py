"""Which calls load numpy.  Importing the package and the CLI calls that
never sample or scan with arrays (construct, fmt, the design check, the
cycle solver) start without it; the subset-scan checks, which all run on
the level scan, and sweeps load it, and a sweep loads it before its worker
pool forks so the workers inherit its BLAS.

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


@pytest.mark.parametrize("prop", ["dhp", "snp"])
def test_level_scan_checks_load_numpy(prop: str, tmp_path) -> None:
    graph = tmp_path / "b2.txt"
    got = run_fresh(
        CLI_CALLS,
        f"construct biplane --order 2 -o {graph}",
        f"check {prop} -i {graph} -o {tmp_path / 'out'}",
    )
    assert got == {"codes": [0, 0], "numpy": True}


START_METHOD = (
    multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
)


@pytest.mark.skipif(
    START_METHOD != "fork", reason="pool workers inherit the parent's modules only when forked"
)
def test_sweep_workers_inherit_numpy_and_its_blas(tmp_path) -> None:
    # the spy wraps the pool initializer and records, in each worker before
    # it pins anything, whether numpy came with the fork and how many
    # OpenBLAS libraries are mapped; two usable cores are reported so that
    # the sweep starts a pool on any machine
    log = tmp_path / "workers.jsonl"
    got = run_fresh(
        """
        import json, os, sys
        from dhp import SweepConfig, randlab, run_sweep

        log = sys.argv[1]
        pin = randlab._single_thread_blas

        def spy():
            line = {"numpy": "numpy" in sys.modules, "maps": len(randlab._openblas_paths())}
            with open(log, "a") as fh:
                fh.write(json.dumps(line) + "\\n")
            pin()

        randlab._single_thread_blas = spy
        os.sched_getaffinity = lambda pid: {0, 1}
        before = "numpy" in sys.modules
        run_sweep(SweepConfig((12,), (0.0,), 4, master_seed=1, jobs=2))
        print(json.dumps({"before": before, "maps": len(randlab._openblas_paths())}))
        """,
        str(log),
    )
    workers = [json.loads(line) for line in log.read_text().splitlines()]
    assert got["before"] is False
    assert len(workers) == 2
    assert workers == [{"numpy": True, "maps": got["maps"]}] * 2
