"""End-to-end command-line behaviour: verdicts, witnesses, exit codes,
config echoes, and piping between subcommands."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dhp import (
    Bigraph,
    ContractViolationError,
    CycleWitness,
    builtin_biplane,
    check_dhp,
    load_bigraph,
    serialize_bigraph,
)
from dhp.cli import _COMMANDS, _build_parser, main


LONG = "9" * 5000  # past the default int-string digit limit of 4300


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name: str, g: Bigraph) -> str:
    path = tmp_path / name
    path.write_text(serialize_bigraph(g))
    return str(path)


@pytest.fixture()
def cube_file(tmp_path) -> str:
    from dhp import builtin_biplane

    return write_graph(tmp_path, "cube.txt", builtin_biplane(1))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fmt", "-i", "{cube}", "-o", "{tmp}/missing/out.txt"], "cannot write"),
        (["solve", "cover-cycle", "-i", "{cube}", "--xs", ","], "--xs names no vertices"),
        (["random", "sweep", "--n-list", "10", "--c-list", "0", "--trials", "1", "--jobs", "0"],
         "jobs must be >= 1"),
    ],
    ids=["unwritable-output", "xs-names-nothing", "jobs-zero"],
)
def test_bad_request_exits_two(argv, message, cube_file, tmp_path, capsys) -> None:
    argv = [arg.format(cube=cube_file, tmp=tmp_path) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


class TestCheck:
    def test_holds_exits_zero(self, tmp_path, capsys) -> None:
        path = write_graph(tmp_path, "k22.txt", Bigraph.complete(2, 2))
        code, out, _ = run_cli(["check", "dhp", "-i", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["witness"] is None
        assert payload["config"]["command"] == "check"
        assert payload["config"]["property"] == "dhp"

    def test_failure_exits_one_with_witness(self, tmp_path, capsys) -> None:
        g = Bigraph.from_edges(2, 3, [(0, 0), (1, 0), (0, 1), (1, 2)])
        path = write_graph(tmp_path, "pair.txt", g)
        code, out, _ = run_cli(["check", "dhp", "-i", path], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["witness"]["S"] == [0, 1]

    def test_design_verdict(self, cube_file, capsys) -> None:
        code, out, _ = run_cli(["check", "design", "-i", cube_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] == {"v": 4, "k": 3, "lambda": 2}

    def test_design_failure_names_violation(self, tmp_path, capsys) -> None:
        path = write_graph(tmp_path, "k33.txt", Bigraph.complete(3, 3))
        code, out, _ = run_cli(["check", "design", "-i", path], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"]["violation"]

    def test_degree_bound_report(self, cube_file, capsys) -> None:
        code, out, _ = run_cli(
            ["check", "degree-bound", "-i", cube_file], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["tight"] is True

    def test_budget_exhaustion_exits_three(self, tmp_path, capsys) -> None:
        path = write_graph(tmp_path, "k8.txt", Bigraph.complete(8, 8))
        code, out, _ = run_cli(
            ["check", "dhp", "-i", path, "--budget-subsets", "10"], capsys
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["budget_exhausted"] is True
        assert payload["holds"] is None

    def test_parse_error_exits_two(self, tmp_path, capsys) -> None:
        path = tmp_path / "broken.txt"
        path.write_text("bigraph 2 2\n0 9\n")
        code, _, err = run_cli(["check", "dhp", "-i", str(path)], capsys)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text",
        ['{"a":' * 200000, '{"nx": ' + "9" * 5000 + ', "ny": 1, "edges": []}'],
        ids=["deep-nesting", "long-integer"],
    )
    def test_undecodable_json_exits_two(self, text, tmp_path, capsys) -> None:
        path = tmp_path / "graph.json"
        path.write_text(text)
        code, out, err = run_cli(["fmt", "-i", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: invalid JSON")

    @pytest.mark.parametrize(
        "text, argv",
        [
            (f"bigraph 2 {LONG}\n", ["fmt", "-i"]),
            (f"bigraph 2 2\n0 {LONG}\n", ["fmt", "-i"]),
            (f"design {LONG} 4 2\n", ["construct", "biplane", "--import"]),
            (f"design 1 1 2\n{LONG}\n", ["construct", "biplane", "--import"]),
            ("bigraph 2 2\n0 0\n", ["solve", "cover-cycle", "--xs", f"0,{LONG}", "-i"]),
        ],
        ids=["graph-header", "graph-edge", "design-header", "design-block", "xs"],
    )
    def test_over_long_integer_names_the_digit_limit(self, text, argv, tmp_path, capsys) -> None:
        # int() raises the same ValueError past sys.get_int_max_str_digits()
        # as for a token that is not an integer
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, out, err = run_cli(argv + [str(path)], capsys)
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert f"integer of 5000 digits exceeds the limit of {limit} digits" in err
        assert "must be integers" not in err and LONG not in err

    def test_missing_file_exits_two(self, capsys) -> None:
        code, _, err = run_cli(["check", "dhp", "-i", "/no/such/file"], capsys)
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_exits_two(self, tmp_path, capsys) -> None:
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00")
        code, _, err = run_cli(["fmt", "-i", str(path)], capsys)
        assert code == 2
        assert "error:" in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "dhp", "--budget-subsets", "-5"],
            ["check", "snp", "--budget-subsets", "-1"],
            ["check", "supercyclic", "--budget-nodes", "-1"],
            ["solve", "cover-cycle", "--budget-nodes", "-1"],
            ["solve", "cycle-cover", "--budget-nodes", "-3"],
        ],
    )
    def test_negative_budget_exits_two(self, argv, cube_file, capsys) -> None:
        code, out, err = run_cli(argv + ["-i", cube_file], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "non-negative" in err

    def test_negative_budget_is_still_a_value_error(self) -> None:
        from dhp import ConfigError, check_supercyclic

        with pytest.raises(ConfigError) as info:
            check_supercyclic(builtin_biplane(1), budget=-1)
        assert isinstance(info.value, ValueError)

    def test_strict_duplicate_edge(self, tmp_path, capsys) -> None:
        path = tmp_path / "dup.txt"
        path.write_text("bigraph 2 2\n0 0\n0 0\n0 1\n1 0\n1 1\n")
        code, _, _ = run_cli(["check", "dhp", "-i", str(path)], capsys)
        assert code == 0
        code, _, err = run_cli(
            ["check", "dhp", "-i", str(path), "--strict"], capsys
        )
        assert code == 2
        assert "duplicate" in err

    def test_unknown_property_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["check", "frobnitz"])
        assert exc.value.code == 2

    def test_oversized_header_exits_two(self, capsys, monkeypatch) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO("bigraph 1048577 1\n"))
        code, out, err = run_cli(["fmt"], capsys)
        assert code == 2 and out == ""
        assert "exceeds limit" in err

    def test_reads_stdin_by_default(self, capsys, monkeypatch) -> None:
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(serialize_bigraph(Bigraph.complete(2, 2)))
        )
        code, out, _ = run_cli(["check", "dhp"], capsys)
        assert code == 0
        assert json.loads(out)["holds"] is True


class TestSolve:
    def test_cover_cycle_full_x(self, cube_file, capsys) -> None:
        code, out, _ = run_cli(
            ["solve", "cover-cycle", "-i", cube_file, "--xs", "all"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "found"
        steps = payload["witness"]["cycle"]
        assert len(steps) == 8
        assert {tuple(v) for v in steps if v[0] == "x"} == {
            ("x", i) for i in range(4)
        }

    def test_cover_cycle_past_the_target_cap_exits_two(self, tmp_path, capsys) -> None:
        path = write_graph(tmp_path, "k500.txt", Bigraph.complete(500, 500))
        code, _, err = run_cli(["solve", "cover-cycle", "-i", path, "--xs", "all"], capsys)
        assert code == 2
        assert "capped at 384" in err

    def test_cover_cycle_subset_and_superset(self, tmp_path, capsys) -> None:
        # x2 has degree one, so an exact cycle on {x0, x2} cannot exist
        # but nothing blocks the pair {x0, x1}
        g = Bigraph.from_edges(
            3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)]
        )
        path = write_graph(tmp_path, "mixed.txt", g)
        code, out, _ = run_cli(
            ["solve", "cover-cycle", "-i", path, "--xs", "0,1"], capsys
        )
        assert code == 0
        code, out, _ = run_cli(
            ["solve", "cover-cycle", "-i", path, "--xs", "0,2"], capsys
        )
        assert code == 1
        assert json.loads(out)["result"] == "none"
        code, out, _ = run_cli(
            ["solve", "cover-cycle", "-i", path, "--xs", "0,2", "--superset"],
            capsys,
        )
        assert code == 1

    def test_bad_xs_spec(self, cube_file, capsys) -> None:
        code, _, err = run_cli(
            ["solve", "cover-cycle", "-i", cube_file, "--xs", "a,b"], capsys
        )
        assert code == 2
        assert "--xs" in err

    def test_xs_outside_x_is_rejected_before_building_its_mask(self, cube_file, capsys) -> None:
        # 1 << 10**18 raised MemoryError: a traceback and exit 1, "no witness"
        argv = ["solve", "cover-cycle", "-i", cube_file, "--xs", f"0,{10**18}"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "xs mentions vertices outside X" in err

    def test_cycle_cover_lists_cycles(self, tmp_path, capsys) -> None:
        g = Bigraph.from_edges(
            4,
            4,
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
        )
        path = write_graph(tmp_path, "two_blocks.txt", g)
        code, out, _ = run_cli(["solve", "cycle-cover", "-i", path], capsys)
        assert code == 0
        cycles = json.loads(out)["witness"]["cycles"]
        assert len(cycles) == 2

    def test_hamiltonian_none_case(self, tmp_path, capsys) -> None:
        g = Bigraph.from_edges(2, 2, [(0, 0), (1, 0), (0, 1)])
        path = write_graph(tmp_path, "almost.txt", g)
        code, out, _ = run_cli(["solve", "hamiltonian", "-i", path], capsys)
        assert code == 1
        assert json.loads(out)["result"] == "none"

    def test_high_degree_requires_k(self, cube_file, capsys) -> None:
        code, _, err = run_cli(
            ["solve", "high-degree", "-i", cube_file], capsys
        )
        assert code == 2
        assert "--k" in err

    def test_high_degree_solves(self, tmp_path, capsys) -> None:
        path = write_graph(tmp_path, "k9.txt", Bigraph.complete(9, 9))
        code, out, _ = run_cli(
            ["solve", "high-degree", "-i", path, "--k", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"] == "found"

    def test_degree_split_rejects_wrong_classes(self, tmp_path, capsys) -> None:
        g = Bigraph.complete(6, 6).without_edge(0, 0).without_edge(1, 0)
        g = g.without_edge(2, 0)
        path = write_graph(tmp_path, "badclass.txt", g)
        code, _, err = run_cli(["solve", "degree-split", "-i", path], capsys)
        assert code == 2
        assert "degree" in err

    def test_degree_split_solves_gadget(self, tmp_path, capsys) -> None:
        from dhp import pair_gadget

        path = write_graph(tmp_path, "gadget.txt", pair_gadget(4))
        code, out, _ = run_cli(["solve", "degree-split", "-i", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "found"

    def test_degree_split_reports_diagnostics(self, tmp_path, capsys) -> None:
        from dhp import pair_gadget

        path = write_graph(tmp_path, "gadget13.txt", pair_gadget(13))
        code, out, _ = run_cli(["solve", "degree-split", "-i", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "found"
        assert payload["diagnostics"] == {"paths_best_effort": True}

    def test_degree_split_under_a_low_recursion_limit_exits_zero(self, tmp_path, capsys) -> None:
        # K(200, 200) is dHp, and its junction matching follows alternating
        # paths up to 200 slots long; under a recursion limit of 150 the
        # recursive augmenting step could not follow them
        path = write_graph(tmp_path, "k200.txt", Bigraph.complete(200, 200))
        script = textwrap.dedent(
            """
            import sys

            # numpy and every dhp submodule load before the limit is lowered
            import numpy
            import dhp

            dhp.__all__
            from dhp.cli import main

            sys.setrecursionlimit(150)
            sys.exit(main(sys.argv[1:]))
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", "degree-split", "-i", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(["solve", "degree-split", "-i", path], capsys)
        assert code == 0
        payload = json.loads(proc.stdout)
        assert payload["result"] == "found"
        assert payload["witness"] == json.loads(out)["witness"]

    def test_budget_exhaustion_exits_three(self, tmp_path, capsys) -> None:
        path = write_graph(tmp_path, "k9.txt", Bigraph.complete(9, 9))
        code, out, _ = run_cli(
            ["solve", "high-degree", "-i", path, "--k", "2", "--budget-nodes", "3"],
            capsys,
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["result"] is None
        assert payload["budget_exhausted"] is True


class TestConstruct:
    def test_pair_gadget_trivial(self, capsys) -> None:
        code, out, _ = run_cli(["construct", "pair-gadget", "--n", "2"], capsys)
        assert code == 0
        first, rest = out.split("\n", 1)
        assert first.startswith("# config: ")
        g = load_bigraph(rest)
        assert g.nx == 2 and g.ny == 2
        assert g.degrees_y() == [2, 2]

    def test_config_comment_reparses(self, capsys) -> None:
        code, out, _ = run_cli(["construct", "pair-gadget", "--n", "3"], capsys)
        assert code == 0
        # the comment line must not break the parser
        g = load_bigraph(out)
        assert g.nx == 3

    def test_biplane_pipes_into_check(self, tmp_path, capsys) -> None:
        out_path = tmp_path / "biplane.txt"
        code, _, _ = run_cli(
            ["construct", "biplane", "--order", "2", "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["check", "dhp", "-i", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_biplane_option_exclusivity(self, tmp_path, capsys) -> None:
        code, _, err = run_cli(["construct", "biplane"], capsys)
        assert code == 2
        assert "--order" in err
        imp = tmp_path / "d.txt"
        imp.write_text("design 2 2 2\n0 1\n0 1\n")
        code, _, err = run_cli(
            ["construct", "biplane", "--order", "1", "--import", str(imp)],
            capsys,
        )
        assert code == 2

    def test_biplane_import_round_trip(self, tmp_path, capsys) -> None:
        imp = tmp_path / "d.txt"
        imp.write_text("design 2 2 2\n0 1\n0 1\n")
        code, out, _ = run_cli(
            ["construct", "biplane", "--import", str(imp)], capsys
        )
        assert code == 0
        assert load_bigraph(out) == Bigraph.complete(2, 2)

    def test_import_rejects_lambda_other_than_two(self, tmp_path, capsys) -> None:
        # the Fano plane is a valid design, but not a biplane
        imp = tmp_path / "fano.txt"
        imp.write_text("design 7 3 1\n1 2 4\n2 3 5\n3 4 6\n0 4 5\n1 5 6\n0 2 6\n0 1 3\n")
        code, out, err = run_cli(["construct", "biplane", "--import", str(imp)], capsys)
        assert code == 2 and out == ""
        assert "lambda = 2" in err

    def test_import_rejects_fake_design(self, tmp_path, capsys) -> None:
        imp = tmp_path / "fake.txt"
        imp.write_text("design 7 4 2\n" + "0 1 2 3\n" * 7)
        code, _, err = run_cli(
            ["construct", "biplane", "--import", str(imp)], capsys
        )
        assert code == 2
        assert "axioms" in err

    def test_product_of_files(self, tmp_path, cube_file, capsys) -> None:
        code, out, _ = run_cli(
            ["construct", "product", cube_file, cube_file], capsys
        )
        assert code == 0
        g = load_bigraph(out)
        assert g.nx == 16 and g.ny == 16
        assert set(g.degrees_x()) == {9}

    def test_power_reports_growth(self, cube_file, capsys) -> None:
        code, out, err = run_cli(
            ["construct", "power", cube_file, "--k", "2"], capsys
        )
        assert code == 0
        assert "# growth: " in err
        growth = json.loads(err.split("# growth: ", 1)[1])
        assert growth["regular_degree"] == 9
        g = load_bigraph(out)
        assert g.nx == 16

    def test_power_builds_no_mirror(self, tmp_path, capsys, monkeypatch) -> None:
        from dhp import builtin_biplane

        reads = []
        mirror = Bigraph.__dict__["adj_y"].func

        def spy(g: Bigraph) -> tuple[int, ...]:
            reads.append(g.nx)
            return mirror(g)

        path = write_graph(tmp_path, "b3.txt", builtin_biplane(3))
        monkeypatch.setattr(Bigraph, "adj_y", property(spy))
        code, _, err = run_cli(["construct", "power", path, "--k", "2"], capsys)
        assert code == 0 and reads == []
        assert json.loads(err.split("# growth: ", 1)[1])["regular_degree"] == 25

    def test_json_output_carries_config(self, capsys) -> None:
        code, out, _ = run_cli(
            ["construct", "pair-gadget", "--n", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["generator"] == "pair-gadget"
        assert payload["nx"] == 2
        g = load_bigraph(out)
        assert check_dhp(g).holds


class TestFmt:
    def test_canonicalizes_edge_list(self, tmp_path, capsys) -> None:
        messy = tmp_path / "messy.txt"
        messy.write_text("# hello\nbigraph 2 2\n1 1\n0 0\n")
        code, out, _ = run_cli(["fmt", "-i", str(messy)], capsys)
        assert code == 0
        body = out.split("\n", 1)[1]
        assert body == "bigraph 2 2\n0 0\n1 1\n"

    def test_converts_between_formats(self, tmp_path, capsys) -> None:
        g = Bigraph.from_edges(2, 3, [(0, 2), (1, 0)])
        src = tmp_path / "g.json"
        src.write_text(
            json.dumps({"nx": 2, "ny": 3, "edges": [[0, 2], [1, 0]]})
        )
        code, out, _ = run_cli(
            ["fmt", "-i", str(src), "--format", "edge-list"], capsys
        )
        assert code == 0
        assert out.split("\n", 1)[1].startswith("bigraph 2 3\n")
        assert load_bigraph(out) == g

        back = tmp_path / "g.txt"
        back.write_text(out)
        code, out, _ = run_cli(
            ["fmt", "-i", str(back), "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["edges"] == [[0, 2], [1, 0]]
        assert load_bigraph(out) == g

    def test_product_accepts_mixed_input_formats(
        self, tmp_path, cube_file, capsys
    ) -> None:
        from dhp import builtin_biplane

        as_json = tmp_path / "cube.json"
        code, out, _ = run_cli(
            ["fmt", "-i", cube_file, "--format", "json", "-o", str(as_json)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["construct", "product", cube_file, str(as_json)], capsys
        )
        assert code == 0
        assert load_bigraph(out).nx == 16


class TestRandom:
    def test_csv_report_deterministic(self, tmp_path, capsys) -> None:
        args = [
            "random",
            "sweep",
            "--n-list",
            "10",
            "--c-list",
            "0",
            "--trials",
            "20",
            "--seed",
            "9",
        ]
        code, out1, _ = run_cli(args, capsys)
        assert code == 0
        code, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("n,c,p,trials,")
        assert len(lines) == 3

    def test_json_report_structure(self, tmp_path, capsys) -> None:
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            [
                "random",
                "sweep",
                "--n-list",
                "10",
                "--c-list",
                "-1",
                "1",
                "--trials",
                "10",
                "--seed",
                "4",
                "--out",
                str(out_path),
                "--records",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["command"] == "random"
        assert payload["sweep_config"]["trials"] == 10
        assert len(payload["cells"]) == 2
        assert len(payload["cells"][0]["records"]) == 10

    def test_invalid_measure_exits_two(self, capsys) -> None:
        code, _, err = run_cli(
            [
                "random",
                "sweep",
                "--n-list",
                "10",
                "--c-list",
                "0",
                "--trials",
                "5",
                "--measure",
                "pair,zeta",
            ],
            capsys,
        )
        assert code == 2
        assert "zeta" in err

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_offset_exits_two(self, c, capsys) -> None:
        code, out, err = run_cli(
            ["random", "sweep", "--n-list", "10", "--c-list", "0", c, "--trials", "2"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_two(self, seed, capsys) -> None:
        code, out, err = run_cli(
            ["random", "sweep", "--n-list", "10", "--c-list", "0", "--trials", "2",
             "--seed", seed],
            capsys,
        )
        assert code == 2 and out == ""
        assert "seed" in err

    def test_exact_measure_size_guard(self, capsys) -> None:
        code, _, err = run_cli(
            [
                "random",
                "sweep",
                "--n-list",
                "300",
                "--c-list",
                "0",
                "--trials",
                "5",
                "--measure",
                "pair,exact",
            ],
            capsys,
        )
        assert code == 2
        assert "exact" in err


class TestFlags:
    def test_flag_before_generator_is_rejected(self, tmp_path, capsys) -> None:
        out_path = tmp_path / "b2.txt"
        with pytest.raises(SystemExit) as exc:
            main(["construct", "-o", str(out_path), "biplane", "--order", "2"])
        assert exc.value.code == 2
        assert not out_path.exists()

    def test_flag_before_experiment_is_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(
                ["random", "--seed", "7", "sweep", "--n-list", "10", "--c-list", "0", "--trials", "2"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["check", "dhp"], {"input", "output", "strict", "budget_subsets", "property"}),
            (["solve", "cycle-cover"], {"input", "output", "strict", "budget_nodes", "mode"}),
            (["fmt", "--format", "json"], {"input", "output", "format", "strict"}),
            (
                ["construct", "pair-gadget", "--n", "2", "--format", "json"],
                {"output", "format", "generator", "n"},
            ),
            (
                ["random", "sweep", "--n-list", "10", "--c-list", "0", "--trials", "2",
                 "--report-format", "json"],
                {"output", "seed", "jobs", "experiment", "n_list", "c_list", "trials", "measure",
                 "report_format", "records", "no_crn"},
            ),
            *(
                (["check", prop], {"input", "output", "strict", "property", *budgets})
                for prop, budgets in [
                    ("snp", {"budget_subsets"}),
                    ("snp-minimal", {"budget_subsets"}),
                    ("supercyclic", {"budget_nodes"}),
                    ("critical", {"budget_nodes"}),
                    ("saturated-critical", {"budget_nodes"}),
                    ("design", set()),
                    ("degree-bound", set()),
                ]
            ),
            *(
                (
                    ["solve", mode, *extra],
                    {"input", "output", "strict", "budget_nodes", "mode", *own},
                )
                for mode, extra, own in [
                    ("cover-cycle", [], {"xs", "superset"}),
                    ("degree-split", [], set()),
                    ("high-degree", ["--k", "1"], {"k"}),
                    ("hamiltonian", [], {"limit"}),
                ]
            ),
        ],
    )
    def test_config_echoes_only_the_flags_a_subcommand_takes(
        self, argv, keys, capsys, monkeypatch
    ) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_bigraph(builtin_biplane(1))))
        code, out, _ = run_cli(argv, capsys)
        # no critical graph is known, so those two verdicts fail
        assert code == (1 if argv[1] in ("critical", "saturated-critical") else 0)
        assert set(json.loads(out)["config"]) == keys | {"command", "subcommand"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "dhp", "--budget-nodes", "5"],
            ["check", "design", "--budget-subsets", "5"],
            ["check", "supercyclic", "--budget-subsets", "5"],
            ["check", "critical", "--budget-subsets", "5"],
            ["solve", "cycle-cover", "--k", "3"],
            ["check", "-i", "graph.txt", "dhp"],
        ],
    )
    def test_flag_a_leaf_does_not_read_is_rejected(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["cover-cycle", "cycle-cover", "degree-split"])
    def test_invalid_constructed_cycle_exits_four(
        self, mode, cube_file, capsys, monkeypatch
    ) -> None:
        # a cycle the solver built that fails validation is a bug, not bad input
        broken = lambda c: CycleWitness(c.xs, (c.ys[0],) * c.m)  # noqa: E731
        monkeypatch.setattr(CycleWitness, "canonical", broken)
        code, _, err = run_cli(["solve", mode, "-i", cube_file], capsys)
        assert code == 4
        assert "internal contract violated" in err

    def test_sweep_output_spellings_are_one_option(self, tmp_path, capsys) -> None:
        path = tmp_path / "sweep.csv"
        written = []
        for flag in ("-o", "--output", "--out"):
            code, out, _ = run_cli(
                ["random", "sweep", "--n-list", "10", "--c-list", "0", "--trials", "2",
                 flag, str(path)],
                capsys,
            )
            assert code == 0 and out == ""
            written.append(path.read_text())
        assert written[0] == written[1] == written[2]
        assert '"output": ' in written[0] and '"out": ' not in written[0]

    def test_internal_bug_exits_four(self, tmp_path, capsys, monkeypatch) -> None:
        def broken(g, budget=None):
            raise ContractViolationError("invariant broken")

        monkeypatch.setattr("dhp.checkers.check_dhp", broken)
        path = write_graph(tmp_path, "k22.txt", Bigraph.complete(2, 2))
        code, _, err = run_cli(["check", "dhp", "-i", path], capsys)
        assert code == 4
        assert "internal contract violated" in err


def _parsers(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Every parser reachable from ``parser``, with its subcommand words."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def _arguments(parser: argparse.ArgumentParser) -> list[list[str]]:
    """A parser's own arguments in order: option strings, or the
    positional's name."""
    return [
        list(a.option_strings) or [a.dest]
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


_IO = [["-h", "--help"], ["-i", "--input"], ["-o", "--output"], ["--strict"]]
_GRAPH_OUT = [["-h", "--help"], ["-o", "--output"], ["--format"]]

# Each parser's arguments, and the sha256 prefix of its --help text at
# COLUMNS=80, recorded before the parser was built from one table; the five
# parsers with --format re-recorded when it kept only edge-list and json.
CLI_SURFACE = {
    "": ([["-h", "--help"]], "6e02e69161641fe2"),
    "check": ([["-h", "--help"]], "4a658902e0b94f49"),
    "check dhp": (_IO + [["--budget-subsets"]], "031ef0ee38b9979d"),
    "check snp": (_IO + [["--budget-subsets"]], "10970dc836c93763"),
    "check supercyclic": (_IO + [["--budget-nodes"]], "bf2f30677fb6c1a2"),
    "check critical": (_IO + [["--budget-nodes"]], "8115cc71320a4d10"),
    "check saturated-critical": (_IO + [["--budget-nodes"]], "db8ff648be5250ab"),
    "check snp-minimal": (_IO + [["--budget-subsets"]], "60d818074fdb63fc"),
    "check design": (_IO, "b17c0d3dee7c565b"),
    "check degree-bound": (_IO, "42745ae5427acc30"),
    "solve": ([["-h", "--help"]], "87b78530158ab514"),
    "solve cover-cycle": (
        _IO + [["--budget-nodes"], ["--xs"], ["--superset"]],
        "e9571a4ee968d37e",
    ),
    "solve cycle-cover": (_IO + [["--budget-nodes"]], "0c66511e4f403d66"),
    "solve degree-split": (_IO + [["--budget-nodes"]], "1b6317fe76c3a8aa"),
    "solve high-degree": (_IO + [["--budget-nodes"], ["--k"]], "7d827d22a0790e3a"),
    "solve hamiltonian": (_IO + [["--budget-nodes"], ["--limit"]], "412c1eef7fb75b35"),
    "construct": ([["-h", "--help"]], "4400fbb65cfa1cbc"),
    "construct pair-gadget": (_GRAPH_OUT + [["--n"]], "2224d626c26577ad"),
    "construct biplane": (_GRAPH_OUT + [["--order"], ["--import"]], "904b13f6c0085cd6"),
    "construct product": (
        _GRAPH_OUT + [["--strict"], ["left"], ["right"]],
        "e78b834715c2e2cc",
    ),
    "construct power": (
        _GRAPH_OUT + [["--strict"], ["graph"], ["--k"]],
        "fcb3ac82d4404cb9",
    ),
    "random": ([["-h", "--help"]], "a4b29cfb3957319a"),
    "random sweep": (
        [["-h", "--help"], ["--seed"], ["--jobs"], ["--n-list"], ["--c-list"], ["--trials"],
         ["--measure"], ["-o", "--output", "--out"], ["--report-format"], ["--records"],
         ["--no-crn"]],
        "b8b285aafd1cbd77",
    ),
    "fmt": (
        [["-h", "--help"], ["-i", "--input"], ["-o", "--output"], ["--format"], ["--strict"]],
        "d2f3ec879759461d",
    ),
}


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestSurfacePinned:
    """The parsers, help texts and outputs of every leaf, pinned so that a
    change to how the CLI is declared cannot change what it does."""

    def test_every_parser_and_help_text(self, monkeypatch) -> None:
        monkeypatch.setenv("COLUMNS", "80")
        surface = {
            path: (_arguments(p), _sha16(p.format_help()))
            for path, p in _parsers(_build_parser())
        }
        assert list(surface) == list(CLI_SURFACE)
        assert surface == CLI_SURFACE

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["check", "dhp", "-i", "b2.txt"], 0, "1d630d3ac143bbcd"),
            (["check", "snp", "-i", "b2.txt"], 0, "bdb0b7eadee85bab"),
            (["check", "supercyclic", "-i", "b2.txt"], 0, "a39c6b1cb886f4b0"),
            (["check", "critical", "-i", "b2.txt"], 1, "dce07103d8327c04"),
            (["check", "saturated-critical", "-i", "b2.txt"], 1, "9d8dcd14a5eec87b"),
            (["check", "snp-minimal", "-i", "b2.txt"], 0, "58f9c4489258c922"),
            (["check", "design", "-i", "b2.txt"], 0, "02733184263f2cd3"),
            (["check", "degree-bound", "-i", "b2.txt"], 0, "9ddd25634acf173b"),
            (["check", "dhp", "-i", "b2.txt", "--budget-subsets", "3"], 3, "67353f102f906409"),
            (["check", "snp", "-i", "bad.txt"], 2, "44492b8963569632"),
            (
                ["solve", "cover-cycle", "-i", "b2.txt", "--xs", "0,2", "--superset"],
                0,
                "4b61b872ffc113ca",
            ),
            (["solve", "cycle-cover", "-i", "b2.txt"], 0, "d37230412e7fae45"),
            (["solve", "degree-split", "-i", "gadget.txt"], 0, "5329ca4b36a5f4d9"),
            (["solve", "high-degree", "-i", "k9.txt", "--k", "2"], 0, "94efe8180eccd001"),
            (["solve", "high-degree", "-i", "b2.txt"], 2, "e4d1c8fc1309ff2d"),
            (["solve", "hamiltonian", "-i", "b2.txt", "--limit", "8"], 0, "423cc9ef8c997ffe"),
            (
                ["solve", "cycle-cover", "-i", "b2.txt", "--budget-nodes", "1"],
                3,
                "3d0496dbada50070",
            ),
            (["construct", "pair-gadget", "--n", "3"], 0, "a729765b0932da27"),
            (["construct", "biplane", "--order", "2", "--format", "json"], 0, "0a4145b536051576"),
            (["construct", "biplane"], 2, "17808ef592f94455"),
            (["construct", "product", "b2.txt", "gadget.txt"], 0, "f42e0a8d09bfcc2a"),
            (["construct", "power", "b2.txt", "--k", "2"], 0, "2206be93140cb09b"),
            (
                ["random", "sweep", "--n-list", "10", "--c-list", "0", "--trials", "2"],
                0,
                "1eef799297ec7cc0",
            ),
            (
                ["random", "sweep", "--n-list", "8", "12", "--c-list", "-1", "1", "--trials", "3",
                 "--seed", "5", "--measure", "pair,maxdeg", "--report-format", "json",
                 "--records", "--no-crn"],
                0,
                "00aaf482d02914e1",
            ),
            (["fmt", "-i", "b2.txt", "--format", "json"], 0, "c24236b2a84c6861"),
            (["fmt", "-i", "gadget.txt"], 0, "7c4bddc30d231bd5"),
        ],
    )
    def test_output_bytes_and_exit_code(
        self, argv, code, digest, tmp_path, capsys, monkeypatch
    ) -> None:
        from dhp import pair_gadget

        monkeypatch.chdir(tmp_path)
        write_graph(tmp_path, "b2.txt", builtin_biplane(2))
        write_graph(tmp_path, "gadget.txt", pair_gadget(4))
        write_graph(tmp_path, "k9.txt", Bigraph.complete(9, 9))
        (tmp_path / "bad.txt").write_text("bigraph 2\n")
        got, out, err = run_cli(argv, capsys)
        assert (got, _sha16(f"{out}\0{err}")) == (code, digest)


def _readme_flag_rows() -> dict[str, list[str]]:
    """The README's "Command line" table: leaf -> the arguments in the
    first code span of its row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        leaves, flags = line.strip("|").split("|")[:2]
        for leaf in re.findall(r"`([^`]+)`", leaves):
            rows[leaf] = re.findall(r"`([^`]+)`", flags)[0].split()
    return rows


def test_readme_flag_table_matches_every_leaf() -> None:
    leaves = {
        path: [
            a.option_strings[0] if a.option_strings else f"<{a.dest}>"
            for a in p._actions
            if a.dest != "help"
        ]
        for path, p in _parsers(_build_parser())
        if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)
    }
    assert _readme_flag_rows() == leaves


def test_console_script_smoke_calls_every_leaf() -> None:
    # the workflow is read as plain text: its smoke step runs one shell
    # command per line, some as `code=0; dhp ... || code=$?`
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    text = workflow.read_text(encoding="utf-8")
    step = text.split("- name: Console-script smoke", 1)[1].split("\n      - name: ", 1)[0]
    lines = [line.strip() for line in step.splitlines()]
    missing = []
    for command, (_, dest, _, leaves) in _COMMANDS.items():
        for leaf in leaves:
            call = f"dhp {command}" if dest is None else f"dhp {command} {leaf}"
            called = re.compile(rf"(^|; ){re.escape(call)}( |$)")
            if not any(called.search(line) for line in lines):
                missing.append(call)
    assert missing == []
