"""Command-line front end.

One executable, five subcommands: ``check`` (property verdicts), ``solve``
(cycle search and the structured solvers), ``construct`` (generators),
``random`` (seeded sweeps), and ``fmt`` (canonicalize a graph file).

Conventions shared by every subcommand:

* each subcommand takes only the flags its handler reads; graphs are read
  from --input (default stdin) in edge-list or JSON format, always
  auto-detected; --format chooses the encoding wherever a graph is written
  back out, so ``fmt`` and ``construct`` can convert between the two;

* every run echoes its fully resolved configuration: JSON reports carry a
  "config" key, graph and CSV outputs start with a ``# config: ...``
  comment line that downstream parsers ignore, so pipelines compose;

* exit codes: 0 = holds or witness found, 1 = fails or no witness,
  2 = bad input, bad flags, or violated precondition, 3 = budget exceeded,
  4 = internal contract violated (a bug, never bad input);

* outputs are deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from types import ModuleType
from typing import TYPE_CHECKING

from .budget import EXACT_MEASURE_LIMIT, NODE_BUDGET_DEFAULT, SUBSET_BUDGET_DEFAULT
from .core import Bigraph, VertexSet, int_error_message
from .errors import (
    BudgetExceededError,
    ConfigError,
    ContractViolationError,
    DhpError,
    DomainError,
    GraphInputError,
)
from .formats import load_bigraph, serialize_bigraph, bigraph_to_json_obj

if TYPE_CHECKING:
    from .checkers import Verdict
    from .randlab import SweepReport


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def _load_graph(args: argparse.Namespace, path: str | None = None) -> Bigraph:
    text = _read_text(path if path is not None else args.input)
    return load_bigraph(text, strict=args.strict)


def _parse_xs(spec: str, g: Bigraph) -> VertexSet:
    if spec == "all":
        return g.full_x()
    tokens = [tok for tok in spec.split(",") if tok.strip() != ""]
    try:
        idx = [int(tok) for tok in tokens]
    except ValueError:
        what = f"--xs expects 'all' or comma-separated indices, got {spec!r}"
        raise DomainError(int_error_message(tokens, what))
    if not idx:
        raise DomainError("--xs names no vertices")
    if max(idx) >= g.nx:  # before VertexSet.xs allocates a mask that wide
        raise GraphInputError("xs mentions vertices outside X")
    return VertexSet.xs(idx)


# -- runners: run a leaf's handler and write what it returns --------------------


def _write_output(args: argparse.Namespace, result: dict | str, code: int = 0) -> int:
    """Write a JSON result as one line with the config echo under "config",
    or a text result after a ``# config: ...`` comment line; return ``code``."""
    config = {k: v for k, v in vars(args).items() if k != "leaf"}
    if isinstance(result, str):
        text = "# config: " + json.dumps(config, sort_keys=True) + "\n" + result
    else:
        out = {"config": config, **result}
        text = json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
    _write_text(args.output, text)
    return code


def _exhausted(exc: BudgetExceededError) -> dict:
    """The tail of an undecided run's report; its result keys are null."""
    return {"witness": None, "budget_exhausted": True, "message": str(exc)}


def _write_verdict(args: argparse.Namespace, decide) -> int:
    try:
        verdict = decide(_load_graph(args), args)
    except BudgetExceededError as exc:
        return _write_output(args, {"property": args.property, "holds": None, **_exhausted(exc)}, 3)
    return _write_output(args, verdict.to_json_obj(), 0 if verdict.holds else 1)


def _write_witness(args: argparse.Namespace, search) -> int:
    diagnostics: dict = {}
    try:
        witness = search(_load_graph(args), args, diagnostics)
    except BudgetExceededError as exc:
        return _write_output(args, {"result": None, **_exhausted(exc)}, 3)
    if isinstance(witness, list):  # a disjoint cycle cover
        witness = {"cycles": [c.to_json_obj()["cycle"] for c in witness]}
    elif witness is not None:
        witness = witness.to_json_obj()
    found = witness is not None
    out = {"result": "found" if found else "none", "witness": witness, "budget_exhausted": False}
    if diagnostics:
        out["diagnostics"] = diagnostics
    return _write_output(args, out, 0 if found else 1)


def _emit_graph(args: argparse.Namespace, build) -> int:
    g = build(args)
    result = bigraph_to_json_obj(g) if args.format == "json" else serialize_bigraph(g)
    return _write_output(args, result)


def _write_report(args: argparse.Namespace, sweep) -> int:
    report = sweep(args)
    if args.output.endswith(".json") or args.report_format == "json":
        rep_obj = report.to_json_obj(include_records=args.records)
        return _write_output(args, {"sweep_config": rep_obj["config"], "cells": rep_obj["cells"]})
    return _write_output(args, report.to_csv())


# -- handlers: what a leaf computes --------------------------------------------
# They reach the library through _lib, so a call imports only the modules its
# leaf runs, and they look each function up on its module when the leaf runs,
# so a test can patch it there.


def _lib(name: str) -> ModuleType:
    """The library module ``dhp.<name>``, imported on first use."""
    return importlib.import_module(f".{name}", __package__)


def _check_design(g: Bigraph, args: argparse.Namespace) -> Verdict:
    constructions, checkers = _lib("constructions"), _lib("checkers")
    spec = constructions.verify_design(g)
    if spec is None:
        return checkers.Verdict("design", False, {"violation": constructions.design_violation(g)})
    return checkers.Verdict("design", True, {"v": spec.v, "k": spec.k, "lambda": spec.lam})


def _check_degree_bound(g: Bigraph, args: argparse.Namespace) -> Verdict:
    checkers = _lib("checkers")
    report = checkers.check_degree_bound(g)
    return checkers.Verdict("degree-bound", report.within_bound, report.to_json_obj())


def _split_point(args: argparse.Namespace) -> int:
    if args.k is None:
        raise DomainError("solve high-degree requires --k")
    return args.k


def _build_biplane(args: argparse.Namespace) -> Bigraph:
    if (args.order is None) == (args.import_file is None):
        raise DomainError("construct biplane needs exactly one of --order or --import")
    constructions = _lib("constructions")
    if args.order is not None:
        return constructions.builtin_biplane(args.order)
    design = constructions.import_design(_read_text(args.import_file))
    if design.lam != 2:
        raise DomainError(f"a biplane has lambda = 2, the design has lambda = {design.lam}")
    return constructions.design_to_bigraph(design)


def _build_power(args: argparse.Namespace) -> Bigraph:
    constructions = _lib("constructions")
    g = constructions.iterated_product(_load_graph(args, args.graph), args.k)
    growth = constructions.growth_report(g)
    print("# growth: " + json.dumps(growth, sort_keys=True), file=sys.stderr)
    return g


def _sweep(args: argparse.Namespace) -> SweepReport:
    randlab = _lib("randlab")
    config = randlab.SweepConfig(
        n_list=tuple(args.n_list),
        c_list=tuple(args.c_list),
        trials=args.trials,
        master_seed=args.seed,
        measures=tuple(args.measure.split(",")),
        jobs=args.jobs,
        crn=not args.no_crn,
    )
    return randlab.run_sweep(config)


# -- the command table: every leaf's flags and handler, declared once ----------


def _flag(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    return names, options


# flag -> (argument names, add_argument options)
_FLAGS = {
    "input": _flag("-i", "--input", default="-", help="input file (default stdin)"),
    "output": _flag("-o", "--output", default="-", help="output file (default stdout)"),
    "format": _flag(
        "--format",
        choices=("edge-list", "json"),
        default="edge-list",
        help="encoding for graph output (default edge-list); "
        "input format is always auto-detected",
    ),
    "seed": _flag("--seed", type=int, default=0, help="master seed"),
    "budget-subsets": _flag(
        "--budget-subsets",
        type=int,
        default=SUBSET_BUDGET_DEFAULT,
        help="cap on subsets visited by property checkers",
    ),
    "budget-nodes": _flag(
        "--budget-nodes",
        type=int,
        default=NODE_BUDGET_DEFAULT,
        help="cap on search nodes visited by solvers",
    ),
    "jobs": _flag("--jobs", type=int, default=1, help="worker processes for sweeps"),
    "strict": _flag(
        "--strict", action="store_true", help="reject duplicate edges when parsing edge lists"
    ),
    "xs": _flag("--xs", default="all", help="target X-set: 'all' or comma-separated indices"),
    "superset": _flag(
        "--superset", action="store_true", help="allow extra X-vertices on the cycle"
    ),
    "k": _flag("--k", type=int, default=None, help="the degree split point"),
    "limit": _flag("--limit", type=int, default=EXACT_MEASURE_LIMIT, help="exact search size cap"),
    "n": _flag("--n", type=int, required=True),
    "order": _flag("--order", type=int, default=None),
    "import": _flag("--import", dest="import_file", default=None, metavar="FILE"),
    "left": _flag("left"),
    "right": _flag("right"),
    "graph": _flag("graph"),
    "power-k": _flag("--k", type=int, required=True),
    "n-list": _flag("--n-list", type=int, nargs="+", required=True, metavar="N"),
    "c-list": _flag("--c-list", type=float, nargs="+", required=True, metavar="C"),
    "trials": _flag("--trials", type=int, required=True),
    "measure": _flag(
        "--measure",
        default="pair,obstacle3,maxdeg",
        help="comma-separated: pair,obstacle3,exact,hamiltonian,maxdeg",
    ),
    "report-output": _flag(
        "-o", "--output", "--out",
        default="-",
        help="report path (default stdout); .json extension selects JSON, otherwise CSV",
    ),
    "report-format": _flag(
        "--report-format",
        choices=("csv", "json"),
        default="csv",
        help="report format when the output path does not decide",
    ),
    "records": _flag(
        "--records", action="store_true", help="include per-trial records in JSON reports"
    ),
    "no-crn": _flag(
        "--no-crn",
        action="store_true",
        help="derive independent seeds per c instead of common random numbers",
    ),
}

_READ = ("input", "output", "strict")
_SUBSETS = _READ + ("budget-subsets",)
_NODES = _READ + ("budget-nodes",)

# subcommand -> (help, dest naming its leaf, runner, {leaf: (flags, handler)}).
# main calls runner(args, handler).  fmt is a leaf with no group (dest None).
_COMMANDS = {
    "check": (
        "decide a property and print a verdict",
        "property",
        _write_verdict,
        {
            "dhp": (_SUBSETS, lambda g, a: _lib("checkers").check_dhp(g, budget=a.budget_subsets)),
            "snp": (_SUBSETS, lambda g, a: _lib("checkers").check_snp(g, budget=a.budget_subsets)),
            "supercyclic": (
                _NODES,
                lambda g, a: _lib("checkers").check_supercyclic(g, budget=a.budget_nodes),
            ),
            "critical": (
                _NODES,
                lambda g, a: _lib("checkers").check_critical(g, budget=a.budget_nodes),
            ),
            "saturated-critical": (
                _NODES,
                lambda g, a: _lib("checkers").check_saturated_critical(g, budget=a.budget_nodes),
            ),
            "snp-minimal": (
                _SUBSETS,
                lambda g, a: _lib("checkers").check_snp_minimal(g, budget=a.budget_subsets),
            ),
            "design": (_READ, _check_design),
            "degree-bound": (_READ, _check_degree_bound),
        },
    ),
    "solve": (
        "search for a covering cycle witness",
        "mode",
        _write_witness,
        {
            "cover-cycle": (
                _NODES + ("xs", "superset"),
                lambda g, a, d: _lib("cycles").find_cycle_covering(
                    g, _parse_xs(a.xs, g), exact_x=not a.superset, budget=a.budget_nodes
                ),
            ),
            "cycle-cover": (
                _NODES,
                lambda g, a, d: _lib("cycles").find_disjoint_cycle_cover(
                    g, budget=a.budget_nodes
                ),
            ),
            "degree-split": (
                _NODES,
                lambda g, a, d: _lib("cycles").solve_degree_split(
                    g, budget=a.budget_nodes, diagnostics=d
                ),
            ),
            "high-degree": (
                _NODES + ("k",),
                lambda g, a, d: _lib("cycles").solve_high_degree(
                    g, _split_point(a), budget=a.budget_nodes, diagnostics=d
                ),
            ),
            "hamiltonian": (
                _NODES + ("limit",),
                lambda g, a, d: _lib("randlab").check_hamiltonian(
                    g, limit=a.limit, budget=a.budget_nodes
                ),
            ),
        },
    ),
    "construct": (
        "generate a structured graph",
        "generator",
        _emit_graph,
        {
            "pair-gadget": (
                ("output", "format", "n"),
                lambda a: _lib("constructions").pair_gadget(a.n),
            ),
            "biplane": (("output", "format", "order", "import"), _build_biplane),
            "product": (
                ("output", "format", "strict", "left", "right"),
                lambda a: _lib("constructions").bipartite_product(
                    _load_graph(a, a.left), _load_graph(a, a.right)
                ),
            ),
            "power": (("output", "format", "strict", "graph", "power-k"), _build_power),
        },
    ),
    "random": (
        "seeded random-graph experiments",
        "experiment",
        _write_report,
        {
            "sweep": (
                ("seed", "jobs", "n-list", "c-list", "trials", "measure", "report-output",
                 "report-format", "records", "no-crn"),
                _sweep,
            ),
        },
    ),
    "fmt": (
        "parse and canonically reserialize a graph",
        None,
        _emit_graph,
        {"fmt": (("input", "output", "format", "strict"), _load_graph)},
    ),
}


# -- parser --------------------------------------------------------------------


def _leaf_parser(sub, name: str, flags: tuple[str, ...], **kwargs) -> argparse.ArgumentParser:
    """A subcommand parser carrying only the flags its handler reads."""
    p = sub.add_parser(name, **kwargs)
    for flag in flags:
        names, options = _FLAGS[flag]
        p.add_argument(*names, **options)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhp",
        description="Bipartite double-Hall toolkit: checkers, cycle solvers, "
        "constructions, and random experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (help_text, dest, runner, leaves) in _COMMANDS.items():
        group, kwargs = sub, {"help": help_text}
        if dest is not None:
            group = sub.add_parser(command, **kwargs).add_subparsers(dest=dest, required=True)
            kwargs = {}
        for name, (flags, handler) in leaves.items():
            leaf = _leaf_parser(group, name, flags, **kwargs)
            leaf.set_defaults(command=command, leaf=(runner, handler))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    runner, handler = args.leaf
    try:
        return runner(args, handler)
    except ContractViolationError as exc:
        print(f"internal contract violated: {exc}", file=sys.stderr)
        return 4
    except DhpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
