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
import json
import sys

from .budget import NODE_BUDGET_DEFAULT, SUBSET_BUDGET_DEFAULT
from .checkers import (
    Verdict,
    check_degree_bound,
    check_dhp,
    check_critical,
    check_saturated_critical,
    check_snp,
    check_snp_minimal,
    check_supercyclic,
)
from .constructions import (
    builtin_biplane,
    bipartite_product,
    design_to_bigraph,
    design_violation,
    growth_report,
    import_design,
    iterated_product,
    pair_gadget,
    verify_design,
)
from .core import Bigraph, VertexSet
from .cycles import (
    find_cycle_covering,
    find_disjoint_cycle_cover,
    solve_degree_split,
    solve_high_degree,
)
from .errors import BudgetExceededError, ConfigError, ContractViolationError, DhpError, DomainError
from .formats import load_bigraph, serialize_bigraph, bigraph_to_json_obj
from .randlab import EXACT_MEASURE_LIMIT, SweepConfig, check_hamiltonian, run_sweep


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


def _config_of(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["command"] = args.func.__name__.removeprefix("cmd_")
    return cfg


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit_graph(args: argparse.Namespace, g: Bigraph) -> int:
    cfg = _config_of(args)
    fmt = args.format if args.format != "auto" else "edge-list"
    if fmt == "json":
        obj = bigraph_to_json_obj(g)
        obj["config"] = cfg
        _write_text(args.output, _dump_json(obj))
    else:
        header = "# config: " + json.dumps(cfg, sort_keys=True) + "\n"
        _write_text(args.output, header + serialize_bigraph(g))
    return 0


def _load_graph(args: argparse.Namespace, path: str | None = None) -> Bigraph:
    text = _read_text(path if path is not None else args.input)
    return load_bigraph(text, strict=args.strict)


def _parse_xs(spec: str, g: Bigraph) -> VertexSet:
    if spec == "all":
        return g.full_x()
    try:
        idx = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"--xs expects 'all' or comma-separated indices, got {spec!r}")
    if not idx:
        raise DomainError("--xs names no vertices")
    return VertexSet.xs(idx)


# -- subcommands ---------------------------------------------------------------


def _check_design(g: Bigraph, args: argparse.Namespace) -> Verdict:
    spec = verify_design(g)
    if spec is None:
        return Verdict("design", False, {"violation": design_violation(g)})
    return Verdict("design", True, {"v": spec.v, "k": spec.k, "lambda": spec.lam})


def _check_degree_bound(g: Bigraph, args: argparse.Namespace) -> Verdict:
    report = check_degree_bound(g)
    return Verdict("degree-bound", report.within_bound, report.to_json_obj())


_SUBSETS = ("budget-subsets",)
_NODES = ("budget-nodes",)

# property -> (the flags its handler reads beyond -i -o --strict, handler)
_CHECKS = {
    "dhp": (_SUBSETS, lambda g, args: check_dhp(g, budget=args.budget_subsets)),
    "snp": (_SUBSETS, lambda g, args: check_snp(g, budget=args.budget_subsets)),
    "supercyclic": (_NODES, lambda g, args: check_supercyclic(g, budget=args.budget_nodes)),
    "critical": (_NODES, lambda g, args: check_critical(g, budget=args.budget_nodes)),
    "saturated-critical": (
        _NODES,
        lambda g, args: check_saturated_critical(g, budget=args.budget_nodes),
    ),
    "snp-minimal": (_SUBSETS, lambda g, args: check_snp_minimal(g, budget=args.budget_subsets)),
    "design": ((), _check_design),
    "degree-bound": ((), _check_degree_bound),
}


def _json_or_none(cyc) -> dict | None:
    return None if cyc is None else cyc.to_json_obj()


def _solve_cover_cycle(g: Bigraph, args: argparse.Namespace, diagnostics: dict) -> dict | None:
    xs = _parse_xs(args.xs, g)
    return _json_or_none(
        find_cycle_covering(g, xs, exact_x=not args.superset, budget=args.budget_nodes)
    )


def _solve_cycle_cover(g: Bigraph, args: argparse.Namespace, diagnostics: dict) -> dict | None:
    cycles = find_disjoint_cycle_cover(g, budget=args.budget_nodes)
    return None if cycles is None else {"cycles": [c.to_json_obj()["cycle"] for c in cycles]}


def _solve_degree_split(g: Bigraph, args: argparse.Namespace, diagnostics: dict) -> dict | None:
    return _json_or_none(solve_degree_split(g, budget=args.budget_nodes, diagnostics=diagnostics))


def _solve_high_degree(g: Bigraph, args: argparse.Namespace, diagnostics: dict) -> dict | None:
    if args.k is None:
        raise DomainError("solve high-degree requires --k")
    return _json_or_none(
        solve_high_degree(g, args.k, budget=args.budget_nodes, diagnostics=diagnostics)
    )


def _solve_hamiltonian(g: Bigraph, args: argparse.Namespace, diagnostics: dict) -> dict | None:
    return _json_or_none(check_hamiltonian(g, limit=args.limit, budget=args.budget_nodes))


# mode -> (the flags its handler reads beyond -i -o --strict --budget-nodes, handler)
_SOLVERS = {
    "cover-cycle": (("xs", "superset"), _solve_cover_cycle),
    "cycle-cover": ((), _solve_cycle_cover),
    "degree-split": ((), _solve_degree_split),
    "high-degree": (("k",), _solve_high_degree),
    "hamiltonian": (("limit",), _solve_hamiltonian),
}


def _write_exhausted(args: argparse.Namespace, head: dict, exc: BudgetExceededError) -> int:
    """Report an undecided run: the result keys in ``head`` are null."""
    out = {
        "config": _config_of(args),
        **head,
        "witness": None,
        "budget_exhausted": True,
        "message": str(exc),
    }
    _write_text(args.output, _dump_json(out))
    return 3


def cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        verdict = _CHECKS[args.property][1](g, args)
    except BudgetExceededError as exc:
        return _write_exhausted(args, {"property": args.property, "holds": None}, exc)
    out = {"config": _config_of(args), **verdict.to_json_obj()}
    _write_text(args.output, _dump_json(out))
    return 0 if verdict.holds else 1


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    diagnostics: dict = {}
    try:
        witness = _SOLVERS[args.mode][1](g, args, diagnostics)
    except BudgetExceededError as exc:
        return _write_exhausted(args, {"result": None}, exc)
    out = {
        "config": _config_of(args),
        "result": "found" if witness is not None else "none",
        "witness": witness,
        "budget_exhausted": False,
    }
    if diagnostics:
        out["diagnostics"] = diagnostics
    _write_text(args.output, _dump_json(out))
    return 0 if witness is not None else 1


def _build_biplane(args: argparse.Namespace) -> Bigraph:
    if (args.order is None) == (args.import_file is None):
        raise DomainError("construct biplane needs exactly one of --order or --import")
    if args.order is not None:
        return builtin_biplane(args.order)
    return design_to_bigraph(import_design(_read_text(args.import_file)))


def _build_power(args: argparse.Namespace) -> Bigraph:
    g = iterated_product(_load_graph(args, args.graph), args.k)
    print("# growth: " + json.dumps(growth_report(g), sort_keys=True), file=sys.stderr)
    return g


# generator -> build(args)
_CONSTRUCTS = {
    "pair-gadget": lambda args: pair_gadget(args.n),
    "biplane": _build_biplane,
    "product": lambda args: bipartite_product(
        _load_graph(args, args.left), _load_graph(args, args.right)
    ),
    "power": _build_power,
}


def cmd_construct(args: argparse.Namespace) -> int:
    return _emit_graph(args, _CONSTRUCTS[args.generator](args))


def cmd_random(args: argparse.Namespace) -> int:
    config = SweepConfig(
        n_list=tuple(args.n_list),
        c_list=tuple(args.c_list),
        trials=args.trials,
        master_seed=args.seed,
        measures=tuple(args.measure.split(",")),
        jobs=args.jobs,
        crn=not args.no_crn,
    )
    report = run_sweep(config)
    if args.output.endswith(".json") or args.report_format == "json":
        rep_obj = report.to_json_obj(include_records=args.records)
        payload = {
            "config": _config_of(args),
            "sweep_config": rep_obj["config"],
            "cells": rep_obj["cells"],
        }
        _write_text(args.output, _dump_json(payload))
    else:
        header = (
            "# config: " + json.dumps(_config_of(args), sort_keys=True) + "\n"
        )
        _write_text(args.output, header + report.to_csv())
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    return _emit_graph(args, g)




# -- parser --------------------------------------------------------------------

_FLAGS = {
    "input": (("-i", "--input"), dict(default="-", help="input file (default stdin)")),
    "output": (("-o", "--output"), dict(default="-", help="output file (default stdout)")),
    "format": (
        ("--format",),
        dict(
            choices=("auto", "edge-list", "json"),
            default="auto",
            help="encoding for graph output (default edge-list); "
            "input format is always auto-detected",
        ),
    ),
    "seed": (("--seed",), dict(type=int, default=0, help="master seed")),
    "budget-subsets": (
        ("--budget-subsets",),
        dict(
            type=int,
            default=SUBSET_BUDGET_DEFAULT,
            help="cap on subsets visited by property checkers",
        ),
    ),
    "budget-nodes": (
        ("--budget-nodes",),
        dict(
            type=int,
            default=NODE_BUDGET_DEFAULT,
            help="cap on search nodes visited by solvers",
        ),
    ),
    "jobs": (("--jobs",), dict(type=int, default=1, help="worker processes for sweeps")),
    "strict": (
        ("--strict",),
        dict(action="store_true", help="reject duplicate edges when parsing edge lists"),
    ),
    "xs": (
        ("--xs",),
        dict(default="all", help="target X-set: 'all' or comma-separated indices"),
    ),
    "superset": (
        ("--superset",),
        dict(action="store_true", help="allow extra X-vertices on the cycle"),
    ),
    "k": (("--k",), dict(type=int, default=None, help="the degree split point")),
    "limit": (
        ("--limit",),
        dict(type=int, default=EXACT_MEASURE_LIMIT, help="exact search size cap"),
    ),
}


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

    p_check = sub.add_parser("check", help="decide a property and print a verdict")
    check_sub = p_check.add_subparsers(dest="property", required=True)
    for name, (flags, _) in _CHECKS.items():
        leaf = _leaf_parser(check_sub, name, ("input", "output", "strict") + flags)
        leaf.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="search for a covering cycle witness")
    solve_sub = p_solve.add_subparsers(dest="mode", required=True)
    for name, (flags, _) in _SOLVERS.items():
        leaf = _leaf_parser(solve_sub, name, ("input", "output", "strict") + _NODES + flags)
        leaf.set_defaults(func=cmd_solve)

    p_con = sub.add_parser("construct", help="generate a structured graph")
    con_sub = p_con.add_subparsers(dest="generator", required=True)
    pg = _leaf_parser(con_sub, "pair-gadget", ("output", "format"))
    pg.add_argument("--n", type=int, required=True)
    pg.set_defaults(func=cmd_construct)
    bp = _leaf_parser(con_sub, "biplane", ("output", "format"))
    bp.add_argument("--order", type=int, default=None)
    bp.add_argument("--import", dest="import_file", default=None, metavar="FILE")
    bp.set_defaults(func=cmd_construct)
    pr = _leaf_parser(con_sub, "product", ("output", "format", "strict"))
    pr.add_argument("left")
    pr.add_argument("right")
    pr.set_defaults(func=cmd_construct)
    pw = _leaf_parser(con_sub, "power", ("output", "format", "strict"))
    pw.add_argument("graph")
    pw.add_argument("--k", type=int, required=True)
    pw.set_defaults(func=cmd_construct)

    p_rand = sub.add_parser("random", help="seeded random-graph experiments")
    rand_sub = p_rand.add_subparsers(dest="experiment", required=True)
    sw = _leaf_parser(rand_sub, "sweep", ("seed", "jobs"))
    sw.add_argument(
        "--n-list", type=int, nargs="+", required=True, metavar="N"
    )
    sw.add_argument(
        "--c-list", type=float, nargs="+", required=True, metavar="C"
    )
    sw.add_argument("--trials", type=int, required=True)
    sw.add_argument(
        "--measure",
        default="pair,obstacle3,maxdeg",
        help="comma-separated: pair,obstacle3,exact,hamiltonian,maxdeg",
    )
    sw.add_argument(
        "-o",
        "--output",
        "--out",
        default="-",
        help="report path (default stdout); .json extension selects JSON, otherwise CSV",
    )
    sw.add_argument(
        "--report-format",
        choices=("csv", "json"),
        default="csv",
        help="report format when the output path does not decide",
    )
    sw.add_argument(
        "--records",
        action="store_true",
        help="include per-trial records in JSON reports",
    )
    sw.add_argument(
        "--no-crn",
        action="store_true",
        help="derive independent seeds per c instead of common random numbers",
    )
    sw.set_defaults(func=cmd_random)

    p_fmt = _leaf_parser(
        sub,
        "fmt",
        ("input", "output", "format", "strict"),
        help="parse and canonically reserialize a graph",
    )
    p_fmt.set_defaults(func=cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolationError as exc:
        print(f"internal contract violated: {exc}", file=sys.stderr)
        return 4
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DhpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
