"""Text formats for bigraphs: an edge-list format and a JSON mirror.

Edge list::

    # comments run to end of line, blank lines are skipped
    bigraph <nx> <ny>
    <i> <j>
    ...

Serialization is canonical: header first, then edges sorted
lexicographically, one per line.  parse(serialize(g)) == g for every graph.

In strict mode a duplicate edge is an error; in lenient mode duplicates
are silently dropped.
"""

from __future__ import annotations

import json
from typing import Any

from .core import Bigraph, check_side_limit, int_error_message
from .errors import ParseError

__all__ = [
    "parse_bigraph",
    "serialize_bigraph",
    "parse_bigraph_json",
    "serialize_bigraph_json",
    "load_bigraph",
]


def parse_bigraph(text: str, strict: bool = False) -> Bigraph:
    """Parse the edge-list format. Errors carry 1-based line numbers."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if tokens[0] != "bigraph":
                raise ParseError(lineno, f"expected 'bigraph <nx> <ny>', got {raw.strip()!r}")
            if len(tokens) != 3:
                raise ParseError(lineno, "header needs exactly two integers after 'bigraph'")
            try:
                nx, ny = int(tokens[1]), int(tokens[2])
            except ValueError:
                what = int_error_message(tokens[1:], "header sizes must be integers")
                raise ParseError(lineno, what) from None
            if nx < 0 or ny < 0:
                raise ParseError(lineno, "vertex counts must be non-negative")
            check_side_limit(nx, ny, "graph")
            header = (nx, ny)
            continue
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected '<i> <j>', got {raw.strip()!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            what = int_error_message(tokens, "edge endpoints must be integers")
            raise ParseError(lineno, what) from None
        nx, ny = header
        if not (0 <= i < nx):
            raise ParseError(lineno, f"X-index {i} out of range 0..{nx - 1}")
        if not (0 <= j < ny):
            raise ParseError(lineno, f"Y-index {j} out of range 0..{ny - 1}")
        if (i, j) in seen:
            if strict:
                raise ParseError(lineno, f"duplicate edge ({i}, {j})")
            continue
        seen.add((i, j))
        edges.append((i, j))
    if header is None:
        raise ParseError(1, "missing 'bigraph <nx> <ny>' header")
    return Bigraph.from_edges(header[0], header[1], edges)


def serialize_bigraph(g: Bigraph) -> str:
    lines = [f"bigraph {g.nx} {g.ny}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def bigraph_to_json_obj(g: Bigraph) -> dict[str, Any]:
    return {"nx": g.nx, "ny": g.ny, "edges": [[i, j] for i, j in g.edges()]}


def bigraph_from_json_obj(obj: Any) -> Bigraph:
    if not isinstance(obj, dict):
        raise ParseError(1, "JSON graph must be an object")
    for key in ("nx", "ny", "edges"):
        if key not in obj:
            raise ParseError(1, f"JSON graph missing key {key!r}")
    nx, ny = obj["nx"], obj["ny"]
    if not (isinstance(nx, int) and isinstance(ny, int)) or isinstance(nx, bool) or isinstance(ny, bool):
        raise ParseError(1, "nx and ny must be integers")
    check_side_limit(nx, ny, "graph")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ParseError(1, "edges must be a list of [i, j] pairs")
    pairs: list[tuple[int, int]] = []
    for k, e in enumerate(edges):
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise ParseError(1, f"edge entry {k} must be a pair of integers")
        if not (0 <= e[0] < nx and 0 <= e[1] < ny):
            raise ParseError(1, f"edge entry {k} = {list(e)} out of range for {nx}x{ny}")
        pairs.append((e[0], e[1]))
    return Bigraph.from_edges(nx, ny, pairs)


def serialize_bigraph_json(g: Bigraph) -> str:
    return json.dumps(bigraph_to_json_obj(g), sort_keys=True, separators=(",", ":")) + "\n"


def parse_bigraph_json(text: str) -> Bigraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(1, "invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise ParseError(1, f"invalid JSON: {exc}") from None
    return bigraph_from_json_obj(obj)


def load_bigraph(text: str, strict: bool = False) -> Bigraph:
    """Parse either supported format: JSON when the text starts with '{',
    the edge list otherwise."""
    if text.lstrip().startswith("{"):
        return parse_bigraph_json(text)
    return parse_bigraph(text, strict=strict)
