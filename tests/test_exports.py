"""The package's public names are exactly its submodules' public names."""

from __future__ import annotations

import ast
import pathlib

import dhp
from dhp import budget, checkers, constructions, core, cycles, errors, formats, randlab

SUBMODULES = (core, formats, budget, checkers, cycles, constructions, randlab, errors)


def test_all_is_the_concatenation_of_submodule_all() -> None:
    assert list(dhp.__all__) == [name for mod in SUBMODULES for name in mod.__all__]


def test_all_has_no_duplicates() -> None:
    assert len(set(dhp.__all__)) == len(dhp.__all__)


def test_every_name_resolves_to_its_submodule_object() -> None:
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(dhp, name) is getattr(mod, name), name


def _top_level_numpy_imports(nodes) -> list[int]:
    """Lines among ``nodes`` that import numpy when the module is imported:
    anywhere but in a function body or an ``if TYPE_CHECKING:`` block."""
    lines = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            lines += _top_level_numpy_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
        lines += _top_level_numpy_imports(ast.iter_child_nodes(node))
    return lines


def test_numpy_is_imported_only_where_it_is_used() -> None:
    # `import dhp` and the CLI calls that never compute with arrays must
    # not pay for loading numpy (see test_cold_path.py)
    src = pathlib.Path(dhp.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := _top_level_numpy_imports(ast.parse(path.read_text(), str(path)).body))
    }
    assert offenders == {}, f"numpy imported at module level in {offenders}"


def test_numpy_guard_sees_module_level_imports() -> None:
    source = """
import numpy as np
from numpy.typing import NDArray
if TYPE_CHECKING:
    import numpy
else:
    import numpy.linalg
try:
    import numpy
except ImportError:
    pass
class C:
    import numpy
def f():
    import numpy
"""
    assert _top_level_numpy_imports(ast.parse(source).body) == [2, 3, 7, 9, 13]


BLAS_CALLS = ("dot", "matmul", "einsum")


def _blas_calls_outside_scope(nodes) -> list[int]:
    """Lines among ``nodes`` with a matrix product, ``@`` or a call of
    ``dot``, ``matmul`` or ``einsum``, outside the body of a
    ``with _one_blas_thread():`` block."""
    lines = []
    for node in nodes:
        if isinstance(node, ast.With) and any(
            ast.unparse(item.context_expr) == "_one_blas_thread()" for item in node.items
        ):
            lines += _blas_calls_outside_scope(item.context_expr for item in node.items)
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Attribute) and node.func.attr in BLAS_CALLS)
            or (isinstance(node.func, ast.Name) and node.func.id in BLAS_CALLS)
        ):
            lines.append(node.lineno)
        lines += _blas_calls_outside_scope(ast.iter_child_nodes(node))
    return lines


def test_every_blas_call_runs_in_the_one_thread_scope() -> None:
    # a product outside randlab._one_blas_thread may run multi-threaded and
    # leave OpenBLAS's idle threads spinning on the sweep workers' cores
    src = pathlib.Path(dhp.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := _blas_calls_outside_scope([ast.parse(path.read_text(), str(path))]))
    }
    assert offenders == {}, f"matrix products outside the one-BLAS-thread scope in {offenders}"


def test_blas_guard_sees_products_outside_the_scope() -> None:
    source = """
c = a @ b
c @= b
np.dot(a, b)
a.dot(b)
numpy.matmul(a, b)
np.einsum("ij,jk", a, b)
with _one_blas_thread():
    c = a @ b
    np.dot(a, b)
with other():
    c = a @ b
def f():
    with _one_blas_thread():
        return a @ b
"""
    assert _blas_calls_outside_scope([ast.parse(source)]) == [2, 3, 4, 5, 6, 7, 12]
