"""Static checks over the package source: no unused imports, the
closed-form layer never reaches the brute-force enumerators, and RatFunc
is a value whose lowest terms only ``over_power`` decides."""

import ast
import inspect
from pathlib import Path

import pytest

import negmom
from negmom import poly
from negmom.matrix import Matrix
from negmom.ratfunc import RatFunc

SRC = Path(negmom.__file__).parent
CLOSED_FORM = {"poly", "ratfunc", "matrix", "weights", "moments", "laurent"}


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def _modules():
    return sorted(p.stem for p in SRC.glob("*.py"))


def test_no_unused_imports():
    unused = []
    for name in _modules():
        tree = _tree(name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):   # re-exports listed in __all__ count as uses
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts}
        unused += [f"{name}.py:{imported[n]} {n}" for n in sorted(set(imported) - used)]
    assert unused == []


def _package_imports(tree: ast.Module):
    """Names of the negmom modules a module imports, at any nesting level."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                yield module.split(".")[0]
            elif node.level == 1:
                yield from (alias.name for alias in node.names)
            elif module.startswith("negmom."):
                yield module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("negmom."))


def test_closed_forms_never_import_paths():
    # imports that stay inside the closed-form layer cannot reach paths,
    # directly or through another module
    assert CLOSED_FORM <= set(_modules())
    for name in sorted(CLOSED_FORM):
        outside = set(_package_imports(_tree(name))) - CLOSED_FORM
        assert not outside, f"{name} imports {sorted(outside)}"


def test_cli_start_up_imports_stay_lean():
    # dataclasses drags in inspect, ast, dis and tokenize; json is needed only
    # by --format json.  A fresh interpreter (-S: no site hooks) sees what
    # importing the CLI and building its parser pulls in.
    import os
    import subprocess
    import sys

    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
    code = ("import sys, negmom.cli; negmom.cli.build_parser(); "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def _referrers(name: str, module: str):
    """The functions of ``module`` whose bodies name ``name`` (``<module>``
    for a use outside every function)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name) or \
                (isinstance(node, ast.Attribute) and node.attr == name):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(_tree(module), "<module>")
    return found


def test_only_over_power_reduces():
    # lowest terms are decided in one place: outside poly.py, only
    # ratfunc.over_power reaches poly_gcd
    users = {(name, fn) for name in _modules() if name != "poly"
             for fn in _referrers("poly_gcd", name)}
    assert users == {("ratfunc", "over_power")}


def test_ratfunc_is_a_value():
    # no arithmetic, no constructor knobs, and no RatFunc entry in a Matrix
    ops = ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "matmul")
    arithmetic = {f"__{p}{op}__" for op in ops for p in ("", "r", "i")}
    arithmetic |= {"__neg__", "__pos__", "__abs__"}
    assert not arithmetic & set(vars(RatFunc))
    assert list(inspect.signature(RatFunc).parameters) == ["num", "den"]
    with pytest.raises(TypeError):
        Matrix([[RatFunc(1, poly.b(0))]])
