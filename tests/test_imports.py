"""Static checks over the package source: no unused imports, and the
closed-form layer never reaches the brute-force enumerators."""

import ast
from pathlib import Path

import negmom

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
