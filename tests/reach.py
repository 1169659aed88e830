"""Which public functions and methods of ``negmom`` the CLI never calls.

Runs a list of argvs through ``negmom.cli.main`` in this process under
``sys.setprofile`` and prints each public function or method (no leading
underscore) of the package's modules whose code object no run entered.
A name it prints is reached by the tests only, or by nothing: a candidate
to move to the test oracles or to delete.  The argvs are the digest
corpus (``sweep_digests.py``), every identity on a nonpositive and on a
small positive grid, main under each ``--spec``, and rpp under each
``--mode``:

    PYTHONPATH=src python tests/reach.py

It takes about a minute.  Like ``sweep_digests.py``, pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import pkgutil
import shlex
import sys
from importlib import import_module
from typing import List

os.environ["NEGMOM_THREADS"] = "1"   # every check runs in this process

import negmom
from negmom.cli import IDENTITIES, _SPECS, main
from sweep_digests import _argvs


def argvs() -> List[str]:
    runs = _argvs()
    for identity in IDENTITIES:
        runs.append(f"verify {identity} --n=-2..2 --k=-2..3 --m=-2..2")
        runs.append(f"verify {identity} --n 1..2 --k 1..2 --m 1..2")
    runs += [f"verify main --n 1..2 --k 1..2 --m 1..2 --spec {s}" for s in _SPECS]
    runs += [f"verify rpp --n 1..2 --k 1..2 --m 1..2 --mode {m}" for m in ("q", "q-unbounded")]
    return runs


def public_code():
    """{code object: 'module.name'} for every public function of the
    package and every public method, property or static/class method of
    its public classes, each defined in the module that holds it."""
    found = {}
    for info in pkgutil.iter_modules(negmom.__path__):
        module = import_module(f"negmom.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if isinstance(obj, type):
                members = [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                           if not attr.startswith("_")]
            for label, member in members:
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                code = getattr(getattr(member, "__wrapped__", member), "__code__", None)
                if code is not None:
                    found[code] = f"{info.name}.{label}"
    return found


def unreached(runs: List[str]) -> List[str]:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sink = io.StringIO()
    for argv in runs:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                main(shlex.split(argv))
        finally:
            sys.setprofile(None)
        sink.seek(0)
        sink.truncate()
    return sorted(label for code, label in public_code().items() if code not in entered)


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}")
    runs = argvs()
    names = unreached(runs)
    print(f"# {len(runs)} argvs; public functions and methods never called:")
    print(*names, sep="\n")
