"""Layering guard: ``repro.core`` starts no processes and sits below the fleet.

``repro.fleet.WorkerPool`` is the one way out of the process.  The engine
hands itself to a pool it is given (or imports one lazily, inside the
``workers=N`` branch), so nothing under ``src/repro/core/`` may import
``multiprocessing`` — except ``columnar.py``'s ``shared_memory``, the
block format workers attach — or import ``repro.fleet`` at module load.

There is also one diagnosis path through it: numpy is a dependency, not a
backend.  Nothing under ``src/repro/core/`` may read the environment or
guard ``import numpy`` against ``ImportError`` (how alternative paths got
selected), and the pool ships one task kind.

The live merge in ``repro.ingest.incremental`` applies repaired times as
fields; it never rebuilds a frozen record, so it does not import
``dataclasses.replace`` under any name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.core
import repro.fleet.pool
import repro.ingest.incremental

CORE = Path(repro.core.__file__).parent


def imports(tree: ast.AST, module_level_only: bool = False):
    """Yield ``(module, names)`` for every import statement under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", tuple(alias.name for alias in node.names)
        elif module_level_only and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue  # a function body does not run at module load
        else:
            yield from imports(node, module_level_only)


def is_or_under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def test_core_imports_no_multiprocessing_and_no_fleet_at_module_level():
    offenders = []
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, names in imports(tree):
            if not is_or_under(module, "multiprocessing"):
                continue
            if (path.name, module, names) == (
                "columnar.py", "multiprocessing", ("shared_memory",)
            ):
                continue
            offenders.append(f"{path.name}: imports {module} {names}")
        for module, names in imports(tree, module_level_only=True):
            if is_or_under(module, "repro.fleet") or (
                module == "repro" and "fleet" in names
            ):
                offenders.append(f"{path.name}: module-level import of repro.fleet")
    assert not offenders, offenders


def core_trees():
    for path in sorted(CORE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_core_never_reads_the_environment():
    offenders = []
    for name, tree in core_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv")
            ):
                offenders.append(f"{name}:{node.lineno}: os.{node.attr}")
        for module, names in imports(tree):
            if module == "os" and {"environ", "getenv"} & set(names):
                offenders.append(f"{name}: from os import {names}")
    assert not offenders, offenders


def test_core_imports_numpy_unconditionally():
    offenders = []
    for name, tree in core_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            for module, _names in imports(ast.Module(body=node.body, type_ignores=[])):
                if is_or_under(module, "numpy"):
                    offenders.append(f"{name}:{node.lineno}: guarded numpy import")
    assert not offenders, offenders


def test_pool_has_no_pickle_task_kind():
    path = Path(repro.fleet.pool.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "pickle"
    ]
    assert not offenders, f"'pickle' string constant in pool.py at lines {offenders}"


def test_incremental_trace_never_imports_dataclasses_replace():
    path = Path(repro.ingest.incremental.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            offenders += [
                f"{node.lineno}: from dataclasses import replace"
                for alias in node.names
                if alias.name == "replace"
            ]
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "dataclasses"
            and node.attr == "replace"
        ):
            offenders.append(f"{node.lineno}: dataclasses.replace")
        if isinstance(node, ast.Name) and node.id == "dc_replace":
            offenders.append(f"{node.lineno}: dc_replace")
    assert not offenders, offenders
