"""Layering guard: ``repro.core`` starts no processes and sits below the fleet.

``repro.fleet.WorkerPool`` is the one way out of the process.  The engine
hands itself to a pool a caller passes in as ``executor`` and never opens
one, so nothing under ``src/repro/core/`` may import ``multiprocessing``
— except ``columnar.py``'s ``shared_memory``, the block format workers
attach — or import ``repro.fleet`` at module load.

There is also one diagnosis path through it: numpy is a dependency, not a
backend.  Nothing under ``src/repro/core/`` may read the environment or
guard ``import numpy`` against ``ImportError`` (how alternative paths got
selected), and the pool ships one task kind.

The live merge in ``repro.ingest.incremental`` applies repaired times as
fields; it never rebuilds a frozen record, so it does not import
``dataclasses.replace`` under any name.

And a trace is stored once, as columns: no writer under ``core``,
``ingest``, ``service`` or ``fleet`` builds per-hop objects or sorted
tuple lists.
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


#: The one place a ``PacketHop`` is built: the lazy row view object
#: readers (``explain``, the baselines, figures) go through.
HOP_ROW_READER = ("records.py", "_materialize")
NF_EVENT_LISTS = {"arrivals", "reads", "departs", "drops"}


def calls(tree: ast.AST):
    """Yield ``(enclosing function name, call node)`` for every call in
    ``tree`` (``None`` outside any function)."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield name, child
                yield from walk(child, name)
    yield from walk(tree, None)


def called_name(func: ast.AST):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_production_layers_write_columns_not_objects():
    """Nothing under core/ingest/service/fleet constructs ``PacketHop``
    (or hands the class to a mapper), calls ``insort``, or appends to an
    NF event list: every writer fills columns."""
    offenders = []
    for package in ("core", "ingest", "service", "fleet"):
        for path in sorted((CORE.parent / package).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for function, call in calls(tree):
                where = f"{package}/{path.name}:{call.lineno}"
                hop_built = called_name(call.func) == "PacketHop" or any(
                    called_name(arg) == "PacketHop" for arg in call.args
                )
                if hop_built and (path.name, function) != HOP_ROW_READER:
                    offenders.append(f"{where}: builds PacketHop")
                if called_name(call.func) in ("insort", "insort_left", "insort_right"):
                    offenders.append(f"{where}: insort")
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("append", "extend", "insert")
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr in NF_EVENT_LISTS
                ):
                    offenders.append(f"{where}: appends to .{func.value.attr}")
    assert not offenders, offenders
