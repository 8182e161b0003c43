"""Layering guard: ``repro.core`` starts no processes and sits below the fleet.

``repro.fleet.WorkerPool`` is the one way out of the process.  The engine
hands itself to a pool it is given (or imports one lazily, inside the
``workers=N`` branch), so nothing under ``src/repro/core/`` may import
``multiprocessing`` — except ``columnar.py``'s ``shared_memory``, the
block format workers attach — or import ``repro.fleet`` at module load.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.core

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
