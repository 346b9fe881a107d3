"""Every module under ``src/repro`` is run by something a user runs.

The roots are the command line (``repro.__main__``, ``repro.cli``), every
benchmark (``benchmarks/**/*.py``) and every example (``examples/*.py``).
Imports are read with :mod:`ast`, wherever they sit in a file (a
function-level import counts).  A package ``__init__`` is never a caller:
``from repro.trace import generate_trace`` reaches the module that
defines ``generate_trace``, not everything the ``__init__`` re-exports.
A module that only tests import is dead code kept alive by its tests.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _module_path(name: str) -> pathlib.Path | None:
    """The file of module or package ``name`` under ``src/``, if any."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _absolute(node: ast.ImportFrom, package: str) -> str:
    """The module an ``ImportFrom`` names, relative imports resolved
    against ``package`` (the importing file's package)."""
    if not node.level:
        return node.module or ""
    parts = package.split(".")
    base = parts[: len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(path: pathlib.Path, package: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each imported binding in ``path``: ``name``
    is ``None`` for ``import module``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, package)
            found += [(module, alias.name) for alias in node.names]
    return found


def _defining_modules(package: str, name: str, seen: set[tuple[str, str]]) -> set[str]:
    """The non-package modules that define ``package.name``: a submodule
    of that name, or wherever the package's ``__init__`` imports it from."""
    if (package, name) in seen:
        return set()
    seen.add((package, name))
    submodule = f"{package}.{name}"
    if _module_path(submodule) is not None:
        return _targets(submodule, None, seen)
    init = SRC.joinpath(*package.split(".")) / "__init__.py"
    found: set[str] = set()
    for module, imported in _imports(init, package):
        if imported == name:
            found |= _targets(module, name, seen)
    return found


def _targets(module: str, name: str | None, seen: set[tuple[str, str]]) -> set[str]:
    """The ``repro`` modules one import binding reaches."""
    path = _module_path(module) if module.split(".")[0] == "repro" else None
    if path is None:
        return set()
    if path.name != "__init__.py":
        return {module}
    if name is None:
        return set()
    return _defining_modules(module, name, seen)


def _roots() -> list[tuple[pathlib.Path, str]]:
    files = [SRC / "repro" / "__main__.py", SRC / "repro" / "cli.py"]
    files += sorted((ROOT / "benchmarks").rglob("*.py"))
    files += sorted((ROOT / "examples").glob("*.py"))
    # Only the two command-line roots live in a package.
    return [(path, "repro" if path.is_relative_to(SRC) else "") for path in files]


def unreached_modules() -> list[str]:
    """Every non-``__init__`` module under ``src/repro`` that no root
    reaches through imports."""
    reached = {"repro.__main__", "repro.cli"}
    queue: list[tuple[pathlib.Path, str]] = _roots()
    while queue:
        path, package = queue.pop()
        for module, name in _imports(path, package):
            for target in _targets(module, name, set()):
                if target not in reached:
                    reached.add(target)
                    queue.append((_module_path(target), target.rpartition(".")[0]))
    every = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    return sorted(every - reached)


def test_every_module_is_reached_from_a_command_benchmark_or_example():
    unreached = unreached_modules()
    assert not unreached, "modules nothing runs:\n  " + "\n  ".join(unreached)


def test_a_package_init_is_not_a_caller():
    # ``repro.trace``'s __init__ imports every trace module; importing the
    # package by name must not reach them.
    assert _targets("repro.trace", None, set()) == set()
    assert _targets("repro.trace", "generate_trace", set()) == {"repro.trace.generator"}
