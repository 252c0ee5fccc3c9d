"""Every module-level import in ``src/repro`` is used.

A standard-library ``ast`` pass: an import at module level (including
inside top-level ``if``/``try`` blocks) must be read somewhere in its
module, as a name, inside a string annotation, or in ``__all__``.
Package ``__init__.py`` files re-export by importing, so they are exempt.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def module_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` of every module-level import."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


def _names_in(node: ast.AST) -> Iterator[str]:
    """Names read in ``node``, string annotations parsed as expressions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                yield from _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                continue


def used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations: List[ast.AST] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [arg for arg in (args.vararg, args.kwarg) if arg]
            annotations += [arg.annotation for arg in every if arg.annotation]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            annotations.append(node.value)
        for annotation in annotations:
            used.update(_names_in(annotation))
    return used


def unused_imports(root: pathlib.Path) -> List[str]:
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        for line, name in module_imports(tree):
            if name not in used:
                where = path.relative_to(root.parent)
                unused.append(f"{where}:{line}: {name}")
    return unused


def test_no_unused_module_level_imports():
    assert unused_imports(SOURCE) == []


def test_the_check_sees_an_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("import os\n")
    (package / "mod.py").write_text(
        "from typing import Dict, List, Optional\n"
        "import json\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [json.dumps(x)]\n"
    )
    assert unused_imports(package) == ["pkg/mod.py:1: Dict"]
