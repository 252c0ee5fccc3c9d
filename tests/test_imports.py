"""Every import in ``src/repro`` is used, and every module is reached.

Two standard-library ``ast`` passes:

* an import at module level (including inside top-level ``if``/``try``
  blocks) must be read somewhere in its module, as a name, inside a string
  annotation, or in ``__all__``. Package ``__init__.py`` files re-export by
  importing, so they are exempt;
* every module outside a package ``__init__`` must be reachable by imports
  from ``repro.cli``, ``repro.api`` or ``repro.registry`` — the surfaces a
  user drives — save the listed exceptions. Code only tests reach does not
  stay in the package.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules every other one must be reachable from, under the package.
ROOTS = ("cli", "api", "registry")

#: Modules no root imports, each with the reason it stays.
UNREACHED_BY_DESIGN = {
    "repro.network.packed": "the end-to-end benchmark's tracer wraps "
    "build_packed_topology by name (benchmarks/e2e/e2ebench/tracer.py)",
}


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


def parse_package(root: pathlib.Path) -> Dict[str, Tuple[ast.Module, bool]]:
    """Dotted module name -> (its syntax tree, whether it is an ``__init__``)."""
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_init = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_init else parts)
        modules[name] = (ast.parse(path.read_text(encoding="utf-8")), is_init)
    return modules


def _source(node: ast.ImportFrom, module: str, is_init: bool) -> str:
    """The absolute module a ``from ... import`` reads from."""
    if not node.level:
        return node.module
    base = module.split(".")[: len(module.split(".")) - node.level + is_init]
    return ".".join(base + ([node.module] if node.module else []))


def _defining_module(modules, source: str, name: str) -> Optional[str]:
    """The module ``from source import name`` reaches.

    A submodule is itself; a name a package ``__init__`` re-exports is
    followed to the module that defines it; any other name is ``source``'s.
    """
    if f"{source}.{name}" in modules:
        return f"{source}.{name}"
    if source not in modules:
        return None  # outside the package
    tree, is_init = modules[source]
    if not is_init:
        return source
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    origin = _source(node, source, True)
                    return _defining_module(modules, origin, alias.name)
    return source


def imported_modules(modules, module: str) -> Set[str]:
    """Modules ``module`` imports, at any depth of its body.

    A package ``__init__`` only re-exports: its own imports reach nothing.
    """
    tree, is_init = modules[module]
    if is_init:
        return set()
    reached: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reached.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module, False)
            for alias in node.names:
                reached.add(_defining_module(modules, source, alias.name))
    return reached & set(modules)


def unreached_modules(root: pathlib.Path) -> List[str]:
    """Non-``__init__`` modules no import path from :data:`ROOTS` reaches."""
    modules = parse_package(root)
    pending = [f"{root.name}.{name}" for name in ROOTS]
    reached: Set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        pending.extend(imported_modules(modules, module))
    return sorted(
        name
        for name, (_, is_init) in modules.items()
        if not is_init and name not in reached
    )


def test_every_module_is_reached_from_a_user_surface():
    assert unreached_modules(SOURCE) == sorted(UNREACHED_BY_DESIGN)


def test_the_reach_check_follows_names_not_reexports(tmp_path):
    files = {
        "__init__.py": "from pkg.hidden import thing\nfrom pkg.sub import Name\n",
        "cli.py": "from pkg import Name\ndef main():\n    from .lazy import run\n",
        "sub/__init__.py": "from pkg.sub.impl import Name\n",
        "sub/impl.py": "Name = 1\n",
        "lazy.py": "import pkg.deep\nrun = 1\n",
        "deep.py": "",
        "hidden.py": "thing = 1\n",
    }
    for name, text in files.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    # ``pkg.hidden`` is only re-exported by ``pkg/__init__.py``; the rest is
    # reached through a package-level name, a function-level relative
    # import and a plain ``import``.
    assert unreached_modules(tmp_path / "pkg") == ["pkg.hidden"]
