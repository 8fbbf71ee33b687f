"""No module imports a name it never uses.

An :mod:`ast` scan, importing nothing from ``repro``, of every Python
file under ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``tools/``.  A name counts as used when the module reads it anywhere:
in code, inside a string annotation (``"CompiledDesign | None"``) or in
``__all__``.  Package ``__init__.py`` files are skipped, since their
imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "benchmarks", "examples", "tools")


def string_names(node: ast.AST) -> set[str]:
    """Names read by the string annotations inside ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return names


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """``line: name`` for every imported name ``source`` never reads."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= string_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= string_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{entry}"
        for folder in FOLDERS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path.read_text(), str(path))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_reads_string_annotations_and_all():
    source = (
        "from typing import TYPE_CHECKING, Mapping, Sequence\n"
        "import os.path\n"
        "from a import b as c\n"
        "if TYPE_CHECKING:\n"
        "    from x import Kept, Lost\n"
        "__all__ = ['Sequence']\n"
        "def f(m: 'Mapping[str, Kept]') -> 'None':\n"
        "    return os.path\n"
    )
    assert unused_imports(source) == ["3: c", "5: Lost"]
