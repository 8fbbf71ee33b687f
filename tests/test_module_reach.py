"""Every ``src/`` module is reached by a command or the server, or backs
an EXPERIMENTS.md result that a tier-1 test pins.

The walk parses ``src/repro`` with :mod:`ast` and imports nothing.  It
starts at ``repro.cli`` and ``repro.server.__main__`` and follows every
``import`` statement, function-local ones included:

* ``from package import name`` resolves to the module that defines
  ``name``, through the package's ``__init__`` re-exports;
* a package's own ``__init__`` imports are never walked, so a name that
  a package only re-exports reaches nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = ("repro.cli", "repro.server.__main__")

#: The modules no command and not the server reach, each mapped to the
#: tier-1 test file that pins the EXPERIMENTS.md result it backs.
KEPT = {
    "repro.atpg.faults": "tests/test_atpg.py",
    "repro.atpg.generate": "tests/test_atpg.py",
    "repro.bench.table3": "tests/test_golden_tables.py",
    "repro.circuits.datapath": "tests/test_golden_tables.py",
    "repro.core.budget": "tests/test_budget.py",
    "repro.core.multilevel": "tests/test_multilevel.py",
    "repro.core.sensitization": "tests/test_sensitization.py",
    "repro.netlist.transform": "tests/test_transform.py",
    "repro.seq.circuit": "tests/test_seq.py",
    "repro.seq.generators": "tests/test_seq.py",
    "repro.seq.hier": "tests/test_seq_hier.py",
    "repro.sim.waveform": "tests/test_waveform.py",
    "repro.sta.known_false": "tests/test_sdc_export.py",
}


def parse_modules() -> tuple[dict[str, ast.Module], set[str]]:
    """Dotted name -> syntax tree of every module, and the package names."""
    trees: dict[str, ast.Module] = {}
    packages: set[str] = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return trees, packages


def from_base(module: str, node: ast.ImportFrom, packages: set[str]) -> str:
    """Absolute dotted name of the module a ``from ... import`` reads."""
    if not node.level:
        return node.module or ""
    package = module if module in packages else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def defining_module(trees, packages, base: str, name: str) -> str:
    """The module that defines ``name`` when imported from ``base``."""
    if f"{base}.{name}" in trees:
        return f"{base}.{name}"
    if base not in packages:
        return base
    for node in trees[base].body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    source = from_base(base, node, packages)
                    return defining_module(trees, packages, source, alias.name)
    return base


def imports_of(trees, packages, module: str) -> set[str]:
    """The ``repro`` modules one module's import statements reach."""
    found: set[str] = set()
    for node in ast.walk(trees[module]):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = from_base(module, node, packages)
            found.update(
                defining_module(trees, packages, base, alias.name)
                for alias in node.names
            )
    return {m for m in found if m in trees}


def unreached_modules() -> set[str]:
    trees, packages = parse_modules()
    reached: set[str] = set()
    stack = list(ENTRY_POINTS)
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        if module not in packages:
            stack.extend(imports_of(trees, packages, module))
    return set(trees) - packages - reached


def test_unreached_modules_are_the_kept_ones():
    assert unreached_modules() == set(KEPT)


def test_each_kept_module_has_a_pinning_test_that_experiments_cites():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for module, path in KEPT.items():
        assert (ROOT / path).is_file(), f"{module}: {path} is gone"
        assert path in experiments, f"EXPERIMENTS.md does not cite {path}"
