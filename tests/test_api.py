"""The package's public names: what ``opinionflow`` exports and imports, and that each has a use."""

import ast
import re
from pathlib import Path

import opinionflow


def test_every_exported_name_resolves():
    for name in opinionflow.__all__:
        assert hasattr(opinionflow, name), name


def test_exports_are_unique_and_cover_the_imports():
    tree = ast.parse(Path(opinionflow.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    exported = opinionflow.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == imported | {"__version__"}


ROOT = Path(__file__).resolve().parent.parent

# Exported for readers of the paper, though no command, verifier or benchmark calls them.
PROOF_OBJECTS = {
    "local_potential_psi",          # the local potential that pins the limit to one point
    "check_diagonal_dominance",     # the dominance condition of the weak-influence theorem
}


def used_names() -> set[str]:
    """Names that a package module other than ``__init__.py`` references (an
    AST name or attribute), that a benchmark script mentions (the tracer's
    span strings included), or that the README mentions in backticks."""
    used = set()
    for path in Path(opinionflow.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    for path in (ROOT / "bench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    for span in re.findall(r"`[^`\n]+`", (ROOT / "README.md").read_text()):
        used.update(re.findall(r"\w+", span))
    return used


def test_every_export_has_a_use():
    assert PROOF_OBJECTS <= set(opinionflow.__all__)
    assert set(opinionflow.__all__) - used_names() - PROOF_OBJECTS == set()
