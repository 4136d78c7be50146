"""The package's public names: what ``opinionflow`` exports and imports."""

import ast
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
