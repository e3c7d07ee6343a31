"""The package namespace: what ``mdmtj`` binds and what it exports."""

import ast
from pathlib import Path

import mdmtj


def _bound_names():
    """Names ``mdmtj/__init__.py`` binds at top level."""
    tree = ast.parse(Path(mdmtj.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_resolves():
    assert len(mdmtj.__all__) == len(set(mdmtj.__all__))
    missing = [name for name in mdmtj.__all__ if not hasattr(mdmtj, name)]
    assert missing == []


def test_every_public_binding_is_exported():
    public = {name for name in _bound_names() if not name.startswith("_")}
    assert public - set(mdmtj.__all__) == set()
    assert "__version__" in mdmtj.__all__
