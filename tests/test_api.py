"""The package's public API is the explicit ``__all__`` list, and its
modules import nothing they do not use."""

import ast
import os
import types

import tfan

SRC = os.path.dirname(os.path.abspath(tfan.__file__))


def test_all_lists_every_imported_name_and_no_submodule():
    public = {name for name, value in vars(tfan).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(tfan.__all__) == len(set(tfan.__all__))
    assert set(tfan.__all__) == public


def test_every_imported_name_is_used():
    """Each name a module other than ``__init__`` imports is read in that module."""
    unused = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{fname}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
