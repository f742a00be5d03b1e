"""The package's public API is the explicit ``__all__`` list, and its
modules import nothing they do not use and nothing outside the standard
library."""

import ast
import os
import sys
import types

import tfan

SRC = os.path.dirname(os.path.abspath(tfan.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


def test_all_lists_every_imported_name_and_no_submodule():
    public = {name for name, value in vars(tfan).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(tfan.__all__) == len(set(tfan.__all__))
    assert set(tfan.__all__) == public


def modules(directory=SRC):
    """(file name, syntax tree) of every module in ``directory``, by default
    the package's."""
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                yield fname, ast.parse(fh.read())


def imported_names(tree):
    """The names a module's imports bind, each with its import's line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return imported


def test_every_imported_name_is_used():
    """Each name that a package module other than ``__init__``, or a test
    module, imports is read in that module."""
    unused = []
    for directory in (SRC, TESTS):
        for fname, tree in modules(directory):
            if directory == SRC and fname == "__init__.py":
                continue
            imported = imported_names(tree)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{os.path.basename(directory)}/{fname}:{line} {name}"
                       for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_imported_name_is_bound_again():
    """No module binds an imported name a second time, by ``def``, ``class``,
    argument or assignment.  Reads of the second binding would keep the
    import looking used to the test above after it went dead."""
    rebound = []
    for fname, tree in modules():
        imported = imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.arg):
                name = node.arg
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name in imported:
                rebound.append(f"{fname}:{node.lineno} {name}")
    assert rebound == []


def test_absolute_imports_are_standard_library():
    """The package stays pure Python: every absolute import names a module
    of the standard library; everything else is a relative import."""
    foreign = []
    for fname, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{fname}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def annotation_names(node):
    """Every name and attribute an annotation expression mentions."""
    if node is None:
        return set()
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_function_passes_an_ordering_beside_a_basis():
    """A ``StandardBasis`` carries its ordering, so no function takes or
    returns a ``MonomialOrdering`` next to one."""
    both = {"StandardBasis", "MonomialOrdering"}
    restated = []
    for fname, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            params = [annotation_names(a.annotation) & both for a in args]
            if (any("StandardBasis" in p for p in params)
                    and any("MonomialOrdering" in p for p in params)) \
                    or annotation_names(node.returns) >= both:
                restated.append(f"{fname}:{node.lineno} {node.name}")
    assert restated == []


def test_no_function_passes_an_ordering_key():
    """An ordering keeps the keys it computes, so no function takes an
    ordering key or a memo of them: no parameter is named ``key`` or
    ``keys``, ``MonomialOrdering.key`` takes the exponent alone, and
    ``record_leading_term`` the ordering, the element and its term."""
    named, signatures = [], {}
    for fname, tree in modules():
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name if scope is tree else f"{scope.name}.{node.name}"
                    signatures[f"{fname}:{name}"] = [a.arg for a in node.args.args]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                named += [f"{fname}:{node.lineno} {node.name}({a.arg})"
                          for a in args if a.arg in ("key", "keys")]
    assert named == []
    assert signatures["poly.py:MonomialOrdering.key"] == ["self", "e"]
    assert signatures["poly.py:record_leading_term"] == ["ord_", "f", "lt"]


def referenced_names(node):
    """Every name and attribute a syntax tree reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_every_definition_is_public_or_used():
    """Each top-level function or class of a package module other than
    ``cli.py`` is in ``tfan.__all__`` or read by some other top-level
    statement of the package, so no definition lives on for the tests
    alone."""
    statements = [(fname, node) for fname, tree in modules() for node in tree.body]
    unused = []
    for fname, node in statements:
        if fname == "cli.py" or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name in tfan.__all__ or any(
                node.name in referenced_names(other)
                for _, other in statements if other is not node):
            continue
        unused.append(f"{fname}:{node.lineno} {node.name}")
    assert unused == []


def bound_names(node):
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_no_private_name_is_dead():
    """Each module-level ``_name`` of the package (bound by def, class or
    assignment, in any module, ``cli.py`` included) is read by some other
    top-level statement of the package: one referenced only by its own
    definition is the leftover of a path that was merged away."""
    statements = [(fname, node, referenced_names(node))
                  for fname, tree in modules() for node in tree.body]
    dead = []
    for fname, node, _ in statements:
        for name in sorted(bound_names(node)):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in refs for _, other, refs in statements if other is not node):
                dead.append(f"{fname}:{node.lineno} {name}")
    assert dead == []
