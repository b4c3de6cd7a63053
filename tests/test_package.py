"""The package's public surface is the union of its modules' ``__all__``,
no module imports a name it does not use, and scipy is imported only where
numpy has no substitute."""

import ast
import importlib
from pathlib import Path

import volrank

MODULES = ("baselines", "errors", "metrics", "s3dsvd", "tensor_core", "volume_io")


def _modules():
    return [importlib.import_module(f"volrank.{name}") for name in MODULES]


def test_all_is_the_sorted_union_of_module_all():
    names = set()
    for module in _modules():
        names.update(module.__all__)
    assert volrank.__all__ == sorted(names)


def test_each_name_is_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(volrank, name) is getattr(module, name)


def test_every_module_level_import_is_used():
    # A stdlib stand-in for a linter's unused-import rule.
    for path in sorted(Path(volrank.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], path.name


def _imports(node, scope=None):
    """Yield ``(innermost enclosing function, module)`` for each absolute import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield scope, alias.name
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield scope, child.module
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _imports(child, inner)


def test_scipy_is_imported_only_by_the_svd_fallback():
    found = []
    for path in sorted(Path(volrank.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            (path.name, scope, module)
            for scope, module in _imports(tree)
            if module.split(".")[0] == "scipy"
        ]
    assert found == [("tensor_core.py", "svd", "scipy.linalg")]
