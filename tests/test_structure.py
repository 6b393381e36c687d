"""Module layout: the names the traced benchmark wraps, and imports at module top."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "auctionlearn"


def load_spans():
    """bench/spans.py, imported by path; it is only read here."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_targets_resolve():
    """A span whose (module, attribute) no longer resolves would break the
    traced benchmark run, so every target must name a function."""
    pairs = [pair for _, attrs, _ in load_spans().TARGETS for pair in attrs]
    assert pairs
    for module_name, attr in pairs:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    """Every import sits at module top, so an import cycle fails at import
    time instead of hiding inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [f"{path.name}:{node.lineno}"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested


def _defined(node):
    """The names a module-level statement defines: a function, a class or
    the constants it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)}


def _reads(node):
    """The names a node reads, as a name, an attribute or an import alias; a
    docstring is a string constant, so it reads none."""
    return ({sub.id for sub in ast.walk(node)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            | {sub.name for sub in ast.walk(node) if isinstance(sub, ast.alias)})


def test_every_private_helper_is_used():
    """A private module-level function, class or constant of the package is
    read somewhere in the package outside its own definition: code that
    nothing in src/ uses is deleted, not left for a reviewer to notice."""
    private, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _defined(node)
            private |= {name for name in names
                        if name.startswith("_") and not name.startswith("__")}
            used |= _reads(node) - names        # a recursive call does not count
    assert len(private) > 50
    assert sorted(private - used) == []
