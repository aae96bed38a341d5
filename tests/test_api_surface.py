"""The package keeps only what a run reaches: every public module-level
function and class in src/nonlocfem has a caller there. A helper that only
tests call belongs in tests/oracles.py."""

import ast
from pathlib import Path

import nonlocfem

SRC = Path(__file__).resolve().parent.parent / "src" / "nonlocfem"


def _loaded_names(node):
    """Names loaded through a Name or an Attribute, or imported, under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_public_definition_has_a_caller_in_src():
    # __init__.py only re-exports, so an import there is not a caller
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    # name -> every (module, top-level statement) that references it
    referenced = {}
    for module, tree in modules.items():
        for index, stmt in enumerate(tree.body):
            for name in _loaded_names(stmt):
                referenced.setdefault(name, set()).add((module, index))
    unreached = [
        f"{module}.{stmt.name}"
        for module, tree in modules.items()
        for index, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not referenced.get(stmt.name, set()) - {(module, index)}]
    assert unreached == [], f"no caller in src/: {', '.join(unreached)}"


def test_every_exported_name_resolves():
    missing = [name for name in nonlocfem.__all__ if not hasattr(nonlocfem, name)]
    assert missing == []
