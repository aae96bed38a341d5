"""The package keeps only what a run reaches: every public module-level
function and class in src/nonlocfem, and every public method and property
of its classes, has a caller there, and every field of its records a
reader. A helper that only tests call belongs in tests/oracles.py; a test
reaches a matrix, space or rule through its data (.matrix,
.free_node_indices, .weights) instead, and derives a fact that another
field already holds (a node's lattice point from its position, a freeze
from the guard statuses) there too."""

import ast
from collections import Counter
from pathlib import Path

import nonlocfem
from nonlocfem.harness import _SWEEP_KINDS

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


def _modules():
    # __init__.py only re-exports, so an import there is not a caller
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def test_every_public_definition_has_a_caller_in_src():
    modules = _modules()
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


# public methods that only the benchmark reads, from outside the package,
# with the file that reads each
_READ_BY_THE_BENCHMARK = {"coefficient_history": "perfbench/spans.py"}


def test_every_public_method_has_a_caller_in_src():
    # matched by name, as an attribute of any object: a method is reached
    # when its name is loaded anywhere in src/ outside its own body, or is
    # one that the benchmark reads, where it is loaded
    modules = _modules()
    loads = Counter(name for tree in modules.values()
                    for name in _loaded_names(tree))
    for name, reader in _READ_BY_THE_BENCHMARK.items():
        tree = ast.parse((SRC.parent.parent / reader).read_text())
        assert name in set(_loaded_names(tree)), f"{reader} reads no {name}"
        loads[name] += 1
    unreached = [
        f"{module}.{cls.name}.{method.name}"
        for module, tree in modules.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for method in cls.body if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and loads[method.name] == Counter(_loaded_names(method))[method.name]]
    assert unreached == [], f"no caller in src/: {', '.join(unreached)}"


def _is_dataclass(cls):
    # @dataclass or @dataclass(...)
    decorators = (getattr(d, "func", d) for d in cls.decorator_list)
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _attribute_loads(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def test_every_record_field_has_a_reader_in_src():
    # matched by name, as the method check does: a field of a dataclass is
    # read when its name is loaded as an attribute anywhere in src/ outside
    # its own class's dunder methods, where __post_init__ only guards it
    modules = _modules()
    loads = Counter()
    for tree in modules.values():
        loads.update(_attribute_loads(tree))
    unread = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            own = Counter()
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef)
                        and method.name.startswith("__")
                        and method.name.endswith("__")):
                    own.update(_attribute_loads(method))
            unread.extend(
                f"{module}.{cls.name}.{stmt.target.id}" for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and loads[stmt.target.id] == own[stmt.target.id])
    assert unread == [], f"no reader in src/: {', '.join(unread)}"


def test_every_exported_name_resolves():
    missing = [name for name in nonlocfem.__all__ if not hasattr(nonlocfem, name)]
    assert missing == []


def test_only_the_workspace_build_picks_the_backend():
    # StepWorkspace.__init__ picks one backend object from the dimension,
    # once, and the harness records the method in its metadata; a load of
    # method_for_dim anywhere else would branch on the backend again
    def loads(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}"
        own = isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            node.ctx, ast.Load) and "method_for_dim" in (
                getattr(node, "id", None), getattr(node, "attr", None))
        return [owner] * own + [where for child in ast.iter_child_nodes(node)
                                for where in loads(child, owner)]

    readers = Counter(where for module, tree in _modules().items()
                      for where in loads(tree, module))
    assert readers == {"stepper.StepWorkspace.__init__": 1,
                       "harness._metadata": 1}


def test_only_the_harness_names_a_sweep_kind():
    # each sweep kind's ladder key, axis, file tag and fixed key come from
    # harness._SWEEP_KINDS; a comparison with a kind elsewhere would branch
    # on the kind a second time
    def compares_with_a_kind(tree):
        return sum(isinstance(node, ast.Compare) and any(
            isinstance(operand, ast.Constant) and operand.value in _SWEEP_KINDS
            for operand in [node.left, *node.comparators])
            for node in ast.walk(tree))

    readers = {module: count for module, tree in _modules().items()
               if module != "harness"
               and (count := compares_with_a_kind(tree))}
    assert readers == {}, f"sweep kind compared outside harness: {readers}"
