"""The package's import layering, read from the source with ast.

Every package import sits at module level, so a module's dependencies are
visible at its top, and the module import graph has no cycle.  From the
bottom up the layers are odeint, model, (sampling, riccati, oracle),
stacked, follower, leader, finance, scenario and cli, with __init__ on top.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "bsde_stackelberg"
SOURCES = Path(__file__).resolve().parents[1] / "src" / PACKAGE
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES.glob("*.py")}


def package_targets(node: ast.AST) -> list[str]:
    """The package modules an import statement imports, by module name."""
    if isinstance(node, ast.Import):
        return [
            alias.name.split(".")[1] if "." in alias.name else "__init__"
            for alias in node.names
            if alias.name.split(".")[0] == PACKAGE
        ]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != PACKAGE:
            return []
        module = parts[1] if len(parts) > 1 else None
    else:
        module = node.module
    if module is not None:
        return [module.split(".")[0]]
    # "from . import name": a submodule where one exists, else the package itself
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def import_graph() -> dict[str, set[str]]:
    """Module -> the other package modules it imports, at any depth of its source."""
    return {
        name: {t for node in ast.walk(tree) for t in package_targets(node)} - {name}
        for name, tree in MODULES.items()
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as a list of modules, first repeated last, or [] if none."""
    state: dict[str, str] = {}
    stack: list[str] = []

    def visit(name):
        state[name] = "open"
        stack.append(name)
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        state[name] = "done"
        stack.pop()
        return []

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return []


def test_sources_found():
    assert {"__init__", "odeint", "model", "stacked", "follower", "leader"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_function_imports_a_package_module(module):
    local = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(MODULES[module])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if package_targets(node)
    ]
    assert local == [], f"{module} imports package modules inside functions: {local}"


def test_import_graph_is_acyclic():
    cycle = find_cycle(import_graph())
    assert cycle == [], "import cycle: " + " -> ".join(cycle)


def test_path_layer_imports_neither_level():
    graph = import_graph()
    assert not graph["stacked"] & {"follower", "leader"}
    assert not graph["odeint"], "odeint imports no package module"


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) == []
