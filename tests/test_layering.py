"""The package's import layering and its reach, read from the source with ast.

Every package import sits at module level, so a module's dependencies are
visible at its top, and the module import graph has no cycle.  From the
bottom up the layers are odeint, model, (sampling, riccati, oracle),
stacked, follower, leader, finance, scenario and cli, with __init__ on top.

Every top-level function and class of the package, and every method and
property, is named somewhere a run or a reader reaches it: in the package
outside its own def, in scripts/ or in README.md.  Code that only the
tests call belongs in tests/conftest.py.  Likewise every field of a dataclass
is read somewhere in the package or in scripts/, but for the few named in
test_every_dataclass_field_is_read.

scipy is imported only inside the two functions that call it, the closed
forms' matrix_exponential and the QP oracles' banded solve, so only riccati
(at C = 0) and verify load it; a fresh interpreter checks that the other
commands never do.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = "bsde_stackelberg"
ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / PACKAGE
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES.glob("*.py")}
SCRIPTS = [ast.parse(path.read_text(), str(path)) for path in (ROOT / "scripts").glob("*.py")]


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


def definitions(modules: dict[str, ast.Module]) -> list[tuple[str, ast.AST, bool]]:
    """(qualified name, def node, is a member) of every top-level function and class,
    and of every method and property of a top-level class but the dunder ones."""
    out = []
    for module, tree in sorted(modules.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{module}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{module}.{node.name}.{item.name}", item, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return out


def name_counts(trees) -> tuple[Counter, Counter]:
    """How often each identifier occurs as a name and as an attribute in trees."""
    names, attrs = Counter(), Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attrs[node.attr] += 1
    return names, attrs


def unreached(modules: dict[str, ast.Module], scripts: list[ast.Module], readme: str) -> list[str]:
    """Qualified names of the definitions that nothing names: no name or attribute
    in the modules outside the definition itself or in scripts, and no identifier
    in README's code.  A member counts as named only as an attribute, in README as
    .name; imports do not count, so a re-export in __init__ names nothing."""
    names, attrs = name_counts([*modules.values(), *scripts])
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S))
    readme_names = set(re.findall(r"[A-Za-z_]\w*", code))
    readme_attrs = set(re.findall(r"\.([A-Za-z_]\w*)", code))
    out = []
    for qualified, node, member in definitions(modules):
        own_names, own_attrs = name_counts([node])
        name = node.name
        outside = attrs[name] - own_attrs[name]
        if not member:
            outside += names[name] - own_names[name]
        if not (outside or name in (readme_attrs if member else readme_names)):
            out.append(qualified)
    return out


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class definition carries @dataclass, called or not, by any path."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(modules: dict[str, ast.Module], scripts: list[ast.Module]) -> list[str]:
    """Qualified names of the fields of top-level dataclasses that nothing reads: no
    attribute of that name is loaded in the modules or in scripts.  A constructor
    writes its fields, so building one reads none; dataclasses.asdict and getattr
    by a string read fields unseen, and no field here is read only that way."""
    loaded = Counter(
        node.attr
        for tree in [*modules.values(), *scripts]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )
    return [
        f"{module}.{node.name}.{item.target.id}"
        for module, tree in sorted(modules.items())
        for node in tree.body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and not loaded[item.target.id]
    ]


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


def test_every_definition_is_reached():
    dead = unreached(MODULES, SCRIPTS, (ROOT / "README.md").read_text())
    assert dead == [], f"named nowhere outside tests/: {dead}"


def test_unreached_reports_what_only_itself_names():
    source = ast.parse(
        "def used():\n    return Box().size\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def documented():\n    pass\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.grow()\n"
        "    @property\n    def size(self):\n        return self.size\n"
        "    def grow(self):\n        pass\n"
        "    def shrink(self):\n        return self.shrink()\n"
        "    def used(self):\n        pass\n"
    )
    script = ast.parse("from pkg import used\nused()\n")
    readme = "Call `documented()`; `used` and `shrink` are prose here, not `.size`."
    assert unreached({"mod": source}, [script], readme) == [
        "mod.recursive", "mod.Box.shrink", "mod.Box.used",
    ]


# dataclass fields that nothing in the package or in scripts/ reads, kept on purpose
KEPT_FIELDS = [
    "leader.StackelbergSolution.pi1",
    "oracle.OracleResult.gradient_norm",
    "oracle.OracleResult.inner_control",
]


def test_every_dataclass_field_is_read():
    """No field is carried for the tests alone, but the three of KEPT_FIELDS.

    StackelbergSolution.pi1 is the Pi1 flow of the solved chain that an
    equilibrium layer hands a library caller, P1, P2, the stacked system, Pi1,
    Pi2 and the path kernel, as README's Library section lists it; the kernel
    was built from it, and a caller would otherwise solve it again.
    OracleResult.gradient_norm is the KKT residual |Kx - b| of the oracle's own
    solve: README documents it as the oracle's accuracy, and the tests bound it.
    OracleResult.inner_control is the follower's control in the leader oracle's
    one-level KKT solve: the tests hold it to the follower oracle's best response,
    their check that the one-level solve is the bilevel optimum.  Neither of
    the oracle's two goes into oracle.json, whose keys stay as they are.
    """
    assert unread_fields(MODULES, SCRIPTS) == KEPT_FIELDS


def test_unread_fields_reports_fields_only_written():
    source = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Pair:\n    left: int\n    right: int = 0\n\n"
        "@dataclasses.dataclass\nclass Box:\n    size: int\n\n"
        "class Plain:\n    hidden: int\n\n"
        "def build():\n    p = Pair(1, right=2)\n    p.left = 3\n    return Box(p.left)\n"
    )
    script = ast.parse("from pkg import build\nprint(build().size)\n")
    assert unread_fields({"mod": source}, []) == ["mod.Pair.right", "mod.Box.size"]
    assert unread_fields({"mod": source}, [script]) == ["mod.Pair.right"]


# Runs CLI commands in a fresh interpreter and prints, as JSON, each command's exit
# code and whether scipy was loaded after it.  argv[1] is the output directory,
# argv[2:] the runs as command:scenario.
SCIPY_PROBE = """
import contextlib, io, json, sys
from pathlib import Path

loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import bsde_stackelberg
from bsde_stackelberg.cli import main

out, report = Path(sys.argv[1]), {"import": [None, loaded()]}
for run in sys.argv[2:]:
    command, scenario = run.split(":")
    argv = [command, "--scenario", str(Path("scenarios") / scenario), "--out", str(out / run)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([*argv, "--steps", "16", "--paths", "8"])
    report[run] = [rc, loaded()]
print(json.dumps(report))
"""
SHIPPED = ("hand_solvable.json", "stochastic.json", "finance.json")
COLD = [
    f"{command}:{scenario}"
    for command in ("validate", "follower", "leader", "equilibrium")
    for scenario in SHIPPED
] + ["finance:finance.json"]


def test_scipy_loads_only_for_closed_forms_and_verify(tmp_path):
    # tests/conftest.py imports scipy, so each probe runs in its own interpreter;
    # riccati and verify run in separate ones, so that each must load scipy itself
    runs = {"cold": [*COLD, "verify:hand_solvable.json"], "riccati": ["riccati:hand_solvable.json"]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")
    ])))
    probes = {
        name: subprocess.Popen(
            [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / name), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        for name, argv in runs.items()
    }
    reports = {name: json.loads(probe.communicate(timeout=120)[0]) for name, probe in probes.items()}
    cold = reports["cold"]
    assert {run: cold[run] for run in ["import", *COLD]} == {
        "import": [None, []], **{run: [0, []] for run in COLD}
    }
    for name, run in (("cold", "verify:hand_solvable.json"), ("riccati", runs["riccati"][0])):
        rc, modules = reports[name][run]
        assert rc == 0 and "scipy.linalg" in modules, (run, rc)
