"""What each hankelpv module imports: every name it uses, and not the shim."""

import ast
from pathlib import Path

import pytest

from hankelpv import asymptotics

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hankelpv"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _traced_asymptotics_names():
    """The names perfbench/tracer.py wraps as its asymptotics layer: the
    keys of the `asymptotics` entry of its `spans` dict."""
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "tracer.py").read_text())):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] \
                == ["spans"]:
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Name) and key.id == "asymptotics":
                    return {name.value for name in value.keys}
    raise AssertionError("tracer.py has no asymptotics entry in spans")


def test_asymptotics_binds_only_the_traced_names():
    # the tracer rebinds each object it looks up here in every loaded
    # module, so the shim only imports them, and nothing imports the shim
    names = _traced_asymptotics_names()
    assert {name for name in vars(asymptotics) if not name.startswith("__")} == names
    assert all(getattr(asymptotics, name).__module__ != asymptotics.__name__ for name in names)
    body = _tree("asymptotics").body
    assert isinstance(body[0].value, ast.Constant)
    assert all(isinstance(node, ast.ImportFrom) for node in body[1:])
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
                modules.append(node.module or "")
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            assert not any(name.split(".")[-1] == "asymptotics" for name in modules), module


@pytest.mark.parametrize("module", [m for m in MODULES if m != "asymptotics"])
def test_every_imported_name_is_used(module):
    # no linter runs here; a name in a module-level __all__ counts as used
    imported, used = {}, set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] \
                == ["__all__"]:
            used.update(element.value for element in node.value.elts)
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_cli_takes_from_flows_only_its_two_forwarders():
    # where a seed starts and which grid a flow's rows lie on stay flow
    # policy: the CLI forwards to the two solvers and renders their rows
    found = []
    for top in _tree("cli").body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "flows" for name in modules):
                found.append((getattr(top, "name", None), [a.name for a in node.names]))
    assert sorted(found) == [("continue_pv", ["continue_pv"]),
                             ("solve_piii_prime", ["solve_piii_prime"])]


def test_one_quadrature_pass_drives_every_entry():
    # the scalar entries map onto integrate_unit_vector, so only it runs the
    # level loop
    callers = []
    for module in MODULES:
        for top in _tree(module).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_level_loop" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.append((module, getattr(top, "name", None)))
    assert callers == [("quadrature", "integrate_unit_vector")]
