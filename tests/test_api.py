"""Every public name has one home: the module whose ``__all__`` lists it.

The package star-imports its modules, so a name in two modules' lists, or
one equal to a module's name, would be shadowed without an error.  And
every name a module imports at its top level is used there.
"""

import ast
import collections
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import axistokes

MODULES = [
    importlib.import_module(f"axistokes.{info.name}")
    for info in pkgutil.iter_modules(axistokes.__path__)
]


def _imported_names(tree) -> set:
    """Names bound by the top-level imports of a parsed module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _defined_names(source: str) -> set:
    """Names bound at the top level of a module's source, imports excluded.

    An assignment of an imported name, such as ``solve_mode = solve_mode``,
    binds that import again and defines nothing.
    """
    tree = ast.parse(source)
    imported = _imported_names(tree)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node.value, ast.Name) and node.value.id in imported:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _foreign_exports(source: str, exported) -> set:
    return set(exported) - _defined_names(source)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_only_its_own_names(module):
    foreign = _foreign_exports(inspect.getsource(module), module.__all__)
    assert not foreign, f"{module.__name__}.__all__ re-exports {sorted(foreign)}"


def test_reexport_by_assignment_is_caught():
    # Negative control: a module that binds an import again under its own
    # name and lists it re-exports it.
    source = (
        "from .solver import solve_mode\n"
        "solve_mode = solve_mode\n"
        "__all__ = ['solve_mode']\n"
    )
    assert _foreign_exports(source, ["solve_mode"]) == {"solve_mode"}


def test_package_exports_come_from_module_exports():
    homes = {name for module in MODULES for name in module.__all__}
    missing = set(axistokes.__all__) - homes - {"__version__"}
    assert not missing, f"axistokes.__all__ lists {sorted(missing)} with no home"


def test_no_public_name_is_shadowed():
    homes = collections.Counter(name for module in MODULES for name in module.__all__)
    twice = sorted(name for name, count in homes.items() if count > 1)
    assert not twice, f"{twice} are in more than one module's __all__"
    submodules = {module.__name__.rpartition(".")[2] for module in MODULES}
    clash = sorted(submodules & set(homes))
    assert not clash, f"{clash} are exported under a submodule's name"


def test_package_import_leaves_cli_unloaded():
    # ``python -m axistokes.cli`` would otherwise run the module twice.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(axistokes.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    probe = "import sys, axistokes; print('axistokes.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _unused_imports(module) -> set:
    """Top-level imports of a module that its source never reads.

    A name listed in ``__all__`` counts as read: the module re-exports it.
    """
    tree = ast.parse(inspect.getsource(module))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return _imported_names(tree) - read - set(getattr(module, "__all__", ()))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_no_unused_imports(module):
    unused = _unused_imports(module)
    assert not unused, f"{module.__name__} imports {sorted(unused)} without using them"
