"""Every public name has one home: the module whose ``__all__`` lists it.

The package star-imports its modules, so a name in two modules' lists, or
one equal to a module's name, would be shadowed without an error.  Every
name a module imports at its top level is used there.  Every name a module
binds at its top level, exported or not, and every field of a dataclass it
defines, and every method and property of a class it defines, is read by
the package, the demos or the benchmark, so none is there for its own
tests only.  The angular transform has one home too:
no module but ``fourier`` takes an FFT.
"""

import ast
import collections
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import axistokes

MODULES = [
    importlib.import_module(f"axistokes.{info.name}")
    for info in pkgutil.iter_modules(axistokes.__path__)
]

REPO = Path(axistokes.__file__).parents[2]
READER_DIRS = ("src", "demos", "perfbench")


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


def _loaded_by(statement: str) -> set:
    """Modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(axistokes.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    probe = f"import sys; {statement}; print(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_leaves_cli_unloaded():
    # ``python -m axistokes.cli`` would otherwise run the module twice.
    assert "axistokes.cli" not in _loaded_by("import axistokes")


def test_imports_leave_scipy_special_unloaded():
    # scipy.special serves only the truncation tails and would add about
    # 0.05 s to every run, so it is imported where the tails are taken.
    assert "scipy.special" not in _loaded_by("import axistokes, axistokes.cli")


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


def _names_read(node) -> set:
    """Names an AST reads: loaded names and attributes, and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names


def _bound_names(stmt) -> set:
    """Names a top-level statement binds: a def or class, or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
    return set()


def _unread_names(source: str, names, other_sources) -> set:
    """Names of ``names`` that no source reads outside their own statement.

    ``source`` is the home module, where the top-level statement binding a
    name does not count as a read of it; ``other_sources`` are the rest.
    """
    read = set()
    for text in other_sources:
        read |= _names_read(ast.parse(text))
    home = [(_bound_names(stmt), _names_read(stmt)) for stmt in ast.parse(source).body]
    return {
        name
        for name in names
        if name not in read and not any(name in reads for bound, reads in home if name not in bound)
    }


def _reader_paths() -> list:
    return sorted(p for d in READER_DIRS for p in (REPO / d).rglob("*.py"))


def _reader_sources(skip: Path) -> list:
    return [p.read_text() for p in _reader_paths() if p.resolve() != skip.resolve()]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_are_read_outside_tests(module):
    path = Path(inspect.getsourcefile(module))
    unread = _unread_names(path.read_text(), module.__all__, _reader_sources(path))
    assert not unread, (
        f"{module.__name__}.__all__ lists {sorted(unread)}, which only tests read"
    )


def _unexported_names(source: str, exported) -> set:
    """Names bound at the top level of a module and not in its ``__all__``."""
    bound = set().union(*(_bound_names(stmt) for stmt in ast.parse(source).body))
    return bound - set(exported) - {"__all__"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_unexported_names_are_read_outside_tests(module):
    path = Path(inspect.getsourcefile(module))
    source = path.read_text()
    names = _unexported_names(source, module.__all__)
    unread = _unread_names(source, names, _reader_sources(path))
    assert not unread, f"{module.__name__} binds {sorted(unread)}, which only tests read"


def test_unexported_name_read_only_by_its_own_statement_is_caught():
    # Negative control: a tuple target, a second target of one assignment
    # and a recursive helper count, as do reads in another statement of the
    # module and imports in another module.
    source = (
        "__all__ = ['run']\n"
        "_A, _B = 1, 2\n"
        "_C = _C0 = 3\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else _A\n"
        "def _loop():\n"
        "    return _loop()\n"
        "def run():\n"
        "    return _walk(_C)\n"
    )
    other = "from axistokes.norms import _B\n"
    names = _unexported_names(source, ["run"])
    assert names == {"_A", "_B", "_C", "_C0", "_walk", "_loop"}
    assert _unread_names(source, names, [other]) == {"_C0", "_loop"}


def test_export_read_only_by_its_own_definition_is_caught():
    # Negative control: a recursive call and the ``__all__`` entry are not
    # reads, a call elsewhere in the module or an import in another is.
    source = (
        "__all__ = ['walk', 'used', 'imported']\n"
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "def used():\n"
        "    return 1\n"
        "def imported():\n"
        "    return 2\n"
        "x = used()\n"
    )
    other = "from axistokes.norms import imported\n"
    exported = ["walk", "used", "imported"]
    assert _unread_names(source, exported, [other]) == {"walk"}


def _dataclass_fields(module) -> set:
    """(class, field) of every field of the dataclasses a module defines."""
    return {
        (obj.__name__, f.name)
        for obj in vars(module).values()
        if inspect.isclass(obj)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
        for f in dataclasses.fields(obj)
    }


def _unread_attributes(members, sources) -> set:
    """The (class, name) pairs whose name no source loads as an attribute."""
    loaded = {
        node.attr
        for text in sources
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {(cls, name) for cls, name in members if name not in loaded}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_dataclass_fields_are_read_outside_tests(module):
    sources = [p.read_text() for p in _reader_paths()]
    unread = _unread_attributes(_dataclass_fields(module), sources)
    assert not unread, (
        f"{module.__name__} defines the fields {sorted(unread)}, which only tests read"
    )


def test_dataclass_field_read_only_by_tests_is_caught():
    # Negative control: a keyword at construction and an assignment are not
    # reads of a field, a load anywhere is.  The fields come from the
    # dataclasses themselves, so the check is not empty.
    source = (
        "report = Report(read=1, unread=2)\n"
        "report.written = 3\n"
        "print(report.read)\n"
    )
    fields = {("Report", "read"), ("Report", "written"), ("Report", "unread")}
    assert _unread_attributes(fields, [source]) == {("Report", "written"), ("Report", "unread")}
    assert ("SolveReport", "res_u") in _dataclass_fields(axistokes.solver)
    assert ("SolverConfig", "tol") in _dataclass_fields(axistokes.solver)


_MEMBER_KINDS = (types.FunctionType, property, classmethod, staticmethod)


def _class_members(classes) -> set:
    """(class, name) of the methods and properties the classes define.

    Dunders are left out, and so is a member that overrides one of a base
    class, such as ``_Parser.error``: the base class reads it.
    """
    return {
        (cls.__name__, name)
        for cls in classes
        for name, member in vars(cls).items()
        if isinstance(member, _MEMBER_KINDS)
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name in vars(base) for base in cls.__mro__[1:])
    }


def _module_classes(module) -> list:
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_methods_and_properties_are_read_outside_tests(module):
    sources = [p.read_text() for p in _reader_paths()]
    unread = _unread_attributes(_class_members(_module_classes(module)), sources)
    assert not unread, (
        f"{module.__name__} defines the members {sorted(unread)}, which only tests read"
    )


def test_method_read_only_by_tests_is_caught():
    # Negative control: dunders and an override of a base class's method
    # are skipped; a method, property or classmethod counts as read once
    # any source loads it, and an assignment is not a load.
    class Base:
        def shared(self):
            pass

    class Sample(Base):
        def shared(self):
            pass

        def __repr__(self):
            return "Sample"

        def read(self):
            pass

        def unread(self):
            pass

        @property
        def shown(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    members = _class_members([Sample])
    assert members == {
        ("Sample", name) for name in ("read", "unread", "shown", "build")
    }
    source = "x = Sample.build()\nx.read()\nprint(x.shown)\nx.unread = 1\n"
    assert _unread_attributes(members, [source]) == {("Sample", "unread")}
    cli_members = _class_members(_module_classes(importlib.import_module("axistokes.cli")))
    assert ("_Parser", "error") not in cli_members
    assert ("Poly2", "d_r") in _class_members(_module_classes(axistokes.fields))


def _fft_lines(source: str) -> list:
    """Lines of a module that reach for an FFT: ``x.fft`` or an import of one."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any("fft" in name.split(".") for name in names):
                lines.add(node.lineno)
    return sorted(lines)


def test_only_fourier_takes_an_fft():
    users = {module.__name__: _fft_lines(inspect.getsource(module)) for module in MODULES}
    assert users.pop("axistokes.fourier"), "fourier no longer takes the FFT"
    others = {name: lines for name, lines in users.items() if lines}
    assert not others, f"modules other than fourier take an FFT at {others}"


def test_fft_outside_fourier_is_caught():
    # Negative control: an attribute chain, a from-import of the module or
    # of a function in it, and a plain import are all caught.
    source = (
        "import numpy as np\n"
        "from numpy.fft import rfft\n"
        "from scipy import fft\n"
        "import scipy.fft\n"
        "def f(x):\n"
        "    return np.fft.fft(x) + np.sum(x)\n"
    )
    assert _fft_lines(source) == [2, 3, 4, 6]
