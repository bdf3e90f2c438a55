"""Modules of the package use each other only through public names, only
the CLI writes files, only the index set and the fast applier read neighbor
tables, nothing reads the environment, every public name has a caller
besides the tests, and nothing is imported but numpy and the standard
library.

A ``_``-prefixed name is private to the module or object that defines it:
no module imports one from another hprop module, and no code reads one off
anything but ``self`` or ``cls``.  Dunder names are protocol, not private.
The program's one output format is the CLI's CSV, so no other module opens
or writes a file.  A name in ``hprop.__all__`` must be read somewhere in
the package (outside its own definition and ``__init__``), in ``scripts/``
or in ``perfbench/``, whose hook table names functions as strings.  No
module reads the environment: every setting is an argument or a constant.
"""

import ast
import re
import sys
from pathlib import Path

import hprop

SOURCES = sorted(Path(hprop.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# samples a surrogate against its potential; only the tests call it so far
UNCALLED_ALLOWED = {"fit_error"}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_uses(path):
    """(line, text) of every cross-module private access in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "hprop"):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names if is_private(alias.name)]
        elif (isinstance(node, ast.Attribute) and is_private(node.attr)
              and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
    return found


def file_writes(path):
    """(line, text) of every ``open(...)``, ``.open(...)``, ``.write_text``
    or ``.write_bytes`` call in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute) and func.attr in (
                    "open", "write_text", "write_bytes"))):
            found.append((node.lineno, ast.unparse(func)))
    return sorted(found)


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"index_set.py", "fast_apply.py",
                                         "potential_approx.py", "cli.py"}


def test_no_module_reaches_into_private_state():
    offences = [f"{path.name}:{line}: {text}" for path in SOURCES
                for line, text in private_uses(path)]
    assert offences == []


def test_checker_flags_private_imports_and_attribute_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .potential_approx import _hidden, public\n"
        "from hprop.index_set import _other\n"
        "from numpy import _private_elsewhere\n"
        "def f(iset, self):\n"
        "    iset._derived[1] = self._own\n"
        "    return iset.__class__, type(self)._own\n")
    assert private_uses(probe) == [
        (1, "import _hidden"), (2, "import _other"),
        (5, "iset._derived"), (6, "type(self)._own")]


def attribute_reads(path, attr):
    """(line, text) of every read of ``.attr`` in one file."""
    return sorted((node.lineno, ast.unparse(node)) for node in
                  ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def test_only_the_index_set_and_the_applier_read_neighbor_tables():
    # the dense oracle finds partners through locate, so checking the fast
    # apply against it checks the tables, not the tables against themselves
    readers = {path.name for path in SOURCES
               if attribute_reads(path, "neighbor_ordinals")}
    assert readers == {"index_set.py", "fast_apply.py"}


def test_checker_finds_attribute_reads_but_not_definitions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def neighbor_ordinals(axis):\n"
        "    return iset.neighbor_ordinals(axis)[0], self.neighbor_ordinals\n"
        "iset.neighbor_ordinals = None\n")
    assert attribute_reads(probe, "neighbor_ordinals") == [
        (2, "iset.neighbor_ordinals"), (2, "self.neighbor_ordinals")]


def test_only_the_cli_writes_files():
    offences = [f"{path.name}:{line}: {text}" for path in SOURCES
                if path.name != "cli.py" for line, text in file_writes(path)]
    assert offences == []


def test_checker_flags_file_opens_and_writes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(path, fh, arr):\n"
        "    with open(path, 'w') as out:\n"
        "        out.write('x')\n"
        "    path.write_text('x'); path.write_bytes(b'x')\n"
        "    fh.write('x'); path.open().read()\n")
    assert file_writes(probe) == [
        (2, "open"), (4, "path.write_bytes"), (4, "path.write_text"),
        (5, "path.open")]


def environment_reads(path):
    """(line, text) of every ``os.environ`` or ``os.getenv`` use, and of
    every import of either name, in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name in ("environ", "getenv")]
    return sorted(found)


def test_no_module_reads_the_environment():
    offences = [f"{path.name}:{line}: {text}" for path in SOURCES
                for line, text in environment_reads(path)]
    assert offences == []


def test_checker_flags_environment_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "from os import getenv, path\n"
        "cap = os.environ.get('CAP'), os.getenv('CAP')\n"
        "home = os.path.expanduser('~')\n")
    assert environment_reads(probe) == [
        (2, "import getenv"), (3, "os.environ"), (3, "os.getenv")]


def foreign_imports(path):
    """(line, module) of every absolute import, in one file, of a top-level
    package that is not the standard library, numpy or hprop."""
    allowed = sys.stdlib_module_names | {"numpy", "hprop"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in allowed]
    return sorted(found)


def test_the_package_imports_only_numpy_and_the_standard_library():
    offences = [f"{path.name}:{line}: {name}" for path in SOURCES
                for line, name in foreign_imports(path)]
    assert offences == []


def test_checker_flags_imports_outside_numpy_and_the_standard_library(
        tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, scipy.linalg\n"
        "from numpy.polynomial import chebyshev\n"
        "from . import index_set\n"
        "from .fast_apply import get_applier\n"
        "from pandas import DataFrame\n"
        "import numpy as np, matplotlib.pyplot as plt\n")
    assert foreign_imports(probe) == [
        (2, "scipy.linalg"), (6, "pandas"), (7, "matplotlib.pyplot")]


def used_names(source):
    """Identifiers a module reads: names, attributes and dotted-path strings
    such as "PolynomialApplier.apply_polynomial".  Reads inside the ``def``
    or ``class`` of the same name do not count."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        loads = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and loads:
            names = [node.id]
        elif isinstance(node, ast.Attribute) and loads:
            names = [node.attr]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            names = node.value.split(".")
        else:
            names = []
        used.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    callers = [p for p in SOURCES if p.name != "__init__.py"]
    callers += sorted((REPO / "scripts").glob("*.py"))
    callers += sorted((REPO / "perfbench").glob("*.py"))
    assert len(callers) > len(SOURCES)
    used = set().union(*(used_names(p.read_text()) for p in callers))
    assert sorted(set(hprop.__all__) - used - UNCALLED_ALLOWED) == []


def test_checker_counts_reads_but_not_a_definition_reading_itself():
    probe = (
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "class Box:\n"
        "    size = 1\n"
        "hook('pkg', 'Table.build', note)\n"
        "report(mod.measure, 'two words')\n")
    assert used_names(probe) == {"hook", "pkg", "Table", "build", "note",
                                 "report", "mod", "measure", "n"}
