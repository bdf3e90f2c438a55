"""Modules of the package use each other only through public names, and
only the CLI writes files.

A ``_``-prefixed name is private to the module or object that defines it:
no module imports one from another hprop module, and no code reads one off
anything but ``self`` or ``cls``.  Dunder names are protocol, not private.
The program's one output format is the CLI's CSV, so no other module opens
or writes a file.
"""

import ast
from pathlib import Path

import hprop

SOURCES = sorted(Path(hprop.__file__).parent.glob("*.py"))


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
