"""Every name a module of the package imports is used in that module,
no module imports `dataclasses`, importing the CLI leaves `inspect`,
`tempfile` and `shutil` out, and a plain argv leaves `argparse` and
`gettext` out.

A name imported and never read is dead weight that a deletion elsewhere
tends to leave behind.  The package's `__init__.py` is left out of that
check: it imports names for callers outside it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

SRC = Path(__file__).resolve().parents[1] / "src" / "ordfield"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; `from __future__` imports
    bind nothing."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, also inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    dead = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not dead, f"{path.name} imports names it never uses: {dead}"


def test_a_dead_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .x import a, b as c, d\n"
        "def f(v: 'd') -> None:\n"
        "    return sys.argv, a\n"
    )
    used = used_names(tree)
    assert {n for n in imported_names(tree) if n not in used} == {"os", "c"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level name of each module the tree imports absolutely."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_dataclasses(path):
    # the value classes share fields.Value; dataclasses costs its class
    # set-up at every import of the package
    assert "dataclasses" not in imported_modules(ast.parse(path.read_text(encoding="utf-8")))


def test_cli_import_leaves_inspect_out():
    # `inspect` cost a cold import of ordfield.cli several milliseconds
    # only to read the demo signatures
    code = "import sys, ordfield.cli; print('inspect' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, check=True
    ).stdout
    assert out == "False\n"


def test_cli_import_leaves_the_spill_modules_out():
    # only a transcript past cli.SPILL_CHARS needs a temporary file; -S
    # keeps site start-up files, which may import tempfile, out of the count
    code = "import sys, ordfield.cli; print([m for m in ('tempfile', 'shutil') if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=CHILD_ENV, check=True
    ).stdout
    assert out == "[]\n"


def test_a_plain_argv_leaves_argparse_out():
    # the plain reader serves a well-formed argv; argparse, with its
    # gettext lookups, is imported only for help, --version and errors
    code = (
        "import sys, ordfield.cli; ordfield.cli.main(['eval', '--field', 'q', '1/2']); "
        "print([m for m in ('argparse', 'gettext') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=CHILD_ENV, check=True
    ).stdout
    assert out == "value 1/2\nsign 1\n[]\n"
    code = "import ordfield.cli; ordfield.cli.main(['demo', '-h'])"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert run.returncode == 0 and run.stdout.startswith("usage: ordfield demo [-h]")
