"""Every module of the package uses each name it imports, and importing the
console frontend loads no module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kisinweights"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_used_names():
    source = "import os\nimport sys as system\nfrom typing import Any, Optional\nx: Optional[int] = system.maxsize\n"
    assert unused_imports(source) == ["Any (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_dataclasses_inspect_or_platform():
    """The records are NamedTuples and the fingerprint reads sys.version, so a
    console call's start-up imports none of these modules."""
    code = (
        "import sys\n"
        "import kisinweights.cli\n"
        "from kisinweights.field import make_field\n"
        "make_field(5, 1)\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'platform') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == []


def test_well_formed_request_loads_no_argparse():
    """main reads a well-formed request off cli.OPTIONS, so argparse (with
    gettext and locale) loads only for a request it must answer."""
    code = (
        "import contextlib, io, sys\n"
        "from kisinweights.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['shift', '--p', '5', '--f', '2', '--k', '1,3']),\n"
        "             main(['verify', '--suite', 'lemma71', '--p', '3', '--f', '2'])]\n"
        "print(*codes, *(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        "main(['nope'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["0", "0"]
    assert out.returncode == 2 and out.stderr.startswith("usage: kisinweights")
