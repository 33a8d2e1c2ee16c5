"""Every module of the package uses each name it imports and calls each
function it defines, importing the console frontend loads no module it does
not need, and the package namespace imports each public name on first access."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kisinweights"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROBES = PACKAGE.parent.parent / "perfbench" / "probes.py"


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


def uncalled_defs(sources: dict[str, str], readers: list[str], kept: set[str]) -> list[str]:
    """Each def, method or property of ``sources`` (file name -> text), dunders aside,
    whose name neither ``kept`` holds nor any of ``sources`` and ``readers`` reads: as a
    name, an attribute, an imported name or a string constant that is a dotted name."""
    defined, used = [], set(kept)
    trees = {name: ast.parse(text) for name, text in sources.items()}
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.replace(".", "").isidentifier():
                used.update(node.value.split("."))
    for name, tree in trees.items():
        defined += [(node.name, f"{name}:{node.lineno}") for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
    return [f"{name} ({where})" for name, where in defined if name not in used]


def test_checker_sees_uncalled_and_called_defs():
    source = (
        "def called(): return helper()\n"
        "def helper(): return 1\n"
        "def public(): pass\n"
        "def by_string(): pass\n"
        "def uncalled(): pass\n"
        "class C:\n"
        "    def __len__(self): return 0\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def unread(self): return self.size\n"
    )
    assert uncalled_defs({"m.py": source}, ["PROBES = (('m', 'by_string'), 'm.called')"], {"public"}) == [
        "uncalled (m.py:5)", "unread (m.py:10)"]


def test_every_def_has_a_caller():
    """No function, method or property of the package goes uncalled: each is in
    __all__, or read elsewhere in src/ or by perfbench's probes.  cmd_<subcommand>
    is dispatched by name."""
    import kisinweights
    from kisinweights import cli

    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    kept = {*kisinweights.__all__, *(f"cmd_{sub}" for sub in cli.OPTIONS)}
    assert uncalled_defs(sources, [PROBES.read_text(encoding="utf-8")], kept) == []


def test_package_imports_no_argparse_copy_or_re():
    """The frontend reads every argv itself: no module of the package imports
    argparse, copy or re, not even inside a function."""
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported & {"argparse", "copy", "re"} == set()


def test_cli_import_loads_no_dataclasses_inspect_or_platform():
    """The records are NamedTuples and the fingerprint reads sys.version, so a
    console call's start-up imports none of these modules; enumerate imports
    heapq when it runs."""
    code = (
        "import sys\n"
        "import kisinweights.cli\n"
        "from kisinweights.field import make_field\n"
        "make_field(5, 1)\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'platform', 'heapq') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == []


def test_well_formed_request_loads_no_argparse():
    """main reads every argv off cli.OPTIONS and writes its own help and usage
    errors, so no request loads argparse (or gettext and locale) or copy: a
    well-formed one, an abbreviation, a help request and a usage error alike."""
    code = (
        "import contextlib, io, sys\n"
        "from kisinweights.cli import main\n"
        "def code(argv):\n"
        "    try:\n"
        "        return main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [code(argv.split()) for argv in ('shift --p 5 --f 2 --k 1,3', 'verify --suite lemma71 --p 3 --f 2',\n"
        "             'verify --su=lemma71 --p 3 --f 2', '-h', 'shift -h', '', 'nope', 'shift --p five --f 2 --k 1,3',\n"
        "             'enumerate --p 3 --f 2 --shard 5/2', 'match --p 3')]\n"
        "print(*codes, *(m for m in ('argparse', 'gettext', 'locale', 'copy') if m in sys.modules))\n"
        "main(['nope'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["0", "0", "0", "0", "0", "2", "2", "2", "2", "2"]
    assert out.returncode == 2 and out.stderr.startswith("usage: kisinweights")


def test_requests_load_no_chars_ranktwo_or_fractions():
    """No request builds a character or a rank-two extension, and only alpha-id
    reads an exact slope: chars, ranktwo and fractions (with decimal) load on
    first use of one of their names, not at start-up."""
    code = (
        "import contextlib, io, sys\n"
        "from kisinweights.cli import NEEDS_K, SUITES, main\n"
        "from kisinweights.field import make_field\n"
        "make_field(5, 1)\n"
        "at = ['--p', '3', '--f', '2', '--k', '3,1']\n"
        "requests = [['shift', *at], ['match', *at, '--j', '0'], ['match', *at, '--jprime', '0,1', '--jtheta', '0']]\n"
        "requests += [['verify', '--suite', s, *at[:4], *(at[4:] if s in NEEDS_K else [])] for s in sorted(SUITES)\n"
        "             if s != 'alpha-id']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in requests]\n"
        "print(len(codes), *codes)\n"
        "print(*(m for m in ('kisinweights.chars', 'kisinweights.ranktwo', 'fractions', 'decimal') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, env=env, check=True)
    counts, loaded = out.stdout.split("\n")[:2]
    assert counts.split() == ["10", *["0"] * 10]
    assert loaded.split() == []


PUBLIC_NAMES = """Context DichotomyError FiniteField InertialChar PhiExtension PhiMorphism RankOneKisin
SemisimpleShape UPoly Weight alpha backward_from_mus backward_from_theta blocks build_extension
char_of_exponents decompose_cyclic exceptional_audit extend_to_quadratic forward_sets hom_exists
ht_table in_Pprime irr_backward irr_equivalence_audit irr_forward is_balanced is_irreducible_pair jmax
make_field necessary_map_conditions poly_phi rebalance semisimple_decide semisimple_equivalence_audit
subspace_transport_audit transport_forward validate_irregular weight_kmu weight_kprime weight_ktheta""".split()


def test_package_namespace_is_lazy_and_complete():
    """A bare import loads no submodule; each submodule and each public name
    resolves on first access, as the object its defining module holds."""
    code = (
        "import json, sys\n"
        "import kisinweights\n"
        "report = {'loaded': sorted(m for m in sys.modules if m.startswith('kisinweights.'))}\n"
        "report['undir'] = sorted(set(kisinweights.__all__) - set(dir(kisinweights)))\n"
        f"report['submodules'] = [m for m in {[p.stem for p in MODULES]!r}\n"
        "                         if getattr(kisinweights, m) is not sys.modules['kisinweights.' + m]]\n"
        "star = {}\n"
        "exec('from kisinweights import *', star)\n"
        "report['all'] = kisinweights.__all__\n"
        "report['unbound'] = [n for n in kisinweights.__all__ if n not in star]\n"
        "report['foreign'] = [n for n in kisinweights.__all__[1:]\n"
        "                     if star[n] is not getattr(sys.modules[star[n].__module__], n)]\n"
        "try:\n"
        "    kisinweights.nope\n"
        "except AttributeError as err:\n"
        "    report['unknown'] = str(err)\n"
        "print(json.dumps(report))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, env=env, check=True)
    report = json.loads(out.stdout)
    assert report.pop("all") == ["__version__", *PUBLIC_NAMES]
    assert report == {
        "loaded": [], "submodules": [], "unbound": [], "foreign": [], "undir": [],
        "unknown": "module 'kisinweights' has no attribute 'nope'",
    }
