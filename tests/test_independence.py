"""The cross-checks stay independent of what they check.

The tests compare the oracles and the expansions against mpmath's special
functions, and the benchmark's reference implementation lives in
``perfbench``.  Neither may leak into the package: a route checked against
itself shows nothing.  For the same reason the oracles reach no engine
module: ``oracle.py`` imports nothing of the package but ``numcore``.  These
rules are read off the source with ``ast``.  The layers stay apart too: no
library module imports the ledger or the CLI, so ``import ramasym`` loads
neither.  The ledger's series-reversion witness (``checks._laplace*``)
reads only the standard library, so that its line pins the v = 0 values
against a route that shares no code with the engine.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramasym

SRC = Path(ramasym.__file__).resolve().parent

# the mpmath references tests/test_oracle.py and tests/test_asymptotics.py
# compare against
REFERENCES = {"ei", "e1", "expint", "gammainc", "lambertw"}


def imported_modules(tree):
    """Top-level names of every module an import statement reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.partition(".")[0]
            for alias in node.names:
                yield alias.name


def package_modules(tree):
    """Every module of this package an import statement reaches, named
    inside the package: relative imports and ``ramasym.*``.  An import of
    the package root reaches all of it and counts as ``ramasym``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "ramasym":
                    yield rest.partition(".")[0] or "ramasym"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                head, _, module = module.partition(".")
                if head != "ramasym":
                    continue
            if module:
                yield module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def section_reaches(tree, prefix: str) -> set:
    """The module-level names of ``tree`` that its functions named
    ``prefix*`` read, other than those functions and names imported from
    outside the package: a module of the package, or another helper of the
    module, is reached through one of these."""
    bound, outside = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {(a.asname or a.name).partition(".")[0]
                     for a in node.names}
            bound |= names
            if not (isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("ramasym"))
                    or any(a.name.startswith("ramasym") for a in node.names)):
                outside |= names
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    section = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith(prefix)]
    read = {n.id for fn in section for n in ast.walk(fn)
            if isinstance(n, ast.Name)}
    return (read & bound) - outside - {fn.name for fn in section}


def mpmath_names(tree):
    """Every name a module could reach an mpmath function by: attributes
    (``mp.ei``), names imported from mpmath, and string constants
    (``getattr(mp, "ei")``).  A local variable is not one of them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").partition(".")[0] == "mpmath":
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_perfbench(path):
    assert "perfbench" not in set(imported_modules(_tree(path)))


@pytest.mark.parametrize("name", ["oracle.py", "asymptotics.py"])
def test_no_mpmath_reference_in_the_routes_it_checks(name):
    assert not REFERENCES & set(mpmath_names(_tree(SRC / name)))


def test_oracles_reach_no_engine_module():
    assert set(package_modules(_tree(SRC / "oracle.py"))) <= {"numcore"}


@pytest.mark.parametrize("name", [
    "numcore", "polys", "combinat", "demoivre", "coefficients",
    "asymptotics", "oracle", "__init__"])
def test_the_library_imports_no_ledger_or_cli(name):
    assert not {"checks", "cli"} \
        & set(package_modules(_tree(SRC / f"{name}.py")))


def _loaded_after_import(module: str, watched: tuple) -> str:
    """The modules of ``watched`` a fresh interpreter holds after
    ``import module``, as printed."""
    code = (f"import sys, {module}\n"
            f"print([m for m in {watched!r} if m in sys.modules])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_ramasym_loads_no_ledger_or_cli():
    assert _loaded_after_import(
        "ramasym", ("ramasym.checks", "ramasym.cli")) == "[]\n"


def test_import_cli_loads_no_ledger():
    """``verify`` imports the ledger when it runs; no other command
    loads it."""
    assert _loaded_after_import("ramasym.cli", ("ramasym.checks",)) == "[]\n"


def test_the_laplace_witness_reaches_no_engine_module():
    tree = _tree(SRC / "checks.py")
    assert any(isinstance(node, ast.FunctionDef)
               and node.name == "_laplace_at_zero" for node in tree.body)
    assert not section_reaches(tree, "_laplace")


@pytest.mark.parametrize("code", [
    "from . import coefficients as cf\ndef _laplace_x(r):\n"
    "    return cf.rho_zero(r)",
    "from .combinat import double_factorial\ndef _laplace_x(r):\n"
    "    return double_factorial(2 * r - 1)",
    "import ramasym.polys\ndef _laplace_x():\n"
    "    return ramasym.polys.PolyV()",
    "from ramasym.demoivre import harmonic as h\ndef _laplace_x():\n"
    "    return h(2)",
    "def _min3(n):\n    return n\ndef _laplace_x(n):\n    return _min3(n)",
    "_V = object()\ndef _laplace_x():\n    return _V",
])
def test_a_witness_reaching_the_package_is_seen(code):
    assert section_reaches(ast.parse(code), "_laplace")


def test_a_witness_on_the_standard_library_passes():
    code = ("from fractions import Fraction\nfrom math import prod\n"
            "def _laplace_y(n):\n    return Fraction(n)\n"
            "def _laplace_x(n):\n    a = [prod(range(n))]\n"
            "    return _laplace_y(a[0])")
    assert not section_reaches(ast.parse(code), "_laplace")


@pytest.mark.parametrize("code", [
    "from . import asymptotics",
    "from .coefficients import rho",
    "from .numcore import to_mp\nfrom .demoivre import harmonic",
    "def f():\n    from .asymptotics import theta_expansion",
    "import ramasym.combinat",
    "import ramasym",
    "from ramasym.polys import PolyV",
    "from ramasym import checks",
])
def test_an_engine_import_is_seen(code):
    assert set(package_modules(ast.parse(code))) - {"numcore"}


@pytest.mark.parametrize("code", [
    "import perfbench.reference",
    "from perfbench import reference",
    "from perfbench.reference import rho_at",
])
def test_a_perfbench_import_is_seen(code):
    assert "perfbench" in set(imported_modules(ast.parse(code)))


@pytest.mark.parametrize("code", [
    "mp.ei(x)",
    "mpmath.lambertw(z)",
    "from mpmath import expint",
    "from mpmath import gammainc as g",
    "getattr(mp, 'e1')(x)",
])
def test_a_reference_is_seen(code):
    assert REFERENCES & set(mpmath_names(ast.parse(code)))


def test_a_local_variable_is_not_a_reference():
    assert not REFERENCES & set(mpmath_names(ast.parse("ei = f(n)\nei")))
