"""The cross-checks stay independent of what they check.

The tests compare the oracles and the expansions against mpmath's special
functions, and the benchmark's reference implementation lives in
``perfbench``.  Neither may leak into the package: a route checked against
itself shows nothing.  For the same reason the oracles reach no engine
module: ``oracle.py`` imports nothing of the package but ``numcore``.  These
rules are read off the source with ``ast``.  The layers stay apart too: no
library module imports the ledger or the CLI, so ``import ramasym`` loads
neither.
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
