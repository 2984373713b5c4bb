"""The package exports only names that something outside the tests needs."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reasonconf"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _referenced_names(files):
    """Names read, imported or looked up as attributes in ``files``."""
    names = set()
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_by_the_library_a_demo_or_the_readme():
    modules = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    used = _referenced_names(modules) | _referenced_names(ROOT.glob("demos/*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unpromised = [
        name
        for name in _exported_names()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not unpromised, f"exported but unused and not in README.md: {unpromised}"


def _unread_imports(source):
    """Names a module imports but never reads; ``__future__`` is exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unread_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import List, Optional\n"
        "x: List[int] = os.sep\n"
    )
    assert _unread_imports(source) == ["Optional", "osp"]


def test_no_module_imports_a_name_it_never_reads():
    unread = {
        file.name: names
        for file in sorted(PACKAGE.glob("*.py"))
        if file.name != "__init__.py"
        and (names := _unread_imports(file.read_text(encoding="utf-8")))
    }
    assert not unread, f"imported but never read: {unread}"


def _unraised_exceptions(errors_source, sources):
    """Classes ``errors_source`` defines that no ``raise`` in ``sources`` names."""
    defined = {
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return sorted(defined - raised)


def test_unraised_exceptions_are_detected():
    errors = (
        "class AError(Exception):\n    pass\n"
        "class BError(AError):\n    pass\n"
        "class CError(AError):\n    pass\n"
        "class DError(AError):\n    pass\n"
    )
    user = (
        "from . import errors\n"
        "from .errors import BError, CError\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise BError('b') from None\n"
        "    raise errors.DError\n"
        "err = CError('built, never raised')\n"
    )
    assert _unraised_exceptions(errors, [user]) == ["AError", "CError"]


def test_every_exception_class_is_raised():
    unraised = _unraised_exceptions(
        (PACKAGE / "errors.py").read_text(encoding="utf-8"),
        [file.read_text(encoding="utf-8") for file in sorted(PACKAGE.glob("*.py"))],
    )
    assert not unraised, f"defined in errors.py but never raised: {unraised}"


_ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def _environment_reads(source):
    """``os.environ``, ``os.getenv`` and ``os.putenv`` uses, imported ones too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(
                f"os.{alias.name}"
                for alias in node.names
                if alias.name in _ENVIRONMENT_NAMES
            )
    return sorted(found)


def test_environment_reads_are_detected():
    source = (
        "import os\n"
        "from os import getenv as g, sep\n"
        "level = os.environ.get('LEVEL', os.sep)\n"
        "os.putenv('A', 'b')\n"
    )
    assert _environment_reads(source) == ["os.environ", "os.getenv", "os.putenv"]


def test_no_module_reads_the_environment():
    reads = {
        file.name: names
        for file in sorted(PACKAGE.glob("*.py"))
        if (names := _environment_reads(file.read_text(encoding="utf-8")))
    }
    assert not reads, f"reads the environment: {reads}"


_ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "reasonconf"}


def _third_party_imports(source):
    """Top-level packages imported that are neither the stdlib, numpy nor ours."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - _ALLOWED_IMPORTS)


def test_third_party_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np, scipy.special\n"
        "from . import errors\n"
        "from reasonconf.errors import DomainError\n"
        "from mpmath import loggamma\n"
        "def f():\n"
        "    import pandas\n"
    )
    assert _third_party_imports(source) == ["mpmath", "pandas", "scipy"]


def test_the_runtime_imports_only_the_stdlib_and_numpy():
    foreign = {
        file.name: names
        for file in sorted(PACKAGE.glob("*.py"))
        if (names := _third_party_imports(file.read_text(encoding="utf-8")))
    }
    assert not foreign, f"imports outside the stdlib and numpy: {foreign}"


def test_importing_the_package_loads_no_scipy():
    # A fresh process: the test suite itself imports scipy as a reference.
    code = (
        "import sys, reasonconf, reasonconf.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
