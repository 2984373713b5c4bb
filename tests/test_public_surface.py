"""The package exports only names that something outside the tests needs."""

import ast
import re
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
