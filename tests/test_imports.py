"""Every import in the package, the tests and the scripts is used.

A stdlib `ast` check: a name an import binds must be read somewhere in
its module.  Package `__init__` modules are skipped, as their imports are
the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/signforge", "tests", "scripts")


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds and the module never
    reads, by line."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_caught():
    assert unused_imports("import os\nimport sys as s\n"
                          "from a.b import c, d\nprint(s, d)\n") == [
        (1, "os"), (3, "c")]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join('a')\n") == []


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in CHECKED
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
