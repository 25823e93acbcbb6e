"""Every import in the package, the tests and the scripts is used, every
private module-level name of the package is read, and the package's
modules import each other in layers.

Stdlib `ast` checks.  A name an import binds must be read somewhere in
its module; package `__init__` modules are skipped, as their imports are
the package's exports.  A private (`_`-prefixed, not dunder) name that a
package module defines at module level must be read, as a name or an
attribute, by some other module-level statement of the package, so a
helper a cleanup leaves without callers fails here.  No function body of
the package imports, and the graph of its modules' relative imports
(`from .x import` and `from . import x`) has no cycle.
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


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private name defined at module level
    in sources (module -> source text) and read by no other module-level
    statement of any of them; reads are matched by name."""
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = {node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name)}
            else:
                names = set()
            reads.append({node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(stmt)
                          if isinstance(node, ast.Attribute)
                          or isinstance(node, ast.Name)
                          and isinstance(node.ctx, ast.Load)})
            defined += [(module, stmt.lineno, name, len(reads) - 1)
                        for name in names
                        if name.startswith("_") and not name.startswith("__")]
    return sorted((module, line, name) for module, line, name, own in defined
                  if not any(name in read for i, read in enumerate(reads)
                             if i != own))


def test_unread_private_names_are_caught():
    assert unread_private_names({
        "a": "_LIMIT, _UNUSED = 3, 4\n"
             "def _loop(n):\n    return _loop(n - 1)\n"
             "def _helper():\n    return _LIMIT\n",
        "b": "import a\nprint(a._helper(), __name__)\n"}) == [
        ("a", 1, "_UNUSED"), ("a", 2, "_loop")]


def test_no_unread_private_names():
    package = ROOT / "src/signforge"
    found = [f"{module}:{line}: {name}" for module, line, name
             in unread_private_names({
                 str(path.relative_to(ROOT)): path.read_text()
                 for path in sorted(package.rglob("*.py"))})]
    assert not found, "private names no module reads:\n" + "\n".join(found)


def function_imports(source: str) -> list:
    """Lines of the import statements inside a function body."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def import_cycle(sources: dict) -> list:
    """A cycle, as [a, b, ..., a], in the graph of the relative imports
    that sources (module name -> source text) make outside function
    bodies, or [] if there is none."""
    def outside_functions(node):
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from outside_functions(child)

    graph = {}
    for module, source in sources.items():
        graph[module] = [
            name for node in outside_functions(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
            if name in sources]
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for target in graph[module]:
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_function_imports_are_caught():
    assert function_imports("import os\ndef f():\n    from .a import b\n"
                            "    return b\nclass C:\n    def g(self):\n"
                            "        import sys\n") == [3, 7]


def test_import_cycles_are_caught():
    sources = {"a": "from .b import x\n", "b": "from . import c, os\n",
               "c": "def f():\n    from .a import y\n"}
    assert import_cycle(sources) == []
    sources["c"] = "from .a.d import y\n"
    assert import_cycle(sources) == ["a", "b", "c", "a"]


def test_package_modules_import_in_layers():
    package = ROOT / "src/signforge"
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    found = [f"src/signforge/{module}.py:{line}"
             for module, source in sources.items()
             for line in function_imports(source)]
    assert not found, "imports inside functions:\n" + "\n".join(found)
    cycle = import_cycle(sources)
    assert not cycle, "import cycle: " + " -> ".join(cycle)
