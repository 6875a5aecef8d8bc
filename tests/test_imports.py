"""Every name a module under src/, tests/ or demos/ imports is used in it,
and every name src/embrank defines is used somewhere.

No linter is a dependency, so this walks each module's AST: an imported
binding (``import a.b`` binds ``a``) must appear as a name somewhere in the
module. ``__init__.py`` files are skipped (their imports are re-exports), and
so are ``from __future__`` imports.
"""

import ast
import collections
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py") if path.name != "__init__.py")


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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from x import y as z, w\nw(a)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: z"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level or in a class body: functions,
    classes, methods, assigned constants and fields; dunders excepted."""
    names = []
    for body in [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def name_occurrences(tree: ast.Module) -> collections.Counter:
    """How often each name occurs: bound or read, as an attribute, a keyword,
    an imported name, a definition or an identifier-like string (a config key,
    a ``getattr`` field)."""
    seen = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            seen[node.arg] += 1
        elif isinstance(node, ast.alias):
            seen[node.name.split(".")[-1]] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            seen[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            seen[node.value] += 1
    return seen


def unused_definitions(defining: dict[str, str], using: list[str]) -> list[str]:
    """The names ``defining`` (module name -> source) defines that occur no
    more often in ``defining`` and ``using`` together than they are defined."""
    trees = {name: ast.parse(source) for name, source in defining.items()}
    definitions = collections.Counter()
    owner = {}
    for module, tree in trees.items():
        for name in defined_names(tree):
            definitions[name] += 1
            owner.setdefault(name, module)
    seen = collections.Counter()
    for tree in [*trees.values(), *map(ast.parse, using)]:
        seen += name_occurrences(tree)
    return sorted(f"{owner[n]}: {n}" for n, count in definitions.items() if seen[n] <= count)


def test_scan_finds_an_unused_definition():
    defining = {"m": "LIMIT = 3\nUNUSED = 4\nclass A:\n    x: int = 0\n    def f(self):\n"
                     "        return LIMIT\n"}
    assert unused_definitions(defining, ["A(x=1)", "a.f()"]) == ["m: UNUSED"]
    assert unused_definitions(defining, ["A().f()"]) == ["m: UNUSED", "m: x"]


def test_every_src_name_is_used():
    """A name src/embrank defines that nothing in src/, tests/, demos/ or
    perfbench/ names again is dead code."""
    src = ROOT / "src" / "embrank"
    defining = {path.name: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    using = [path.read_text(encoding="utf-8") for folder in ("tests", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unused_definitions(defining, using) == []
