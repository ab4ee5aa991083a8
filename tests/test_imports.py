"""Every name a library module or a test file imports is used in that file.

The package ``__init__`` is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

import pentagraph

PACKAGE = Path(pentagraph.__file__).parent
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    source = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(source) == ["path (line 1)", "sys (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert modules and TESTS / "test_imports.py" in tests
    unused = {
        p.name: found
        for p in modules + tests
        if (found := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}
