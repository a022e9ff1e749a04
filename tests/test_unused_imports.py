"""Lint gate: no unused imports in ``src/repro`` (stdlib ``ast`` only).

A name bound by an import counts as used when the module loads it
anywhere, lists it in ``__all__``, or names it inside a string
annotation (``Optional["Quarantine"]``).  Package ``__init__.py`` files
are skipped: their imports are the package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree):
    """``(name, lineno)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _annotation_names(annotation):
    """Names loaded by an annotation, string annotations parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_scanner_sees_unused_and_string_annotation_uses(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "def f(x: Optional['List']) -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == [("Dict", 1), ("os", 2)]


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
