"""The package imports nothing outside the standard library and numpy, the
one runtime dependency pyproject.toml declares."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uatcv"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_or_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {root}"
        for path in files
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in ALLOWED
    ]
    assert outside == []
