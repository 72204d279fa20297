"""No module of the package deep-copies.

A network derived from another (a LoRA update, a pruned network) is a new
network with new layer objects that shares every weight array it does not
replace; the arrays are read-only, so sharing them is safe.  A deep copy
would copy every weight of the network instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "uatcv"


def _deepcopy_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "deepcopy":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "copy":
            if any(alias.name == "deepcopy" for alias in node.names):
                yield node.lineno


def test_no_module_calls_deepcopy():
    files = sorted(SRC.glob("*.py"))
    assert files
    uses = [
        f"{path.name}:{line}"
        for path in files
        for line in _deepcopy_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert uses == []
