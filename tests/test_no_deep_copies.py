"""No module of the package deep-copies, and one function builds layers.

A network derived from another (a LoRA update, a pruned network) is
assembled anew from its ``(spec, weights)``: one spec per layer and one
weights record per layer, every weight array it does not replace shared
with the source; the arrays are read-only, so sharing them is safe.  A deep
copy would copy every weight of the network instead.  ``netspec.assemble``
is the one place a materialized layer is built, so no second builder can
keep a layer's shapes or weights in step with its spec by hand.
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


def _calls(node: ast.AST, name: str, scope: str | None = None):
    """(innermost enclosing function, line) of every call to ``name``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield scope, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _calls(child, name, inner)


def test_no_module_calls_deepcopy():
    files = sorted(SRC.glob("*.py"))
    assert files
    uses = [
        f"{path.name}:{line}"
        for path in files
        for line in _deepcopy_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert uses == []


def test_only_assemble_builds_a_layer():
    builds = [
        (path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in _calls(ast.parse(path.read_text(encoding="utf-8")), "RtLayer")
    ]
    assert [(name, scope) for name, scope, _ in builds] == [("netspec.py", "assemble")], builds
