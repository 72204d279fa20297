"""perfbench's tracer wraps package functions by their names, from outside
the package, so a rename in ``src/`` would break ``perfbench/run.py --trace 1``
without failing anything else.  Every name it wraps must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans() -> dict[str, list[str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    ]
    return ast.literal_eval(value)


def test_every_trace_target_resolves():
    missing = []
    for targets in _spans().values():
        for target in targets:
            # as Tracer.install reads it: module.function or module.Class.method
            module, *path = target.split(".")
            owner = importlib.import_module(f"uatcv.{module}")
            for attr in path:
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(target)
    assert missing == []
