"""Reference outputs and the check of a command's output against them.

A command's output (its outcome, stdout and stderr) is split into a
skeleton, the text with every float literal replaced by ``<f>`` and the
workload seed by ``<seed>``, and the list of those floats.  An output is
correct when its outcome and skeleton equal the reference exactly and every
float lies within ``RTOL * |ref| + ATOL`` of the reference float.

The bound lets a reordered sum move the last digits of a value or the
round-off diffs the report prints (about 1e-15 relative to the stage
values, 2e-8 absolute on vit_tokens), and fails a wrong lowering, whose
diffs are of the order of the stage values themselves.  Every integer,
word, shape and expression, and so all of ``expand`` and ``classify``,
must match exactly.

References are captured per workload for a range of seeds by
``capture.py``; a seed outside that range is checked on its skeleton only.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)(?![\w.])")


def split(outcome: str, stdout: str, stderr: str, seed: int) -> tuple[str, list[float]]:
    text = f"outcome: {outcome}\n--- stdout\n{stdout}--- stderr\n{stderr}"
    text = re.sub(rf'"seed": {seed}(?!\d)', '"seed": <seed>', text)
    floats = [float(m) for m in _FLOAT.findall(text)]
    return _FLOAT.sub("<f>", text), floats


def skeleton_id(skeleton: str) -> str:
    return hashlib.sha256(skeleton.encode("utf-8")).hexdigest()[:16]


def load(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def check(reference: dict, seed: int, command: str,
          outcome: str, stdout: str, stderr: str) -> str | None:
    """None when the output matches the reference, else the first mismatch."""
    skeleton, floats = split(outcome, stdout, stderr, seed)
    per_seed = reference["seeds"].get(str(seed))
    if per_seed is None:
        if skeleton not in reference["skeletons"].values():
            return f"{command}: output matches no reference skeleton"
        return None
    ref_id, ref_floats = per_seed[command]
    if skeleton_id(skeleton) != ref_id:
        return f"{command}: output text differs from the reference"
    if len(floats) != len(ref_floats):
        return f"{command}: {len(floats)} numbers where the reference has {len(ref_floats)}"
    for i, (got, want) in enumerate(zip(floats, ref_floats)):
        if not abs(got - want) <= RTOL * abs(want) + ATOL:
            return f"{command}: number {i} is {got!r}, reference {want!r}"
    return None
