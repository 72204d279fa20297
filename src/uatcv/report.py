"""Deterministic report assembly.

A report is a JSON document (sorted keys, two-space indent, trailing
newline) plus an optional LaTeX sidecar with the expanded canonical form
and the classification table.  For a fixed description, seed, and tool
version the bytes are identical run to run; nothing time- or
machine-dependent goes in.
"""

from __future__ import annotations

import json
from functools import partial

from . import __version__
from .analysis import (
    LoraDelta,
    PruneMask,
    count_uat_terms,
    lora_equivalence_check,
    prune_impact,
    receptive_field,
)
from .errors import SpecError
from .netspec import (
    MaterializedNetwork,
    check_network,
    emit_spec,
    random_input,
    to_expandable,
    verify_network,
)
from .symbolic import classify_params, emit
from .tensor import element_cap


def _form_stats(form) -> dict:
    counts = form.weight_index_map.sharing_counts()
    rows, cols = form.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "structural_nonzeros": int(form.nnz),
        "distinct_kernel_elements": int(len(counts)),
        "sharing_min": int(counts.min()) if len(counts) else 0,
        "sharing_max": int(counts.max()) if len(counts) else 0,
        # x' is the stage input flattened, so no input element feeds two positions
        "replicated_input_sources": 0,
        "has_bias": form.bias is not None,
        "layout": form.layout_note,
    }


def _layer_row(net: MaterializedNetwork, check) -> dict:
    rt = net.layers[check.index]
    return {
        "index": rt.index,
        "kind": rt.spec.kind,
        "input_shape": list(list(d) for d in rt.in_shape.dims),
        "output_shape": list(list(d) for d in rt.out_shape.dims),
        "max_abs_diff_at_seed_input": check.max_abs_diff,
        "note": check.note,
        "forms": [_form_stats(f) for f in check.forms],
    }


def layer_section(net: MaterializedNetwork) -> list[dict]:
    """Per-layer lowering stats and the max-abs diff at the seed input."""
    x = random_input(net.spec, seed=net.spec.seed)
    return list(map(partial(_layer_row, net), check_network(net, x)))


def expansion_section(net: MaterializedNetwork) -> dict:
    try:
        exp = to_expandable(net)
    except SpecError as exc:
        return {"expandable": False, "reason": str(exc)}
    canonical = exp.chain.canonical
    table = [
        {
            "display": row.display,
            "kind": row.kind,
            "dependence": row.dependence.value,
            "provenance": row.provenance,
            "roles": list(row.roles),
        }
        for row in classify_params(canonical)
    ]
    return {
        "expandable": True,
        "family": exp.family,
        "preprocessing": exp.preprocessing,
        "n_terms": canonical.n_terms,
        "structure": canonical.structure,
        "text": emit(canonical, "text"),
        "latex": emit(canonical, "latex"),
        "classification": table,
    }


def analysis_section(
    net: MaterializedNetwork,
    lora: LoraDelta | None = None,
    prune_mask: PruneMask | None = None,
    impact_inputs: int = 8,
    pruned: MaterializedNetwork | None = None,
) -> dict:
    out: dict = {}
    try:
        out["term_counts"] = [
            {"prefix_len": r.prefix_len, "n_terms": r.n_terms, "note": r.note}
            for r in count_uat_terms(net.spec)
        ]
    except SpecError as exc:
        out["term_counts"] = {"error": str(exc)}
    try:
        out["receptive_field"] = receptive_field(net.spec)
    except SpecError as exc:
        out["receptive_field"] = {"error": str(exc)}
    if lora is not None:
        x = random_input(net.spec, seed=net.spec.seed + 1)
        out["lora"] = lora_equivalence_check(net, lora, x)
    if prune_mask is not None:
        inputs = (random_input(net.spec, net.spec.seed + 1 + t) for t in range(impact_inputs))
        out["prune"] = prune_impact(net, prune_mask, inputs, pruned=pruned)
    return out


def build_report(net: MaterializedNetwork, trials: int, tol: float) -> dict:
    """The full report document (plain dict of JSON-safe values)."""
    return {
        "tool": {"name": "uatcv", "version": __version__},
        "element_cap": element_cap(),
        "description": json.loads(emit_spec(net.spec)),
        "shapes": [list(list(d) for d in s.dims) for s in net.shapes],
        "layers": layer_section(net),
        "verification": verify_network(net, trials=trials, tol=tol),
        "expansion": expansion_section(net),
        "analysis": analysis_section(net),
    }


def report_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _latex_escape(text: str) -> str:
    return text.replace("_", r"\_").replace("{", r"\{").replace("}", r"\}")


def report_latex(doc: dict) -> str:
    """LaTeX sidecar: the canonical form plus the classification table."""
    lines = [
        r"% generated by uatcv " + __version__,
        r"\section*{Canonical form}",
    ]
    exp = doc.get("expansion", {})
    if not exp.get("expandable"):
        lines.append(r"Not expandable: " + _latex_escape(str(exp.get("reason", ""))))
        return "\n".join(lines) + "\n"
    lines.append(r"\begin{equation*}")
    lines.append("G(\\mathbf{x}'_i) = " + exp["latex"])
    lines.append(r"\end{equation*}")
    lines.append(r"\section*{Parameter classification}")
    lines.append(r"\begin{tabular}{llll}")
    lines.append(r"atom & kind & dependence & provenance \\ \hline")
    for row in exp["classification"]:
        prov = row["provenance"]
        prov_tex = r"\texttt{" + _latex_escape(prov) + "}" if prov != "primitive" else "primitive"
        lines.append(
            r"\texttt{%s} & %s & %s & %s \\"
            % (_latex_escape(row["display"]), row["kind"], row["dependence"], prov_tex)
        )
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"
