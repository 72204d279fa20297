"""Spans around the calls into each uatcv module, recorded from outside.

The tracer wraps each public function wherever a caller has it bound: the
defining module, and every module that imported it by name (``report``
binds ``check_layer`` and ``classify_params`` this way, ``symbolic`` binds
``effective_matrix_from_projections``).  Each call records a span (name,
start, end, parent) in memory; ``round_summary`` subtracts the child
spans from each span's duration to give its self time.
Two hooks count the work of the lowering layer:

* every lowering call (``lower_*``, and netspec's dense residual stages)
  records which distinct layer it lowered (weights or pooling window plus
  input shape) and that layer's dense W' bytes and structural cells,
  computed from the returned array sizes;
* every attention effective-matrix call records which (block, input) pair
  it was for.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# span name -> the functions it covers, as "module.attribute[.method]"
SPANS = {
    "netspec.parse_spec": ["netspec.parse_spec"],
    "netspec.materialize": ["netspec.materialize"],
    "netspec.check_layer": ["netspec.check_layer"],
    "netspec.apply_layer": ["netspec.apply_layer"],
    "netspec.verify_network": ["netspec.verify_network"],
    "netspec.to_expandable": ["netspec.to_expandable"],
    "reference.direct": [
        "reference.conv2d_direct", "reference.conv3d_direct", "reference.mean_pool_direct",
        "reference.mha_direct", "reference.ffn_direct", "reference.transformer_block_direct",
    ],
    "lowering.lower": [
        "lowering.lower_conv2d_1_O", "lowering.lower_conv2d_I_O", "lowering.lower_conv3d",
        "lowering.lower_mean_pool", "lowering.lower_ffn",
        # netspec's lowering of a residual block into two dense stages
        "netspec._dense_form",
    ],
    "lowering.evaluate": ["lowering.LoweredForm.evaluate"],
    "lowering.sharing_counts": ["lowering.WeightIndexMap.sharing_counts"],
    "lowering.mha_effective": ["lowering.effective_matrix_from_projections"],
    "symbolic.build": [
        "symbolic.dense_chain", "symbolic.build_vgg_chain", "symbolic.build_residual_chain",
        "symbolic.build_residual_block", "symbolic.build_transformer_chain",
    ],
    "symbolic.classify": ["symbolic.classify_params"],
    "symbolic.eval_canonical": ["symbolic.eval_canonical"],
    "symbolic.emit": ["symbolic.emit"],
    "analysis.count_uat_terms": ["analysis.count_uat_terms"],
    "analysis.lora_check": ["analysis.lora_equivalence_check"],
    "analysis.prune_impact": ["analysis.prune_impact"],
    "report.layer_section": ["report.layer_section"],
    "report.expansion_section": ["report.expansion_section"],
    "report.analysis_section": ["report.analysis_section"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round: int


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _lowered_layer(fn: str, args, result) -> tuple[tuple, int, int]:
    """(identity of the lowered layer, dense W' bytes, structural cells).

    W' depends on the weights and the input shape, never on the input
    values, so the identity leaves the values out.
    """
    if fn == "_dense_form":  # a residual block's dense stage: (matrix, bias, x)
        ident = ("dense", _digest(args[0]))
    elif fn == "lower_mean_pool":  # (x, PoolParams)
        ident = ("pool", args[0].shape.extents, args[1].window, args[1].stride)
    elif fn == "lower_ffn":  # (tokens, AttnParams, sigma)
        ident = ("ffn", np.shape(args[0]), _digest(args[1].w_2, args[1].w_3))
    else:  # convolutions: (x, ConvParams, kernel tensor)
        x, p, w = args[:3]
        ident = ("conv", x.shape.extents, p.stride, p.padding, _digest(w.data))
    forms = result if isinstance(result, tuple) else (result,)
    return ident, sum(f.weight_matrix.nbytes for f in forms), sum(f.nnz for f in forms)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    round: int = 0
    lowered: list[tuple[int, tuple, int, int]] = field(default_factory=list)
    mha_inputs: list[tuple[int, str]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        hook = {"lowering.lower": self._on_lower, "lowering.mha_effective": self._on_mha}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.round)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(fn.__name__, args, result)
            return result

        return traced

    def _on_lower(self, fn: str, args, result) -> None:
        self.lowered.append((self.round, *_lowered_layer(fn, args, result)))

    def _on_mha(self, fn: str, args, result) -> None:
        x, w_q = args[0], args[1]
        self.mha_inputs.append((self.round, _digest(x, w_q)))

    def install(self) -> None:
        """Wrap every function in SPANS at each place it is bound."""
        modules = [m for n, m in sys.modules.items() if n == "uatcv" or n.startswith("uatcv.")]
        for name, targets in SPANS.items():
            for target in targets:
                module, *path = target.split(".")
                if len(path) == 2:  # a method: patch the class once
                    owner = getattr(sys.modules[f"uatcv.{module}"], path[0])
                    self._patch(owner, path[1], self._wrap(name, getattr(owner, path[1])))
                    continue
                original = getattr(sys.modules[f"uatcv.{module}"], path[0])
                wrapped = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def round_summary(self, r: int) -> dict[str, float]:
        """Self seconds and call count per span name, and the lowering
        counters, over the spans of round ``r``."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.round == r]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = 0.0
            out[f"{name}_calls"] = 0
        for i, s in spans:
            out[f"{s.name}_s"] += (s.end - s.start) - child_time.get(i, 0.0)
            out[f"{s.name}_calls"] += 1
        layers = {ident: (nbytes, cells) for rr, ident, nbytes, cells in self.lowered if rr == r}
        out["lowering.distinct_layers"] = len(layers)
        out["lowering.wprime_dense_bytes"] = sum(b for b, _ in layers.values())
        out["lowering.wprime_structural_cells"] = sum(c for _, c in layers.values())
        out["lowering.mha_distinct_block_inputs"] = len({k for rr, k in self.mha_inputs if rr == r})
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, round."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "round": s.round}) + "\n")
