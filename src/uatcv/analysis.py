"""Desk-scale analyses over materialized networks.

Covers the growth measurements (canonical-form term counts and receptive
fields per depth) and the two parameter-editing studies: low-rank updates
applied layer-wise, and structured channel pruning, both verified through
the lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import RankError, ShapeError, SpecError, ValidationError
from .netspec import (
    MaterializedNetwork,
    NetworkSpec,
    assemble,
    expansion_family,
    forward,
    forward_stack,
    infer_shapes,
)
from .tensor import Tensor, element_cap


# ---------------------------------------------------------------------------
# canonical term growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermCountRow:
    prefix_len: int
    n_terms: int | None
    note: str = ""


def count_uat_terms(net: NetworkSpec) -> list[TermCountRow]:
    """Number of sigma terms in the canonical form of every network prefix,
    from ``netspec.expansion_family`` (no weight drawn, no form built).
    Prefixes that do not form an expandable network on their own (e.g. a
    conv stack cut mid-pooling) get ``n_terms=None`` with the reason.
    """
    rows = []
    for k in range(1, len(net.layers) + 1):
        try:
            _, n_terms = expansion_family(replace(net, layers=net.layers[:k]))
            rows.append(TermCountRow(prefix_len=k, n_terms=n_terms))
        except SpecError as exc:
            rows.append(TermCountRow(prefix_len=k, n_terms=None, note=str(exc)))
    if not rows:
        raise SpecError("empty networks cannot be expanded")
    return rows


# ---------------------------------------------------------------------------
# receptive field
# ---------------------------------------------------------------------------


def receptive_field(net: NetworkSpec) -> list[dict[str, int]]:
    """Receptive-field extent per spatial axis after each layer.

    Uses the standard recurrence rf += (k - 1) * jump; jump *= stride,
    starting from rf = 1, jump = 1.  Only conv/pool stacks are meaningful
    here; attention mixes every token, so the notion does not apply.
    """
    axes: tuple[str, ...] | None = None
    rf: dict[str, int] = {}
    jump: dict[str, int] = {}
    out = []
    for i, spec in enumerate(net.layers):
        window = spec.receptive_window()
        if window is None:
            raise SpecError(
                f"layer {i} ({spec.kind}): receptive field is defined for conv/pool stacks only"
            )
        layer_axes, kernel, stride = window
        extents = dict(zip(layer_axes, kernel))
        if axes is None:
            axes = layer_axes
            rf = {a: 1 for a in axes}
            jump = {a: 1 for a in axes}
        elif layer_axes != axes:
            raise SpecError(f"layer {i}: spatial rank changes mid-network")
        for a in axes:
            rf[a] = rf[a] + (extents[a] - 1) * jump[a]
            jump[a] = jump[a] * stride
        out.append(dict(rf))
    if not out:
        raise SpecError("no layers")
    return out


# ---------------------------------------------------------------------------
# low-rank updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoraDelta:
    """Low-rank update W <- W + b @ a for one layer.

    For conv layers the kernel is treated as its (C_O) x (C_I*kh*kw[*kd])
    reshaping; ``target`` picks the matrix for attention (w_q..w_o, w_2,
    w_3) and residual (w_1, w_2) layers.
    """

    layer: int
    a: np.ndarray  # (r, n)
    b: np.ndarray  # (m, r)
    target: str = "w_2"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError("factors must be matrices")
        if a.shape[0] != b.shape[1]:
            raise ShapeError(f"factor ranks disagree: a is {a.shape}, b is {b.shape}")
        r = a.shape[0]
        if r < 1:
            raise RankError("rank must be >= 1")
        if r > min(b.shape[0], a.shape[1]):
            raise RankError(
                f"rank {r} exceeds min(target dims) = {min(b.shape[0], a.shape[1])}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    def update(self) -> np.ndarray:
        return self.b @ self.a


def apply_lora(net: MaterializedNetwork, delta: LoraDelta) -> MaterializedNetwork:
    """A copy of the network with the targeted matrix replaced by W + BA.

    The copy is assembled anew, the target layer's weights record replaced
    by its kind's ``with_lora_matrix``.  Only the targeted matrix is a new
    array; every other array, the target layer's included, is the source's
    own, shared.  All are read-only, so neither network can change the other.
    """
    if not 0 <= delta.layer < len(net.layers):
        raise SpecError(f"no layer {delta.layer} in a {len(net.layers)}-layer network")
    rt = net.layers[delta.layer]
    current = rt.spec.lora_matrix(rt, delta.target)
    update = delta.update()
    if update.shape != current.shape:
        raise ShapeError(
            f"update shape {update.shape} does not match target {current.shape}"
        )
    patched = current + update
    patched.flags.writeable = False
    weights = [layer.weights for layer in net.layers]
    weights[delta.layer] = rt.spec.with_lora_matrix(rt, delta.target, patched)
    return assemble(net.spec, net.shapes, weights)


def lora_equivalence_check(net: MaterializedNetwork, delta: LoraDelta, x: Tensor) -> dict:
    """Report a low-rank update through the lowering.

    ``lowering_linearity_max_abs`` (a conv kind's ``lora_checks``) compares
    the patched kernel with the original plus the update on every element
    W' places; ``untouched_layers_identical`` tests that every other layer
    holds the same weights-record object.  Neither tests the lowering:
    ``apply_lora`` stores ``current + update``, the same additions, and
    shares untouched records, so they read 0.0 and true by construction and
    are kept as pinned values.  ``output_max_abs_change`` is the patched
    network's output against the original's.
    """
    patched = apply_lora(net, delta)
    rt = net.layers[delta.layer]
    report = {"layer": delta.layer, "target": delta.target, "rank": delta.rank,
              **rt.spec.lora_checks(rt, patched.layers[delta.layer], delta.update())}
    report["untouched_layers_identical"] = all(
        a.weights is b.weights for a, b in zip(net.layers, patched.layers) if a.index != delta.layer
    )

    out_base = forward(net, x)[-1].flat
    out_patched = forward(patched, x)[-1].flat
    report["output_max_abs_change"] = float(np.max(np.abs(out_patched - out_base)))
    return report


# ---------------------------------------------------------------------------
# structured pruning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneMask:
    """Output channels to remove from one conv layer, either listed outright
    or selected by a kernel-norm threshold."""

    layer: int
    channels: tuple[int, ...] | None = None
    threshold: float | None = None

    def __post_init__(self):
        if (self.channels is None) == (self.threshold is None):
            raise SpecError("give exactly one of channels / threshold")
        if self.threshold is not None and not np.isfinite(self.threshold):
            raise SpecError(f"threshold must be finite, got {self.threshold}")
        if self.channels is not None:
            object.__setattr__(self, "channels", tuple(sorted(set(int(c) for c in self.channels))))


def resolve_mask(net: MaterializedNetwork, mask: PruneMask) -> tuple[int, ...]:
    """The concrete channel indices a mask removes."""
    if not 0 <= mask.layer < len(net.layers):
        raise SpecError(f"no layer {mask.layer} in a {len(net.layers)}-layer network")
    norms = channel_norms(net, mask.layer)  # a kind that cannot be pruned refuses here
    n_out = net.layers[mask.layer].out_shape.extent("C_I")
    if mask.channels is not None:
        channels = mask.channels
        if any(c < 0 or c >= n_out for c in channels):
            raise SpecError(f"channel indices out of range 0..{n_out - 1}: {channels}")
    else:
        channels = tuple(int(c) for c in np.flatnonzero(norms < mask.threshold))
    if len(channels) >= n_out:
        raise SpecError("pruning every channel leaves nothing")
    return channels


def channel_norms(net: MaterializedNetwork, layer: int) -> np.ndarray:
    """L2 norm of each output channel's kernel in a conv layer."""
    rt = net.layers[layer]
    return rt.spec.channel_norms(rt)


def prune(net: MaterializedNetwork, mask: PruneMask) -> MaterializedNetwork:
    """Remove the masked output channels and shrink the first downstream conv
    layer's matching input channels (pooling passes channels through).

    The result is a new spec, with the network assembled anew from it, its
    shapes and the layers' weights records.  The pruned layer's kernel and
    bias, and the downstream conv's kernel, are new arrays holding the kept
    channels; every other array is the source's own object, shared.
    """
    channels = resolve_mask(net, mask)
    rt = net.layers[mask.layer]
    keep = [c for c in range(rt.out_shape.extent("C_I")) if c not in channels]
    specs, weights = list(net.spec.layers), [layer.weights for layer in net.layers]
    specs[mask.layer], weights[mask.layer] = rt.spec.keep_channels(rt, keep, axis=0)

    # shrink the first layer downstream that consumes these channels
    for later in net.layers[mask.layer + 1 :]:
        if (followed := later.spec.follow_pruning(later, keep)) is not None:
            specs[later.index], weights[later.index] = followed
            break

    spec = replace(net.spec, layers=tuple(specs))
    return assemble(spec, infer_shapes(spec), weights)


def prune_impact(
    net: MaterializedNetwork,
    mask: PruneMask,
    inputs: Iterable[Tensor],
    pruned: MaterializedNetwork | None = None,
) -> dict:
    """Output deviation between the original and pruned networks.

    ``pruned`` is ``prune(net, mask)`` when the caller has already built it
    (the CLI does, to check the mask); otherwise it is built here.  The
    inputs, any iterable, are drawn one stack at a time: a stack holds as
    many inputs as have outputs that together fit the element cap, so what
    is held at once does not grow with their number.  Each network runs
    each stack through :func:`forward_stack`.  When the channel change
    survives to the network output (no downstream conv re-mixes), the
    comparison restricts the original output to the surviving channels.
    """
    channels = resolve_mask(net, mask)
    inputs = iter(inputs)
    step = max(1, element_cap() // net.shapes[-1].size)
    stack = list(islice(inputs, step))
    if not stack:
        raise SpecError("prune impact needs at least one input")
    if pruned is None:
        pruned = prune(net, mask)

    devs = []
    while stack:
        try:
            outputs = zip(forward_stack(net, stack), forward_stack(pruned, stack))
        except ValidationError:
            # name the failure one input at a time meets first: the inputs in
            # order, the original network before the pruned one on each
            for x in stack:
                forward(net, x)
                forward(pruned, x)
            raise
        for a, b in outputs:
            if a.shape != b.shape:
                a = np.delete(a, channels, axis=0)
            devs.append(float(np.max(np.abs(a - b))))
        stack = list(islice(inputs, step))
    return {
        "layer": mask.layer,
        "pruned_channels": list(channels),
        "inputs": len(devs),
        "max_deviation": max(devs),
        "mean_deviation": float(np.mean(devs)),
        "per_input": devs,
    }
