"""Network description files: schema, validation, weights, and execution.

A description is UTF-8 JSON::

    {
      "input_shape": [["C_I", 1], ["H", 6], ["W", 6]],
      "seed": 7,
      "activation": "relu",
      "layers": [
        {"kind": "conv2d", "out_channels": 2, "kernel": [2, 2],
         "stride": 1, "padding": 0, "bias": true},
        ...
      ]
    }

Layer kinds and their fields (stride defaults to 1, padding to 0,
bias to false):

* ``conv2d``    out_channels, kernel [kh, kw], stride, padding, bias
* ``conv3d``    out_channels, kernel [kh, kw, kd], stride, padding, bias
* ``mean_pool`` window [kh, kw], stride
* ``residual_block`` hidden_dim (optional; defaults to the flat input size)
* ``patchify``  patch [ph, pw]
* ``mha``       heads
* ``ffn``       hidden_dim
* ``transformer_block`` heads, hidden_dim

Convolutions also accept ``in_channels``, an optional check against the
shape chain.  Only fields whose default is null may be given as null:
``in_channels`` of a convolution and ``hidden_dim`` of a residual block.

All weights are drawn uniformly from [-1, 1) out of a single splitmix
stream seeded with ``seed``, layer by layer in declaration order (kernel
then bias for convolutions; w_1, b_1, w_2, b_2 for residual blocks;
q, k, v, o projections then the FFN stages for attention layers), so a
description plus its seed pins every number in the network (one read per
layer).  Every weight array counts against the element cap, like every
stage shape: an array over the cap is a ValidationError naming the layer,
raised before any of the layer's arrays is allocated.

Execution conventions: convolutions apply the network activation after the
layer; pooling and patchify are linear; residual, FFN, and transformer
blocks use the activation only inside their own structure.  All stage
values are :class:`~uatcv.tensor.Tensor`; token matrices use axes
(token, feature).  Each kind has one direct rule, ``apply``, which runs a
stack of stage values: an array whose leading axis holds B inputs ahead of
one value's extents.  :func:`apply_layer` and :func:`forward` run it on a
stack of one, and :func:`forward_stack` runs many inputs at once.  Every row
of a stack is bitwise its input run alone: a rule broadcasts each input's
own matrix products over the stack and never merges the inputs into one
product, whose blocking would move last bits.  Every array a rule allocates
is checked against the element cap where it is allocated, at B times one
value's leading extent, for a stack of any size.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ParseError,
    RangeError,
    ShapeError,
    SpecError,
    ValidationError,
)
from .lowering import (
    LinearMap,
    LoweredForm,
    dense_stage,
    effective_matrix_from_projections,
    lower_conv2d_I_O,
    lower_conv3d,
    lower_ffn,
    lower_mean_pool,
    stage_vector,
)
from .reference import (
    ACTIVATIONS,
    AttnParams,
    ConvParams,
    PoolParams,
    activation,
    conv2d_direct,
    conv3d_direct,
    ffn_direct,
    mean_pool_direct,
    mha_direct,
    patchify,
    transformer_block_direct,
    unpatchify,
)
from .tensor import (
    AXIS_NAMES, SplitMix64, Tensor, TensorShape, check_cap, check_finite, element_cap,
    flatten, random_uniform, zeros,
)
from .symbolic import (
    bind,
    build_residual_chain,
    build_transformer_chain,
    dense_chain,
    transformer_block_values,
)


# ---------------------------------------------------------------------------
# layer specs
# ---------------------------------------------------------------------------


class LayerSpec:
    """Base of the layer kinds; each kind's class holds all of its rules:
    ``validate``, ``infer`` (output shape), ``draw`` (the kind's weights
    record ``rt.weights``, all its arrays from one ``draw(*shapes)``; None
    for pooling and patchify), and the rules on a materialized layer ``rt`` at
    a stage value, each ``(rt, value)`` and reading the network's activation
    from ``rt.activation``: ``apply`` (direct computation, on a stack of
    values ``(B, *in extents)``, giving ``(B, *out extents)``), ``stages``
    (matrix-vector stages) and ``check`` (by default ``lowered_output``
    against ``apply``), run through :func:`apply_layer`, :func:`lower_layer`
    and :func:`check_layer`.  ``lowered_output`` is by default the last
    stage's output; a residual or transformer block adds its skip, and
    attention, which has no stages, states its own.  ``expansion_values(rt)``
    gives the values its atoms take in the expanded form.  ``lora_matrix``
    reads one of ``lora_targets``, and ``with_lora_matrix`` returns the
    weights record with it replaced, and ``lora_checks(rt, patched, update)``
    gives the kind's entries in a LoRA report; ``channel_norms`` gives each
    output channel's L2 norm, which pruning ranks, and ``keep_channels`` and
    ``follow_pruning`` return a pruned layer's new ``(spec, weights)``.  No
    rule changes a layer.  Defaults here serve the kinds that lack a part or
    refuse an analysis."""

    kind: ClassVar[str]
    note: ClassVar[str] = ""  # the report's note on what the check compares
    lora_targets: ClassVar[tuple[str, ...]] = ()

    def check(self, rt: RtLayer, value: Tensor) -> LayerCheck:
        """The lowered output at ``value`` against the direct one, ``apply``."""
        forms = self.stages(rt, value)
        out = _apply_one(rt, value)
        diff = np.max(np.abs(self.lowered_output(rt, value, forms) - out.flat))
        return LayerCheck(rt.index, float(diff), forms, out, self.note)

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        """The last stage's output."""
        return forms[-1].evaluate()

    def infer(self, shape: TensorShape, where: str, producer: str) -> TensorShape:
        return shape

    def draw(self, in_shape: TensorShape, draw: Callable[..., np.ndarray]) -> object:
        return None

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        return []

    def expansion_values(self, rt: RtLayer) -> tuple:
        """The values of the layer's atoms in its chain's ``block_atoms``
        order; by default the map ``W'^T`` of its one stage lowered at zero
        (W' does not depend on x'), then that stage's bias if it has one."""
        (form,) = lower_layer(rt, zeros(rt.in_shape))
        return (form.linear_map(),) if form.bias is None else (form.linear_map(), form.bias)

    def receptive_window(self) -> tuple[tuple[str, ...], tuple[int, ...], int] | None:
        """Spatial axes, extents and stride of the receptive-field window."""
        return None

    def lora_matrix(self, rt: RtLayer, target: str) -> np.ndarray:
        """The matrix a low-rank update of ``target`` adds to."""
        if not self.lora_targets:
            raise ValidationError(f"layer {rt.index} ({self.kind}) has no adjustable matrix")
        if target not in self.lora_targets:  # a command-line value
            raise ValidationError(
                f"layer {rt.index} ({self.kind}) has no LoRA target {target!r} "
                f"(have {self.lora_targets})"
            )
        return getattr(rt.weights, target)

    def with_lora_matrix(self, rt: RtLayer, target: str, matrix: np.ndarray) -> object:
        """The layer's weights record with ``target`` replaced by ``matrix``."""
        return replace(rt.weights, **{target: matrix})

    def lora_checks(self, rt: RtLayer, patched: RtLayer, update: np.ndarray) -> dict:
        return {}

    def channel_norms(self, rt: RtLayer) -> np.ndarray:
        raise SpecError(f"layer {rt.index} ({self.kind}): pruning targets conv layers")

    def follow_pruning(self, rt: RtLayer, keep: list[int]) -> tuple[LayerSpec, object] | None:
        """The layer's ``(spec, weights)`` once it absorbs an upstream pruning
        to ``keep``, or None when the channels pass through it."""
        raise SpecError(
            f"layer {rt.index} ({self.kind}) downstream of the pruned layer "
            "cannot absorb a channel change"
        )


@dataclass(frozen=True)
class _ConvSpec(LayerSpec):
    """Shared by conv2d and conv3d, keyed on the number of spatial axes."""

    spatial: ClassVar[tuple[str, ...]]

    out_channels: int
    kernel: tuple[int, ...]
    stride: int = 1
    padding: int = 0
    bias: bool = False
    in_channels: int | None = None  # optional assertion against the shape chain

    def validate(self, where: str) -> None:
        want = len(self.spatial)
        if len(self.kernel) != want:
            raise ValidationError(f"{where}: kernel needs {want} extents, got {self.kernel}")
        if any(k < 1 for k in self.kernel):
            raise ValidationError(f"{where}: kernel extents must be >= 1")
        if self.out_channels < 1:
            raise ValidationError(f"{where}: out_channels must be >= 1")
        if self.in_channels is not None and self.in_channels < 1:
            raise ValidationError(f"{where}: in_channels must be >= 1")
        if self.stride < 1 or self.padding < 0:
            raise ValidationError(f"{where}: stride must be >= 1 and padding >= 0")

    def _params(self, in_channels: int, bias: np.ndarray | None = None) -> ConvParams:
        """The geometry the spec states; the one place a ConvParams is built."""
        return ConvParams(
            in_channels, self.out_channels, self.kernel, self.stride, self.padding, bias
        )

    def _weights(self, kernel: np.ndarray, bias: np.ndarray | None = None) -> ConvWeights:
        axes = ("C_O", "C_I", *self.spatial)
        tensor = Tensor(TensorShape(zip(axes, kernel.shape)), kernel)
        return ConvWeights(self._params(kernel.shape[1], bias), tensor)

    def _direct(self, rt: RtLayer, value: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """The pre-activation output of one value or of a stack of them."""
        direct = conv2d_direct if len(self.spatial) == 2 else conv3d_direct
        return direct(value, *rt.weights)

    def infer(self, shape: TensorShape, where: str, producer: str) -> TensorShape:
        want = ("C_I", *self.spatial)
        if shape.axes != want:
            raise ValidationError(
                f"{where}: needs input axes {want}, previous layer produced {shape}"
            )
        if self.in_channels is not None and self.in_channels != shape.extent("C_I"):
            raise ValidationError(
                f"{where}: declares in_channels={self.in_channels} but {producer} "
                f"produces {shape.extent('C_I')} channels"
            )
        outs = self._params(shape.extent("C_I")).out_extents(shape.extents[1:])
        return TensorShape([("C_I", self.out_channels), *zip(self.spatial, outs)])

    def draw(self, in_shape: TensorShape, draw: Callable[..., list]) -> ConvWeights:
        co, bias = self.out_channels, [(self.out_channels,)] if self.bias else []
        return self._weights(*draw((co, in_shape.extent("C_I"), *self.kernel), *bias))

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        return activation(rt.activation)(self._direct(rt, xs))

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        lower = lower_conv2d_I_O if len(self.spatial) == 2 else lower_conv3d
        return [lower(value, *rt.weights)]

    def check(self, rt: RtLayer, value: Tensor) -> LayerCheck:
        (form,) = self.stages(rt, value)
        direct = self._direct(rt, value)
        diff = np.max(np.abs(form.evaluate() - stage_vector(direct)))
        out = Tensor(rt.out_shape, activation(rt.activation)(direct.data))  # as apply computes it
        return LayerCheck(rt.index, float(diff), [form], out)

    def receptive_window(self) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        return self.spatial, self.kernel, self.stride

    def lora_matrix(self, rt: RtLayer, target: str) -> np.ndarray:
        # the kernel as its (C_O) x (C_I*kh*kw[*kd]) reshaping; target unused
        w = rt.weights.kernel.data
        return w.reshape(w.shape[0], -1)

    def with_lora_matrix(self, rt: RtLayer, target: str, matrix: np.ndarray) -> ConvWeights:
        kernel = rt.weights.kernel
        return rt.weights._replace(kernel=Tensor(kernel.shape, matrix.reshape(kernel.data.shape)))

    def lora_checks(self, rt: RtLayer, patched: RtLayer, update: np.ndarray) -> dict:
        # one lowering at zero finds the kernel offsets W' places, the same in every channel pair
        (form,) = lower_layer(rt, zeros(rt.in_shape))
        placed = np.tile(form.weight_index_map.offset_counts > 0, rt.in_shape.extent("C_I"))
        base, new = self.lora_matrix(rt, "kernel"), self.lora_matrix(patched, "kernel")
        lin = np.max(np.abs(new - (base + update))[:, placed], initial=0.0)
        return {"lowering_linearity_max_abs": float(lin)}

    def channel_norms(self, rt: RtLayer) -> np.ndarray:
        return np.sqrt((self.lora_matrix(rt, "kernel") ** 2).sum(axis=1))

    def keep_channels(self, rt: RtLayer, keep: list[int], axis: int) -> tuple:
        """The spec and weights that keep only the ``keep`` output (axis 0)
        or input (axis 1) channels, a declared ``in_channels`` included."""
        params, kernel = rt.weights
        bias, spec = params.bias, self
        if axis == 0:
            spec = replace(self, out_channels=len(keep))
            if bias is not None:
                bias = bias[keep]
                bias.flags.writeable = False  # read-only like every drawn weight
        elif self.in_channels is not None:
            spec = replace(self, in_channels=len(keep))
        return spec, spec._weights(kernel.data.take(keep, axis=axis), bias)

    def follow_pruning(self, rt: RtLayer, keep: list[int]) -> tuple:
        return self.keep_channels(rt, keep, axis=1)


@dataclass(frozen=True)
class Conv2dSpec(_ConvSpec):
    kind = "conv2d"
    spatial = ("H", "W")


@dataclass(frozen=True)
class Conv3dSpec(_ConvSpec):
    kind = "conv3d"
    spatial = ("H", "W", "D")


@dataclass(frozen=True)
class MeanPoolSpec(LayerSpec):
    kind = "mean_pool"
    window: tuple[int, int]
    stride: int = 1

    def validate(self, where: str) -> None:
        if len(self.window) != 2 or any(k < 1 for k in self.window):
            raise ValidationError(f"{where}: window needs 2 extents >= 1, got {self.window}")
        if self.stride < 1:
            raise ValidationError(f"{where}: stride must be >= 1")

    def infer(self, shape: TensorShape, where: str, producer: str) -> TensorShape:
        if shape.axes != ("C_I", "H", "W"):
            raise ValidationError(
                f"{where}: needs input axes (C_I, H, W), previous layer produced {shape}"
            )
        h_out, w_out = self.params.out_extents(shape.extents[1:])
        return TensorShape([("C_I", shape.extent("C_I")), ("H", h_out), ("W", w_out)])

    @property
    def params(self) -> PoolParams:
        return PoolParams(window=self.window, stride=self.stride)

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        return mean_pool_direct(xs, self.params)

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        return [lower_mean_pool(value, self.params)]

    def receptive_window(self) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        return ("H", "W"), self.window, self.stride

    def follow_pruning(self, rt: RtLayer, keep: list[int]) -> None:
        return None  # pooling passes channels through


@dataclass(frozen=True)
class ResidualBlockSpec(LayerSpec):
    kind = "residual_block"
    note = "dense stages"
    lora_targets = ("w_1", "w_2")
    hidden_dim: int | None = None

    def validate(self, where: str) -> None:
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValidationError(f"{where}: hidden_dim must be >= 1")

    def draw(self, in_shape: TensorShape, draw: Callable[..., list]) -> ResidualWeights:
        dim = in_shape.size
        hidden = self.hidden_dim if self.hidden_dim is not None else dim
        return ResidualWeights(*draw((hidden, dim), (hidden,), (dim, hidden), (dim,)))

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        act, r = activation(rt.activation), rt.weights
        check_cap("hidden layer", (len(xs) * len(r.b_1),))
        v = xs.reshape(len(xs), -1)
        # each input's own (W, v) product, as one input computes it: V @ W.T
        # would be one product over the stack, whose blocking moves last bits
        h = act(np.matmul(r.w_1, v[..., None])[..., 0] + r.b_1)
        return (v + np.matmul(r.w_2, h[..., None])[..., 0] + r.b_2).reshape(xs.shape)

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        act = activation(rt.activation)
        r = rt.weights
        stage1 = _dense_form(r.w_1, r.b_1, value.flat)
        stage2 = _dense_form(r.w_2, r.b_2, act(stage1.evaluate()))
        return [stage1, stage2]

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        return value.flat + forms[1].evaluate()

    def expansion_values(self, rt: RtLayer) -> tuple:
        r = rt.weights
        return r.w_1, r.b_1, r.w_2, r.b_2


@dataclass(frozen=True)
class PatchifySpec(LayerSpec):
    kind = "patchify"
    patch: tuple[int, int]

    def validate(self, where: str) -> None:
        if len(self.patch) != 2 or any(k < 1 for k in self.patch):
            raise ValidationError(f"{where}: patch needs 2 extents >= 1, got {self.patch}")

    def infer(self, shape: TensorShape, where: str, producer: str) -> TensorShape:
        if shape.axes not in (("H", "W"), ("H", "W", "C_I")):
            raise ValidationError(
                f"{where}: needs input axes (H, W[, C_I]), previous layer produced {shape}"
            )
        ph, pw = self.patch
        h, w = shape.extent("H"), shape.extent("W")
        if h % ph != 0 or w % pw != 0:
            raise ValidationError(f"{where}: patch {self.patch} does not divide ({h}, {w})")
        c = shape.extent("C_I") if "C_I" in shape.axes else 1
        return TensorShape([("token", (h // ph) * (w // pw)), ("feature", ph * pw * c)])

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        h, w = rt.in_shape.extent("H"), rt.in_shape.extent("W")
        return patchify(xs.reshape(len(xs), h, w, -1), self.patch)

    def check(self, rt: RtLayer, value: Tensor) -> LayerCheck:
        out = _apply_one(rt, value)
        back = unpatchify(out.data, value.shape, self.patch)
        diff = np.max(np.abs(back.data - value.data))
        return LayerCheck(rt.index, float(diff), [], out, "reassembly")


class _TokenSpec(LayerSpec):
    """Shared by the kinds that act on a (token, feature) matrix: attention
    when the kind has ``heads``, a row-wise FFN when it has ``hidden_dim``.
    Parts a kind lacks are None in its AttnParams and are no LoRA targets."""

    heads: int | None
    hidden_dim: int | None

    def validate(self, where: str) -> None:
        if self.heads is not None and self.heads < 1:
            raise ValidationError(f"{where}: heads must be >= 1")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValidationError(f"{where}: hidden_dim must be >= 1")

    def infer(self, shape: TensorShape, where: str, producer: str) -> TensorShape:
        if shape.axes != ("token", "feature"):
            raise ValidationError(
                f"{where}: needs input axes (token, feature), previous layer produced {shape}"
            )
        d = shape.extent("feature")
        if self.heads is not None and d % self.heads != 0:
            raise ValidationError(f"{where}: heads {self.heads} must divide feature dim {d}")
        return shape

    @property
    def lora_targets(self) -> tuple[str, ...]:
        return (("w_q", "w_k", "w_v", "w_o") if self.heads is not None else ()) + (
            ("w_2", "w_3") if self.hidden_dim is not None else ()
        )

    def draw(self, in_shape: TensorShape, draw: Callable[..., list]) -> AttnParams:
        d, h = in_shape.extent("feature"), self.hidden_dim
        shapes = {}
        if self.heads is not None:
            shapes.update(w_q=(d, d), w_k=(d, d), w_v=(d, d), w_o=(d, d))
        if h is not None:
            shapes.update(w_2=(d, h), w_3=(h, d), b_2=(h,), b_3=(d,))
        parts = dict(zip(shapes, draw(*shapes.values())))
        return AttnParams(model_dim=d, heads=self.heads or 1, **parts)

    def _attended(self, rt: RtLayer, value: Tensor) -> np.ndarray:
        """``M(X) X`` flattened, M the effective attention matrix at the tokens X."""
        x, p = _tokens(value), rt.weights
        m = effective_matrix_from_projections(x, p.w_q, p.w_k, p.w_v, p.w_o, p.heads)
        return m @ x.reshape(-1)


@dataclass(frozen=True)
class MhaSpec(_TokenSpec):
    kind = "mha"
    note = "effective matrix"
    hidden_dim: ClassVar[None] = None
    heads: int

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        return mha_direct(xs, rt.weights)

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        return self._attended(rt, value)


@dataclass(frozen=True)
class FfnSpec(_TokenSpec):
    kind = "ffn"
    heads: ClassVar[None] = None
    hidden_dim: int

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        return ffn_direct(xs, rt.weights, rt.activation)

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        return list(lower_ffn(_tokens(value), rt.weights, rt.activation))


@dataclass(frozen=True)
class TransformerBlockSpec(_TokenSpec):
    kind = "transformer_block"
    note = "mha+ffn"
    heads: int
    hidden_dim: int

    def apply(self, rt: RtLayer, xs: np.ndarray) -> np.ndarray:
        return transformer_block_direct(xs, rt.weights, rt.activation)

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        # the FFN stages at h = M(X) X, with M the effective attention matrix
        h = self._attended(rt, value).reshape(value.shape.extents)
        return list(lower_ffn(h, rt.weights, rt.activation))

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        return forms[0].input_vector + forms[1].evaluate()  # h + FFN(h)

    def expansion_values(self, rt: RtLayer) -> tuple:
        return transformer_block_values(rt.weights, rt.in_shape.extent("token"))


_LAYER_KINDS: dict[str, type[LayerSpec]] = {
    cls.kind: cls
    for cls in (
        Conv2dSpec,
        Conv3dSpec,
        MeanPoolSpec,
        ResidualBlockSpec,
        PatchifySpec,
        MhaSpec,
        FfnSpec,
        TransformerBlockSpec,
    )
}

_TUPLE_FIELDS = {"kernel", "window", "patch"}


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: TensorShape
    seed: int
    activation: str
    layers: tuple[LayerSpec, ...]


# ---------------------------------------------------------------------------
# parsing and emission
# ---------------------------------------------------------------------------


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_layer(index: int, obj) -> LayerSpec:
    where = f"layer {index}"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    if "kind" not in obj:
        raise ParseError(f"{where}: missing 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ParseError(f"{where}: unknown kind {kind!r} (allowed: {sorted(_LAYER_KINDS)})")
    cls = _LAYER_KINDS[kind]
    spec_fields = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        if key == "kind":
            continue
        if key not in spec_fields:
            raise ParseError(f"{where}: unknown field {key!r} for kind {kind!r}")
        if key in _TUPLE_FIELDS:
            if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value
            ):
                raise ParseError(f"{where}: {key} must be a list of integers")
            kwargs[key] = tuple(value)
        elif key == "bias":
            if not isinstance(value, bool):
                raise ParseError(f"{where}: bias must be a boolean")
            kwargs[key] = value
        elif value is None and spec_fields[key].default is None:
            kwargs[key] = None
        else:
            kwargs[key] = _require_int(value, f"{where}: {key}")
    try:
        spec = cls(**kwargs)
    except TypeError as exc:
        raise ParseError(f"{where}: {exc}") from None
    spec.validate(f"layer {index} ({kind})")
    return spec


def parse_spec_text(text: str | bytes) -> NetworkSpec:
    """Parse and validate a network description from JSON text."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # decode errors, over-long integer literals
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"top level must be an object, got {type(doc).__name__}")
    required = ("input_shape", "seed", "activation", "layers")  # checked in this order
    unknown = set(doc).difference(required)
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ParseError(f"missing top-level field {key!r}")

    raw_shape = doc["input_shape"]
    if not isinstance(raw_shape, list) or not raw_shape:
        raise ParseError("input_shape must be a non-empty list of [axis, extent] pairs")
    dims = []
    for item in raw_shape:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or isinstance(item[1], bool)
            or not isinstance(item[1], int)
        ):
            raise ParseError(f"input_shape entries must be [axis, extent], got {item!r}")
        if item[0] not in AXIS_NAMES:
            raise ParseError(f"unknown axis {item[0]!r} (allowed: {AXIS_NAMES})")
        dims.append((item[0], item[1]))
    try:
        input_shape = TensorShape(dims)
    except (ShapeError, CapacityError) as exc:
        raise ValidationError(f"input_shape: {exc}") from None

    seed = _require_int(doc["seed"], "seed")
    act = doc["activation"]
    if not isinstance(act, str) or act not in ACTIVATIONS:
        raise ParseError(f"activation must be one of {sorted(ACTIVATIONS)}, got {act!r}")

    if not isinstance(doc["layers"], list):
        raise ParseError("layers must be a list")
    layers = tuple(_parse_layer(i, obj) for i, obj in enumerate(doc["layers"]))

    net = NetworkSpec(input_shape=input_shape, seed=seed, activation=act, layers=layers)
    infer_shapes(net)  # raises ValidationError on a broken chain
    return net


def parse_spec(path: str | Path) -> NetworkSpec:
    """Parse and validate a network description file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p} is not UTF-8: {exc}") from None
    return parse_spec_text(text)


def emit_spec(net: NetworkSpec) -> str:
    """Canonical JSON text for a network description (round-trips through
    :func:`parse_spec_text`)."""
    layers = [{"kind": spec.kind, **asdict(spec)} for spec in net.layers]
    doc = {
        "input_shape": [[a, n] for a, n in net.input_shape.dims],
        "seed": net.seed,
        "activation": net.activation,
        "layers": layers,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# shape inference
# ---------------------------------------------------------------------------


def infer_shapes(net: NetworkSpec) -> list[TensorShape]:
    """Shapes through the network: element 0 is the input shape, element
    i + 1 the output of layer i.  Raises ValidationError on a broken chain."""
    shapes = [net.input_shape]
    for i, spec in enumerate(net.layers):
        where = f"layer {i} ({spec.kind})"
        producer = f"layer {i - 1}" if i > 0 else "the network input"
        try:
            shapes.append(spec.infer(shapes[-1], where, producer))
        except (ShapeError, CapacityError) as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return shapes


# ---------------------------------------------------------------------------
# weight materialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualWeights:
    w_1: np.ndarray
    b_1: np.ndarray
    w_2: np.ndarray
    b_2: np.ndarray


class ConvWeights(NamedTuple):
    """A conv's geometry and kernel, in the conv paths' argument order."""

    params: ConvParams
    kernel: Tensor


@dataclass(frozen=True)
class RtLayer:
    """One materialized layer, built by :func:`assemble` only: the spec, its
    shapes, the network's ``activation`` as the description states it, and
    the weights record its kind's ``draw`` gives (None for pooling, patchify)."""

    index: int
    spec: LayerSpec
    in_shape: TensorShape
    out_shape: TensorShape
    activation: str
    weights: object


@dataclass
class MaterializedNetwork:
    spec: NetworkSpec
    layers: list[RtLayer]

    @property
    def activation(self) -> str:
        return self.spec.activation

    @property
    def shapes(self) -> list[TensorShape]:
        """The stage shapes: the input's, then each layer's output's."""
        return [self.spec.input_shape, *(rt.out_shape for rt in self.layers)]


def draw_weights(gen: SplitMix64, where: str, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Read-only uniform [-1, 1) arrays of ``shapes``, consecutive slices of
    one read of ``gen``, which derived networks can share.  The first shape
    over the element cap is a ValidationError naming ``where``, raised before
    anything is allocated; a total over the cap is read one array at a time."""
    cuts, total = [], 0
    for shape in shapes:
        try:
            check_cap("weight array", shape)
        except CapacityError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        cuts.append(slice(total, total := total + math.prod(shape)))
    if total > element_cap():  # reads within the cap hold temporaries within it
        return [draw_weights(gen, where, shape)[0] for shape in shapes]
    flat = gen.uniform(total, -1.0, 1.0)
    flat.flags.writeable = False  # and so every view of it
    if len(shapes) == 1:  # the one array: no slice to take
        return [flat.reshape(shapes[0])]
    return [flat[cut].reshape(shape) for cut, shape in zip(cuts, shapes)]


def assemble(net: NetworkSpec, shapes: list[TensorShape], weights: list) -> MaterializedNetwork:
    """The one layer builder: the network of a description, its
    :func:`infer_shapes` and one weights record per layer."""
    return MaterializedNetwork(net, [
        RtLayer(i, spec, shapes[i], shapes[i + 1], net.activation, w)
        for i, (spec, w) in enumerate(zip(net.layers, weights))
    ])


def materialize(net: NetworkSpec) -> MaterializedNetwork:
    """Draw every layer's weights from the description's seed."""
    shapes, gen = infer_shapes(net), SplitMix64(net.seed)
    weights = [spec.draw(shapes[i], partial(draw_weights, gen, f"layer {i} ({spec.kind})"))
               for i, spec in enumerate(net.layers)]
    return assemble(net, shapes, weights)


def random_input(net: NetworkSpec, seed: int) -> Tensor:
    """Deterministic uniform [-1, 1) input tensor for the network."""
    return random_uniform(net.input_shape, seed, -1.0, 1.0)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _tokens(value: Tensor) -> np.ndarray:
    return value.data.reshape(value.shape.extent("token"), value.shape.extent("feature"))


def _run_layer(rt: RtLayer, rule: Callable, value: Tensor):
    """``rule(rt, value)``, where an overflow leaves non-finite entries
    without a numpy warning.  The one place that names a failing layer: the
    RangeError of a non-finite value and the CapacityError of a lowering over
    the element cap become a ValidationError naming the layer."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return rule(rt, value)
        except (RangeError, CapacityError) as exc:
            raise ValidationError(f"layer {rt.index} ({rt.spec.kind}): {exc}") from None


def _apply_one(rt: RtLayer, value: Tensor) -> Tensor:
    """:func:`_apply_stack` on a stack of one, its Tensor the one scan for finite entries."""
    return Tensor(rt.out_shape, _apply_stack(rt, value.data[None], finite=False)[0])


def _apply_stack(rt: RtLayer, xs: np.ndarray, finite: bool = True) -> np.ndarray:
    """The layer's direct rule on a stack of any size, its output checked
    against the cap before the rule runs and, if ``finite``, for finite entries after."""
    n, *rest = rt.out_shape.extents
    check_cap("stacked layer output", (len(xs) * n, *rest))
    out = rt.spec.apply(rt, xs)
    if finite:
        check_finite(out)
    return out


def apply_layer(rt: RtLayer, value: Tensor) -> Tensor:
    """Run one materialized layer on a stage value."""
    return _run_layer(rt, _apply_one, value)


def lower_layer(rt: RtLayer, value: Tensor) -> list[LoweredForm]:
    """The layer's matrix-vector stages at a stage value."""
    return _run_layer(rt, rt.spec.stages, value)


def _check_input(net: MaterializedNetwork, x: Tensor) -> None:
    if x.shape != net.spec.input_shape:
        raise ShapeError(f"input shape {x.shape} != declared {net.spec.input_shape}")


def forward(net: MaterializedNetwork, x: Tensor) -> list[Tensor]:
    """Stage values through the network: element 0 is x, element i + 1 the
    output of layer i (activation applied where the layer calls for it)."""
    _check_input(net, x)
    values = [x]
    for rt in net.layers:
        values.append(apply_layer(rt, values[-1]))
    return values


def forward_stack(net: MaterializedNetwork, xs: Sequence[Tensor]) -> list[np.ndarray]:
    """The network output of every input in ``xs``, in order, each bitwise
    ``forward(net, x)[-1].data`` and a read-only view into its stack's
    output: the inputs run through each layer's direct rule as one stack.
    A stack that one of its arrays would put past the element cap, or that
    gives a non-finite output, is split in two, in input order, down to one
    input, which raises what :func:`forward` raises for it."""
    for x in xs:
        _check_input(net, x)
    return _forward_rows(net.layers, [x.data for x in xs]) if xs else []


def _forward_rows(layers: list[RtLayer], rows: list[np.ndarray]) -> list[np.ndarray]:
    try:
        return _stack_pass(layers, rows)
    except (CapacityError, ValidationError):
        if len(rows) == 1:
            raise
    # split once the failed pass, and every array it held, is released
    half = (len(rows) + 1) // 2
    return _forward_rows(layers, rows[:half]) + _forward_rows(layers, rows[half:])


def _stack_pass(layers: list[RtLayer], rows: list[np.ndarray]) -> list[np.ndarray]:
    check_cap("input stack", (len(rows) * len(rows[0]), *rows[0].shape[1:]))
    stack = np.stack(rows)
    for rt in layers:
        stack = _run_layer(rt, _apply_stack, stack)
    stack.flags.writeable = False
    return list(stack)


# ---------------------------------------------------------------------------
# per-layer lowering and verification
# ---------------------------------------------------------------------------


@dataclass
class LayerCheck:
    """Result of verifying one layer's matrix-vector realization against its
    direct computation at one input; ``output`` is the layer's output there,
    from that direct computation and bitwise equal to :func:`apply_layer`."""

    index: int
    max_abs_diff: float
    forms: list[LoweredForm]
    output: Tensor
    note: str = ""


def _dense_form(matrix: np.ndarray, bias: np.ndarray, x: np.ndarray) -> LoweredForm:
    """A dense matrix as a lowered stage, one token of :func:`dense_stage`
    with W' = matrix^T, so the diamond product reproduces ``matrix @ x``.
    The name and signature stay because perfbench's tracer (its ``SPANS``)
    wraps this function by name to count residual lowerings, and the tests
    build dense stages through it."""
    return dense_stage(matrix.T, bias, x, 1, "dense stage: W' = matrix^T over the flat input")


def check_layer(rt: RtLayer, value: Tensor) -> LayerCheck:
    """Compare the layer's matrix-vector path against the direct path at
    ``value`` (pre-activation for convolutions), which gives the output too."""
    return _run_layer(rt, rt.spec.check, value)


def check_network(net: MaterializedNetwork, x: Tensor) -> Iterator[LayerCheck]:
    """Check every layer in order, each at the output the previous check
    carried (the first at ``x``).  A caller that keeps no yielded check (as
    ``map`` does) holds one layer's lowered stages at a time."""
    value = x
    for rt in net.layers:
        check = check_layer(rt, value)
        value = check.output
        yield check
        del check  # freed before the next layer is lowered


def verify_network(net: MaterializedNetwork, trials: int, tol: float) -> dict:
    """Run ``trials`` random-input sweeps of :func:`check_network`.

    Returns a summary dict; ``passed`` is False as soon as any layer's
    max-abs diff exceeds ``tol`` or is NaN in any trial.
    """
    per_layer = [0.0] * len(net.layers)
    for t in range(trials):
        x = random_input(net.spec, seed=net.spec.seed + 1 + t)
        for index, diff in map(attrgetter("index", "max_abs_diff"), check_network(net, x)):
            # np.maximum keeps NaN, so a non-finite diff fails the run
            per_layer[index] = float(np.maximum(per_layer[index], diff))
    worst = float(np.max(per_layer)) if per_layer else 0.0
    return {
        "trials": trials,
        "tolerance": tol,
        "per_layer_max_abs_diff": per_layer,
        "max_abs_diff": worst,
        "passed": bool(worst <= tol),
    }


# ---------------------------------------------------------------------------
# bridge to the symbolic expansion
# ---------------------------------------------------------------------------


@dataclass
class ExpandableNetwork:
    """A network mapped onto one of the expandable chain families, together
    with the numeric binding of the chain's primitive atoms, by atom name.
    Each layer the chain covers gives its atoms (its entry of the chain's
    ``block_atoms``) the values of its ``expansion_values``; the binding is
    built on first read and then kept, so reading only the chain lowers no
    layer (conv and pooling layers are lowered as they are at that read).
    Conv and pooling weights are bound as the maps ``W'^T`` of their
    window patterns, and transformer FFN weights as row-wise maps; no dense
    matrix is built for either."""

    family: str  # "vgg" | "residual" | "transformer"
    chain: object
    layers: list[RtLayer]  # the layers the chain covers, in block_atoms order
    preprocessing: str | None = None  # e.g. patchify note for token models

    @cached_property
    def binding(self) -> dict[str, np.ndarray | LinearMap]:
        values = (rt.spec.expansion_values(rt) for rt in self.layers)
        return bind(self.chain.block_atoms, values)


def expansion_family(net: NetworkSpec) -> tuple[str, int]:
    """The chain family a description expands into and its canonical form's
    number of sigma terms, or SpecError.  The family rules live here only;
    they read just the layer kinds, ``hidden_dim``/``heads`` and input size.

    Families: conv/pool stacks ending in a conv (pooling folds into the next
    stage's merged weight; one term per conv), residual-block stacks of one
    hidden width, and transformer-block stacks of one heads/hidden width
    behind an optional patchify (one term per block).
    """
    layers = net.layers
    kinds = {spec.kind for spec in layers}
    if not layers:
        raise SpecError("empty networks cannot be expanded")
    if kinds <= {"conv2d", "conv3d", "mean_pool"}:
        if layers[-1].kind == "mean_pool":
            raise SpecError("chain must end with an activation stage, not pooling")
        return "vgg", sum(spec.kind != "mean_pool" for spec in layers)
    if kinds == {"residual_block"}:
        if len({spec.hidden_dim or net.input_shape.size for spec in layers}) != 1:
            raise SpecError("residual chains with mixed hidden dims are not expandable")
        return "residual", len(layers)
    if kinds <= {"patchify", "transformer_block"} and "transformer_block" in kinds:
        blocks = layers[1:] if layers[0].kind == "patchify" else layers
        if any(spec.kind == "patchify" for spec in blocks):
            raise SpecError("transformer expansion needs patchify? + transformer_block+ layers")
        if len({(spec.heads, spec.hidden_dim) for spec in blocks}) != 1:
            raise SpecError("transformer chains with mixed heads/hidden dims are not expandable")
        return "transformer", len(blocks)
    raise SpecError(
        f"network with layer kinds {sorted(kinds)} does not match an expandable family"
    )


def to_expandable(net: MaterializedNetwork) -> ExpandableNetwork:
    """The network on the chain of its ``expansion_family``, weights bound."""
    family, terms = expansion_family(net.spec)
    layers, preprocessing, size = net.layers, None, net.spec.input_shape.size
    if family == "vgg":
        pooling = [(rt.spec.kind == "mean_pool", getattr(rt.spec, "bias", False)) for rt in layers]
        chain = dense_chain(pooling, size)
    elif family == "residual":
        chain = build_residual_chain(len(layers), size, layers[0].spec.hidden_dim or size)
    else:  # one block per term, behind an optional patchify head
        head, layers = layers[:-terms], layers[-terms:]
        if head:
            preprocessing = f"patchify {head[0].spec.patch} reshapes the image into the token matrix"
        shape, block = layers[0].in_shape, layers[0].spec
        chain = build_transformer_chain(len(layers), shape.extent("token"),
                                        shape.extent("feature"), block.heads, block.hidden_dim)
    return ExpandableNetwork(family, chain, layers, preprocessing)


def expandable_input(net: MaterializedNetwork, x: Tensor) -> np.ndarray:
    """The flat vector the expanded form consumes for input ``x``, checked
    against the description's input shape as :func:`forward` checks it: a
    patchify layer 0's output when there is one, else ``x``."""
    _check_input(net, x)
    if net.layers and net.layers[0].spec.kind == "patchify":
        # apply_layer's own body, so perfbench's tracer counts no extra layer run
        return flatten(_run_layer(net.layers[0], _apply_one, x))
    return expandable_output(net, x)


def expandable_output(net: MaterializedNetwork, value: Tensor) -> np.ndarray:
    """A stage value flattened in the expanded form's order: a conv chain's
    stages read and write stage vectors; a residual or transformer chain's
    dense and token stages read values in storage order."""
    return stage_vector(value) if expansion_family(net.spec)[0] == "vgg" else flatten(value)
