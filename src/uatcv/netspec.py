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
description plus its seed pins every number in the network.  Every weight
array counts against the element cap, like every stage shape: an array
over the cap is a ValidationError naming the layer, raised before the
array is allocated.

Execution conventions: convolutions apply the network activation after the
layer; pooling and patchify are linear; residual, FFN, and transformer
blocks use the activation only inside their own structure.  All stage
values are :class:`~uatcv.tensor.Tensor`; token matrices use axes
(token, feature).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, ClassVar, Iterator

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
    AXIS_NAMES, SplitMix64, Tensor, TensorShape, element_cap, flatten, random_uniform, zeros,
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
    ``validate``, ``infer`` (output shape), ``draw`` (RtLayer weight fields,
    each array from ``draw(*shape)``), and the rules on a materialized layer
    ``rt`` at a stage value, each ``(rt, value)`` and reading the network's
    activation from ``rt.activation``: ``apply`` (direct computation),
    ``stages`` (matrix-vector stages) and ``check`` (by default
    ``lowered_output`` against ``apply``).  Callers run those three through
    :func:`apply_layer`, :func:`lower_layer` and :func:`check_layer`.
    ``lowered_output`` is by default the last stage's output; a residual
    or transformer block adds its skip, and attention, which has no stages,
    states its own.  ``expansion_values(rt)`` gives the values its atoms
    take in the expanded form.  Defaults here serve the kinds that lack a
    part or refuse an analysis."""

    kind: ClassVar[str]
    note: ClassVar[str] = ""  # the report's note on what the check compares

    def check(self, rt: RtLayer, value: Tensor) -> LayerCheck:
        """The lowered output at ``value`` against the direct one, ``apply``."""
        forms = self.stages(rt, value)
        out = self.apply(rt, value)
        diff = np.max(np.abs(self.lowered_output(rt, value, forms) - out.flat))
        return LayerCheck(rt.index, self.kind, float(diff), forms, out, self.note)

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        """The last stage's output."""
        return forms[-1].evaluate()

    def infer(self, shape: TensorShape, where: str, producer: str) -> TensorShape:
        return shape

    def draw(self, in_shape: TensorShape, draw: Callable[..., np.ndarray]) -> dict:
        return {}

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
        raise ValidationError(f"layer {rt.index} ({self.kind}) has no adjustable matrix")

    def follow_pruning(self, rt: RtLayer, keep: list[int]) -> bool:
        """Follow an upstream pruning to ``keep``; True once it is absorbed."""
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
        return ConvParams(
            in_channels, self.out_channels, self.kernel, self.stride, self.padding, bias
        )

    def _direct(self, rt: RtLayer, value: Tensor) -> Tensor:
        direct = conv2d_direct if len(self.spatial) == 2 else conv3d_direct
        return direct(value, rt.conv_params, rt.conv_weights)

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

    def draw(self, in_shape: TensorShape, draw: Callable[..., np.ndarray]) -> dict:
        c_in = in_shape.extent("C_I")
        weights = draw(self.out_channels, c_in, *self.kernel)
        bias = draw(self.out_channels) if self.bias else None
        axes = ("C_O", "C_I", *self.spatial)
        return {
            "conv_params": self._params(c_in, bias),
            "conv_weights": Tensor(TensorShape(zip(axes, weights.shape)), weights),
        }

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        return Tensor(rt.out_shape, activation(rt.activation)(self._direct(rt, value).data))

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        lower = lower_conv2d_I_O if len(self.spatial) == 2 else lower_conv3d
        return [lower(value, rt.conv_params, rt.conv_weights)]

    def check(self, rt: RtLayer, value: Tensor) -> LayerCheck:
        (form,) = self.stages(rt, value)
        direct = self._direct(rt, value)
        diff = np.max(np.abs(form.evaluate() - stage_vector(direct)))
        out = Tensor(rt.out_shape, activation(rt.activation)(direct.data))  # as apply computes it
        return LayerCheck(rt.index, self.kind, float(diff), [form], out)

    def receptive_window(self) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        return self.spatial, self.kernel, self.stride

    def lora_matrix(self, rt: RtLayer, target: str) -> np.ndarray:
        # the kernel as its (C_O) x (C_I*kh*kw[*kd]) reshaping; target unused
        w = rt.conv_weights.data
        return w.reshape(w.shape[0], -1)

    def set_lora_matrix(self, rt: RtLayer, target: str, matrix: np.ndarray) -> None:
        kshape = rt.conv_weights.data.shape
        rt.conv_weights = Tensor(rt.conv_weights.shape, matrix.reshape(kshape))

    def keep_channels(self, rt: RtLayer, keep: list[int], axis: int) -> None:
        """Keep only the ``keep`` output (axis 0) or input (axis 1) channels;
        the layer's spec follows, a declared ``in_channels`` included."""
        dims = list(rt.conv_weights.shape.dims)
        dims[axis] = (dims[axis][0], len(keep))
        rt.conv_weights = Tensor(TensorShape(dims), rt.conv_weights.data.take(keep, axis=axis))
        if axis == 0:
            bias = None if rt.conv_params.bias is None else rt.conv_params.bias[keep]
            if bias is not None:
                bias.flags.writeable = False  # read-only like every drawn weight
            rt.conv_params = replace(rt.conv_params, out_channels=len(keep), bias=bias)
            rt.spec = replace(self, out_channels=len(keep))
        else:
            rt.conv_params = replace(rt.conv_params, in_channels=len(keep))
            if self.in_channels is not None:
                rt.spec = replace(self, in_channels=len(keep))

    def follow_pruning(self, rt: RtLayer, keep: list[int]) -> bool:
        self.keep_channels(rt, keep, axis=1)
        return True


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
        params = PoolParams(window=self.window, stride=self.stride)
        h_out, w_out = params.out_extents(shape.extents[1:])
        return TensorShape([("C_I", shape.extent("C_I")), ("H", h_out), ("W", w_out)])

    def draw(self, in_shape: TensorShape, draw: Callable[..., np.ndarray]) -> dict:
        return {"pool_params": PoolParams(window=self.window, stride=self.stride)}

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        return Tensor(rt.out_shape, mean_pool_direct(value, rt.pool_params).data)

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        return [lower_mean_pool(value, rt.pool_params)]

    def receptive_window(self) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        return ("H", "W"), self.window, self.stride

    def follow_pruning(self, rt: RtLayer, keep: list[int]) -> bool:
        return False  # pooling passes channels through


@dataclass(frozen=True)
class ResidualBlockSpec(LayerSpec):
    kind = "residual_block"
    note = "dense stages"
    hidden_dim: int | None = None

    def validate(self, where: str) -> None:
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValidationError(f"{where}: hidden_dim must be >= 1")

    def draw(self, in_shape: TensorShape, draw: Callable[..., np.ndarray]) -> dict:
        dim = in_shape.size
        hidden = self.hidden_dim if self.hidden_dim is not None else dim
        w_1, b_1 = draw(hidden, dim), draw(hidden)
        w_2, b_2 = draw(dim, hidden), draw(dim)
        return {"residual": ResidualWeights(w_1=w_1, b_1=b_1, w_2=w_2, b_2=b_2)}

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        act = activation(rt.activation)
        v = value.flat
        r = rt.residual
        out = v + r.w_2 @ act(r.w_1 @ v + r.b_1) + r.b_2
        return Tensor(rt.out_shape, out.reshape(rt.out_shape.extents))

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        act = activation(rt.activation)
        r = rt.residual
        stage1 = _dense_form(r.w_1, r.b_1, value.flat)
        stage2 = _dense_form(r.w_2, r.b_2, act(stage1.evaluate()))
        return [stage1, stage2]

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        return value.flat + forms[1].evaluate()

    def expansion_values(self, rt: RtLayer) -> tuple:
        r = rt.residual
        return r.w_1, r.b_1, r.w_2, r.b_2

    def lora_matrix(self, rt: RtLayer, target: str) -> np.ndarray:
        return getattr(rt.residual, _lora_target(rt, target, ("w_1", "w_2")))

    def set_lora_matrix(self, rt: RtLayer, target: str, matrix: np.ndarray) -> None:
        rt.residual = replace(rt.residual, **{target: matrix})


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

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        return Tensor(rt.out_shape, patchify(value, self.patch))

    def check(self, rt: RtLayer, value: Tensor) -> LayerCheck:
        out = self.apply(rt, value)
        back = unpatchify(out.data, value.shape, self.patch)
        diff = np.max(np.abs(back.data - value.data))
        return LayerCheck(rt.index, self.kind, float(diff), [], out, "reassembly")


def _lora_target(rt: RtLayer, target: str, targets: tuple[str, ...]) -> str:
    if target not in targets:  # a command-line value
        raise ValidationError(
            f"layer {rt.index} ({rt.spec.kind}) has no LoRA target {target!r} (have {targets})"
        )
    return target


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

    def draw(self, in_shape: TensorShape, draw: Callable[..., np.ndarray]) -> dict:
        d, h = in_shape.extent("feature"), self.hidden_dim
        parts = {}
        if self.heads is not None:
            parts.update(w_q=draw(d, d), w_k=draw(d, d), w_v=draw(d, d), w_o=draw(d, d))
        if h is not None:
            parts.update(w_2=draw(d, h), w_3=draw(h, d), b_2=draw(h), b_3=draw(d))
        return {"attn_params": AttnParams(model_dim=d, heads=self.heads or 1, **parts)}

    def lora_matrix(self, rt: RtLayer, target: str) -> np.ndarray:
        targets = (("w_q", "w_k", "w_v", "w_o") if self.heads is not None else ()) + (
            ("w_2", "w_3") if self.hidden_dim is not None else ()
        )
        return getattr(rt.attn_params, _lora_target(rt, target, targets))

    def set_lora_matrix(self, rt: RtLayer, target: str, matrix: np.ndarray) -> None:
        rt.attn_params = replace(rt.attn_params, **{target: matrix})


@dataclass(frozen=True)
class MhaSpec(_TokenSpec):
    kind = "mha"
    note = "effective matrix"
    hidden_dim: ClassVar[None] = None
    heads: int

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        return Tensor(rt.out_shape, mha_direct(_tokens(value), rt.attn_params))

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        tokens, p = _tokens(value), rt.attn_params
        m = effective_matrix_from_projections(tokens, p.w_q, p.w_k, p.w_v, p.w_o, p.heads)
        return m @ tokens.reshape(-1)


@dataclass(frozen=True)
class FfnSpec(_TokenSpec):
    kind = "ffn"
    heads: ClassVar[None] = None
    hidden_dim: int

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        return Tensor(rt.out_shape, ffn_direct(_tokens(value), rt.attn_params, rt.activation))

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        return list(lower_ffn(_tokens(value), rt.attn_params, rt.activation))


@dataclass(frozen=True)
class TransformerBlockSpec(_TokenSpec):
    kind = "transformer_block"
    note = "mha+ffn"
    heads: int
    hidden_dim: int

    def apply(self, rt: RtLayer, value: Tensor) -> Tensor:
        out = transformer_block_direct(_tokens(value), rt.attn_params, rt.activation)
        return Tensor(rt.out_shape, out)

    def stages(self, rt: RtLayer, value: Tensor) -> list[LoweredForm]:
        # the FFN stages at h = M(X) X, with M the effective attention matrix
        tokens, p = _tokens(value), rt.attn_params
        m = effective_matrix_from_projections(tokens, p.w_q, p.w_k, p.w_v, p.w_o, p.heads)
        h = (m @ tokens.reshape(-1)).reshape(tokens.shape)
        return list(lower_ffn(h, p, rt.activation))

    def lowered_output(self, rt: RtLayer, value: Tensor, forms: list[LoweredForm]) -> np.ndarray:
        return forms[0].input_vector + forms[1].evaluate()  # h + FFN(h)

    def expansion_values(self, rt: RtLayer) -> tuple:
        return transformer_block_values(rt.attn_params, rt.in_shape.extent("token"))


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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"top level must be an object, got {type(doc).__name__}")
    allowed = {"input_shape", "seed", "activation", "layers"}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    for key in allowed:
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


@dataclass
class RtLayer:
    """One materialized layer: the spec plus its drawn weights and shapes,
    and ``activation``, the network's activation as the description states
    it, which the layer's rules read."""

    index: int
    spec: LayerSpec
    in_shape: TensorShape
    out_shape: TensorShape
    activation: str
    conv_params: ConvParams | None = None
    conv_weights: Tensor | None = None
    pool_params: PoolParams | None = None
    attn_params: AttnParams | None = None
    residual: ResidualWeights | None = None


@dataclass
class MaterializedNetwork:
    spec: NetworkSpec
    shapes: list[TensorShape]
    layers: list[RtLayer]

    @property
    def activation(self) -> str:
        return self.spec.activation


def draw_weights(gen: SplitMix64, where: str, *shape: int) -> np.ndarray:
    """A read-only uniform [-1, 1) array from ``gen``, so networks derived
    from one another can share it; an array over the element cap is a
    ValidationError naming ``where``, raised before it is allocated."""
    n = math.prod(shape)
    if n > element_cap():
        raise ValidationError(
            f"{where}: weight array of shape {shape} has {n} elements, cap is {element_cap()}"
        )
    weights = gen.uniform(n, -1.0, 1.0).reshape(shape)
    weights.flags.writeable = False
    return weights


def materialize(net: NetworkSpec) -> MaterializedNetwork:
    """Draw every layer's weights from the description's seed."""
    shapes = infer_shapes(net)
    gen = SplitMix64(net.seed)
    layers = []
    for i, spec in enumerate(net.layers):
        draw = partial(draw_weights, gen, f"layer {i} ({spec.kind})")
        layers.append(
            RtLayer(index=i, spec=spec, in_shape=shapes[i], out_shape=shapes[i + 1],
                    activation=net.activation, **spec.draw(shapes[i], draw))
        )
    return MaterializedNetwork(spec=net, shapes=shapes, layers=layers)


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


def apply_layer(rt: RtLayer, value: Tensor) -> Tensor:
    """Run one materialized layer on a stage value."""
    return _run_layer(rt, rt.spec.apply, value)


def lower_layer(rt: RtLayer, value: Tensor) -> list[LoweredForm]:
    """The layer's matrix-vector stages at a stage value."""
    return _run_layer(rt, rt.spec.stages, value)


def forward(net: MaterializedNetwork, x: Tensor) -> list[Tensor]:
    """Stage values through the network: element 0 is x, element i + 1 the
    output of layer i (activation applied where the layer calls for it)."""
    if x.shape != net.spec.input_shape:
        raise ShapeError(f"input shape {x.shape} != declared {net.spec.input_shape}")
    values = [x]
    for rt in net.layers:
        values.append(apply_layer(rt, values[-1]))
    return values


# ---------------------------------------------------------------------------
# per-layer lowering and verification
# ---------------------------------------------------------------------------


@dataclass
class LayerCheck:
    """Result of verifying one layer's matrix-vector realization against its
    direct computation at one input; ``output`` is the layer's output there,
    from that direct computation and bitwise equal to :func:`apply_layer`."""

    index: int
    kind: str
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
    family, _ = expansion_family(net.spec)
    layers, preprocessing, size = net.layers, None, net.spec.input_shape.size
    if layers[0].spec.kind == "patchify":
        preprocessing = f"patchify {layers[0].spec.patch} reshapes the image into the token matrix"
        layers = layers[1:]
    if family == "vgg":
        pooling = [(rt.spec.kind == "mean_pool", getattr(rt.spec, "bias", False)) for rt in layers]
        chain = dense_chain(pooling, size)
    elif family == "residual":
        chain = build_residual_chain(len(layers), size, len(layers[0].residual.b_1))
    else:
        shape, block = layers[0].in_shape, layers[0].spec
        chain = build_transformer_chain(len(layers), shape.extent("token"),
                                        shape.extent("feature"), block.heads, block.hidden_dim)
    return ExpandableNetwork(family, chain, layers, preprocessing)


def _chain_vector(net: MaterializedNetwork, t: Tensor) -> np.ndarray:
    # a conv chain's stages read and write stage vectors; a residual or
    # transformer chain's dense and token stages read values in storage order
    return stage_vector(t) if expansion_family(net.spec)[0] == "vgg" else flatten(t)


def expandable_input(net: MaterializedNetwork, x: Tensor) -> np.ndarray:
    """The flat vector the expanded form consumes for input ``x`` (patchify
    preprocessing applied when present)."""
    if net.layers and net.layers[0].spec.kind == "patchify":
        return patchify(x, net.layers[0].spec.patch).reshape(-1)
    return _chain_vector(net, x)


def expandable_output(net: MaterializedNetwork, value: Tensor) -> np.ndarray:
    """A network output tensor flattened in the expanded form's order."""
    return _chain_vector(net, value)
