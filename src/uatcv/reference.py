"""Direct, definition-level implementations of every layer operation.

These are the ground truth the lowerings are verified against: plain
sliding-window convolution, windowed mean pooling, patch extraction, and
textbook multi-head attention / feed-forward blocks.  Each works on whole
arrays straight from its definition: convolution and pooling read their
windows from one strided view of the input, and nothing here uses a lowered
matrix.  The per-position loops in ``tests/oracles.py`` are the reference
for these.

Each operation also runs a stack of inputs, a leading axis of B inputs
ahead of one input's axes: conv, pooling and patchify take one input as a
Tensor and a stack as an array, and the token operations take any leading
axes.  Every row of a stack's result is bitwise its input's result alone,
because each input's matrix products are broadcast over the stack (``x @ w``
over ``...`` axes; a ``(1, K) @ (K, P)`` row product per input and output
channel) and never merged into one product over the inputs, whose blocking
would move last bits.

Each operation checks the arrays it allocates against the element cap
before it allocates them, at B times one input's extents, for any B (one
input is a stack of one): convolution its padded input and column block,
attention its (B n, n) scores per head, the FFN its (B n, hidden) layer.

Convolution keeps two summation orders that checks rely on bitwise: input
channels are summed left to right, and each output channel is its own row
product, independent of the layer's other output channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RangeError, ShapeError
from .tensor import Tensor, TensorShape, as_matrix, as_vector, check_cap


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def identity(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu,
    "identity": identity,
    "logistic": logistic,
}


def activation(name: str) -> Callable[[np.ndarray], np.ndarray]:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise RangeError(f"unknown activation {name!r} (have {sorted(ACTIVATIONS)})") from None


@dataclass(frozen=True)
class ConvParams:
    """Convolution geometry: 2-D when ``kernel`` has two extents, 3-D with three.

    ``padding`` is symmetric zero-padding on every spatial axis; ``bias`` is an
    optional per-output-channel vector.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, ...]
    stride: int = 1
    padding: int = 0
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError("channel counts must be >= 1")
        if len(self.kernel) not in (2, 3) or any(k < 1 for k in self.kernel):
            raise ShapeError(f"kernel must have 2 or 3 extents >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        if self.bias is not None:
            b = as_vector(self.bias)
            if b.shape[0] != self.out_channels:
                raise ShapeError(f"bias length {b.shape[0]} != out_channels {self.out_channels}")
            object.__setattr__(self, "bias", b)

    @property
    def ndim(self) -> int:
        return len(self.kernel)

    def weight_shape(self) -> tuple[int, ...]:
        return (self.out_channels, self.in_channels, *self.kernel)

    def out_extents(self, spatial: tuple[int, ...]) -> tuple[int, ...]:
        if len(spatial) != self.ndim:
            raise ShapeError(f"{self.ndim}-D conv applied to spatial extents {spatial}")
        outs = []
        for ext, k in zip(spatial, self.kernel):
            padded = ext + 2 * self.padding
            if k > padded:
                raise ShapeError(f"kernel extent {k} exceeds padded input extent {padded}")
            outs.append((padded - k) // self.stride + 1)
        return tuple(outs)


@dataclass(frozen=True)
class PoolParams:
    """Mean-pooling window and stride (channels handled independently)."""

    window: tuple[int, int]
    stride: int = 1

    def __post_init__(self):
        if len(self.window) != 2 or any(k < 1 for k in self.window):
            raise ShapeError(f"window must have 2 extents >= 1, got {self.window}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")

    def out_extents(self, spatial: tuple[int, int]) -> tuple[int, int]:
        outs = []
        for ext, k in zip(spatial, self.window):
            if k > ext:
                raise ShapeError(f"window extent {k} exceeds input extent {ext}")
            outs.append((ext - k) // self.stride + 1)
        return tuple(outs)


@dataclass(frozen=True)
class AttnParams:
    """Multi-head attention projections, the two FFN stages, or both.

    Matrices act on row vectors: for a token matrix X (n x d) the queries are
    ``X @ w_q`` and the FFN hidden layer is ``sigma(X @ w_2 + b_2)``.  A part
    a layer lacks (all four projections, or all four FFN arrays) is None.
    """

    model_dim: int
    heads: int
    w_q: np.ndarray | None = None
    w_k: np.ndarray | None = None
    w_v: np.ndarray | None = None
    w_o: np.ndarray | None = None
    w_2: np.ndarray | None = None
    w_3: np.ndarray | None = None
    b_2: np.ndarray | None = None
    b_3: np.ndarray | None = None

    def __post_init__(self):
        d = self.model_dim
        if d < 1 or self.heads < 1 or d % self.heads != 0:
            raise ShapeError(f"head count {self.heads} must divide model dim {d}")
        projections = ("w_q", "w_k", "w_v", "w_o")
        for part in (projections, ("w_2", "w_3", "b_2", "b_3")):
            if len({getattr(self, name) is None for name in part}) > 1:
                raise ShapeError(f"give all of {part} or none")
        for name in projections if self.w_q is not None else ():
            m = as_matrix(getattr(self, name))
            if m.shape != (d, d):
                raise ShapeError(f"{name} must be {d}x{d}, got {m.shape}")
            object.__setattr__(self, name, m)
        if self.w_2 is None:
            return
        w2 = as_matrix(self.w_2)
        w3 = as_matrix(self.w_3)
        if w2.shape[0] != d:
            raise ShapeError(f"w_2 must have {d} rows, got {w2.shape}")
        if w3.shape != (w2.shape[1], d):
            raise ShapeError(f"w_3 must be {w2.shape[1]}x{d}, got {w3.shape}")
        b2 = as_vector(self.b_2)
        b3 = as_vector(self.b_3)
        if b2.shape[0] != w2.shape[1] or b3.shape[0] != d:
            raise ShapeError("FFN bias lengths do not match their stages")
        object.__setattr__(self, "w_2", w2)
        object.__setattr__(self, "w_3", w3)
        object.__setattr__(self, "b_2", b2)
        object.__setattr__(self, "b_3", b3)

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


def _check_conv_input(x: Tensor | np.ndarray, p: ConvParams) -> tuple[int, ...]:
    """The spatial extents of one input Tensor (C_I, *spatial), or of a stack
    of them, an array (B, C_I, *spatial)."""
    if not isinstance(x, Tensor):
        if x.ndim != p.ndim + 2 or x.shape[1] != p.in_channels:
            raise ShapeError(f"conv{p.ndim}d stack must be (B, {p.in_channels}, ...): {x.shape}")
        return x.shape[2:]
    expect_axes = ("C_I", "H", "W") if p.ndim == 2 else ("C_I", "H", "W", "D")
    if x.shape.axes != expect_axes:
        raise ShapeError(f"conv{p.ndim}d input must have axes {expect_axes}, got {x.shape.axes}")
    if x.shape.extent("C_I") != p.in_channels:
        raise ShapeError(
            f"input has {x.shape.extent('C_I')} channels, params expect {p.in_channels}"
        )
    return x.shape.extents[1:]


def _check_weights(w: Tensor, p: ConvParams) -> np.ndarray:
    if w.data.shape != p.weight_shape():
        raise ShapeError(f"weights must have shape {p.weight_shape()}, got {w.data.shape}")
    return w.data


def _conv_direct(x: Tensor | np.ndarray, p: ConvParams, w: Tensor) -> Tensor | np.ndarray:
    """Sliding-window convolution over the ``p.ndim`` spatial axes, summed
    over input channels, of one input Tensor or of a stack of B inputs, an
    array (B, C_I, *spatial), which gives the array (B, C_O, *outs).

    y[o, i...] = sum_{c, a...} w[o, c, a...] * x_pad[c, i*s + a...] (+ bias[o]).

    Input channel c's windows are copied to one (B, K, P) column block (K
    kernel offsets, P output positions), and each output channel's kernel
    row multiplies each input's (K, P) block as its own (1, K) @ (K, P)
    product.  So input channels are summed left to right, and dropping an
    all-zero one moves no output bit; an output channel's row does not
    depend on the layer's other output channels, so pruning some moves no
    bit of the rest; and an input's rows do not depend on the stack's other
    inputs.  The padded input and the column block are checked against the
    element cap, B times one input's, before they are allocated.
    """
    spatial = _check_conv_input(x, p)
    weights = _check_weights(w, p)
    xs = x.data[None] if isinstance(x, Tensor) else x
    outs = p.out_extents(spatial)
    padded = tuple(n + 2 * p.padding for n in spatial)
    b, k, positions = len(xs), math.prod(p.kernel), math.prod(outs)
    check_cap("padded input", (b * p.in_channels, *padded))
    check_cap("column block", (b * k, positions))
    xp = np.zeros((b, p.in_channels, *padded))
    xp[(slice(None), slice(None), *(slice(p.padding, p.padding + n) for n in spatial))] = xs
    spatial_axes = tuple(range(2, p.ndim + 2))
    windows = sliding_window_view(xp, p.kernel, axis=spatial_axes)
    windows = windows[(slice(None), slice(None)) + (slice(None, None, p.stride),) * p.ndim]
    # kernel-offset axes ahead of the output positions: (B, C_I, *kernel, *outs)
    windows = np.moveaxis(windows, tuple(range(p.ndim + 2, 2 * p.ndim + 2)), spatial_axes)
    # a stack of (1, K) rows, not one (C_O, K) matrix, whose blocked product
    # would make a row's round-off depend on how many rows there are
    kern = weights.reshape(p.out_channels, p.in_channels, 1, k)
    cols = np.empty((b, k, positions))
    out = np.zeros((b, p.out_channels, positions))
    for c in range(p.in_channels):
        cols.reshape(b, *p.kernel, *outs)[...] = windows[:, c]
        out += (kern[:, c] @ cols[:, None])[:, :, 0]
    if p.bias is not None:
        out += p.bias[:, None]
    out = out.reshape(b, p.out_channels, *outs)
    if not isinstance(x, Tensor):
        return out
    return Tensor(TensorShape([("C_O", p.out_channels), *zip(x.shape.axes[1:], outs)]), out[0])


def conv2d_direct(x: Tensor | np.ndarray, p: ConvParams, w: Tensor) -> Tensor | np.ndarray:
    """2-D convolution: the kernel slides over H and W."""
    if p.ndim != 2:
        raise ShapeError("conv2d_direct needs 2-D kernel extents")
    return _conv_direct(x, p, w)


def conv3d_direct(x: Tensor | np.ndarray, p: ConvParams, w: Tensor) -> Tensor | np.ndarray:
    """3-D convolution: the kernel slides over H, W and D."""
    if p.ndim != 3:
        raise ShapeError("conv3d_direct needs 3-D kernel extents")
    return _conv_direct(x, p, w)


def mean_pool_direct(x: Tensor | np.ndarray, p: PoolParams) -> Tensor | np.ndarray:
    """Windowed arithmetic mean per channel, of one input Tensor (C_I, H, W)
    or of a stack of them, an array (B, C_I, H, W), which gives an array."""
    if isinstance(x, Tensor) and x.shape.axes != ("C_I", "H", "W"):
        raise ShapeError(f"mean pooling expects axes (C_I, H, W), got {x.shape.axes}")
    xs = x.data[None] if isinstance(x, Tensor) else x
    if xs.ndim != 4:
        raise ShapeError(f"a stack of mean pooling inputs must be (B, C_I, H, W), got {xs.shape}")
    h_out, w_out = p.out_extents(xs.shape[2:])
    windows = sliding_window_view(xs, p.window, axis=(2, 3))[:, :, :: p.stride, :: p.stride]
    out = windows.mean(axis=(4, 5))
    if not isinstance(x, Tensor):
        return out
    return Tensor(TensorShape([("C_I", xs.shape[1]), ("H", h_out), ("W", w_out)]), out[0])


def patchify(x: Tensor | np.ndarray, patch: tuple[int, int]) -> np.ndarray:
    """Split an image into non-overlapping patches, one flattened patch per row.

    Accepts one image Tensor, axes (H, W) or (H, W, C_I), which gives the
    (tokens, features) matrix, or a stack of images, an array (B, H, W, C),
    which gives (B, tokens, features).  Patch extents must divide the image
    extents.  Patches are ordered row-major over the patch grid and each row
    is the row-major flattening of its patch (trailing channels fastest).
    """
    if isinstance(x, Tensor):
        if x.shape.axes not in (("H", "W"), ("H", "W", "C_I")):
            raise ShapeError(f"patchify expects axes (H, W[, C_I]), got {x.shape.axes}")
        return patchify(x.data.reshape(1, *x.data.shape[:2], -1), patch)[0]
    if x.ndim != 4:
        raise ShapeError(f"a stack of images to patchify must be (B, H, W, C), got {x.shape}")
    p_h, p_w = patch
    if p_h < 1 or p_w < 1:
        raise ShapeError(f"patch extents must be >= 1, got {patch}")
    b, h, w, c = x.shape
    if h % p_h != 0 or w % p_w != 0:
        raise ShapeError(f"patch {patch} does not divide image extents ({h}, {w})")
    gh, gw = h // p_h, w // p_w
    rows = x.reshape(b, gh, p_h, gw, p_w, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(rows.reshape(b, gh * gw, p_h * p_w * c))


def unpatchify(rows: np.ndarray, image_shape: TensorShape, patch: tuple[int, int]) -> Tensor:
    """Reassemble :func:`patchify` output into the original image."""
    rows = as_matrix(rows)
    if image_shape.axes not in (("H", "W"), ("H", "W", "C_I")):
        raise ShapeError(f"unpatchify expects axes (H, W[, C_I]), got {image_shape.axes}")
    p_h, p_w = patch
    h, w = image_shape.extent("H"), image_shape.extent("W")
    c = image_shape.extent("C_I") if "C_I" in image_shape.axes else 1
    gh, gw = h // p_h, w // p_w
    if rows.shape != (gh * gw, p_h * p_w * c):
        raise ShapeError(f"patch matrix shape {rows.shape} does not match {image_shape}")
    arr = rows.reshape(gh, gw, p_h, p_w, c).transpose(0, 2, 1, 3, 4).reshape(h, w, c)
    if "C_I" not in image_shape.axes:
        arr = arr[:, :, 0]
    return Tensor(image_shape, arr)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _token_stack(x: np.ndarray) -> np.ndarray:
    """A token matrix (n, d), or a stack of them (..., n, d), checked as
    ``as_matrix`` checks one matrix (a stack as the matrix of all its rows)."""
    x = np.asarray(x, dtype=np.float64)
    as_matrix(x.reshape(-1, x.shape[-1]) if x.ndim > 2 else x)
    return x


def _check_tokens(x: np.ndarray, p: AttnParams) -> np.ndarray:
    x = _token_stack(x)
    if x.shape[-1] != p.model_dim:
        raise ShapeError(f"token matrix has feature dim {x.shape[-1]}, params expect {p.model_dim}")
    return x


def attention_probabilities_raw(
    x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, heads: int
) -> list[np.ndarray]:
    """Per-head softmax attention matrices A_k(X), each n x n (each a stack of
    them for a stack of token matrices)."""
    x = _token_stack(x)
    d = x.shape[-1]
    if d % heads != 0:
        raise ShapeError(f"head count {heads} must divide feature dim {d}")
    check_cap("attention scores", (math.prod(x.shape[:-1]), x.shape[-2]))
    q = x @ w_q
    k = x @ w_k
    dh = d // heads
    probs = []
    for head in range(heads):
        s = slice(head * dh, (head + 1) * dh)
        probs.append(softmax_rows(q[..., s] @ k[..., s].swapaxes(-1, -2) / np.sqrt(dh)))
    return probs


def mha_direct(x: np.ndarray, p: AttnParams) -> np.ndarray:
    """Standard multi-head attention (no masking, no positional encoding) of a
    token matrix or a stack of them."""
    x = _check_tokens(x, p)
    v = x @ p.w_v
    dh = p.head_dim
    probs = attention_probabilities_raw(x, p.w_q, p.w_k, p.heads)
    heads = [a @ v[..., head * dh : (head + 1) * dh] for head, a in enumerate(probs)]
    return np.concatenate(heads, axis=-1) @ p.w_o


def ffn_direct(x: np.ndarray, p: AttnParams, sigma: str) -> np.ndarray:
    """Two-stage feed-forward block applied row-wise:
    ``sigma(X @ w_2 + b_2) @ w_3 + b_3``."""
    x = _check_tokens(x, p)
    check_cap("FFN hidden layer", (math.prod(x.shape[:-1]), p.w_2.shape[1]))
    act = activation(sigma)
    return act(x @ p.w_2 + p.b_2) @ p.w_3 + p.b_3


def transformer_block_direct(x: np.ndarray, p: AttnParams, sigma: str) -> np.ndarray:
    """One block of the analyzed transformer: h = MHA(x); h + FFN(h)."""
    h = mha_direct(x, p)
    return h + ffn_direct(h, p, sigma)


def random_attn_params(
    model_dim: int, heads: int, ffn_dim: int, rng: np.random.Generator
) -> AttnParams:
    """Gaussian attention/FFN parameters, scaled mildly for desk-scale tests."""
    d = model_dim
    scale = 1.0 / np.sqrt(d)
    return AttnParams(
        model_dim=d,
        heads=heads,
        w_q=rng.normal(scale=scale, size=(d, d)),
        w_k=rng.normal(scale=scale, size=(d, d)),
        w_v=rng.normal(scale=scale, size=(d, d)),
        w_o=rng.normal(scale=scale, size=(d, d)),
        w_2=rng.normal(scale=scale, size=(d, ffn_dim)),
        w_3=rng.normal(scale=1.0 / np.sqrt(ffn_dim), size=(ffn_dim, d)),
        b_2=rng.normal(scale=0.5, size=ffn_dim),
        b_3=rng.normal(scale=0.5, size=d),
    )
