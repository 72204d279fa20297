"""Explicit matrix-vector forms for every layer operation.

Each lowering builds a weight matrix W' and input vector x' such that the
diamond product ``W' <> x' = W'^T x'`` reproduces the direct computation of
:mod:`uatcv.reference`.  x' is always the stage input itself, flattened, so
every x' position reads a distinct input element: a conv or pooling stage's
x' and y' are :func:`stage_vector` of its input and output, the one place
that states their order, and FFN stages and attention operate on token
matrices flattened row-major (token, feature).

Every W' entry that carries a kernel element, whatever its value, is a
structural cell; every other entry is zero, and a kernel element generally
occupies many cells (weight sharing).  W' is stored as the structure that
implies its cells, never with its zeros, and every index grid a lowering
stands for counts against the element cap, checked on every call.

A conv or pooling stage stores its kernel and the :class:`WindowPattern`
of its geometry (channels, kernel, stride, padding, input extents), which
never depends on the weights or x': one channel pair's window pattern,
grouped by kernel offset, which W' repeats over the channel pairs
(Chellapilla, Puri & Simard, High Performance Convolutional Neural Networks
for Document Processing, 2006).  :func:`cell_pattern` builds it once per
geometry.  The stage gathers x' once per kernel offset and adds
``W[:, c, s] (outer) window[c, s]`` for each input channel c and offset s
in ascending order.  That is the order in which the cells' weighted
``bincount`` adds each output, so the sums are bitwise those of the cells;
it uses no BLAS call, whose blocking would reorder them.  A token or dense
stage stores W, with ``W' = I_tokens (x) W`` (:class:`DenseMatrix`; a dense
stage is one token), and adds in that same order; :func:`dense_stage` is
the one builder of such a stage.  No stage stores cells.

The expansion binds every matrix as a :class:`LinearMap` in its own structure
(``W'^T`` as its stage's structure, ``I_n (x) W`` as ``W``, attention as
per-head factors), applied to vectors; only ``dense()`` builds an array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RangeError, ShapeError
from .reference import (
    AttnParams,
    ConvParams,
    PoolParams,
    _check_conv_input,
    _check_tokens,
    _check_weights,
    activation,
    attention_probabilities_raw,
)
from .tensor import Tensor, as_matrix, as_vector, check_cap, flatten, matvec


def stage_vector(t: Tensor) -> np.ndarray:
    """A stage value as x' (or y'): ``t`` flattened row-major, except that a
    3-D conv value (C, H, W, D) puts depth outermost inside each channel
    block, as (C, D, H, W)."""
    axes = t.shape.axes
    if axes[0] in ("C_I", "C_O") and axes[1:] == ("H", "W", "D"):
        return flatten(t, (axes[0], "D", "H", "W"))
    return flatten(t)


def diamond(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Diamond product: ``w <> x = w^T x`` (literally evaluated that way)."""
    w = as_matrix(w)
    x = as_vector(x)
    if w.shape[0] != x.shape[0]:
        raise ShapeError(f"diamond mismatch: {w.shape} <> {x.shape}")
    return matvec(w.T, x)


class LinearMap:
    """A (rows, cols) linear map in its kind's structure: ``m @ v`` applies it,
    ``m @ n`` composes (``n`` first), ``dense()`` builds it within the cap."""

    def __init__(self, shape: tuple[int, int], apply: Callable, dense: Callable):
        self.shape, self._apply, self._dense = shape, apply, dense

    def __matmul__(self, other):
        if isinstance(other, LinearMap):
            if other.shape[0] != self.shape[1]:
                raise ShapeError(f"cannot compose maps of shapes {self.shape} and {other.shape}")
            return LinearMap((self.shape[0], other.shape[1]), lambda v: self @ (other @ v),
                             lambda: self.dense() @ other.dense())
        if np.shape(other) != (self.shape[1],):
            raise ShapeError(f"map of shape {self.shape} applied to shape {np.shape(other)}")
        return self._apply(other)

    def dense(self) -> np.ndarray:
        check_cap("dense map", self.shape)
        return self._dense()


def identity_map(dim: int) -> LinearMap:
    return LinearMap((dim, dim), lambda v: v, lambda: np.eye(dim))


def tokenwise_map(weight: np.ndarray, tokens: int) -> LinearMap:
    """``I_tokens (x) weight^T``: X maps to ``X @ weight``, both flattened row-major."""
    rows, cols = weight.shape
    return LinearMap((tokens * cols, tokens * rows),
                     lambda v: (v.reshape(tokens, rows) @ weight).ravel(),
                     lambda: np.kron(np.eye(tokens), weight.T))


@dataclass(frozen=True)
class DenseMatrix:
    """W' of a token or dense stage from W alone: ``W' = I_tokens (x) W``,
    W of shape ``shape`` = (rows, cols) applied to each of ``tokens`` tokens
    (a dense stage is one token).  The stage's weights are W, and each of
    its elements occupies one cell per token."""

    tokens: int
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.tokens * math.prod(self.shape)

    def sharing_counts(self) -> np.ndarray:
        return np.full(math.prod(self.shape), self.tokens)

    def check(self, w: np.ndarray, n_in: int, n_out: int) -> None:
        rows, cols = self.shape
        if w.shape != self.shape or (n_in, n_out) != (self.tokens * rows, self.tokens * cols):
            raise ShapeError(f"W of shape {w.shape} and W' of shape ({n_in}, {n_out}) do not fit "
                             f"{self.tokens} token(s) of a stage of shape {self.shape}")

    def apply(self, w: np.ndarray, v: np.ndarray, n_out: int) -> np.ndarray:
        """W'^T v, each output added over its token's inputs in ascending
        order from +0.0, as the cells' ``bincount`` adds it: one
        ``accumulate`` down a (tokens, rows + 1, cols) buffer whose first
        row is +0.0 (a ``reduce``, ``@`` or ``einsum`` may go pairwise or
        blocked).  The element cap on the stage's index grid bounds the
        buffer."""
        rows, cols = self.shape
        terms = np.zeros((self.tokens, rows + 1, cols))
        np.multiply(v.reshape(self.tokens, rows, 1), w, out=terms[:, 1:])
        np.add.accumulate(terms, axis=1, out=terms)
        return terms[:, -1].copy().reshape(-1)  # a view would keep the buffer alive

    def dense(self, w: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
        """W' with W in its diagonal blocks (``kron`` would write -0.0 beside
        each negative element)."""
        rows, cols = self.shape
        out = np.zeros((n_in, n_out))
        t = np.arange(self.tokens)
        out.reshape(self.tokens, rows, self.tokens, cols)[t, :, t] = w
        return out


# perfbench/tracer.py times every token and dense stage's sharing_counts
# through this name; ROADMAP item 9 ends its wrapping by name and the alias.
WeightIndexMap = DenseMatrix


class WindowPattern:
    """W' of a conv or pooling layer from its geometry alone: one channel
    pair's window pattern, grouped by kernel offset.

    ``gather[s, p]`` is the position, inside one input channel's block of
    x', that kernel offset ``s`` (row-major over the kernel extents) reads
    for position ``p`` of one output channel's block of y', or the block
    size (an exact zero) where that window point lies in the padding;
    ``offset_counts[s]`` counts the points of offset ``s`` inside the input.
    W' repeats the pattern over the (output, input) channel pairs, output
    channel outermost, with kernel element (o, c, s) in pair (o, c);
    ``per_channel`` (pooling) keeps only the pairs o == c, with a kernel of
    shape (channels, *kernel).  A 3-D layer puts depth outermost inside each
    channel block.  The stage's weights are the kernel, so a stage holds no
    array of size C_O*C_I*outputs*kernel.
    """

    def __init__(self, out_channels: int, in_channels: int, kernel: tuple[int, ...], stride: int,
                 padding: int, spatial: tuple[int, ...], per_channel: bool = False):
        nd = len(kernel)
        self.order = [2, 0, 1] if nd == 3 else [0, 1]  # stage_vector's order of (H, W[, D])
        self.outs = [(ext + 2 * padding - k) // stride + 1 for ext, k in zip(spatial, kernel)]
        self.in_extents = (in_channels, *(spatial[a] for a in self.order))  # x' as (C_I, ...)
        self.per_channel = per_channel
        channels = (in_channels,) if per_channel else (out_channels, in_channels)
        self.kernel_shape = (*channels, *kernel)
        self.pairs = math.prod(channels)
        # y' positions in order, as (H, W[, D]) coordinates
        y_pos = np.indices([self.outs[a] for a in self.order]).reshape(nd, -1)
        out_pos = y_pos[[self.order.index(a) for a in range(nd)]]
        k_off = np.indices(kernel).reshape(nd, -1)
        in_pos = out_pos[:, None, :] * stride + k_off[:, :, None] - padding  # (nd, offsets, P)
        inside = np.all((in_pos >= 0) & (in_pos < np.array(spatial)[:, None, None]), axis=0)
        flat = np.ravel_multi_index(tuple(in_pos[self.order]), self.in_extents[1:], mode="clip")
        self.gather = np.where(inside, flat, math.prod(spatial))
        self.offset_counts = inside.sum(axis=1)
        for array in (self.gather, self.offset_counts):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.pairs * int(self.offset_counts.sum())

    def sharing_counts(self) -> np.ndarray:
        """How many cells each kernel element occupies, over the elements
        that occupy any, in the lexicographic order of the kernel
        coordinates: every channel pair repeats the per-offset counts."""
        return np.tile(self.offset_counts[self.offset_counts > 0], self.pairs)

    def check(self, kernel: np.ndarray, n_in: int, n_out: int) -> None:
        c_out = self.kernel_shape[0]
        if kernel.shape != self.kernel_shape or (n_in, n_out) != (
            math.prod(self.in_extents), c_out * math.prod(self.outs)
        ):
            raise ShapeError(
                f"a kernel of shape {kernel.shape} and W' of shape ({n_in}, {n_out}) do not fit "
                f"the window pattern of kernel shape {self.kernel_shape}"
            )

    def apply(self, kernel: np.ndarray, v: np.ndarray, n_out: int) -> np.ndarray:
        """W'^T v from the kernel.  Each output adds its terms in the order
        of its cells: input channel, then kernel offset, each ascending.  A
        window point in the padding adds w * 0.0, which leaves a sum that
        starts at +0.0 unchanged, so the result is bitwise the cells'
        weighted ``bincount``."""
        c_in = self.in_extents[0]
        padded = np.zeros((c_in, math.prod(self.in_extents[1:]) + 1))
        padded[:, :-1] = v.reshape(c_in, -1)
        win = np.take(padded, self.gather, axis=1)  # (C_I, offsets, P): x' gathered once
        w = kernel.reshape(*self.kernel_shape[: -len(self.outs)], -1)  # (channels..., offsets)
        out = np.zeros(n_out).reshape(self.kernel_shape[0], -1)
        offsets = np.flatnonzero(self.offset_counts).tolist()
        if self.per_channel:  # channel c's windows weighted by its own kernel
            for s in offsets:
                out += w[:, s, None] * win[:, s]
        else:
            for c in range(c_in):
                for s in offsets:
                    out += w[:, c, s, None] * win[c, s]
        return out.ravel()

    def dense(self, kernel: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
        """W' from the kernel: each window point inside the input, placed in
        every channel pair (only o == c per channel) in one scatter."""
        in_block, n_pos = math.prod(self.in_extents[1:]), self.gather.shape[1]
        p, s = np.nonzero(self.gather.T < in_block)  # output position outermost: faster
        w = kernel.reshape(*self.kernel_shape[: -len(self.outs)], -1)[..., s]
        c = np.arange(self.in_extents[0])[:, None]
        o = c if self.per_channel else np.arange(self.kernel_shape[0])[:, None, None]
        out = np.zeros((n_in, n_out))
        out[c * in_block + self.gather[s, p], o * n_pos + p] = w
        return out


@dataclass(frozen=True)
class LoweredForm:
    """One matrix-vector stage: y' = W' <> x' (+ bias).

    W' has shape ``(len(x'), output_len)`` and is held as one of two
    structures, ``weight_index_map``, and ``weights``: a conv or pooling
    stage holds the :class:`WindowPattern` of its geometry and its kernel,
    and a token or dense stage, built by :func:`dense_stage` alone, a
    :class:`DenseMatrix` and W.  Each structural cell carries one kernel
    element; every other entry of W' is zero.  The two structures serve one
    protocol, each given ``weights``: ``check(weights, n_in, n_out)``
    rejects weights or a W' shape that do not fit, ``apply(weights, v,
    n_out)`` is W'^T v, ``dense(weights, n_in, n_out)`` is W' as an array
    (``weight_matrix``, built on read), ``sharing_counts()`` counts the cells
    of each kernel element, and ``len`` is the cell count.  x' is the stage
    input flattened, so no input element feeds two x' positions.
    """

    weights: np.ndarray
    input_vector: np.ndarray
    output_len: int
    weight_index_map: WindowPattern | DenseMatrix
    layout_note: str
    bias: np.ndarray | None = None

    def __post_init__(self):
        x = as_vector(self.input_vector)
        self.weight_index_map.check(self.weights, x.shape[0], self.output_len)
        if not np.all(np.isfinite(self.weights)):
            raise RangeError("W' entries must be finite")
        if self.bias is not None and as_vector(self.bias).shape[0] != self.output_len:
            raise ShapeError("bias length must equal output_len")

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of W': (len(x'), output_len)."""
        return len(self.input_vector), self.output_len

    @property
    def weight_matrix(self) -> np.ndarray:
        """W' as a dense array, built anew on every read."""
        return self.weight_index_map.dense(self.weights, *self.shape)

    @property
    def nnz(self) -> int:
        """Structural cell count (kernel-element placements)."""
        return len(self.weight_index_map)

    def evaluate(self) -> np.ndarray:
        """``W'^T x'`` (+ bias), summed in the structure's cell order."""
        out = self._apply(self.input_vector)
        if self.bias is not None:
            out = out + self.bias
        return out

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.weight_index_map.apply(self.weights, v, self.output_len)

    def linear_map(self) -> LinearMap:
        """``W'^T`` as a map: the stage without its input and bias, applied as
        ``evaluate`` applies it (W' does not depend on x')."""
        n_in, n_out = self.shape
        return LinearMap((n_out, n_in), self._apply, lambda: self.weight_matrix.T)


# Window patterns kept at once.  check_network visits a network's window
# layers in a cycle, so a cache smaller than its number of geometries would
# miss on every lookup; a pattern is O(outputs x kernel) integers, and
# cli.main clears the cache after each command.
_CELL_PATTERNS = 1024


@functools.lru_cache(maxsize=_CELL_PATTERNS)
def cell_pattern(
    out_channels: int,
    in_channels: int,
    kernel: tuple[int, ...],
    stride: int,
    padding: int,
    spatial: tuple[int, ...],
    per_channel: bool = False,
) -> WindowPattern:
    """The :class:`WindowPattern` of a window layer's geometry, built once
    and shared by every lowering of that geometry; the caller checks the
    element cap."""
    return WindowPattern(out_channels, in_channels, kernel, stride, padding, spatial, per_channel)


def _lower_conv(x: Tensor, p: ConvParams, w: Tensor) -> LoweredForm:
    spatial = _check_conv_input(x, p)
    weights = _check_weights(w, p)
    outs = p.out_extents(spatial)
    check_cap("lowering index grid", (p.out_channels, p.in_channels, *outs, *p.kernel))
    per_chan_out = math.prod(outs)
    layout = ("x': (C_I,H,W) row-major; y': (C_O,H,W) row-major" if p.ndim == 2
              else "x': (C_I,D,H,W) row-major; y': (C_O,D,H,W) row-major")
    return LoweredForm(
        weights=weights,
        input_vector=stage_vector(x),
        output_len=p.out_channels * per_chan_out,
        weight_index_map=cell_pattern(
            p.out_channels, p.in_channels, tuple(p.kernel), p.stride, p.padding, spatial
        ),
        layout_note=layout,
        bias=None if p.bias is None else np.repeat(p.bias, per_chan_out),
    )


def lower_conv2d_1_O(x: Tensor, p: ConvParams, w: Tensor) -> LoweredForm:
    """Single-input-channel 2-D conv: W' is the horizontal concatenation of one
    block per output channel."""
    if p.in_channels != 1:
        raise ShapeError("lower_conv2d_1_O requires exactly one input channel")
    return _lower_conv(x, p, w)


def lower_conv2d_I_O(x: Tensor, p: ConvParams, w: Tensor) -> LoweredForm:
    """General 2-D conv: W' is an (input-channel x output-channel) block grid;
    stacking the per-channel x' blocks realizes the channel summation."""
    if p.ndim != 2:
        raise ShapeError("lower_conv2d_I_O needs 2-D kernel extents")
    return _lower_conv(x, p, w)


def lower_conv3d(x: Tensor, p: ConvParams, w: Tensor) -> LoweredForm:
    """3-D conv in the same block grid; depth slices are stacked (depth
    outermost) inside every per-channel block of x' and y'."""
    if p.ndim != 3:
        raise ShapeError("lower_conv3d needs 3-D kernel extents")
    return _lower_conv(x, p, w)


def lower_mean_pool(x: Tensor, p: PoolParams) -> LoweredForm:
    """Mean pooling as a matrix: each W' column holds 1/(k_h*k_w) at its
    window's positions, so every column sums to one."""
    if x.shape.axes != ("C_I", "H", "W"):
        raise ShapeError(f"mean pooling expects axes (C_I, H, W), got {x.shape.axes}")
    chans, h, wd = x.shape.extents
    h_out, w_out = p.out_extents((h, wd))
    kh, kw = p.window
    check_cap("lowering index grid", (chans, h_out, w_out, kh, kw))
    return LoweredForm(
        weights=np.full((chans, kh, kw), 1.0 / (kh * kw)),
        input_vector=stage_vector(x),
        output_len=chans * h_out * w_out,
        weight_index_map=cell_pattern(chans, chans, tuple(p.window), p.stride, 0, (h, wd),
                                      per_channel=True),
        layout_note="x': (C_I,H,W) row-major; y': (C_I,H,W) row-major; block-diagonal per channel",
    )


def dense_stage(weight: np.ndarray, bias: np.ndarray, input_vector: np.ndarray, tokens: int,
                note: str) -> LoweredForm:
    """The one builder of a token or dense stage: ``weight`` is W, of shape
    (rows, cols), applied to each of ``tokens`` tokens of ``input_vector``,
    with ``bias`` added to each token's output."""
    rows, cols = weight.shape
    check_cap("lowering index grid", (tokens, rows, cols))  # before anything is built
    return LoweredForm(weights=weight, input_vector=input_vector, output_len=tokens * cols,
                       weight_index_map=DenseMatrix(tokens, (rows, cols)), layout_note=note,
                       bias=np.tile(bias, tokens))


def lower_ffn(x: np.ndarray, p: AttnParams, sigma: str) -> tuple[LoweredForm, LoweredForm]:
    """Row-wise FFN as two matrix stages over the flattened token matrix.

    Stage one maps x' to the hidden pre-activation, stage two maps the
    activated hidden vector to the output; evaluating stage two reproduces
    :func:`uatcv.reference.ffn_direct`.
    """
    x = _check_tokens(x, p)
    n = x.shape[0]
    act = activation(sigma)
    stage1 = dense_stage(
        p.w_2, p.b_2, x.reshape(-1), n,
        "x': (token,feature) row-major; y': (token,hidden) row-major; W_2 per token",
    )
    hidden = act(stage1.evaluate())
    stage2 = dense_stage(
        p.w_3, p.b_3, hidden, n,
        "x': sigma(stage-1 output); y': (token,feature) row-major; W_3 per token",
    )
    return stage1, stage2


def effective_matrix_from_projections(
    x: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    w_o: np.ndarray,
    heads: int,
) -> LinearMap:
    """M(X) of :func:`extract_mha_effective_matrix` from bare projections, as
    a map held as its factors: ``M vec(Y) = vec(sum_k A_k Y B_k)``."""
    x = as_matrix(x)
    n, d = x.shape
    dh = d // heads
    probs = attention_probabilities_raw(x, w_q, w_k, heads)
    bs = [w_v[:, k * dh : (k + 1) * dh] @ w_o[k * dh : (k + 1) * dh, :] for k in range(heads)]

    def apply(v: np.ndarray) -> np.ndarray:
        return sum(a @ v.reshape(n, d) @ b for a, b in zip(probs, bs)).ravel()

    return LinearMap((n * d, n * d), apply, lambda: np.einsum(
        "kij,kqp->ipjq", np.array(probs), np.array(bs)).reshape(n * d, n * d))


def extract_mha_effective_matrix(x: np.ndarray, p: AttnParams) -> np.ndarray:
    """The dense matrix M(X) realizing multi-head attention as a linear map at X.

    With the per-head attention probabilities A_k frozen at X,
    ``MHA(X) = sum_k A_k X (W_V[:,k] W_O[k,:])``, so on the row-major
    flattening of X the map is ``M = sum_k kron(A_k, B_k^T)`` with
    ``B_k = W_V[:, head k] @ W_O[head k, :]`` (Van Loan, The ubiquitous
    Kronecker product, J. Comput. Appl. Math. 123, 2000).  M is exact at X
    and only at X: it keeps the probabilities frozen while true attention
    re-mixes them for each new input.
    """
    x = _check_tokens(x, p)
    return effective_matrix_from_projections(x, p.w_q, p.w_k, p.w_v, p.w_o, p.heads).dense()
