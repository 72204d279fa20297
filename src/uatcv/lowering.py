"""Explicit matrix-vector forms for every layer operation.

Each lowering builds a weight matrix W' and input vector x' such that the
diamond product ``W' <> x' = W'^T x'`` reproduces the direct computation of
:mod:`uatcv.reference`, flattened in a documented axis order:

* 2-D conv / pooling: x' is the input in (C_I, H, W) row-major order, the
  output vector is (C_O, H, W) row-major;
* 3-D conv: x' is (C_I, D, H, W) order (depth slices stacked per channel),
  the output is (C_O, D, H, W);
* FFN stages and attention operate on token matrices flattened row-major
  (token, feature).

W' is stored as its structural cells (the positions that carry a kernel
element, whatever its value) with one value each; the cells' index map keeps
weight sharing inspectable: every cell carries the flat index of exactly one
kernel element, and a kernel element generally occupies many cells.  A stage
evaluates in O(cells) as a weighted ``bincount``, and the dense W' is built
only when read.  Every index grid a lowering stands for counts against the
element cap, checked on every call.

A conv or pooling layer's cells depend on its geometry alone (channels,
kernel, stride, padding, input extents), never on the weights or x': they
are one spatial window pattern broadcast over the channel pairs
(Chellapilla, Puri & Simard, High Performance Convolutional Neural Networks
for Document Processing, 2006).  :func:`cell_pattern` builds them once per
geometry and keeps the last few, read-only; a lowering then only gathers
the weights through the flat kernel index and flattens x'.

The expansion binds every matrix as a :class:`LinearMap` in its own structure
(``W'^T`` as cells, ``I_n (x) W`` as ``W``, attention as per-head factors),
applied to vectors; only ``dense()`` builds an array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, RangeError, ShapeError
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
from .tensor import Tensor, as_matrix, as_vector, element_cap, flatten, matvec


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
        _check_cap("dense map", self.shape)
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
class WeightIndexMap:
    """Structural cells of W': parallel arrays of (row, col) positions and the
    flat index, into the kernel of shape ``kernel_shape``, of the element each
    cell carries."""

    rows: np.ndarray
    cols: np.ndarray
    kernel_index: np.ndarray
    kernel_shape: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def sources(self) -> np.ndarray:
        """Each cell's kernel coordinate, (n_cells, kernel ndim), read-only."""
        sources = np.stack(np.unravel_index(self.kernel_index, self.kernel_shape), axis=1)
        sources.flags.writeable = False
        return sources

    def sharing_counts(self) -> np.ndarray:
        """How many cells each distinct kernel element occupies, in the
        lexicographic order of the kernel coordinates."""
        counts = np.bincount(self.kernel_index)
        return counts[counts > 0]


@dataclass(frozen=True)
class LoweredForm:
    """One matrix-vector stage: y' = W' <> x' (+ bias).

    W' has shape ``(len(x'), output_len)`` and is held as its structural
    cells: ``weight_index_map`` gives each cell's (row, col) and the kernel
    coordinate it carries, and ``weight_values[k]`` is the value of cell k.
    Every other entry of W' is zero.  ``input_index_map`` gives, for each x'
    position, the source coordinate it was read from; a source appearing at
    several positions is a replica.
    """

    weight_values: np.ndarray
    input_vector: np.ndarray
    output_len: int
    input_index_map: np.ndarray  # (len(x'), coord_ndim)
    weight_index_map: WeightIndexMap
    layout_note: str
    bias: np.ndarray | None = None

    def __post_init__(self):
        x = as_vector(self.input_vector)
        cells = self.weight_index_map
        if len(self.weight_values) != len(cells):
            raise ShapeError(
                f"{len(self.weight_values)} weight values for {len(cells)} structural cells"
            )
        if len(cells) and not (
            0 <= cells.rows.min() and cells.rows.max() < x.shape[0]
            and 0 <= cells.cols.min() and cells.cols.max() < self.output_len
        ):
            raise ShapeError(
                f"structural cells must lie inside W' of shape (len(x'), output_len) = "
                f"({x.shape[0]}, {self.output_len})"
            )
        if not np.all(np.isfinite(self.weight_values)):
            raise RangeError("W' entries must be finite")
        if self.bias is not None and as_vector(self.bias).shape[0] != self.output_len:
            raise ShapeError("bias length must equal output_len")
        if len(self.input_index_map) != x.shape[0]:
            raise ShapeError("input_index_map must cover every x' position")

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of W': (len(x'), output_len)."""
        return len(self.input_vector), self.output_len

    @property
    def weight_matrix(self) -> np.ndarray:
        """W' as a dense array, built anew on every read."""
        w = np.zeros(self.shape)
        w[self.weight_index_map.rows, self.weight_index_map.cols] = self.weight_values
        return w

    @property
    def nnz(self) -> int:
        """Structural cell count (kernel-element placements)."""
        return len(self.weight_index_map)

    def replicated_sources(self) -> np.ndarray:
        """Source coordinates that feed more than one x' position, in
        lexicographic order (each coordinate row is sorted as one integer)."""
        m = self.input_index_map
        lo = m.min(axis=0)
        dims = m.max(axis=0) - lo + 1
        flat, counts = np.unique(np.ravel_multi_index(tuple((m - lo).T), dims), return_counts=True)
        return np.stack(np.unravel_index(flat[counts > 1], dims), axis=1) + lo

    def evaluate(self) -> np.ndarray:
        """``W'^T x'`` (+ bias), summed over the structural cells."""
        out = self._cell_sum(self.input_vector)
        if self.bias is not None:
            out = out + self.bias
        return out

    def _cell_sum(self, v: np.ndarray) -> np.ndarray:
        cells = self.weight_index_map
        out = np.bincount(cells.cols, self.weight_values * v[cells.rows], minlength=self.output_len)
        return out.astype(np.float64, copy=False)  # bincount over no cells gives ints

    def linear_map(self) -> LinearMap:
        """``W'^T`` as a map: the stage without its input and bias, applied by
        the same sum over the structural cells (W' does not depend on x')."""
        n_in, n_out = self.shape
        return LinearMap((n_out, n_in), self._cell_sum, lambda: self.weight_matrix.T)


def _check_cap(what: str, dims: tuple[int, ...]) -> None:
    """An array of extents ``dims`` over the element cap is a CapacityError,
    raised before it is allocated."""
    n = math.prod(dims)
    if n > element_cap():
        raise CapacityError(f"{what} of shape {dims} has {n} elements, cap is {element_cap()}")


# Cell patterns kept at once: a network has about one geometry per window
# layer, and each pattern is within the element cap.
_CELL_PATTERNS = 8


@functools.lru_cache(maxsize=_CELL_PATTERNS)
def cell_pattern(
    out_channels: int,
    in_channels: int,
    kernel: tuple[int, ...],
    stride: int,
    padding: int,
    spatial: tuple[int, ...],
    per_channel: bool = False,
) -> tuple[np.ndarray, ...]:
    """The structural cells of a window layer's W', from its geometry alone.

    The window pattern is every (output position, kernel offset) point whose
    input position lies inside the unpadded input, in row-major order; it is
    broadcast over the (output, input) channel pairs, output channel
    outermost.  ``per_channel`` (pooling) keeps only the pairs o == c, with
    a kernel of shape (channels, *kernel).  A 3-D layer flattens depth
    outermost inside each channel block.  Returns read-only ``(rows, cols,
    kernel_index, input_index_map)``; the caller checks the element cap.
    """
    nd = len(kernel)
    order = [2, 0, 1] if nd == 3 else [0, 1]  # x' and y' axis order of (H, W[, D])
    outs = [(ext + 2 * padding - k) // stride + 1 for ext, k in zip(spatial, kernel)]
    points = np.indices((*outs, *kernel)).reshape(2 * nd, -1)
    out_pos, k_off = points[:nd], points[nd:]
    in_pos = out_pos * stride + k_off - padding
    valid = np.all((in_pos >= 0) & (in_pos < np.array(spatial)[:, None]), axis=0)
    in_extents = [spatial[a] for a in order]
    # the window pattern: one channel pair's cells
    in_rows = np.ravel_multi_index(tuple(in_pos[order][:, valid]), in_extents)
    out_cols = np.ravel_multi_index(tuple(out_pos[order][:, valid]), [outs[a] for a in order])
    k_flat = np.ravel_multi_index(tuple(k_off[:, valid]), kernel)
    if per_channel:
        o = c = pair = np.arange(in_channels)
    else:
        pair = np.arange(out_channels * in_channels)
        o, c = np.divmod(pair, in_channels)
    rows = (c[:, None] * math.prod(spatial) + in_rows).ravel()
    cols = (o[:, None] * math.prod(outs) + out_cols).ravel()
    kernel_index = (pair[:, None] * math.prod(kernel) + k_flat).ravel()
    # x' position -> tensor coordinate (C_I, H, W[, D])
    coords = np.indices((in_channels, *in_extents)).reshape(nd + 1, -1)
    input_index_map = coords[[0, *(1 + order.index(a) for a in range(nd))]].T
    for array in (rows, cols, kernel_index, input_index_map):
        array.flags.writeable = False
    return rows, cols, kernel_index, input_index_map


def _lower_conv(x: Tensor, p: ConvParams, w: Tensor) -> LoweredForm:
    spatial = _check_conv_input(x, p)
    weights = _check_weights(w, p)
    outs = p.out_extents(spatial)
    _check_cap("lowering index grid", (p.out_channels, p.in_channels, *outs, *p.kernel))
    rows, cols, kernel_index, input_index_map = cell_pattern(
        p.out_channels, p.in_channels, tuple(p.kernel), p.stride, p.padding, spatial
    )
    per_chan_out = math.prod(outs)
    if p.ndim == 2:
        input_order = None  # storage order (C_I, H, W) already matches
        layout = "x': (C_I,H,W) row-major; y': (C_O,H,W) row-major"
    else:
        input_order = ("C_I", "D", "H", "W")  # depth outermost inside each channel block
        layout = "x': (C_I,D,H,W) row-major; y': (C_O,D,H,W) row-major"
    return LoweredForm(
        weight_values=weights.ravel()[kernel_index],
        input_vector=flatten(x, input_order),
        output_len=p.out_channels * per_chan_out,
        input_index_map=input_index_map,
        weight_index_map=WeightIndexMap(rows, cols, kernel_index, weights.shape),
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
    _check_cap("lowering index grid", (chans, h_out, w_out, kh, kw))
    rows, cols, kernel_index, input_index_map = cell_pattern(
        chans, chans, tuple(p.window), p.stride, 0, (h, wd), per_channel=True
    )
    return LoweredForm(
        weight_values=np.full(len(rows), 1.0 / (kh * kw)),
        input_vector=flatten(x),
        output_len=chans * h_out * w_out,
        input_index_map=input_index_map,
        weight_index_map=WeightIndexMap(rows, cols, kernel_index, (chans, kh, kw)),
        layout_note="x': (C_I,H,W) row-major; y': (C_I,H,W) row-major; block-diagonal per channel",
    )


def _ffn_stage(
    weight: np.ndarray,
    bias: np.ndarray,
    input_vector: np.ndarray,
    tokens: int,
    note: str,
) -> LoweredForm:
    rows_in, cols_out = weight.shape
    _check_cap("lowering index grid", (tokens, rows_in, cols_out))
    t, i, j = (g.reshape(-1) for g in np.indices((tokens, rows_in, cols_out)))
    rows = t * rows_in + i
    cols = t * cols_out + j
    return LoweredForm(
        weight_values=np.tile(np.ravel(weight), tokens),
        input_vector=input_vector,
        output_len=tokens * cols_out,
        input_index_map=np.indices((tokens, rows_in)).reshape(2, -1).T,
        weight_index_map=WeightIndexMap(rows, cols, i * cols_out + j, weight.shape),
        layout_note=note,
        bias=np.tile(bias, tokens),
    )


def lower_ffn(x: np.ndarray, p: AttnParams, sigma: str = "relu") -> tuple[LoweredForm, LoweredForm]:
    """Row-wise FFN as two matrix stages over the flattened token matrix.

    Stage one maps x' to the hidden pre-activation, stage two maps the
    activated hidden vector to the output; evaluating stage two reproduces
    :func:`uatcv.reference.ffn_direct`.
    """
    x = _check_tokens(x, p)
    n = x.shape[0]
    act = activation(sigma)
    stage1 = _ffn_stage(
        p.w_2, p.b_2, x.reshape(-1), n,
        "x': (token,feature) row-major; y': (token,hidden) row-major; W_2 per token",
    )
    hidden = act(stage1.evaluate())
    stage2 = _ffn_stage(
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
