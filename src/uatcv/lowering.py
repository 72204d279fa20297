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
weight sharing inspectable: every cell traces to exactly one kernel element,
and a kernel element generally occupies many cells.  A stage evaluates in
O(cells) as a weighted ``bincount``, and the dense W' is built only when read.
Every index grid a lowering enumerates counts against the element cap.

The expansion binds every matrix as a :class:`LinearMap` in its own structure
(``W'^T`` as cells, ``I_n (x) W`` as ``W``, attention as per-head factors),
applied to vectors; only ``dense()`` builds an array.
"""

from __future__ import annotations

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
    kernel coordinate each cell carries."""

    rows: np.ndarray
    cols: np.ndarray
    sources: np.ndarray  # (n_entries, kernel_ndim) int coordinates

    def __len__(self) -> int:
        return len(self.rows)

    def sharing_counts(self) -> np.ndarray:
        """How many cells each distinct kernel element occupies, in the
        lexicographic order of the kernel coordinates."""
        if not len(self):
            return np.zeros(0, dtype=np.intp)
        flat = np.ravel_multi_index(tuple(self.sources.T), tuple(self.sources.max(axis=0) + 1))
        counts = np.bincount(flat)
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
        """Source coordinates that feed more than one x' position."""
        uniq, counts = np.unique(self.input_index_map, axis=0, return_counts=True)
        return uniq[counts > 1]

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


def _index_grid(dims: tuple[int, ...]) -> list[np.ndarray]:
    """The flat coordinates of every point of a grid with extents ``dims``,
    within the element cap."""
    _check_cap("lowering index grid", dims)
    return [g.reshape(-1) for g in np.indices(dims)]


def _conv_index_grids(p: ConvParams, spatial: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """All (channel, output, kernel-offset) combinations plus validity mask."""
    outs = p.out_extents(spatial)
    idx = _index_grid((p.out_channels, p.in_channels, *outs, *p.kernel))
    nd = p.ndim
    o, c = idx[0], idx[1]
    out_pos = idx[2 : 2 + nd]
    k_off = idx[2 + nd :]
    in_pos = [op * p.stride + ko - p.padding for op, ko in zip(out_pos, k_off)]
    mask = np.ones(len(o), dtype=bool)
    for pos, ext in zip(in_pos, spatial):
        mask &= (pos >= 0) & (pos < ext)
    return o, c, out_pos, k_off, in_pos, mask, outs


def _ravel(coords: list[np.ndarray], extents: tuple[int, ...]) -> np.ndarray:
    flat = np.zeros_like(coords[0])
    for pos, ext in zip(coords, extents):
        flat = flat * ext + pos
    return flat


def _lower_conv(x: Tensor, p: ConvParams, w: Tensor) -> LoweredForm:
    spatial = _check_conv_input(x, p)
    weights = _check_weights(w, p)
    o, c, out_pos, k_off, in_pos, mask, outs = _conv_index_grids(p, spatial)

    if p.ndim == 2:
        h, wd = spatial
        in_extents = (h, wd)
        input_order = None  # storage order (C_I, H, W) already matches
        layout = "x': (C_I,H,W) row-major; y': (C_O,H,W) row-major"
        coord_grid = np.indices((p.in_channels, h, wd)).reshape(3, -1).T
    else:
        h, wd, dep = spatial
        in_extents = (dep, h, wd)  # depth outermost inside each channel block
        in_pos = [in_pos[2], in_pos[0], in_pos[1]]
        out_pos = [out_pos[2], out_pos[0], out_pos[1]]
        outs = (outs[2], outs[0], outs[1])
        input_order = ("C_I", "D", "H", "W")
        layout = "x': (C_I,D,H,W) row-major; y': (C_O,D,H,W) row-major"
        grid = np.indices((p.in_channels, dep, h, wd)).reshape(4, -1).T
        # map positions back to tensor coordinates (C_I, H, W, D)
        coord_grid = grid[:, [0, 2, 3, 1]]

    per_chan_in = int(np.prod(in_extents))
    per_chan_out = int(np.prod(outs))
    rows = c * per_chan_in + _ravel(in_pos, in_extents)
    cols = o * per_chan_out + _ravel(out_pos, outs)
    k_sources = np.stack([o, c, *k_off], axis=1)
    rows, cols, k_sources = rows[mask], cols[mask], k_sources[mask]

    bias = None
    if p.bias is not None:
        bias = np.repeat(p.bias, per_chan_out)
    return LoweredForm(
        weight_values=weights[tuple(k_sources.T)],
        input_vector=flatten(x, input_order),
        output_len=p.out_channels * per_chan_out,
        input_index_map=coord_grid,
        weight_index_map=WeightIndexMap(rows=rows, cols=cols, sources=k_sources),
        layout_note=layout,
        bias=bias,
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
    c, i, j, a, b = _index_grid((chans, h_out, w_out, kh, kw))
    y = i * p.stride + a
    xx = j * p.stride + b
    rows = c * (h * wd) + y * wd + xx
    cols = c * (h_out * w_out) + i * w_out + j
    return LoweredForm(
        weight_values=np.full(len(rows), 1.0 / (kh * kw)),
        input_vector=flatten(x),
        output_len=chans * h_out * w_out,
        input_index_map=np.indices((chans, h, wd)).reshape(3, -1).T,
        weight_index_map=WeightIndexMap(
            rows=rows, cols=cols, sources=np.stack([c, a, b], axis=1)
        ),
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
    t, i, j = _index_grid((tokens, rows_in, cols_out))
    rows = t * rows_in + i
    cols = t * cols_out + j
    return LoweredForm(
        weight_values=np.tile(np.ravel(weight), tokens),
        input_vector=input_vector,
        output_len=tokens * cols_out,
        input_index_map=np.indices((tokens, rows_in)).reshape(2, -1).T,
        weight_index_map=WeightIndexMap(rows=rows, cols=cols, sources=np.stack([i, j], axis=1)),
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
