"""Independent second implementations used as oracles.

Everything here is written as plainly as possible (nested loops, pure
Python integers) and never calls into the package's own operation code, so
a bug would have to be made twice to slip through.  The one exception is
:func:`prune_impact_per_input`, the prune study as a loop over single
inputs: it holds the package's stacked pass to its own one-input pass.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Pure-python splitmix stream: raw 64-bit outputs."""
    state = seed & _MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z = z ^ (z >> 31)
        out.append(z)
    return out


def splitmix64_uniform_reference(seed: int, count: int, lo: float, hi: float) -> list[float]:
    return [
        lo + (hi - lo) * ((z >> 11) / float(1 << 53))
        for z in splitmix64_reference(seed, count)
    ]


def conv2d_naive(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """Five nested loops over (c_out, i, j, c_in, a, b); x is (C_I, H, W),
    w is (C_O, C_I, kh, kw)."""
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    xp = np.zeros((c_in, hp, wp))
    xp[:, padding : padding + h, padding : padding + wd] = x
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += w[o, c, a, b] * xp[c, i * stride + a, j * stride + b]
                out[o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def conv3d_naive(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """Loop-everything 3-D convolution; x is (C_I, H, W, D),
    w is (C_O, C_I, kh, kw, kd)."""
    c_out, c_in, kh, kw, kd = w.shape
    _, h, wd, dp = x.shape
    hp, wp, dpp = h + 2 * padding, wd + 2 * padding, dp + 2 * padding
    xp = np.zeros((c_in, hp, wp, dpp))
    xp[:, padding : padding + h, padding : padding + wd, padding : padding + dp] = x
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    d_out = (dpp - kd) // stride + 1
    out = np.zeros((c_out, h_out, w_out, d_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                for z in range(d_out):
                    acc = 0.0
                    for c in range(c_in):
                        for a in range(kh):
                            for b in range(kw):
                                for e in range(kd):
                                    acc += (
                                        w[o, c, a, b, e]
                                        * xp[c, i * stride + a, j * stride + b, z * stride + e]
                                    )
                    out[o, i, j, z] = acc + (bias[o] if bias is not None else 0.0)
    return out


def mean_pool_naive(x: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    c, h, wd = x.shape
    h_out = (h - kh) // stride + 1
    w_out = (wd - kw) // stride + 1
    out = np.zeros((c, h_out, w_out))
    for ch in range(c):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        acc += x[ch, i * stride + a, j * stride + b]
                out[ch, i, j] = acc / (kh * kw)
    return out


def patchify_naive(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Index-arithmetic patch extraction for a 2-D image."""
    h, w = x.shape
    gh, gw = h // ph, w // pw
    out = np.zeros((gh * gw, ph * pw))
    for gi in range(gh):
        for gj in range(gw):
            row = gi * gw + gj
            for a in range(ph):
                for b in range(pw):
                    out[row, a * pw + b] = x[gi * ph + a, gj * pw + b]
    return out


def _softmax_row(v: np.ndarray) -> np.ndarray:
    m = max(float(t) for t in v)
    e = np.array([math.exp(float(t) - m) for t in v])
    return e / e.sum()


def mha_naive(x: np.ndarray, w_q, w_k, w_v, w_o, heads: int) -> np.ndarray:
    """Per-head loop multi-head attention over row-vector tokens."""
    n, d = x.shape
    dh = d // heads
    q = x @ w_q
    k = x @ w_k
    v = x @ w_v
    concat = np.zeros((n, d))
    for head in range(heads):
        s = slice(head * dh, (head + 1) * dh)
        for i in range(n):
            logits = np.array(
                [float(q[i, s] @ k[j, s]) / math.sqrt(dh) for j in range(n)]
            )
            probs = _softmax_row(logits)
            for j in range(n):
                concat[i, s] += probs[j] * v[j, s]
    return concat @ w_o


def mha_kron_sum(x: np.ndarray, w_q, w_k, w_v, w_o, heads: int) -> np.ndarray:
    """The attention effective matrix as the plain Kronecker sum
    ``sum_k kron(A_k, (W_V[:, k] W_O[k, :])^T)``, with each head's
    probabilities A_k computed row by row."""
    n, d = x.shape
    dh = d // heads
    q = x @ w_q
    k = x @ w_k
    m = np.zeros((n * d, n * d))
    for head in range(heads):
        s = slice(head * dh, (head + 1) * dh)
        a = np.stack([
            _softmax_row(np.array([float(q[i, s] @ k[j, s]) / math.sqrt(dh) for j in range(n)]))
            for i in range(n)
        ])
        m += np.kron(a, (w_v[:, s] @ w_o[s, :]).T)
    return m


def ffn_naive(x: np.ndarray, w_2, w_3, b_2, b_3, sigma) -> np.ndarray:
    """Row-at-a-time two-stage feed-forward."""
    n = x.shape[0]
    rows = []
    for i in range(n):
        hidden = sigma(x[i] @ w_2 + b_2)
        rows.append(hidden @ w_3 + b_3)
    return np.stack(rows)


def conv1d_batch(signals: np.ndarray, k: int, stride: int, mean: bool = False) -> np.ndarray:
    """All-ones 1-D convolution (or mean pooling) applied to a batch of
    signals along axis 1; used to trace dependency cones."""
    n = signals.shape[1]
    n_out = (n - k) // stride + 1
    out = np.zeros((signals.shape[0], n_out))
    for a in range(k):
        out += signals[:, a : a + (n_out - 1) * stride + 1 : stride]
    return out / k if mean else out


def impulse_receptive_field(layers: list[tuple[int, int, bool]], length: int) -> int:
    """Receptive-field extent of output unit 0 by brute impulse responses.

    ``layers`` lists (kernel, stride, is_mean_pool).  Feeds every unit
    impulse through the stack at once (one batch row per impulse position)
    and measures the span of positions that reach output unit 0.
    """
    batch = np.eye(length)
    for k, s, mean in layers:
        batch = conv1d_batch(batch, k, s, mean)
        if batch.shape[1] < 1:
            raise ValueError("signal too short for this stack")
    influence = np.flatnonzero(batch[:, 0] > 0.0)
    return int(influence.max() - influence.min() + 1)


def conv_cells_full_grid(out_channels: int, in_channels: int, kernel: tuple[int, ...],
                         stride: int, padding: int, spatial: tuple[int, ...]):
    """(rows, cols, kernel sources) of a conv W' from one index grid over
    every (output channel, input channel, output position, kernel offset)
    combination, masked to the windows inside the input.  A 3-D conv's
    spatial extents are (H, W, D) and x', y' put depth outermost."""
    nd = len(kernel)
    outs = tuple((ext + 2 * padding - k) // stride + 1 for ext, k in zip(spatial, kernel))
    idx = [g.reshape(-1) for g in np.indices((out_channels, in_channels, *outs, *kernel))]
    o, c, out_pos, k_off = idx[0], idx[1], idx[2 : 2 + nd], idx[2 + nd :]
    in_pos = [op * stride + ko - padding for op, ko in zip(out_pos, k_off)]
    mask = np.ones(len(o), dtype=bool)
    for pos, ext in zip(in_pos, spatial):
        mask &= (pos >= 0) & (pos < ext)
    in_extents, out_extents = spatial, outs
    if nd == 3:  # (D, H, W) inside each channel block
        in_pos, out_pos = [in_pos[2], *in_pos[:2]], [out_pos[2], *out_pos[:2]]
        in_extents, out_extents = (spatial[2], *spatial[:2]), (outs[2], *outs[:2])
    rows = c * math.prod(spatial) + _ravel(in_pos, in_extents)
    cols = o * math.prod(outs) + _ravel(out_pos, out_extents)
    sources = np.stack([o, c, *k_off], axis=1)
    return rows[mask], cols[mask], sources[mask]


def mean_pool_cells_full_grid(channels: int, window: tuple[int, int], stride: int,
                              spatial: tuple[int, int]):
    """(rows, cols, kernel sources) of a mean-pooling W' from one index grid
    over every (channel, output position, window offset) combination; the
    sources are (channel, window offset)."""
    (h, wd), (kh, kw) = spatial, window
    h_out, w_out = (h - kh) // stride + 1, (wd - kw) // stride + 1
    c, i, j, a, b = (g.reshape(-1) for g in np.indices((channels, h_out, w_out, kh, kw)))
    rows = c * (h * wd) + (i * stride + a) * wd + (j * stride + b)
    cols = c * (h_out * w_out) + i * w_out + j
    return rows, cols, np.stack([c, a, b], axis=1)


def token_cells_full_grid(tokens: int, rows_in: int, cols_out: int):
    """(rows, cols, kernel sources) of a token stage's W' = I_tokens (x) W
    from one index grid over every (token, input feature, output feature)
    combination; the sources are W's (row, column)."""
    t, i, j = (g.reshape(-1) for g in np.indices((tokens, rows_in, cols_out)))
    return t * rows_in + i, t * cols_out + j, np.stack([i, j], axis=1)


def dense_from_cells(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                     shape: tuple[int, int]) -> np.ndarray:
    """W' with each cell's value at its own (row, col) and zero elsewhere;
    no two cells may share a position."""
    if len(set(zip(rows.tolist(), cols.tolist()))) != len(rows):
        raise ValueError("two cells share a position")
    w = np.zeros(shape)
    w[rows, cols] = values
    return w


def _ravel(coords: list[np.ndarray], extents: tuple[int, ...]) -> np.ndarray:
    flat = np.zeros_like(coords[0])
    for pos, ext in zip(coords, extents):
        flat = flat * ext + pos
    return flat


def prune_impact_per_input(net, mask, inputs, pruned=None) -> dict:
    """``analysis.prune_impact`` run one input at a time: each input through
    the original network and then the pruned one, by ``netspec.forward``."""
    from uatcv.analysis import prune, resolve_mask
    from uatcv.netspec import forward

    channels = resolve_mask(net, mask)
    if pruned is None:
        pruned = prune(net, mask)
    devs = []
    for x in inputs:
        a = forward(net, x)[-1].data
        b = forward(pruned, x)[-1].data
        if a.shape != b.shape:
            a = np.delete(a, channels, axis=0)
        devs.append(float(np.max(np.abs(a - b))))
    return {
        "layer": mask.layer,
        "pruned_channels": list(channels),
        "inputs": len(inputs),
        "max_deviation": max(devs),
        "mean_deviation": float(np.mean(devs)),
        "per_input": devs,
    }
