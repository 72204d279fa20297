import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatcv.errors import ShapeError
from uatcv.reference import (
    AttnParams,
    ConvParams,
    PoolParams,
    conv2d_direct,
    conv3d_direct,
    ffn_direct,
    mean_pool_direct,
    mha_direct,
    patchify,
    random_attn_params,
    relu,
    unpatchify,
)
from uatcv.tensor import Tensor, TensorShape

from conftest import traced_peak
from oracles import conv2d_naive, conv3d_naive, ffn_naive, mean_pool_naive, mha_naive, patchify_naive


def _t(axes, arr):
    arr = np.asarray(arr, dtype=np.float64)
    return Tensor(TensorShape(list(zip(axes, arr.shape))), arr)


def _image(arr):
    return _t(("C_I", "H", "W"), np.asarray(arr, dtype=np.float64)[None])


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv2d_scalar_kernel_scales():
    x = _image([[1.0, 2.0], [3.0, 4.0]])
    p = ConvParams(in_channels=1, out_channels=1, kernel=(1, 1))
    w = _t(("C_O", "C_I", "H", "W"), np.full((1, 1, 1, 1), 2.0))
    out = conv2d_direct(x, p, w)
    assert out.data[0].tolist() == [[2.0, 4.0], [6.0, 8.0]]


def test_conv2d_all_ones_kernel_sums():
    x = _image([[1.0, 2.0], [3.0, 4.0]])
    p = ConvParams(in_channels=1, out_channels=1, kernel=(2, 2))
    w = _t(("C_O", "C_I", "H", "W"), np.ones((1, 1, 2, 2)))
    out = conv2d_direct(x, p, w)
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 10.0


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        kh, kw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h, w = int(rng.integers(kh, 5)), int(rng.integers(kw, 5))
        x = rng.normal(size=(c_in, h, w))
        kern = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        p = ConvParams(c_in, c_out, (kh, kw), stride, padding, bias=bias)
        got = conv2d_direct(_t(("C_I", "H", "W"), x), p, _t(("C_O", "C_I", "H", "W"), kern))
        want = conv2d_naive(x, kern, stride, padding, bias)
        assert got.data.shape == want.shape
        assert np.max(np.abs(got.data - want)) <= 1e-9


def test_conv2d_shape_errors():
    x = _image([[1.0, 2.0], [3.0, 4.0]])
    p = ConvParams(in_channels=1, out_channels=1, kernel=(3, 3))
    w = _t(("C_O", "C_I", "H", "W"), np.ones((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d_direct(x, p, w)  # kernel larger than input
    p2 = ConvParams(in_channels=2, out_channels=1, kernel=(2, 2))
    with pytest.raises(ShapeError):
        conv2d_direct(x, p2, w)  # channel mismatch


# ConvParams and PoolParams are public constructors, so they check the
# geometry they are given; a description's spec refuses it before them
_ONE = dict(in_channels=1, out_channels=1, kernel=(2, 2))


@pytest.mark.parametrize("kwargs, message", [
    ({**_ONE, "in_channels": 0}, "channel counts must be >= 1"),
    ({**_ONE, "out_channels": 0}, "channel counts must be >= 1"),
    ({**_ONE, "kernel": (2,)}, "kernel must have 2 or 3 extents >= 1, got (2,)"),
    ({**_ONE, "kernel": (2, 0)}, "kernel must have 2 or 3 extents >= 1, got (2, 0)"),
    ({**_ONE, "stride": 0}, "stride must be >= 1, got 0"),
    ({**_ONE, "padding": -1}, "padding must be >= 0, got -1"),
    ({**_ONE, "out_channels": 2, "bias": np.zeros(3)}, "bias length 3 != out_channels 2"),
])
def test_conv_params_refuse_bad_geometry(kwargs, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        ConvParams(**kwargs)


def test_conv2d_linearity_without_bias():
    rng = np.random.default_rng(3)
    p = ConvParams(2, 2, (2, 2))
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(2, 2, 2, 2)))
    for _ in range(10):
        a, b = rng.normal(), rng.normal()
        x = rng.normal(size=(2, 4, 4))
        z = rng.normal(size=(2, 4, 4))
        lhs = conv2d_direct(_t(("C_I", "H", "W"), a * x + b * z), p, kern).data
        rhs = a * conv2d_direct(_t(("C_I", "H", "W"), x), p, kern).data + b * conv2d_direct(
            _t(("C_I", "H", "W"), z), p, kern
        ).data
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------


def test_conv3d_identity_kernel():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2, 3, 2))
    p = ConvParams(1, 1, (1, 1, 1))
    w = _t(("C_O", "C_I", "H", "W", "D"), np.ones((1, 1, 1, 1, 1)))
    out = conv3d_direct(_t(("C_I", "H", "W", "D"), x), p, w)
    assert np.array_equal(out.data[0], x[0])


def test_conv3d_all_ones_sums():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 2, 2, 2))
    p = ConvParams(1, 1, (2, 2, 2))
    w = _t(("C_O", "C_I", "H", "W", "D"), np.ones((1, 1, 2, 2, 2)))
    out = conv3d_direct(_t(("C_I", "H", "W", "D"), x), p, w)
    assert abs(out.data[0, 0, 0, 0] - x.sum()) < 1e-12


def test_conv3d_matches_naive_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 3))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        ks = tuple(int(k) for k in rng.integers(1, 3, size=3))
        spatial = tuple(int(rng.integers(k, 4)) for k in ks)
        x = rng.normal(size=(c_in, *spatial))
        kern = rng.normal(size=(c_out, c_in, *ks))
        p = ConvParams(c_in, c_out, ks, stride, padding)
        got = conv3d_direct(
            _t(("C_I", "H", "W", "D"), x), p, _t(("C_O", "C_I", "H", "W", "D"), kern)
        )
        want = conv3d_naive(x, kern, stride, padding)
        assert np.max(np.abs(got.data - want)) <= 1e-9


@pytest.mark.parametrize("dead", [0, 1, 2])
def test_conv3d_all_zero_channel_drops_bitwise(dead):
    # the channel sum runs left to right, so an all-zero channel adds exact zeros
    rng = np.random.default_rng(30 + dead)
    x = rng.normal(size=(3, 4, 5, 3))
    x[dead] = 0.0
    kern = rng.normal(size=(4, 3, 2, 3, 2))
    bias = rng.normal(size=4)
    axes, kaxes = ("C_I", "H", "W", "D"), ("C_O", "C_I", "H", "W", "D")
    full = conv3d_direct(_t(axes, x), ConvParams(3, 4, (2, 3, 2), 1, 1, bias), _t(kaxes, kern))
    keep = [c for c in range(3) if c != dead]
    dropped = conv3d_direct(
        _t(axes, x[keep]), ConvParams(2, 4, (2, 3, 2), 1, 1, bias), _t(kaxes, kern[:, keep])
    )
    assert full.shape == dropped.shape
    assert np.array_equal(full.data, dropped.data)


_CONV_AXES = {2: (("C_I", "H", "W"), ("C_O", "C_I", "H", "W")),
              3: (("C_I", "H", "W", "D"), ("C_O", "C_I", "H", "W", "D"))}


def _conv(x, kern, stride=1, padding=0, bias=None):
    """The direct conv of plain arrays, x (C_I, *spatial) and kern (C_O, C_I, *kernel)."""
    axes, kaxes = _CONV_AXES[x.ndim - 1]
    p = ConvParams(x.shape[0], kern.shape[0], kern.shape[2:], stride, padding, bias)
    direct = conv2d_direct if x.ndim == 3 else conv3d_direct
    return direct(_t(axes, x), p, _t(kaxes, kern)).data


@pytest.mark.parametrize("c_in,c_out,hw", [(3, 8, 24), (8, 16, 12), (16, 16, 12)])
def test_conv2d_all_zero_channel_drops_bitwise(c_in, c_out, hw):
    # conv_mid's layer shapes (kernel 3x3, padding 1), each channel dead in turn
    rng = np.random.default_rng(c_in * 100 + c_out)
    x = rng.normal(size=(c_in, hw, hw))
    kern = rng.normal(size=(c_out, c_in, 3, 3))
    bias = rng.normal(size=c_out)
    for dead in range(c_in):
        xd = x.copy()
        xd[dead] = 0.0
        keep = [c for c in range(c_in) if c != dead]
        full = _conv(xd, kern, 1, 1, bias)
        assert np.array_equal(full, _conv(xd[keep], kern[:, keep], 1, 1, bias))


@pytest.mark.parametrize("ndim", [2, 3])
def test_conv_output_channel_rows_do_not_depend_on_other_channels(ndim):
    # C_O from 1 to 17 crosses the widths BLAS kernels block output rows by
    rng = np.random.default_rng(40 + ndim)
    spatial, kernel = ((7, 6), (3, 2)) if ndim == 2 else ((4, 5, 3), (2, 3, 2))
    x = rng.normal(size=(3, *spatial))
    for c_out in range(1, 18):
        kern = rng.normal(size=(c_out, 3, *kernel))
        bias = rng.normal(size=c_out)
        full = _conv(x, kern, 1, 1, bias)
        subsets = [[o] for o in range(c_out)]
        if c_out > 1:
            subsets += [[o for o in range(c_out) if o != gone] for gone in range(c_out)]
        subsets.append(sorted(rng.choice(c_out, size=(c_out + 1) // 2, replace=False)))
        for rows in subsets:
            assert np.array_equal(_conv(x, kern[rows], 1, 1, bias[rows]), full[rows])


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


@st.composite
def _conv_cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
    padding = draw(st.integers(0, 2))
    largest = 6 if ndim == 2 else 3  # keeps the oracle's loops short
    spatial = tuple(draw(st.integers(max(1, k - 2 * padding), largest)) for k in kernel)
    c_in, c_out = draw(st.integers(1, 8)), draw(st.integers(1, 17))
    stride = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-20, 20))
    x = scale * rng.normal(size=(c_in, *spatial))
    kern = rng.normal(size=(c_out, c_in, *kernel))
    bias = scale * rng.normal(size=c_out) if draw(st.booleans()) else None
    return x, kern, stride, padding, bias


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_conv_cases())
def test_conv_direct_within_roundoff_bound_of_oracle(case):
    # Each side is within gamma_n (|W| * |x|) + gamma_1 |bias| of the exact
    # value, n = C_I K + 1 (Higham, Accuracy and Stability, section 3.1), so
    # the two are within twice that of each other.
    x, kern, stride, padding, bias = case
    naive = conv2d_naive if x.ndim == 3 else conv3d_naive
    got = _conv(x, kern, stride, padding, bias)
    want = naive(x, kern, stride, padding, bias)
    magnitude = naive(np.abs(x), np.abs(kern), stride, padding)
    n = x.shape[0] * np.prod(kern.shape[2:]) + 1
    abs_bias = 0.0 if bias is None else np.abs(bias).reshape(-1, *(1,) * (x.ndim - 1))
    bound = 2 * (_gamma(n) * magnitude + _gamma(1) * abs_bias)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)


def test_conv_direct_never_builds_the_whole_column_array():
    # one input channel's column block at a time: the whole (C_I K, P) array
    # alone would be 9 MiB here
    rng = np.random.default_rng(8)
    x = rng.normal(size=(32, 64, 64))
    kern = rng.normal(size=(32, 32, 3, 3))
    with traced_peak() as peak:
        _conv(x, kern, 1, 1)
    assert peak.bytes <= 5 * 2**20


def test_reference_imports_nothing_from_lowering():
    # the direct path is the independent side of every check of a lowering
    path = Path(__file__).resolve().parent.parent / "src" / "uatcv" / "reference.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names if node.level and not node.module]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [m for m in imported if "lowering" in m.split(".")]


# ---------------------------------------------------------------------------
# mean pooling
# ---------------------------------------------------------------------------


def test_mean_pool_simple():
    out = mean_pool_direct(_image([[1.0, 3.0], [5.0, 7.0]]), PoolParams((2, 2)))
    assert out.data.tolist() == [[[4.0]]]


def test_mean_pool_constant_idempotent():
    x = _t(("C_I", "H", "W"), np.full((2, 4, 4), 3.5))
    out = mean_pool_direct(x, PoolParams((2, 2), stride=2))
    assert np.allclose(out.data, 3.5)


def test_mean_pool_matches_naive_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        h, w = int(rng.integers(kh, 6)), int(rng.integers(kw, 6))
        x = rng.normal(size=(c, h, w))
        got = mean_pool_direct(_t(("C_I", "H", "W"), x), PoolParams((kh, kw), stride))
        want = mean_pool_naive(x, kh, kw, stride)
        assert np.max(np.abs(got.data - want)) <= 1e-9


def test_mean_pool_channel_independence():
    rng = np.random.default_rng(14)
    chans = [rng.normal(size=(1, 4, 4)) for _ in range(3)]
    stacked = np.concatenate(chans, axis=0)
    p = PoolParams((2, 2), stride=2)
    whole = mean_pool_direct(_t(("C_I", "H", "W"), stacked), p).data
    parts = [mean_pool_direct(_t(("C_I", "H", "W"), ch), p).data for ch in chans]
    assert np.array_equal(whole, np.concatenate(parts, axis=0))


def test_mean_pool_window_too_big():
    with pytest.raises(ShapeError):
        mean_pool_direct(_image([[1.0, 2.0], [3.0, 4.0]]), PoolParams((3, 3)))


@pytest.mark.parametrize("window, stride, message", [
    ((2,), 1, "window must have 2 extents >= 1, got (2,)"),
    ((0, 2), 1, "window must have 2 extents >= 1, got (0, 2)"),
    ((2, 2), 0, "stride must be >= 1, got 0"),
])
def test_pool_params_refuse_bad_geometry(window, stride, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        PoolParams(window, stride)


# ---------------------------------------------------------------------------
# patchify
# ---------------------------------------------------------------------------


def test_patchify_single_patch():
    img = _t(("H", "W"), [[1.0, 2.0], [3.0, 4.0]])
    rows = patchify(img, (2, 2))
    assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0]]


def test_patchify_reassembles():
    rng = np.random.default_rng(15)
    arr = rng.normal(size=(4, 4))
    img = _t(("H", "W"), arr)
    rows = patchify(img, (2, 2))
    assert rows.shape == (4, 4)
    back = unpatchify(rows, img.shape, (2, 2))
    assert np.array_equal(back.data, arr)


def test_patchify_matches_index_oracle():
    rng = np.random.default_rng(16)
    arr = rng.normal(size=(6, 6))
    rows = patchify(_t(("H", "W"), arr), (3, 3))
    assert np.array_equal(rows, patchify_naive(arr, 3, 3))


def test_patchify_channels_last():
    rng = np.random.default_rng(17)
    arr = rng.normal(size=(4, 4, 2))
    rows = patchify(_t(("H", "W", "C_I"), arr), (2, 2))
    assert rows.shape == (4, 8)
    back = unpatchify(rows, TensorShape([("H", 4), ("W", 4), ("C_I", 2)]), (2, 2))
    assert np.array_equal(back.data, arr)


def test_patchify_indivisible():
    img = _t(("H", "W"), np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        patchify(img, (3, 3))


# ---------------------------------------------------------------------------
# attention and FFN
# ---------------------------------------------------------------------------


def test_mha_single_token_ignores_query_path():
    rng = np.random.default_rng(18)
    p = random_attn_params(4, 2, 6, rng)
    x = rng.normal(size=(1, 4))
    out = mha_direct(x, p)
    assert np.max(np.abs(out - x @ p.w_v @ p.w_o)) < 1e-12


def test_mha_identical_tokens_identical_rows():
    rng = np.random.default_rng(19)
    p = random_attn_params(4, 2, 6, rng)
    row = rng.normal(size=4)
    x = np.stack([row, row])
    out = mha_direct(x, p)
    assert np.max(np.abs(out[0] - out[1])) < 1e-12


def test_mha_matches_naive_oracle():
    rng = np.random.default_rng(20)
    for _ in range(100):
        heads = int(rng.integers(1, 3))
        d = heads * int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        p = random_attn_params(d, heads, 3, rng)
        x = rng.normal(size=(n, d))
        got = mha_direct(x, p)
        want = mha_naive(x, p.w_q, p.w_k, p.w_v, p.w_o, heads)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_mha_token_permutation_equivariance():
    rng = np.random.default_rng(21)
    p = random_attn_params(4, 2, 5, rng)
    x = rng.normal(size=(5, 4))
    perm = rng.permutation(5)
    assert np.max(np.abs(mha_direct(x[perm], p) - mha_direct(x, p)[perm])) < 1e-9


def test_ffn_zero_weights_give_bias():
    d = 3
    p = AttnParams(
        model_dim=d, heads=1,
        w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
        w_v=np.zeros((d, d)), w_o=np.zeros((d, d)),
        w_2=np.zeros((d, 4)), w_3=np.zeros((4, d)),
        b_2=np.zeros(4), b_3=np.array([1.0, -2.0, 0.5]),
    )
    x = np.random.default_rng(22).normal(size=(3, d))
    out = ffn_direct(x, p, "relu")
    assert np.array_equal(out, np.tile(p.b_3, (3, 1)))


def test_ffn_identity_activation_is_linear_map():
    rng = np.random.default_rng(23)
    p = random_attn_params(4, 1, 5, rng)
    p = AttnParams(
        model_dim=4, heads=1, w_q=p.w_q, w_k=p.w_k, w_v=p.w_v, w_o=p.w_o,
        w_2=p.w_2, w_3=p.w_3, b_2=np.zeros(5), b_3=np.zeros(4),
    )
    x = rng.normal(size=(3, 4))
    out = ffn_direct(x, p, "identity")
    assert np.max(np.abs(out - x @ p.w_2 @ p.w_3)) < 1e-12


def test_ffn_matches_naive_oracle():
    rng = np.random.default_rng(24)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        dff = int(rng.integers(1, 6))
        p = random_attn_params(d, 1, dff, rng)
        x = rng.normal(size=(n, d))
        got = ffn_direct(x, p, "relu")
        want = ffn_naive(x, p.w_2, p.w_3, p.b_2, p.b_3, relu)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_attn_params_head_divisibility():
    with pytest.raises(ShapeError):
        random_attn_params(5, 2, 4, np.random.default_rng(0))
