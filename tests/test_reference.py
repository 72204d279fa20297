import numpy as np
import pytest

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
