import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from oracles import (
    conv_cells_full_grid,
    dense_from_cells,
    mean_pool_cells_full_grid,
    mha_kron_sum,
    token_cells_full_grid,
)
from uatcv.errors import CapacityError, ShapeError
from uatcv.lowering import (
    DenseMatrix,
    diamond,
    effective_matrix_from_projections,
    extract_mha_effective_matrix,
    identity_map,
    lower_conv2d_1_O,
    lower_conv2d_I_O,
    lower_conv3d,
    lower_ffn,
    lower_mean_pool,
    stage_vector,
    tokenwise_map,
)
from uatcv.reference import (
    ConvParams,
    PoolParams,
    conv2d_direct,
    conv3d_direct,
    ffn_direct,
    mean_pool_direct,
    mha_direct,
    random_attn_params,
)
from uatcv.tensor import Tensor, TensorShape, flatten, matvec


def _t(axes, arr):
    arr = np.asarray(arr, dtype=np.float64)
    return Tensor(TensorShape(list(zip(axes, arr.shape))), arr)


def _rand_conv2d(rng, c_in=None, c_out=None, bias=False):
    c_in = c_in if c_in is not None else int(rng.integers(1, 4))
    c_out = c_out if c_out is not None else int(rng.integers(1, 4))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    h = int(rng.integers(max(kh - 2 * padding, 1), 7))
    w = int(rng.integers(max(kw - 2 * padding, 1), 7))
    h, w = max(h, kh - 2 * padding), max(w, kw - 2 * padding)
    x = _t(("C_I", "H", "W"), rng.normal(size=(c_in, h, w)))
    b = rng.normal(size=c_out) if bias else None
    p = ConvParams(c_in, c_out, (kh, kw), stride, padding, bias=b)
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(c_out, c_in, kh, kw)))
    return x, p, kern


# ---------------------------------------------------------------------------
# diamond product
# ---------------------------------------------------------------------------


def test_diamond_identity():
    assert diamond(np.eye(2), np.array([5.0, 7.0])).tolist() == [5.0, 7.0]


def test_diamond_hand_value():
    # W^T x with W = [[1,2],[3,4]], x = (1,1): (1+3, 2+4) = (4, 6)
    out = diamond(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    assert out.tolist() == [4.0, 6.0]


def test_diamond_mismatch():
    with pytest.raises(ShapeError):
        diamond(np.ones((3, 2)), np.ones(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_diamond_is_transposed_matvec_bitexact(rows, cols, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(rows, cols))
    x = rng.normal(size=rows)
    assert np.array_equal(diamond(w, x), matvec(w.T, x))


# ---------------------------------------------------------------------------
# conv2d lowering
# ---------------------------------------------------------------------------


def test_lower_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = _t(("C_I", "H", "W"), rng.normal(size=(1, 3, 3)))
    p = ConvParams(1, 1, (1, 1))
    kern = _t(("C_O", "C_I", "H", "W"), np.ones((1, 1, 1, 1)))
    form = lower_conv2d_1_O(x, p, kern)
    # exactly one unit entry per column
    assert np.array_equal((form.weight_matrix != 0).sum(axis=0), np.ones(9, dtype=int))
    assert np.array_equal(form.evaluate(), flatten(x))


def test_lower_conv2d_all_ones_column():
    x = _t(("C_I", "H", "W"), np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    p = ConvParams(1, 1, (2, 2))
    kern = _t(("C_O", "C_I", "H", "W"), np.ones((1, 1, 2, 2)))
    form = lower_conv2d_1_O(x, p, kern)
    assert form.weight_matrix.shape == (4, 1)
    assert np.array_equal(form.weight_matrix, np.ones((4, 1)))
    assert form.evaluate().tolist() == [10.0]


def test_lower_conv2d_1_O_requires_single_channel():
    rng = np.random.default_rng(1)
    x = _t(("C_I", "H", "W"), rng.normal(size=(2, 3, 3)))
    p = ConvParams(2, 1, (2, 2))
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(1, 2, 2, 2)))
    with pytest.raises(ShapeError):
        lower_conv2d_1_O(x, p, kern)
    lower_conv2d_I_O(x, p, kern)  # general form accepts it


def test_lower_conv2d_1_O_random_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x, p, kern = _rand_conv2d(rng, c_in=1, c_out=3)
        form = lower_conv2d_1_O(x, p, kern)
        direct = flatten(conv2d_direct(x, p, kern))
        assert np.max(np.abs(form.evaluate() - direct)) <= 1e-9


def test_lower_conv2d_channel_selection():
    rng = np.random.default_rng(3)
    x = _t(("C_I", "H", "W"), rng.normal(size=(2, 3, 3)))
    kern = np.zeros((2, 2, 1, 1))
    kern[:, 0, 0, 0] = 1.0  # every output channel copies input channel 0
    p = ConvParams(2, 2, (1, 1))
    form = lower_conv2d_I_O(x, p, _t(("C_O", "C_I", "H", "W"), kern))
    out = form.evaluate()
    chan0 = x.data[0].reshape(-1)
    assert np.array_equal(out, np.concatenate([chan0, chan0]))


def test_lower_conv2d_channel_sum():
    rng = np.random.default_rng(4)
    x = _t(("C_I", "H", "W"), rng.normal(size=(2, 3, 3)))
    p = ConvParams(2, 1, (1, 1))
    kern = _t(("C_O", "C_I", "H", "W"), np.ones((1, 2, 1, 1)))
    form = lower_conv2d_I_O(x, p, kern)
    assert np.max(np.abs(form.evaluate() - (x.data[0] + x.data[1]).reshape(-1))) < 1e-12


def test_lower_conv2d_I_O_random_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        x, p, kern = _rand_conv2d(rng, bias=bool(rng.integers(0, 2)))
        form = lower_conv2d_I_O(x, p, kern)
        direct = flatten(conv2d_direct(x, p, kern))
        assert np.max(np.abs(form.evaluate() - direct)) <= 1e-9


def test_lower_conv2d_block_grid_layout():
    # block (input channel c, output channel o) of W' is the one-channel W'
    # of kernel (o, c)
    rng = np.random.default_rng(6)
    x = _t(("C_I", "H", "W"), rng.normal(size=(2, 3, 3)))
    p = ConvParams(2, 2, (2, 2))
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(2, 2, 2, 2)))
    w = lower_conv2d_I_O(x, p, kern).weight_matrix
    per_in, per_out = 9, 4
    assert w.shape == (2 * per_in, 2 * per_out)
    rows, cols, sources = conv_cells_full_grid(1, 1, (2, 2), 1, 0, (3, 3))
    for o in range(2):
        for c in range(2):
            block = dense_from_cells(rows, cols, kern.data[o, c][tuple(sources[:, 2:].T)],
                                     (per_in, per_out))
            assert np.array_equal(w[c * per_in : (c + 1) * per_in,
                                    o * per_out : (o + 1) * per_out], block)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_conv_lowering_sparsity_counts_no_padding():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, p, kern = _rand_conv2d(rng)
        if p.padding != 0:
            p = ConvParams(p.in_channels, p.out_channels, p.kernel, p.stride, 0)
        h, w = x.shape.extents[1:]
        if p.kernel[0] > h or p.kernel[1] > w:
            continue
        form = lower_conv2d_I_O(x, p, kern)
        h_out, w_out = p.out_extents((h, w))
        expected = p.out_channels * h_out * w_out * p.in_channels * p.kernel[0] * p.kernel[1]
        assert form.nnz == expected
        counts = form.weight_index_map.sharing_counts()
        assert len(counts) == p.out_channels * p.in_channels * p.kernel[0] * p.kernel[1]
        assert np.all(counts == h_out * w_out)


def test_conv_lowering_index_map_unique_and_complete():
    rng = np.random.default_rng(8)
    x, p, kern = _rand_conv2d(rng)
    form = lower_conv2d_I_O(x, p, kern)
    rows, cols, sources = conv_cells_full_grid(p.out_channels, p.in_channels, p.kernel,
                                               p.stride, p.padding, x.shape.extents[1:])
    # every cell traces to exactly one element and carries that element; every
    # other entry is zero
    want = dense_from_cells(rows, cols, kern.data[tuple(sources.T)], form.shape)
    assert np.array_equal(form.weight_matrix, want)
    assert form.nnz == len(rows) == np.count_nonzero(want)


def test_conv_lowering_linear_in_kernel():
    rng = np.random.default_rng(9)
    x, p, _ = _rand_conv2d(rng)
    shape = (p.out_channels, p.in_channels, *p.kernel)
    k1 = rng.normal(size=shape)
    k2 = rng.normal(size=shape)
    f1 = lower_conv2d_I_O(x, p, _t(("C_O", "C_I", "H", "W"), k1))
    f2 = lower_conv2d_I_O(x, p, _t(("C_O", "C_I", "H", "W"), k2))
    f12 = lower_conv2d_I_O(x, p, _t(("C_O", "C_I", "H", "W"), k1 + k2))
    assert np.array_equal(f12.weight_matrix, f1.weight_matrix + f2.weight_matrix)


def test_every_input_vector_is_its_stage_input_flattened():
    from uatcv.netspec import _dense_form

    rng = np.random.default_rng(26)
    x, p, kern = _rand_conv2d(rng, c_in=2, c_out=3)
    x3 = _t(("C_I", "H", "W", "D"), rng.normal(size=(2, 4, 3, 5)))
    p3 = ConvParams(2, 2, (2, 2, 2), 1, 1)
    k3 = _t(("C_O", "C_I", "H", "W", "D"), rng.normal(size=(2, 2, 2, 2, 2)))
    tokens = rng.normal(size=(3, 4))
    stage1, stage2 = lower_ffn(tokens, random_attn_params(4, 1, 5, rng), "relu")
    hidden = np.maximum(stage1.evaluate(), 0.0).reshape(3, -1)
    flat = rng.normal(size=6)
    cases = [
        (lower_conv2d_I_O(x, p, kern), x),
        (lower_conv3d(x3, p3, k3), x3),
        (lower_mean_pool(x, PoolParams((2, 2), stride=1)), x),
        (stage1, _t(("token", "feature"), tokens)),
        (stage2, _t(("token", "feature"), hidden)),
        (_dense_form(rng.normal(size=(5, 6)), rng.normal(size=5), flat), _t(("feature",), flat)),
    ]
    for form, stage_input in cases:
        assert np.array_equal(form.input_vector, stage_vector(stage_input))
        # a permutation of the input: no input element feeds two x' positions
        assert np.array_equal(np.sort(form.input_vector), np.sort(stage_input.flat))
    # depth outermost inside each channel block
    assert np.array_equal(stage_vector(x3), x3.data.transpose(0, 3, 1, 2).ravel())


# ---------------------------------------------------------------------------
# conv3d lowering
# ---------------------------------------------------------------------------


def test_lower_conv3d_identity():
    rng = np.random.default_rng(11)
    x = _t(("C_I", "H", "W", "D"), rng.normal(size=(1, 2, 3, 2)))
    p = ConvParams(1, 1, (1, 1, 1))
    kern = _t(("C_O", "C_I", "H", "W", "D"), np.ones((1, 1, 1, 1, 1)))
    form = lower_conv3d(x, p, kern)
    assert np.max(np.abs(form.evaluate() - flatten(x, ("C_I", "D", "H", "W")))) < 1e-12


def test_lower_conv3d_total_sum():
    rng = np.random.default_rng(12)
    x = _t(("C_I", "H", "W", "D"), rng.normal(size=(2, 2, 2, 2)))
    p = ConvParams(2, 1, (2, 2, 2))
    kern = _t(("C_O", "C_I", "H", "W", "D"), np.ones((1, 2, 2, 2, 2)))
    form = lower_conv3d(x, p, kern)
    assert form.evaluate().shape == (1,)
    assert abs(form.evaluate()[0] - x.data.sum()) < 1e-12


def test_lower_conv3d_random_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 3))
        ks = tuple(int(k) for k in rng.integers(1, 3, size=3))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        spatial = tuple(int(rng.integers(k, 5)) for k in ks)
        x = _t(("C_I", "H", "W", "D"), rng.normal(size=(c_in, *spatial)))
        p = ConvParams(c_in, c_out, ks, stride, padding)
        kern = _t(("C_O", "C_I", "H", "W", "D"), rng.normal(size=(c_out, c_in, *ks)))
        form = lower_conv3d(x, p, kern)
        direct = flatten(conv3d_direct(x, p, kern), ("C_O", "D", "H", "W"))
        assert np.max(np.abs(form.evaluate() - direct)) <= 1e-9


# ---------------------------------------------------------------------------
# mean pool lowering
# ---------------------------------------------------------------------------


def test_lower_mean_pool_quarter_column():
    x = _t(("C_I", "H", "W"), np.arange(4.0).reshape(1, 2, 2))
    form = lower_mean_pool(x, PoolParams((2, 2)))
    assert form.weight_matrix.shape == (4, 1)
    assert np.array_equal(form.weight_matrix[:, 0], np.full(4, 0.25))


def test_lower_mean_pool_columns_sum_to_one():
    rng = np.random.default_rng(14)
    for _ in range(20):
        c = int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        h, w = int(rng.integers(kh, 7)), int(rng.integers(kw, 7))
        x = _t(("C_I", "H", "W"), rng.normal(size=(c, h, w)))
        form = lower_mean_pool(x, PoolParams((kh, kw), stride))
        sums = form.weight_matrix.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_lower_mean_pool_matches_direct():
    rng = np.random.default_rng(15)
    x = _t(("C_I", "H", "W"), rng.normal(size=(2, 4, 4)))
    p = PoolParams((2, 2), stride=2)
    form = lower_mean_pool(x, p)
    direct = flatten(mean_pool_direct(x, p))
    assert np.max(np.abs(form.evaluate() - direct)) <= 1e-12


# ---------------------------------------------------------------------------
# FFN lowering
# ---------------------------------------------------------------------------


def _identity_ffn_params(d):
    from uatcv.reference import AttnParams

    return AttnParams(
        model_dim=d, heads=1,
        w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
        w_v=np.zeros((d, d)), w_o=np.zeros((d, d)),
        w_2=np.eye(d), w_3=np.eye(d), b_2=np.zeros(d), b_3=np.zeros(d),
    )


def test_lower_ffn_identity_net():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 4))
    p = _identity_ffn_params(4)
    _, stage2 = lower_ffn(x, p, "identity")
    assert np.max(np.abs(stage2.evaluate() - x.reshape(-1))) < 1e-12


def test_lower_ffn_zero_outer_gives_bias():
    from uatcv.reference import AttnParams

    d = 3
    p = AttnParams(
        model_dim=d, heads=1,
        w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
        w_v=np.zeros((d, d)), w_o=np.zeros((d, d)),
        w_2=np.ones((d, 2)), w_3=np.zeros((2, d)),
        b_2=np.zeros(2), b_3=np.array([1.0, 2.0, 3.0]),
    )
    x = np.random.default_rng(17).normal(size=(2, d))
    _, stage2 = lower_ffn(x, p, "relu")
    assert np.array_equal(stage2.evaluate(), np.tile(p.b_3, 2))


def test_lower_ffn_random_oracle():
    rng = np.random.default_rng(18)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        p = random_attn_params(d, 1, int(rng.integers(1, 6)), rng)
        x = rng.normal(size=(n, d))
        _, stage2 = lower_ffn(x, p, "relu")
        assert np.max(np.abs(stage2.evaluate() - ffn_direct(x, p, "relu").reshape(-1))) <= 1e-9


def test_lower_ffn_weight_replication():
    rng = np.random.default_rng(19)
    p = random_attn_params(3, 1, 4, rng)
    x = rng.normal(size=(5, 3))
    stage1, _ = lower_ffn(x, p, "relu")
    counts = stage1.weight_index_map.sharing_counts()
    assert len(counts) == 3 * 4  # one group per w_2 element
    assert np.all(counts == 5)  # shared across the 5 tokens


# ---------------------------------------------------------------------------
# attention effective matrix
# ---------------------------------------------------------------------------


def test_effective_matrix_single_token():
    rng = np.random.default_rng(20)
    p = random_attn_params(4, 2, 5, rng)
    x = rng.normal(size=(1, 4))
    m = extract_mha_effective_matrix(x, p)
    assert np.max(np.abs(m @ x.reshape(-1) - mha_direct(x, p).reshape(-1))) < 1e-12


def test_effective_matrix_identical_tokens_identical_blocks():
    rng = np.random.default_rng(21)
    p = random_attn_params(4, 2, 5, rng)
    row = rng.normal(size=4)
    x = np.stack([row, row])
    m = extract_mha_effective_matrix(x, p)
    assert np.max(np.abs(m[:4] - m[4:])) < 1e-12


def test_effective_matrix_random_oracle():
    rng = np.random.default_rng(22)
    for _ in range(40):
        heads = int(rng.integers(1, 3))
        d = heads * int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        p = random_attn_params(d, heads, 3, rng)
        x = rng.normal(size=(n, d))
        m = extract_mha_effective_matrix(x, p)
        assert np.max(np.abs(m @ x.reshape(-1) - mha_direct(x, p).reshape(-1))) <= 1e-9


def test_effective_matrix_is_frozen_at_its_input():
    # exact at X; stale (generically wrong) at X + delta with n >= 2
    rng = np.random.default_rng(23)
    p = random_attn_params(4, 2, 5, rng)
    x = rng.normal(size=(3, 4))
    m = extract_mha_effective_matrix(x, p)
    assert np.max(np.abs(m @ x.reshape(-1) - mha_direct(x, p).reshape(-1))) <= 1e-9
    delta = 0.3 * rng.normal(size=x.shape)
    stale = m @ (x + delta).reshape(-1)
    fresh = mha_direct(x + delta, p).reshape(-1)
    assert np.max(np.abs(stale - fresh)) > 1e-6


# ---------------------------------------------------------------------------
# linear maps: applied and composed in their own structure, dense on request
# ---------------------------------------------------------------------------


def _attention_map(x, p):
    return effective_matrix_from_projections(x, p.w_q, p.w_k, p.w_v, p.w_o, p.heads)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(heads=st.integers(1, 3), head_dim=st.integers(1, 3), tokens=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_attention_map_dense_matches_kron_sum_oracle(heads, head_dim, tokens, seed):
    rng = np.random.default_rng(seed)
    p = random_attn_params(heads * head_dim, heads, 2, rng)
    x = rng.normal(size=(tokens, heads * head_dim))
    m = _attention_map(x, p)
    want = mha_kron_sum(x, p.w_q, p.w_k, p.w_v, p.w_o, heads)
    np.testing.assert_allclose(m.dense(), want, rtol=1e-12, atol=1e-14)
    assert np.array_equal(extract_mha_effective_matrix(x, p), m.dense())
    v = rng.normal(size=x.size)
    np.testing.assert_allclose(m @ v, want @ v, rtol=1e-12, atol=1e-13)


def test_composition_dense_is_the_product_of_dense_factors():
    rng = np.random.default_rng(26)
    n, d, h = 3, 4, 5
    p = random_attn_params(d, 2, h, rng)
    x = rng.normal(size=(n, d))
    stage1, _ = lower_ffn(x, p, "relu")
    cells, w2, w3 = stage1.linear_map(), tokenwise_map(p.w_2, n), tokenwise_map(p.w_3, n)
    attn, ident = _attention_map(x, p), identity_map(n * d)
    # each kind's dense form is the matrix it stands for
    assert np.array_equal(cells.dense(), stage1.weight_matrix.T)
    assert np.array_equal(w2.dense(), np.kron(np.eye(n), p.w_2.T))
    assert np.array_equal(cells.dense(), w2.dense())
    assert np.array_equal(ident.dense(), np.eye(n * d))
    assert np.array_equal(cells @ stage1.input_vector + stage1.bias, stage1.evaluate())
    chain = w3 @ cells @ attn @ ident
    want = w3.dense() @ cells.dense() @ attn.dense() @ ident.dense()
    assert chain.shape == want.shape == (n * d, n * d)
    np.testing.assert_allclose(chain.dense(), want, rtol=1e-12, atol=1e-14)
    v = rng.normal(size=n * d)
    np.testing.assert_allclose(chain @ v, want @ v, rtol=1e-12, atol=1e-13)
    with pytest.raises(ShapeError):
        w2 @ w2
    with pytest.raises(ShapeError):
        attn @ np.ones(n * d + 1)


def test_dense_over_the_cap_raises_before_allocating(monkeypatch):
    # M alone would be 8192 x 8192 float64 (512 MB)
    monkeypatch.delenv("UATCV_CAP", raising=False)
    rng = np.random.default_rng(27)
    p = random_attn_params(128, 4, 8, rng)
    x = rng.normal(size=(64, 128))
    attn, w2 = _attention_map(x, p), tokenwise_map(p.w_2, 64)
    with traced_peak() as peak:
        for dense in (attn.dense, w2.dense, (w2 @ attn).dense,
                      lambda: extract_mha_effective_matrix(x, p)):
            with pytest.raises(CapacityError, match="cap is"):
                dense()
    assert peak.bytes < 2**20


# ---------------------------------------------------------------------------
# structural cells: evaluation, sharing counts, dense only on request
# ---------------------------------------------------------------------------


@st.composite
def _small_stage_forms(draw):
    """The forms of one small conv2d, conv3d, pool, FFN or dense stage, each
    with its oracle: the full-grid cells and the kernel their sources index."""
    from uatcv.netspec import _dense_form

    kind = draw(st.sampled_from(["conv2d", "conv3d", "pool", "ffn", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("conv2d", "conv3d"):
        nd = 2 if kind == "conv2d" else 3
        c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        kernel = tuple(draw(st.integers(1, 3)) for _ in range(nd))
        stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))
        spatial = tuple(
            draw(st.integers(max(k - 2 * padding, 1), k + 3)) for k in kernel
        )
        bias = rng.normal(size=c_out) if draw(st.booleans()) else None
        p = ConvParams(c_in, c_out, kernel, stride, padding, bias=bias)
        axes = ("H", "W", "D")[:nd]
        x = _t(("C_I", *axes), rng.normal(size=(c_in, *spatial)))
        kern = _t(("C_O", "C_I", *axes), rng.normal(size=(c_out, c_in, *kernel)))
        cells = conv_cells_full_grid(c_out, c_in, kernel, stride, padding, spatial)
        return [((lower_conv2d_I_O if nd == 2 else lower_conv3d)(x, p, kern), cells, kern.data)]
    if kind == "pool":
        window = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        h, w = (draw(st.integers(k, k + 3)) for k in window)
        chans, stride = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        x = _t(("C_I", "H", "W"), rng.normal(size=(chans, h, w)))
        cells = mean_pool_cells_full_grid(chans, window, stride, (h, w))
        return [(lower_mean_pool(x, PoolParams(window, stride)), cells,
                 np.full((chans, *window), 1.0 / (window[0] * window[1])))]
    if kind == "ffn":
        d, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        p = random_attn_params(d, 1, draw(st.integers(1, 5)), rng)
        forms = lower_ffn(rng.normal(size=(n, d)), p, "relu")
        return [(form, token_cells_full_grid(n, *w.shape), w)
                for form, w in zip(forms, (p.w_2, p.w_3))]
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    matrix = rng.normal(size=(m, n))
    form = _dense_form(matrix, rng.normal(size=m), rng.normal(size=n))
    return [(form, token_cells_full_grid(1, n, m), matrix.T)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_stage_forms())
def test_cell_evaluation_matches_dense_diamond(forms):
    # each result is within gamma_n * (|W'|^T |x'| + |b|) of the exact value
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1),
    # with n = len(x') + 1 for the bias; so the two are within twice that
    for form, (rows, cols, sources), kernel in forms:
        w = dense_from_cells(rows, cols, kernel[tuple(sources.T)], form.shape)
        wm = form.weight_matrix  # bitwise: an entry off the cells is +0.0, never -0.0
        assert wm.shape == w.shape and wm.tobytes() == w.tobytes()
        x = form.input_vector
        bias = np.zeros(form.output_len) if form.bias is None else form.bias
        dense = diamond(w, x) + bias
        nu = (len(x) + 1) * np.finfo(np.float64).eps / 2
        bound = 2 * nu / (1 - nu) * (np.abs(w).T @ np.abs(x) + np.abs(bias))
        assert np.all(np.abs(form.evaluate() - dense) <= bound)
        _, counts = np.unique(sources, axis=0, return_counts=True)
        assert np.array_equal(form.weight_index_map.sharing_counts(), counts)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_small_stage_forms())
def test_every_stage_structure_serves_one_protocol(forms):
    # conv, pool, FFN and dense stages alike: the map's dense form is W'^T,
    # every cell belongs to one kernel element, and evaluate() applies the map
    for form, _, _ in forms:
        m, structure = form.linear_map(), form.weight_index_map
        assert np.array_equal(m.dense(), form.weight_matrix.T)
        assert structure.sharing_counts().sum() == form.nnz == len(structure)
        bias = 0.0 if form.bias is None else form.bias
        assert np.array_equal(form.evaluate(), m @ form.input_vector + bias)


def test_conv_lowering_memory_is_linear_in_cells():
    # the dense W' of this layer is 4096 x 4096 float64, 128 MB
    rng = np.random.default_rng(24)
    x = _t(("C_I", "H", "W"), rng.normal(size=(1, 64, 64)))
    p = ConvParams(1, 1, (3, 3), 1, 1)
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(1, 1, 3, 3)))
    with traced_peak() as peak:
        form = lower_conv2d_I_O(x, p, kern)
        out = form.evaluate()
    assert peak.bytes < 16 * 2**20
    assert np.max(np.abs(out - flatten(conv2d_direct(x, p, kern)))) <= 1e-9


def test_lowering_index_grid_is_capped(monkeypatch):
    from uatcv.errors import CapacityError
    from uatcv.netspec import _dense_form
    from uatcv.tensor import set_element_cap

    rng = np.random.default_rng(25)
    x = _t(("C_I", "H", "W"), rng.normal(size=(2, 5, 5)))
    p = ConvParams(2, 3, (2, 2))
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(3, 2, 2, 2)))
    grid = 3 * 2 * 4 * 4 * 2 * 2  # out_ch * in_ch * outputs * kernel, before the mask
    monkeypatch.delenv("UATCV_CAP", raising=False)
    try:
        set_element_cap(grid)
        lower_conv2d_I_O(x, p, kern)
        set_element_cap(grid - 1)
        with pytest.raises(CapacityError, match=f"has {grid} elements"):
            lower_conv2d_I_O(x, p, kern)
        with pytest.raises(CapacityError):
            lower_ffn(rng.normal(size=(grid, 1)), random_attn_params(1, 1, 1, rng), "relu")
        # a dense stage counts its (1, n_in, n_out) grid, though it builds none
        m, n = 6, 8
        matrix, bias, flat = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n)
        set_element_cap(m * n)
        _dense_form(matrix, bias, flat)
        set_element_cap(m * n - 1)
        with pytest.raises(CapacityError, match=f"lowering index grid .* has {m * n} elements"):
            _dense_form(matrix, bias, flat)
    finally:
        set_element_cap(None)


def test_token_stage_over_the_cap_raises_before_tiling_its_bias(monkeypatch):
    # each weight fits the cap, but the (tokens, 1, hidden) grid does not; the
    # per-token bias would be 1024 x 4096 float64 (32 MB)
    from uatcv.tensor import set_element_cap

    monkeypatch.delenv("UATCV_CAP", raising=False)
    rng = np.random.default_rng(28)
    p, x = random_attn_params(1, 1, 4096, rng), rng.normal(size=(1024, 1))
    set_element_cap(4096)
    try:
        with traced_peak() as peak, pytest.raises(CapacityError, match="lowering index grid"):
            lower_ffn(x, p, "relu")
    finally:
        set_element_cap(None)
    assert peak.bytes < 2**20


# ---------------------------------------------------------------------------
# token and dense stages: W held as itself, summed in the cells' order
# ---------------------------------------------------------------------------


def _mixed_scale(rng, shape):
    """Normal entries scaled by 2^-40, 1 or 2^40, about a fifth of them -0.0:
    their sums change with the order in which they are added."""
    a = rng.normal(size=shape) * 2.0 ** rng.choice([-40, 0, 40], size=shape)
    a[rng.random(shape) < 0.2] = -0.0
    return a


@st.composite
def _dense_stages(draw):
    """(tokens, W, bias, x) of a token stage, W of shape (inputs, outputs)
    per token, single-output about a third of the time; one token is a dense
    stage.  52 to 300 outputs put tokens x outputs on both sides of
    ``ordered_sum``'s 256, so both of its paths are drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tokens = draw(st.integers(1, 5))
    m = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(52, 300)))
    n = draw(st.integers(1, 16))
    return tokens, _mixed_scale(rng, (n, m)), _mixed_scale(rng, m), _mixed_scale(rng, tokens * n)


def _cell_sums(tokens, w, bias, x):
    """The oracle: the full-grid cells of W' = I_tokens (x) W, summed by
    weighted ``bincount``, plus the bias of each token."""
    rows, cols, sources = token_cells_full_grid(tokens, *w.shape)
    values = w[tuple(sources.T)]
    return np.bincount(cols, values * x[rows], minlength=tokens * len(bias)) + np.tile(bias, tokens)


def _sums_like_the_cells(stage) -> bool:
    from uatcv.lowering import dense_stage
    from uatcv.netspec import _dense_form

    tokens, w, bias, x = stage
    want = _cell_sums(*stage).tobytes()
    if tokens == 1 and _dense_form(w.T, bias, x).evaluate().tobytes() != want:
        return False
    return dense_stage(w, bias, x, tokens, "token stage").evaluate().tobytes() == want


# one output over 16 inputs: 7.0 added in order, 14.0 added pairwise, as a
# reduce adds a single output
_SINGLE_OUTPUT = (1, np.array([[2.0**53, *[1.0] * 7, -(2.0**53), *[1.0] * 7]]).T,
                  np.array([0.5]), np.ones(16))
# the same for each of three tokens, whose inputs differ
_TOKENS_SINGLE_OUTPUT = (3, _SINGLE_OUTPUT[1], np.array([0.5]),
                         np.concatenate([np.ones(16), np.full(16, 2.0), np.full(16, -1.0)]))
# every product is -0.0, so only a sum started at +0.0 gives +0.0 (and a -0.0
# bias keeps the sign visible)
_NEGATIVE_ZERO_PRODUCTS = (1, np.full((5, 3), -0.0), np.full(3, -0.0), np.arange(1.0, 6.0))
# the first and last with 257 outputs, above ordered_sum's accumulate side
_WIDE_SINGLE_OUTPUT = (1, np.tile(_SINGLE_OUTPUT[1], 257), np.full(257, 0.5), np.ones(16))
_WIDE_NEGATIVE_ZERO_PRODUCTS = (1, np.full((5, 257), -0.0), np.full(257, -0.0),
                                np.arange(1.0, 6.0))
_EXAMPLES = (_SINGLE_OUTPUT, _TOKENS_SINGLE_OUTPUT, _NEGATIVE_ZERO_PRODUCTS,
             _WIDE_SINGLE_OUTPUT, _WIDE_NEGATIVE_ZERO_PRODUCTS)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_dense_stages())
@example(_SINGLE_OUTPUT)
@example(_TOKENS_SINGLE_OUTPUT)
@example(_NEGATIVE_ZERO_PRODUCTS)
@example(_WIDE_SINGLE_OUTPUT)
@example(_WIDE_NEGATIVE_ZERO_PRODUCTS)
def test_dense_stage_sums_bitwise_in_cell_order(stage):
    assert _sums_like_the_cells(stage)


def _products(self, w, v):
    return v.reshape(self.tokens, -1, 1) * w  # (tokens, inputs, outputs)


def _reduce_of_transposed_product(self, w, v):
    terms = np.swapaxes(_products(self, w, v), 1, 2).copy()  # inputs contiguous: added pairwise
    return np.add.reduce(terms, axis=2).ravel()


def _reduce_of_c_ordered_product(self, w, v):
    return np.add.reduce(np.ascontiguousarray(_products(self, w, v)), axis=1).ravel()


def _accumulate_from_first_product(self, w, v):
    terms = np.ascontiguousarray(_products(self, w, v))
    return np.add.accumulate(terms, axis=1)[:, -1].ravel()


def _blas_product(self, w, v):
    return (v.reshape(self.tokens, -1) @ w).ravel()  # as tokenwise_map applies I (x) W^T


@pytest.mark.parametrize("apply", [_reduce_of_transposed_product, _reduce_of_c_ordered_product,
                                   _accumulate_from_first_product, _blas_product])
def test_dense_sum_order_property_rejects_other_orders(apply, monkeypatch):
    from hypothesis import find

    monkeypatch.setattr(DenseMatrix, "apply", apply)
    assert not all(map(_sums_like_the_cells, _EXAMPLES))
    with pytest.raises(AssertionError):
        test_dense_stage_sums_bitwise_in_cell_order()
    # the drawn stages catch it without the explicit examples, with several tokens too
    find(_dense_stages(), lambda stage: not _sums_like_the_cells(stage),
         settings=settings(max_examples=200, derandomize=True))
    find(_dense_stages().filter(lambda stage: stage[0] > 1),
         lambda stage: not _sums_like_the_cells(stage),
         settings=settings(max_examples=200, derandomize=True))


def test_dense_stage_memory_is_linear_in_its_matrix():
    from uatcv.netspec import _dense_form

    rng = np.random.default_rng(29)
    matrix, bias, x = rng.normal(size=(1024, 1024)), rng.normal(size=1024), rng.normal(size=1024)
    with traced_peak() as peak:
        out = _dense_form(matrix, bias, x).evaluate()
    assert peak.bytes <= 2.5 * matrix.nbytes
    np.testing.assert_allclose(out, matrix @ x + bias, rtol=1e-12, atol=1e-12)


def test_token_stage_rejects_what_does_not_fit():
    from uatcv.errors import RangeError
    from uatcv.lowering import LoweredForm

    def stage(w, n_in=6):  # 3 tokens of a (2, 4) W
        return LoweredForm(weights=w, input_vector=np.ones(n_in),
                           weight_index_map=DenseMatrix(3, (2, 4)), layout_note="")

    assert stage(np.ones((2, 4))).shape == (6, 12)
    for w, n_in in ((np.ones((4, 2)), 6), (np.ones(24), 6), (np.ones((2, 4)), 8)):
        with pytest.raises(ShapeError, match=r"do not fit W' of shape \(6, 12\)"):
            stage(w, n_in)
    with pytest.raises(RangeError):
        stage(np.array([[1.0, np.nan, 0.0, 0.0], [0.0] * 4]))


def test_token_stage_memory_is_linear_in_its_grid(monkeypatch):
    from uatcv.tensor import set_element_cap

    tokens, d, hidden = 64, 192, 384
    rng = np.random.default_rng(30)
    p = random_attn_params(d, 1, hidden, rng)
    x = rng.normal(size=(tokens, d))
    monkeypatch.delenv("UATCV_CAP", raising=False)
    set_element_cap(tokens * d * hidden)
    try:
        with traced_peak() as peak:
            _, stage2 = lower_ffn(x, p, "relu")
            out = stage2.evaluate()
    finally:
        set_element_cap(None)
    # nothing of the (tokens, d, hidden) grid's 36 MiB: each stage adds one
    # term of its outputs at a time
    assert peak.bytes <= 2 * 2**20
    np.testing.assert_allclose(out, ffn_direct(x, p, "relu").ravel(), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "vgg3.json"],
        ["report", "resblock2.json"],
        ["report", "vit1.json"],
        ["analyze", "vgg3.json", "--lora-layer", "1", "--lora-rank", "1",
         "--prune-layer", "0", "--prune-channels", "0"],
    ],
)
def test_commands_never_read_dense_wprime(argv, specs_dir, monkeypatch, capsys):
    from uatcv import cli
    from uatcv.lowering import LoweredForm

    def refuse(form):
        raise AssertionError("dense W' was read")

    monkeypatch.setattr(LoweredForm, "weight_matrix", property(refuse))
    assert cli.main([argv[0], str(specs_dir / argv[1]), *argv[2:]]) == 0


def test_stage_without_structural_cells():
    # stride 7 and padding 3 put the only window over a 1x1 input in the padding
    from uatcv.analysis import LoraDelta, lora_equivalence_check
    from uatcv.netspec import materialize, parse_spec_text, random_input

    x = _t(("C_I", "H", "W"), [[[0.7]]])
    p = ConvParams(1, 1, (1, 1), 7, 3, bias=np.array([0.5]))
    form = lower_conv2d_I_O(x, p, _t(("C_O", "C_I", "H", "W"), np.ones((1, 1, 1, 1))))
    assert form.nnz == 0 and len(form.weight_index_map.sharing_counts()) == 0
    out = form.evaluate()
    assert out.dtype == np.float64 and out.tolist() == [0.5]
    net = materialize(parse_spec_text(
        '{"input_shape": [["C_I", 1], ["H", 1], ["W", 1]], "seed": 1, "activation": "relu",'
        ' "layers": [{"kind": "conv2d", "out_channels": 1, "kernel": [1, 1],'
        ' "stride": 7, "padding": 3}]}'
    ))
    delta = LoraDelta(layer=0, a=np.ones((1, 1)), b=np.ones((1, 1)))
    check = lora_equivalence_check(net, delta, random_input(net.spec, 2))
    assert check["lowering_linearity_max_abs"] == 0.0
