"""Window-layer W' built from its geometry pattern and kernel, checked
against the full-grid oracle, and the per-command cache that keeps those
patterns."""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from oracles import conv_cells_full_grid, dense_from_cells, mean_pool_cells_full_grid
from uatcv import cli, lowering
from uatcv.errors import CapacityError
from uatcv.lowering import lower_conv2d_I_O, lower_conv3d, lower_mean_pool
from uatcv.netspec import forward, materialize, parse_spec, random_input
from uatcv.reference import ConvParams, PoolParams
from uatcv.tensor import Tensor, TensorShape, set_element_cap


def _t(axes, arr):
    arr = np.asarray(arr, dtype=np.float64)
    return Tensor(TensorShape(list(zip(axes, arr.shape))), arr)


def _assert_matches_oracle(form, rows, cols, sources, weights):
    # W' is the oracle's cells scattered into a dense matrix, bit for bit
    values = weights[tuple(sources.T)]
    assert np.array_equal(form.weight_matrix, dense_from_cells(rows, cols, values, form.shape))
    assert form.nnz == len(rows)
    _, counts = np.unique(sources, axis=0, return_counts=True)
    assert np.array_equal(form.weight_index_map.sharing_counts(), counts)
    # the oracle's cells, evaluated as a weighted bincount, give the same bits
    want = np.bincount(cols, values * form.input_vector[rows], minlength=form.output_len)
    if form.bias is not None:
        want = want + form.bias
    assert np.array_equal(form.evaluate(), want)


@st.composite
def _conv_geometry(draw):
    nd = draw(st.sampled_from([2, 3]))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(nd))
    padding = draw(st.integers(0, max(kernel)))
    spatial = tuple(draw(st.integers(max(1, k - 2 * padding), 5)) for k in kernel)
    return (draw(st.integers(1, 3)), draw(st.integers(1, 3)), kernel,
            draw(st.integers(1, 3)), padding, spatial, draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_conv_geometry())
# stride 7 and padding 3 put the only window over a 1x1 input in the padding
@example((1, 1, (1, 1), 7, 3, (1, 1), 0))
@example((2, 1, (1, 1, 1), 7, 3, (1, 1, 1), 0))
def test_conv_cells_match_the_full_grid(geometry):
    c_out, c_in, kernel, stride, padding, spatial, seed = geometry
    rng = np.random.default_rng(seed)
    axes = ("C_I", "H", "W", "D")[: len(kernel) + 1]
    x = _t(axes, rng.normal(size=(c_in, *spatial)))
    p = ConvParams(c_in, c_out, kernel, stride, padding, bias=rng.normal(size=c_out))
    kern = _t(("C_O", "C_I", "H", "W", "D")[: len(kernel) + 2],
              rng.normal(size=(c_out, c_in, *kernel)))
    form = (lower_conv2d_I_O if len(kernel) == 2 else lower_conv3d)(x, p, kern)
    rows, cols, sources = conv_cells_full_grid(c_out, c_in, kernel, stride, padding, spatial)
    _assert_matches_oracle(form, rows, cols, sources, kern.data)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**31 - 1))
@example(3, 2, 2, 1, 10, 10, 0)  # 3 x 11 x 11 outputs: above ordered_sum's accumulate side
def test_mean_pool_cells_match_the_full_grid(chans, kh, kw, stride, extra_h, extra_w, seed):
    rng = np.random.default_rng(seed)
    spatial = (kh + extra_h, kw + extra_w)
    x = _t(("C_I", "H", "W"), rng.normal(size=(chans, *spatial)))
    form = lower_mean_pool(x, PoolParams((kh, kw), stride))
    rows, cols, sources = mean_pool_cells_full_grid(chans, (kh, kw), stride, spatial)
    _assert_matches_oracle(form, rows, cols, sources, np.full((chans, kh, kw), 1.0 / (kh * kw)))


# ---------------------------------------------------------------------------
# the per-command pattern cache
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def empty_cache():
    lowering.cell_pattern.cache_clear()
    yield
    lowering.cell_pattern.cache_clear()


@pytest.fixture
def vgg3(specs_dir):
    path = specs_dir / "vgg3.json"
    return path, materialize(parse_spec(path))


def _geometry(rt):
    p = rt.weights.params
    return (p.out_channels, p.in_channels, tuple(p.kernel), p.stride, p.padding,
            rt.in_shape.extents[1:])


@pytest.fixture
def pattern_calls(monkeypatch):
    """Every pattern lookup and every pattern built, through a fresh cache."""
    calls = {"lookups": [], "builds": []}
    build = lowering.cell_pattern.__wrapped__

    def counted_build(*args):
        calls["builds"].append(args)
        return build(*args)

    cached = functools.lru_cache(maxsize=lowering._CELL_PATTERNS)(counted_build)

    def lookup(*args):
        calls["lookups"].append(args)
        return cached(*args)

    lookup.cache_clear = cached.cache_clear
    monkeypatch.setattr(lowering, "cell_pattern", lookup)
    return calls


@pytest.mark.parametrize("argv", [["report", "--trials", "2"], ["analyze", "--lora-layer", "0"]])
def test_one_pattern_per_conv_geometry(capsys, vgg3, pattern_calls, argv):
    path, net = vgg3
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    # vgg3's three conv layers have three distinct geometries, and report's
    # trials look each one up again; analyze lowers only the LoRA target,
    # once, to find the kernel elements its W' places
    analyze = argv[0] == "analyze"
    builds, lookups = pattern_calls["builds"], pattern_calls["lookups"]
    assert sorted(builds) == sorted(map(_geometry, net.layers[:1] if analyze else net.layers))
    if analyze:
        assert lookups == builds
    else:
        assert len(lookups) > len(builds)


def test_cap_is_checked_on_a_cache_hit(capsys, vgg3, monkeypatch):
    path, net = vgg3
    rt = net.layers[1]
    value = forward(net, random_input(net.spec, seed=1))[1]
    grid = 3 * 2 * 4 * 4 * 2 * 2  # layer 1's (C_O, C_I, outputs, kernel) grid, vgg3's largest
    monkeypatch.delenv("UATCV_CAP", raising=False)
    try:
        set_element_cap(10 * grid)
        lower_conv2d_I_O(value, *rt.weights)
        assert lowering.cell_pattern.cache_info().currsize == 1
        set_element_cap(grid - 1)
        with pytest.raises(CapacityError, match=f"has {grid} elements"):
            lower_conv2d_I_O(value, *rt.weights)
        assert cli.main(["lower", str(path), "--cap", str(grid - 1)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: layer 1 (conv2d): lowering index grid")
    finally:
        set_element_cap(None)


def test_cache_is_empty_after_main(capsys, vgg3, monkeypatch):
    path, _ = vgg3
    lower = cli._COMMANDS["lower"]
    assert cli.main(["lower", str(path)]) == 0
    assert lowering.cell_pattern.cache_info().currsize == 0

    def lower_then_fail(args):
        lower(args)
        assert lowering.cell_pattern.cache_info().currsize == 3
        raise RuntimeError("after lowering")

    monkeypatch.setitem(cli._COMMANDS, "lower", lower_then_fail)
    with pytest.raises(RuntimeError, match="after lowering"):
        cli.main(["lower", str(path)])
    assert lowering.cell_pattern.cache_info().currsize == 0


def test_window_pattern_is_read_only_and_shared():
    x = _t(("C_I", "H", "W"), np.ones((2, 4, 4)))
    p = ConvParams(2, 3, (2, 2), 1, 1)
    kern = _t(("C_O", "C_I", "H", "W"), np.ones((3, 2, 2, 2)))
    pattern = lower_conv2d_I_O(x, p, kern).weight_index_map
    for array in (pattern.gather, pattern.offset_counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # a second lowering of the geometry shares the same pattern
    assert lower_conv2d_I_O(x, p, kern).weight_index_map is pattern


# ---------------------------------------------------------------------------
# window stages evaluate from the pattern: no command places W''s cells
# ---------------------------------------------------------------------------


def _write_spec(directory, name, input_shape, layers):
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"input_shape": input_shape, "seed": 3, "activation": "relu",
                                "layers": layers}))
    return path


def _conv(out_channels, kernel, stride=1, padding=0, **extra):
    return {"kind": "conv2d", "out_channels": out_channels, "kernel": kernel,
            "stride": stride, "padding": padding, **extra}


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "vgg3", "--trials", "2"],
        ["analyze", "vgg3", "--lora-layer", "1", "--prune-layer", "0", "--prune-channels", "0"],
        ["lower", "conv_pool_conv"],
        ["verify", "conv_pool_conv"],
        ["lower", "conv3d"],
        ["verify", "conv3d"],
    ],
)
def test_commands_never_build_window_cells(argv, specs_dir, tmp_path, monkeypatch, capsys):
    specs = {
        "vgg3": specs_dir / "vgg3.json",
        "conv_pool_conv": _write_spec(tmp_path, "conv_pool_conv", [["C_I", 2], ["H", 7], ["W", 6]], [
            _conv(3, [3, 2], padding=1, bias=True),
            {"kind": "mean_pool", "window": [2, 2], "stride": 2},
            _conv(2, [2, 2], stride=2, padding=1),
        ]),
        "conv3d": _write_spec(tmp_path, "conv3d", [["C_I", 2], ["H", 4], ["W", 3], ["D", 5]], [
            {"kind": "conv3d", "out_channels": 3, "kernel": [2, 2, 3], "stride": 1,
             "padding": 1, "bias": True},
        ]),
    }

    def refuse(pattern, kernel):
        raise AssertionError("a window stage's cells were placed in a dense W'")

    monkeypatch.setattr(lowering.WindowPattern, "dense", refuse)
    assert cli.main([argv[0], str(specs[argv[1]]), *argv[2:]]) == 0


def test_each_geometry_is_built_once_per_command(tmp_path, capsys, monkeypatch):
    # ten window geometries, visited in a cycle by every trial and prefix
    layers = [_conv(out_channels, [3, 3], padding=1) for out_channels in range(4, 14)]
    path = _write_spec(tmp_path, "ten_geometries", [["C_I", 3], ["H", 8], ["W", 8]], layers)
    builds = []
    init = lowering.WindowPattern.__init__

    def counted_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(lowering.WindowPattern, "__init__", counted_init)
    assert cli.main(["report", str(path), "--trials", "2"]) == 0
    assert len(builds) == len(set(builds)) == 10


def test_wide_conv_stage_is_small_and_matches_the_cell_sum(monkeypatch):
    # one 32->32 3x3 conv on 32x32: its virtual cell grid has 9.4M entries
    rng = np.random.default_rng(31)
    x = _t(("C_I", "H", "W"), rng.normal(size=(32, 32, 32)))
    p = ConvParams(32, 32, (3, 3), 1, 1, bias=rng.normal(size=32))
    kern = _t(("C_O", "C_I", "H", "W"), rng.normal(size=(32, 32, 3, 3)))
    monkeypatch.delenv("UATCV_CAP", raising=False)
    set_element_cap(20_000_000)
    try:
        with traced_peak() as peak:
            out = lower_conv2d_I_O(x, p, kern).evaluate()
    finally:
        set_element_cap(None)
    assert peak.bytes < 5 * 2**20
    # the oracle's cells, one output channel at a time (each output sums only
    # its own channel's cells), evaluated as a weighted bincount
    rows, cols, sources = conv_cells_full_grid(1, 32, (3, 3), 1, 1, (32, 32))
    xv = x.data.ravel()
    for o in range(32):
        values = kern.data[o][tuple(sources[:, 1:].T)]
        want = np.bincount(cols, values * xv[rows], minlength=32 * 32) + p.bias[o]
        assert np.array_equal(out[o * 1024 : (o + 1) * 1024], want)
