import ast
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from uatcv import analysis, cli, netspec
from uatcv.analysis import (
    LoraDelta,
    PruneMask,
    apply_lora,
    channel_norms,
    count_uat_terms,
    lora_equivalence_check,
    prune,
    prune_impact,
    receptive_field,
)
from uatcv.errors import RankError, SpecError
from uatcv.lowering import lower_conv2d_I_O
from uatcv.netspec import (
    Conv2dSpec,
    Conv3dSpec,
    ConvWeights,
    FfnSpec,
    MeanPoolSpec,
    MhaSpec,
    NetworkSpec,
    ResidualBlockSpec,
    TransformerBlockSpec,
    forward,
    infer_shapes,
    materialize,
    parse_spec,
    random_input,
)
from uatcv.tensor import Tensor, TensorShape

from oracles import impulse_receptive_field


def _net(input_dims, layers, seed=5, activation="relu"):
    return NetworkSpec(
        input_shape=TensorShape(input_dims),
        seed=seed,
        activation=activation,
        layers=tuple(layers),
    )


def _conv_net(seed=5):
    return _net(
        [("C_I", 2), ("H", 6), ("W", 6)],
        [
            Conv2dSpec(out_channels=4, kernel=(2, 2), bias=True),
            Conv2dSpec(out_channels=3, kernel=(2, 2), bias=True),
        ],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# term counts
# ---------------------------------------------------------------------------


def test_count_terms_residual_single_block():
    net = _net([("feature", 6)], [ResidualBlockSpec(hidden_dim=4)])
    rows = count_uat_terms(net)
    assert rows[0].n_terms == 1


def test_count_terms_residual_growth():
    net = _net([("feature", 6)], [ResidualBlockSpec(hidden_dim=4)] * 3)
    rows = count_uat_terms(net)
    counts = [r.n_terms for r in rows]
    assert counts == [1, 2, 3]


def test_count_terms_strictly_monotone():
    net = _net([("feature", 5)], [ResidualBlockSpec(hidden_dim=3)] * 4)
    counts = [r.n_terms for r in count_uat_terms(net)]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_count_terms_vgg_prefixes():
    net = _conv_net()
    counts = [r.n_terms for r in count_uat_terms(net)]
    assert counts == [1, 2]


def test_count_terms_mid_pool_prefix_flagged():
    net = _net(
        [("C_I", 1), ("H", 6), ("W", 6)],
        [
            Conv2dSpec(out_channels=2, kernel=(2, 2)),
            MeanPoolSpec(window=(2, 2)),
            Conv2dSpec(out_channels=2, kernel=(2, 2)),
        ],
    )
    rows = count_uat_terms(net)
    assert rows[0].n_terms == 1
    assert rows[1].n_terms is None and rows[1].note
    assert rows[2].n_terms == 2


def test_count_terms_unexpandable():
    net = _net(
        [("token", 4), ("feature", 4)],
        [MhaSpec(heads=2), TransformerBlockSpec(heads=2, hidden_dim=4)],
    )
    rows = count_uat_terms(net)
    assert rows[-1].n_terms is None


# ---------------------------------------------------------------------------
# receptive field
# ---------------------------------------------------------------------------


def test_rf_single_conv3():
    net = _net(
        [("C_I", 1), ("H", 8), ("W", 8)], [Conv2dSpec(out_channels=1, kernel=(3, 3))]
    )
    assert receptive_field(net)[-1] == {"H": 3, "W": 3}


def test_rf_two_stacked_conv3():
    net = _net(
        [("C_I", 1), ("H", 8), ("W", 8)],
        [Conv2dSpec(out_channels=1, kernel=(3, 3))] * 2,
    )
    assert receptive_field(net)[-1] == {"H": 5, "W": 5}


def test_rf_conv_pool_conv_matches_impulse_oracle():
    net = _net(
        [("C_I", 1), ("H", 16), ("W", 16)],
        [
            Conv2dSpec(out_channels=1, kernel=(3, 3)),
            MeanPoolSpec(window=(2, 2), stride=2),
            Conv2dSpec(out_channels=1, kernel=(3, 3)),
        ],
    )
    got = receptive_field(net)[-1]["H"]
    want = impulse_receptive_field([(3, 1, False), (2, 2, True), (3, 1, False)], 16)
    assert got == want == 8


def test_rf_rejects_attention():
    net = _net([("token", 4), ("feature", 4)], [MhaSpec(heads=2)])
    with pytest.raises(SpecError):
        receptive_field(net)


def test_rf_nonsquare_kernels_tracked_per_axis():
    net = _net(
        [("C_I", 1), ("H", 8), ("W", 8)],
        [Conv2dSpec(out_channels=1, kernel=(3, 2)), Conv2dSpec(out_channels=1, kernel=(2, 3))],
    )
    assert receptive_field(net)[-1] == {"H": 4, "W": 4}


# ---------------------------------------------------------------------------
# low-rank updates
# ---------------------------------------------------------------------------


def test_lora_zero_factors_identity():
    net = materialize(_conv_net())
    rt = net.layers[0]
    n = rt.weights.params.in_channels * rt.weights.params.kernel[0] * rt.weights.params.kernel[1]
    delta = LoraDelta(layer=0, a=np.zeros((1, n)), b=np.zeros((rt.weights.params.out_channels, 1)))
    patched = apply_lora(net, delta)
    x = random_input(net.spec, 99)
    assert np.array_equal(forward(net, x)[-1].data, forward(patched, x)[-1].data)


def test_lora_rank1_ffn_matches_direct():
    from uatcv.reference import ffn_direct

    net = materialize(
        _net(
            [("token", 3), ("feature", 4)],
            [TransformerBlockSpec(heads=2, hidden_dim=5)],
            seed=8,
        )
    )
    rng = np.random.default_rng(0)
    p = net.layers[0].weights
    b = rng.normal(size=(p.w_2.shape[0], 1))
    a = rng.normal(size=(1, p.w_2.shape[1]))
    delta = LoraDelta(layer=0, a=a, b=b, target="w_2")
    patched = apply_lora(net, delta)
    x = random_input(net.spec, 7)
    tokens = x.data.reshape(3, 4)
    manual = replace(p, w_2=p.w_2 + b @ a)
    from uatcv.reference import mha_direct

    h = mha_direct(tokens, manual)
    want = h + ffn_direct(h, manual, "relu")
    got = forward(patched, x)[-1].data
    assert np.max(np.abs(got - want)) <= 1e-9


def test_lora_conv_lowering_linearity():
    net = materialize(_conv_net(seed=13))
    rt = net.layers[0]
    rng = np.random.default_rng(1)
    m = rt.weights.params.out_channels
    n = rt.weights.params.in_channels * rt.weights.params.kernel[0] * rt.weights.params.kernel[1]
    delta = LoraDelta(layer=0, a=rng.normal(size=(2, n)), b=rng.normal(size=(m, 2)))
    x = random_input(net.spec, 3)
    report = lora_equivalence_check(net, delta, x)
    assert report["lowering_linearity_max_abs"] == 0.0
    assert report["untouched_layers_identical"] is True
    assert report["output_max_abs_change"] > 0.0


def test_lora_conv_check_lowers_its_target_once(monkeypatch):
    # one lowering finds the kernel elements W' places; the base, patched and
    # update kernels are read from the layers and the factors
    net = materialize(_conv_net(seed=13))
    lowered = []
    lower_layer = netspec.lower_layer

    def spy(rt, value):
        lowered.append(rt.index)
        return lower_layer(rt, value)

    monkeypatch.setattr(netspec, "lower_layer", spy)
    rng = np.random.default_rng(2)
    delta = LoraDelta(layer=1, a=rng.normal(size=(1, 16)), b=rng.normal(size=(3, 1)))
    report = lora_equivalence_check(net, delta, random_input(net.spec, 3))
    assert lowered == [1]
    assert report["lowering_linearity_max_abs"] == 0.0


TOKENS = [("token", 3), ("feature", 4)]


@pytest.mark.parametrize("dims, spec, target", [
    ([("C_I", 2), ("H", 4), ("W", 4)], Conv2dSpec(out_channels=2, kernel=(2, 2)), "w_2"),
    ([("C_I", 2), ("H", 3), ("W", 3), ("D", 3)], Conv3dSpec(out_channels=2, kernel=(2, 2, 2)),
     "w_2"),
    ([("feature", 4)], ResidualBlockSpec(hidden_dim=3), "w_2"),
    (TOKENS, FfnSpec(hidden_dim=3), "w_2"),
    (TOKENS, MhaSpec(heads=2), "w_q"),
    (TOKENS, TransformerBlockSpec(heads=2, hidden_dim=3), "w_2"),
])
def test_lora_report_keys_by_kind(dims, spec, target):
    # the report's keys in the order analyze prints them; only a conv kind
    # adds its lowering_linearity_max_abs
    net = materialize(_net(dims, [spec, spec], seed=3))
    rt = net.layers[0]
    m, n = rt.spec.lora_matrix(rt, target).shape
    rng = np.random.default_rng(7)
    delta = LoraDelta(layer=0, a=rng.normal(size=(1, n)), b=rng.normal(size=(m, 1)), target=target)
    report = lora_equivalence_check(net, delta, random_input(net.spec, 4))
    conv = ["lowering_linearity_max_abs"] if spec.kind in ("conv2d", "conv3d") else []
    assert list(report) == ["layer", "target", "rank", *conv, "untouched_layers_identical",
                            "output_max_abs_change"]
    assert report["untouched_layers_identical"] is True


def test_analysis_reads_no_weights_record():
    # each kind owns its pruning and LoRA-report rules, so analysis names no
    # weights type, tests no type and reads no field of a weights record
    tree = ast.parse(Path(analysis.__file__).read_text(encoding="utf-8"))
    found = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in ("ConvWeights", "isinstance")
        or isinstance(node, ast.alias) and node.name == "ConvWeights"
        or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "weights"
    ]
    assert found == []


def test_lora_residual_target():
    net = materialize(_net([("feature", 6)], [ResidualBlockSpec(hidden_dim=4)], seed=2))
    rng = np.random.default_rng(5)
    delta = LoraDelta(layer=0, a=rng.normal(size=(1, 6)), b=rng.normal(size=(4, 1)), target="w_1")
    patched = apply_lora(net, delta)
    r0, r1 = net.layers[0].weights, patched.layers[0].weights
    assert np.array_equal(r1.w_1, r0.w_1 + delta.update())
    assert np.array_equal(r1.w_2, r0.w_2)


def test_lora_rank_bounds():
    with pytest.raises(RankError):
        LoraDelta(layer=0, a=np.zeros((3, 2)), b=np.zeros((2, 3)))  # rank 3 > min(2,2)
    with pytest.raises(RankError):
        LoraDelta(layer=0, a=np.zeros((0, 4)), b=np.zeros((4, 0)))


def test_lora_rank_by_construction():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(m, n) + 1))
        delta = LoraDelta(layer=0, a=rng.normal(size=(r, n)), b=rng.normal(size=(m, r)))
        assert np.linalg.matrix_rank(delta.update()) <= r


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def test_prune_dead_channel_zero_impact():
    net = materialize(_conv_net(seed=17))
    rt = net.layers[0]
    w = rt.weights.kernel.data.copy()
    w[1] = 0.0  # kill channel 1's kernels
    bias = rt.weights.params.bias.copy()
    bias[1] = 0.0
    net.layers[0] = replace(rt, weights=ConvWeights(replace(rt.weights.params, bias=bias),
                                                    Tensor(rt.weights.kernel.shape, w)))
    inputs = [random_input(net.spec, 50 + t) for t in range(5)]
    report = prune_impact(net, PruneMask(layer=0, channels=(1,)), inputs)
    assert report["max_deviation"] == 0.0


def test_prune_lower_commutes_with_block_deletion():
    net = materialize(_conv_net(seed=19))
    mask = PruneMask(layer=0, channels=(1, 2))
    pruned = prune(net, mask)

    # original lowered matrix with the masked output-channel block columns
    # deleted must equal the lowered pruned layer, entrywise
    rt = net.layers[0]
    x = random_input(net.spec, 4)
    form = lower_conv2d_I_O(x, *rt.weights)
    h_out = rt.out_shape.extent("H") * rt.out_shape.extent("W")
    keep_cols = np.concatenate(
        [np.arange(c * h_out, (c + 1) * h_out) for c in (0, 3)]
    )
    expected = form.weight_matrix[:, keep_cols]
    prt = pruned.layers[0]
    pform = lower_conv2d_I_O(x, *prt.weights)
    assert np.array_equal(pform.weight_matrix, expected)

    # downstream conv loses the matching input-channel block rows
    rt1 = net.layers[1]
    val1 = Tensor(rt1.in_shape, np.zeros(rt1.in_shape.extents))
    form1 = lower_conv2d_I_O(val1, *rt1.weights)
    per_in = rt1.in_shape.extent("H") * rt1.in_shape.extent("W")
    keep_rows = np.concatenate(
        [np.arange(c * per_in, (c + 1) * per_in) for c in (0, 3)]
    )
    prt1 = pruned.layers[1]
    pval1 = Tensor(prt1.in_shape, np.zeros(prt1.in_shape.extents))
    pform1 = lower_conv2d_I_O(pval1, *prt1.weights)
    assert np.array_equal(pform1.weight_matrix, form1.weight_matrix[keep_rows])


def test_prune_keeps_the_specs_in_step():
    # a declared in_channels on the absorbing conv follows the prune, and the
    # result is the pruned network of the same description without it
    declared = _conv_net(seed=37)
    first, second = declared.layers
    declared = replace(declared, layers=(first, replace(second, in_channels=4)))
    mask = PruneMask(layer=0, channels=(1, 2))
    a, b = prune(materialize(declared), mask), prune(materialize(_conv_net(seed=37)), mask)
    assert a.spec.layers[0] == a.layers[0].spec == replace(first, out_channels=2)
    assert a.spec.layers[1] == a.layers[1].spec == replace(second, in_channels=2)
    assert a.spec == replace(b.spec, layers=(b.spec.layers[0], replace(second, in_channels=2)))
    x = random_input(a.spec, 3)
    assert forward(a, x)[-1].data.tobytes() == forward(b, x)[-1].data.tobytes()


def test_prune_all_channels_rejected():
    net = materialize(_conv_net())
    with pytest.raises(SpecError):
        prune(net, PruneMask(layer=0, channels=(0, 1, 2, 3)))


def test_prune_threshold_selects_smallest():
    net = materialize(_conv_net(seed=23))
    norms = channel_norms(net, 0)
    cut = float(np.sort(norms)[1])  # prune exactly the smallest channel
    mask = PruneMask(layer=0, threshold=cut)
    pruned = prune(net, mask)
    assert pruned.layers[0].weights.params.out_channels == 3


def test_prune_magnitude_ordering_reported():
    net = materialize(_conv_net(seed=29))
    norms = channel_norms(net, 0)
    lo, hi = int(np.argmin(norms)), int(np.argmax(norms))
    inputs = [random_input(net.spec, 100 + t) for t in range(10)]
    low = prune_impact(net, PruneMask(layer=0, channels=(lo,)), inputs)
    high = prune_impact(net, PruneMask(layer=0, channels=(hi,)), inputs)
    # descriptive report only; both runs must carry comparable fields
    assert set(low) == set(high)
    assert low["pruned_channels"] == [lo] and high["pruned_channels"] == [hi]


def test_prune_last_layer_compares_surviving_channels():
    net = materialize(
        _net(
            [("C_I", 1), ("H", 5), ("W", 5)],
            [Conv2dSpec(out_channels=3, kernel=(2, 2), bias=True)],
            seed=31,
        )
    )
    inputs = [random_input(net.spec, 7)]
    report = prune_impact(net, PruneMask(layer=0, channels=(2,)), inputs)
    assert report["max_deviation"] == 0.0  # surviving channels are untouched



@pytest.mark.parametrize("channels", [(0,), (5,), (1, 2, 9), tuple(range(1, 12))])
def test_prune_wide_last_layer_leaves_surviving_channels_bitwise(channels):
    # 12 output channels span several BLAS row blocks; each surviving
    # channel's row is computed on its own, so pruning others moves no bit
    net = materialize(
        _net(
            [("C_I", 3), ("H", 9), ("W", 9)],
            [
                Conv2dSpec(out_channels=5, kernel=(3, 3), padding=1, bias=True),
                Conv2dSpec(out_channels=12, kernel=(3, 3), padding=1, bias=True),
            ],
            seed=37,
        )
    )
    inputs = [random_input(net.spec, 60 + t) for t in range(3)]
    report = prune_impact(net, PruneMask(layer=1, channels=channels), inputs)
    assert report["max_deviation"] == 0.0


def test_prune_mask_validation():
    with pytest.raises(SpecError):
        PruneMask(layer=0)
    with pytest.raises(SpecError):
        PruneMask(layer=0, channels=(0,), threshold=0.5)


def test_count_uat_terms_draws_weights_once(specs_dir, monkeypatch):
    # the counts come from the descriptions alone: no weight is drawn (not
    # even once) and no chain is built, wherever those functions are bound
    import uatcv.analysis as analysis
    import uatcv.netspec as netspec
    import uatcv.symbolic as symbolic
    from uatcv.netspec import parse_spec
    from uatcv.tensor import SplitMix64

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(SplitMix64, "uniform", counting("uniform", SplitMix64.uniform))
    names = ["materialize", "dense_chain", "build_vgg_chain", "build_residual_chain",
             "build_residual_block", "build_transformer_chain"]
    for module in (analysis, netspec, symbolic):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    deep = _net([("feature", 64)], [ResidualBlockSpec()] * 16, seed=1)
    rows = count_uat_terms(parse_spec(specs_dir / "resblock2.json"))
    deep_rows = count_uat_terms(deep)
    assert calls == []
    assert [(r.prefix_len, r.n_terms) for r in rows] == [(1, 1), (2, 2)]
    assert [r.n_terms for r in deep_rows] == list(range(1, 17))


# ---------------------------------------------------------------------------
# derived networks: shared read-only weights
# ---------------------------------------------------------------------------


def _weight_arrays(rt) -> dict[str, np.ndarray]:
    """Every weight array of a materialized layer, by field name."""
    found = {}
    for part in rt.weights if isinstance(rt.weights, ConvWeights) else (rt.weights,):
        if isinstance(part, Tensor):
            found["kernel"] = part.data
        elif part is not None:
            values = {f.name: getattr(part, f.name) for f in fields(part)}
            found.update({k: v for k, v in values.items() if isinstance(v, np.ndarray)})
    return found


def test_drawn_weights_are_read_only(specs_dir):
    arrays = [
        (path.name, rt.index, name, array)
        for path in sorted(specs_dir.glob("*.json"))
        for rt in materialize(parse_spec(path)).layers
        for name, array in _weight_arrays(rt).items()
    ]
    assert {name for _, _, name, _ in arrays} >= {"kernel", "bias", "w_1", "w_q", "w_2", "b_3"}
    for spec, index, name, array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0
            pytest.fail(f"{spec} layer {index} {name} is writable")


def _assert_assembled(net):
    """Each layer is its spec's, at the shapes its description infers, with a
    conv's geometry the one its spec and input state; no field can be set."""
    shapes = infer_shapes(net.spec)
    assert [(rt.index, rt.spec, rt.in_shape, rt.out_shape, rt.activation) for rt in net.layers] == [
        (i, spec, shapes[i], shapes[i + 1], net.spec.activation)
        for i, spec in enumerate(net.spec.layers)
    ]
    for rt in net.layers:
        if isinstance(rt.weights, ConvWeights):
            p, spec, c_in = rt.weights.params, rt.spec, rt.in_shape.extent("C_I")
            assert (p.in_channels, p.out_channels, p.kernel, p.stride, p.padding) == (
                c_in, spec.out_channels, spec.kernel, spec.stride, spec.padding)
            assert (p.bias is not None) == spec.bias
            assert p.bias is None or p.bias.shape == (spec.out_channels,)
            assert rt.weights.kernel.data.shape == (spec.out_channels, c_in, *spec.kernel)
        with pytest.raises(FrozenInstanceError):
            rt.in_shape = rt.out_shape


@pytest.mark.parametrize("name, layer, target", [
    ("vgg3", 1, "w_2"), ("resblock2", 1, "w_1"), ("vit1", 1, "w_q"), ("vit1", 1, "w_3"),
])
def test_derived_networks_leave_their_source_unchanged(specs_dir, name, layer, target):
    net = materialize(parse_spec(specs_dir / f"{name}.json"))
    x = random_input(net.spec, 3)
    before = forward(net, x)[-1].data.tobytes()
    rt = net.layers[layer]
    m, n = rt.spec.lora_matrix(rt, target).shape
    rng = np.random.default_rng(4)
    delta = LoraDelta(layer=layer, a=rng.normal(size=(1, n)), b=rng.normal(size=(m, 1)),
                      target=target)
    derived = [apply_lora(net, delta)]
    lora_equivalence_check(net, delta, x)
    if isinstance(rt.weights, ConvWeights):
        derived.append(prune(net, PruneMask(layer=0, channels=(0,))))
    for other in derived:
        assert forward(other, x)[-1].data.tobytes() != before
        assert all(a is not b for a, b in zip(net.layers, other.layers))
        _assert_assembled(other)
    assert forward(net, x)[-1].data.tobytes() == before


def test_apply_lora_shares_every_array_but_its_target():
    net = materialize(_net([("feature", 6)], [ResidualBlockSpec(hidden_dim=4)] * 2, seed=2))
    rng = np.random.default_rng(5)
    delta = LoraDelta(layer=1, a=rng.normal(size=(1, 6)), b=rng.normal(size=(4, 1)), target="w_1")
    patched = apply_lora(net, delta)
    (kept0, kept1), (new0, new1) = ([_weight_arrays(rt) for rt in n.layers] for n in (net, patched))
    assert all(new0[k] is kept0[k] for k in kept0)
    assert new1["w_1"] is not kept1["w_1"]
    assert not new1["w_1"].flags.writeable
    assert all(new1[k] is kept1[k] for k in ("b_1", "w_2", "b_2"))


def test_prune_shares_the_layers_it_does_not_shrink():
    net = materialize(_net(
        [("C_I", 2), ("H", 8), ("W", 8)],
        [
            Conv2dSpec(out_channels=4, kernel=(2, 2), bias=True),
            MeanPoolSpec(window=(2, 2)),
            Conv2dSpec(out_channels=3, kernel=(2, 2), bias=True),
            Conv2dSpec(out_channels=2, kernel=(2, 2), bias=True),
        ],
        seed=43,
    ))
    pruned = prune(net, PruneMask(layer=0, channels=(1,)))
    kept, new = ([_weight_arrays(rt) for rt in n.layers] for n in (net, pruned))
    assert new[0]["kernel"] is not kept[0]["kernel"] and new[0]["bias"] is not kept[0]["bias"]
    assert new[2]["kernel"] is not kept[2]["kernel"] and new[2]["bias"] is kept[2]["bias"]
    assert all(new[3][k] is kept[3][k] for k in kept[3])
    assert all(not a.flags.writeable for layer in new for a in layer.values())
    # the shapes follow in the copy only
    assert [rt.in_shape.extent("C_I") for rt in net.layers[1:3]] == [4, 4]
    assert [rt.in_shape.extent("C_I") for rt in pruned.layers[1:3]] == [3, 3]
    _assert_assembled(pruned)
    _assert_assembled(prune(net, PruneMask(layer=2, channels=(0, 2))))


def test_analyze_prunes_once(specs_dir, monkeypatch, capsys):
    masks = []

    def spy(net, mask):
        masks.append(mask)
        return prune(net, mask)

    monkeypatch.setattr(analysis, "prune", spy)
    monkeypatch.setattr(cli, "prune", spy)
    for flags in (
        ["--prune-layer", "0", "--prune-channels", "1"],
        ["--prune-layer", "1", "--prune-threshold", "1.0"],
        ["--prune-layer", "2", "--prune-channels", "0", "--lora-layer", "1"],
    ):
        masks.clear()
        assert cli.main(["analyze", str(specs_dir / "vgg3.json"), *flags]) == 0
        assert len(masks) == 1
    capsys.readouterr()
