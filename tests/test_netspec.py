import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counted_reads, traced_peak
from uatcv.errors import ParseError, SpecError, UatcvError, ValidationError
from uatcv.netspec import (
    _LAYER_KINDS,
    Conv2dSpec,
    ResidualBlockSpec,
    apply_layer,
    check_layer,
    check_network,
    emit_spec,
    forward,
    infer_shapes,
    lower_layer,
    materialize,
    parse_spec,
    parse_spec_text,
    random_input,
    to_expandable,
    verify_network,
)
from uatcv.reference import ACTIVATIONS
from uatcv.tensor import AXIS_NAMES, SplitMix64, TensorShape, set_element_cap

MINIMAL = """
{"input_shape": [["C_I", 1], ["H", 2], ["W", 2]],
 "seed": 1, "activation": "relu",
 "layers": [{"kind": "conv2d", "out_channels": 1, "kernel": [1, 1]}]}
"""


def test_parse_minimal_conv():
    net = parse_spec_text(MINIMAL)
    shapes = infer_shapes(net)
    assert shapes[-1] == TensorShape([("C_I", 1), ("H", 2), ("W", 2)])


def test_parse_infers_conv_output_extents():
    net = parse_spec_text(
        """
        {"input_shape": [["C_I", 1], ["H", 5], ["W", 4]],
         "seed": 1, "activation": "relu",
         "layers": [{"kind": "conv2d", "out_channels": 2, "kernel": [2, 2],
                     "stride": 2, "padding": 1}]}
        """
    )
    assert infer_shapes(net)[-1] == TensorShape([("C_I", 2), ("H", 3), ("W", 3)])


def test_channel_mismatch_names_both_layers():
    text = """
    {"input_shape": [["C_I", 1], ["H", 6], ["W", 6]],
     "seed": 1, "activation": "relu",
     "layers": [{"kind": "conv2d", "out_channels": 2, "kernel": [2, 2]},
                {"kind": "conv2d", "out_channels": 1, "kernel": [2, 2],
                 "in_channels": 3}]}
    """
    with pytest.raises(ValidationError) as err:
        parse_spec_text(text)
    msg = str(err.value)
    assert "layer 1" in msg and "layer 0" in msg
    assert "3" in msg and "2" in msg


def test_broken_shape_chain_names_layer():
    text = """
    {"input_shape": [["C_I", 1], ["H", 3], ["W", 3]],
     "seed": 1, "activation": "relu",
     "layers": [{"kind": "conv2d", "out_channels": 1, "kernel": [2, 2]},
                {"kind": "mha", "heads": 1}]}
    """
    with pytest.raises(ValidationError) as err:
        parse_spec_text(text)
    assert "layer 1" in str(err.value)


def test_bundled_fixture_resblock2(specs_dir):
    net = parse_spec(specs_dir / "resblock2.json")
    assert len(net.layers) == 2
    assert all(isinstance(l, ResidualBlockSpec) for l in net.layers)
    assert to_expandable(materialize(net)).family == "residual"


def test_bundled_fixture_vgg3(specs_dir):
    net = parse_spec(specs_dir / "vgg3.json")
    assert len(net.layers) == 3
    assert to_expandable(materialize(net)).family == "vgg"


def test_bundled_fixture_vit1(specs_dir):
    net = parse_spec(specs_dir / "vit1.json")
    exp = to_expandable(materialize(net))
    assert exp.family == "transformer"
    assert exp.preprocessing


def test_round_trip(specs_dir):
    for name in ("vgg3.json", "resblock2.json", "vit1.json"):
        net = parse_spec(specs_dir / name)
        again = parse_spec_text(emit_spec(net))
        assert again == net


def test_parse_rejects_unknown_kind():
    text = MINIMAL.replace("conv2d", "conv9d")
    with pytest.raises(ParseError):
        parse_spec_text(text)


def test_parse_rejects_unknown_field():
    doc = json.loads(MINIMAL)
    doc["layers"][0]["dilation"] = 2
    with pytest.raises(ParseError):
        parse_spec_text(json.dumps(doc))


def test_parse_rejects_unknown_toplevel():
    doc = json.loads(MINIMAL)
    doc["comment"] = "hi"
    with pytest.raises(ParseError):
        parse_spec_text(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_spec_text("{not json")


def test_parse_rejects_bad_activation():
    doc = json.loads(MINIMAL)
    doc["activation"] = "tanh"
    with pytest.raises(ParseError):
        parse_spec_text(json.dumps(doc))


def test_parse_rejects_missing_required_field():
    doc = json.loads(MINIMAL)
    del doc["layers"][0]["kernel"]
    with pytest.raises(ParseError):
        parse_spec_text(json.dumps(doc))


def test_parse_rejects_cap_violation():
    doc = json.loads(MINIMAL)
    doc["input_shape"] = [["C_I", 1], ["H", 2048], ["W", 2048]]
    with pytest.raises(ValidationError):
        parse_spec_text(json.dumps(doc))


def test_materialize_deterministic():
    net = parse_spec_text(MINIMAL)
    a = materialize(net)
    b = materialize(net)
    assert np.array_equal(a.layers[0].weights.kernel.data, b.layers[0].weights.kernel.data)
    doc = json.loads(MINIMAL)
    doc["seed"] = 2
    c = materialize(parse_spec_text(json.dumps(doc)))
    assert not np.array_equal(a.layers[0].weights.kernel.data, c.layers[0].weights.kernel.data)


def test_forward_runs_all_fixtures(specs_dir):
    for name in ("vgg3.json", "resblock2.json", "vit1.json"):
        net = materialize(parse_spec(specs_dir / name))
        x = random_input(net.spec, 11)
        values = forward(net, x)
        assert len(values) == len(net.layers) + 1
        assert values[-1].shape == net.shapes[-1]


def test_verify_network_fixtures(specs_dir):
    for name in ("vgg3.json", "resblock2.json", "vit1.json"):
        net = materialize(parse_spec(specs_dir / name))
        result = verify_network(net, trials=3, tol=1e-9)
        assert result["passed"], (name, result)


# one minimal network per layer kind: (input_shape, layer object)
KIND_EXAMPLES = {
    "conv2d": (
        [["C_I", 2], ["H", 4], ["W", 4]],
        {"kind": "conv2d", "out_channels": 3, "kernel": [2, 2], "padding": 1, "bias": True},
    ),
    "conv3d": (
        [["C_I", 2], ["H", 3], ["W", 4], ["D", 3]],
        {"kind": "conv3d", "out_channels": 2, "kernel": [2, 2, 2], "bias": True},
    ),
    "mean_pool": ([["C_I", 2], ["H", 4], ["W", 4]], {"kind": "mean_pool", "window": [2, 2]}),
    "residual_block": ([["feature", 5]], {"kind": "residual_block", "hidden_dim": 3}),
    "patchify": ([["H", 4], ["W", 6], ["C_I", 2]], {"kind": "patchify", "patch": [2, 3]}),
    "mha": ([["token", 3], ["feature", 4]], {"kind": "mha", "heads": 2}),
    "ffn": ([["token", 3], ["feature", 4]], {"kind": "ffn", "hidden_dim": 5}),
    "transformer_block": (
        [["token", 3], ["feature", 4]],
        {"kind": "transformer_block", "heads": 2, "hidden_dim": 5},
    ),
}


def test_check_layer_covers_every_kind(specs_dir):
    from uatcv.netspec import _LAYER_KINDS, apply_layer

    for kind in _LAYER_KINDS:
        input_shape, layer = KIND_EXAMPLES[kind]  # a new kind needs an example here
        spec = parse_spec_text(
            json.dumps(
                {"input_shape": input_shape, "seed": 3, "activation": "relu", "layers": [layer]}
            )
        )
        assert parse_spec_text(emit_spec(spec)) == spec, kind
        rt = materialize(spec).layers[0]
        x = random_input(spec, 4)
        assert check_layer(rt, x).max_abs_diff <= 1e-9, kind
        assert apply_layer(rt, x).shape == infer_shapes(spec)[-1], kind

    net = materialize(
        parse_spec_text(
            """
            {"input_shape": [["token", 4], ["feature", 4]],
             "seed": 3, "activation": "relu",
             "layers": [{"kind": "mha", "heads": 2},
                        {"kind": "ffn", "hidden_dim": 5},
                        {"kind": "residual_block", "hidden_dim": 6}]}
            """
        )
    )
    x = random_input(net.spec, 4)
    value = x
    for rt in net.layers:
        res = check_layer(rt, value)
        assert res.max_abs_diff <= 1e-9
        from uatcv.netspec import apply_layer

        value = apply_layer(rt, value)


def _one_layer(kind, sigma):
    input_shape, layer = KIND_EXAMPLES[kind]
    return parse_spec_text(
        json.dumps({"input_shape": input_shape, "seed": 3, "activation": sigma,
                    "layers": [layer]})
    )


@pytest.mark.parametrize("sigma", ["relu", "logistic"])
@pytest.mark.parametrize("kind", sorted(_LAYER_KINDS))
def test_check_carries_the_layer_output(kind, sigma, monkeypatch):
    from uatcv import lowering
    from uatcv.lowering import DenseMatrix, WindowPattern

    spec = _one_layer(kind, sigma)
    rt = materialize(spec).layers[0]
    x = random_input(spec, 4)
    got = check_layer(rt, x).output
    want = apply_layer(rt, x)
    assert got.shape == want.shape and got.data.shape == want.data.shape
    assert np.array_equal(got.data, want.data)
    if not lower_layer(rt, x):
        return
    # every stage off by one part in a million: a check that compared the
    # stages with themselves, or the direct path with itself, would not see it
    calls = {"apply": 0, "ordered_sum": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    for structure in (DenseMatrix, WindowPattern):
        apply = counted("apply", structure.apply)
        monkeypatch.setattr(structure, "apply",
                            lambda self, *args, apply=apply: apply(self, *args) * (1 + 1e-6))
    monkeypatch.setattr(lowering, "ordered_sum", counted("ordered_sum", lowering.ordered_sum))
    assert check_layer(rt, x).max_abs_diff > 1e-9
    # and each stage sums through the one ordered sum, once
    assert calls["apply"] > 0 and calls["ordered_sum"] == calls["apply"]


@pytest.mark.parametrize("argv, calls", [
    (["report", "--trials", "2"], 9),  # the seed input and two trials, three layers each
    (["verify", "--trials", "2"], 6),
    (["lower"], 3),
])
def test_direct_conv_runs_once_per_layer_input(specs_dir, monkeypatch, capsys, argv, calls):
    import uatcv.netspec as netspec
    from uatcv.cli import EXIT_OK, main

    real, seen = netspec.conv2d_direct, []

    def counted(*args):
        seen.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(netspec, "conv2d_direct", counted)
    command, *flags = argv
    assert main([command, str(specs_dir / "vgg3.json"), *flags]) == EXIT_OK
    capsys.readouterr()
    assert len(seen) == calls


def test_check_network_checks_one_layer_at_a_time(specs_dir, monkeypatch):
    import uatcv.netspec as netspec

    real, calls = netspec.check_layer, []

    def counted(rt, value):
        calls.append(rt.index)
        return real(rt, value)

    monkeypatch.setattr(netspec, "check_layer", counted)
    net = materialize(parse_spec(specs_dir / "vgg3.json"))
    x = random_input(net.spec, 5)
    checks = check_network(net, x)
    assert calls == []
    first = next(checks)
    assert calls == [0] and first.index == 0
    outputs = [first.output] + [check.output for check in checks]
    assert calls == [0, 1, 2]
    for got, want in zip(outputs, forward(net, x)[1:], strict=True):
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("consumer", ["verify_network", "layer_section"])
def test_each_check_is_freed_before_the_next_layer(specs_dir, monkeypatch, consumer):
    # holding one layer's lowered stages at a time is what keeps peak RSS down
    import weakref

    import uatcv.netspec as netspec
    from uatcv.report import layer_section

    real, refs, alive = netspec.check_layer, [], []

    def spying(rt, value):
        alive.append([ref() is not None for ref in refs])
        check = real(rt, value)
        refs.append(weakref.ref(check))
        return check

    monkeypatch.setattr(netspec, "check_layer", spying)
    net = materialize(parse_spec(specs_dir / "vgg3.json"))
    if consumer == "verify_network":
        verify_network(net, trials=1, tol=1e-9)
    else:
        layer_section(net)
    assert alive == [[], [False], [False, False]]


def test_mixed_architecture_not_expandable():
    net = materialize(
        parse_spec_text(
            """
            {"input_shape": [["token", 4], ["feature", 4]],
             "seed": 3, "activation": "relu",
             "layers": [{"kind": "mha", "heads": 2},
                        {"kind": "ffn", "hidden_dim": 5}]}
            """
        )
    )
    with pytest.raises(SpecError):
        to_expandable(net)


def test_trailing_pool_not_expandable():
    net = materialize(
        parse_spec_text(
            """
            {"input_shape": [["C_I", 1], ["H", 4], ["W", 4]],
             "seed": 3, "activation": "relu",
             "layers": [{"kind": "conv2d", "out_channels": 1, "kernel": [2, 2]},
                        {"kind": "mean_pool", "window": [2, 2]}]}
            """
        )
    )
    with pytest.raises(SpecError):
        to_expandable(net)


def test_conv3d_network_expands():
    from uatcv.netspec import expandable_input, expandable_output
    from uatcv.symbolic import INPUT_NAME, eval_canonical

    net = materialize(
        parse_spec_text(
            """
            {"input_shape": [["C_I", 1], ["H", 4], ["W", 4], ["D", 3]],
             "seed": 9, "activation": "relu",
             "layers": [{"kind": "conv3d", "out_channels": 2, "kernel": [2, 2, 2]},
                        {"kind": "conv3d", "out_channels": 1, "kernel": [2, 2, 2]}]}
            """
        )
    )
    assert verify_network(net, trials=2, tol=1e-9)["passed"]
    exp = to_expandable(net)
    assert exp.chain.canonical.n_terms == 2
    x = random_input(net.spec, 77)
    env = dict(exp.binding)
    env[INPUT_NAME] = expandable_input(net, x)
    got = eval_canonical(exp.chain.canonical, env, "relu")
    want = expandable_output(net, forward(net, x)[-1])
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("axes", [("C_I", "H", "W", "D"), ("C_O", "H", "W", "D"), ("D", "H", "W")])
def test_residual_chain_over_a_depth_axis_expands(axes):
    # a residual chain reads its input in storage order, whatever its axes
    from uatcv.netspec import expandable_input, expandable_output
    from uatcv.symbolic import INPUT_NAME, eval_canonical

    net = materialize(parse_spec_text(json.dumps({
        "input_shape": [[a, n] for a, n in zip(axes, (2, 3, 2, 3))], "seed": 3,
        "activation": "relu", "layers": [{"kind": "residual_block", "hidden_dim": 5}] * 2,
    })))
    exp = to_expandable(net)
    x = random_input(net.spec, 99)
    env = dict(exp.binding)
    env[INPUT_NAME] = expandable_input(net, x)
    got = eval_canonical(exp.chain.canonical, env, "relu")
    want = expandable_output(net, forward(net, x)[-1])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_vgg_fixture_canonical_matches_forward(specs_dir):
    from uatcv.netspec import expandable_input, expandable_output
    from uatcv.symbolic import INPUT_NAME, eval_canonical

    net = materialize(parse_spec(specs_dir / "vgg3.json"))
    exp = to_expandable(net)
    x = random_input(net.spec, 101)
    env = dict(exp.binding)
    env[INPUT_NAME] = expandable_input(net, x)
    got = eval_canonical(exp.chain.canonical, env, "relu")
    want = expandable_output(net, forward(net, x)[-1])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_vit_fixture_canonical_matches_forward(specs_dir):
    from uatcv.netspec import expandable_input, expandable_output
    from uatcv.symbolic import INPUT_NAME, eval_canonical

    net = materialize(parse_spec(specs_dir / "vit1.json"))
    exp = to_expandable(net)
    x = random_input(net.spec, 103)
    env = dict(exp.binding)
    env[INPUT_NAME] = expandable_input(net, x)
    got = eval_canonical(exp.chain.canonical, env, "relu")
    want = expandable_output(net, forward(net, x)[-1])
    assert np.max(np.abs(got - want)) <= 1e-8


# Values a hand-written description might put in a layer field: a
# plausible value of the field's type, or (one time in four) junk: zero,
# negative, huge, null, bool, float, string or list.
_PLAUSIBLE = {
    "kernel": st.sampled_from([[1, 1], [2, 2], [3, 3], [1, 1, 1], [2, 1, 2]]),
    "window": st.sampled_from([[1, 1], [2, 2], [2, 1]]),
    "patch": st.sampled_from([[1, 1], [2, 2], [4, 2]]),
    "bias": st.booleans(),
}
_JUNK = st.sampled_from(
    [0, -1, 2**40, None, True, 0.5, 2.0, "2", "x", [], [2], [0, 2], [-1, 2], [2**40, 2],
     [None], [True, 2], [1.5, 2], [[2]], {}]
)
_INPUT_SHAPES = [
    [["C_I", 2], ["H", 6], ["W", 6]],
    [["C_I", 1], ["H", 4], ["W", 4], ["D", 4]],
    [["H", 4], ["W", 4], ["C_I", 2]],
    [["token", 4], ["feature", 4]],
    [["feature", 8]],
]


@st.composite
def _layer_objects(draw):
    from uatcv.netspec import _LAYER_KINDS

    kind = draw(st.sampled_from(sorted(_LAYER_KINDS)) if draw(st.integers(0, 7)) else _JUNK)
    known = isinstance(kind, str) and kind in _LAYER_KINDS
    obj = {"kind": kind}
    for f in fields(_LAYER_KINDS[kind]) if known else ():
        choice = draw(st.integers(0, 7))
        if choice == 0:
            continue  # left out
        ints = [1, 2, 4] if f.default is not None else [1, 2, 4, None]
        plausible = _PLAUSIBLE.get(f.name, st.sampled_from(ints))
        obj[f.name] = draw(_JUNK if choice < 3 else plausible)
    return obj


@st.composite
def _descriptions(draw):
    layers = draw(st.lists(_layer_objects(), min_size=1, max_size=2))
    first = layers[0]["kind"]
    if isinstance(first, str) and first in KIND_EXAMPLES and draw(st.integers(0, 3)):
        input_shape = KIND_EXAMPLES[first][0]  # usually an input the first layer takes
    else:
        input_shape = draw(st.sampled_from(_INPUT_SHAPES))
    return json.dumps({"input_shape": input_shape, "seed": 1, "activation": "relu", "layers": layers})


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=_descriptions())
@example(text=json.dumps({"input_shape": [["feature", 4]], "seed": 1, "activation": "relu",
                          "layers": []}).replace('"seed": 1', '"seed": ' + "7" * 5000))
def test_parse_spec_text_raises_only_uatcv_errors(text):
    try:
        net = parse_spec_text(text)
    except UatcvError:
        return
    assert parse_spec_text(emit_spec(net)) == net


def test_bridge_lowers_only_when_binding_is_read(specs_dir, monkeypatch):
    import uatcv.netspec as netspec

    calls = []
    for name in ("lower_conv2d_I_O", "lower_mean_pool"):
        original = getattr(netspec, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(netspec, name, counted)
    net = materialize(parse_spec(specs_dir / "vgg3.json"))
    exp = to_expandable(net)
    assert calls == []
    first = exp.binding
    assert calls == ["lower_conv2d_I_O"] * len(net.layers)
    assert exp.binding is first
    assert len(calls) == len(net.layers)



def test_verify_network_fails_on_nan_diff(specs_dir, monkeypatch, capsys):
    # a diff of inf - inf is NaN, and max(0.0, nan) is 0.0: the gate must keep it
    import uatcv.netspec as netspec
    from uatcv.cli import EXIT_VERIFY, main

    real = netspec.check_layer
    calls = []

    def nan_after_first_trial(rt, value):
        check = real(rt, value)
        calls.append(rt.index)
        if len(calls) > 2 and rt.index == 1:  # resblock2 has two layers
            check.max_abs_diff = float("nan")
        return check

    net = materialize(parse_spec(specs_dir / "resblock2.json"))
    monkeypatch.setattr(netspec, "check_layer", nan_after_first_trial)
    result = verify_network(net, trials=3, tol=1e-9)
    assert np.isnan(result["per_layer_max_abs_diff"][-1])
    assert np.isnan(result["max_abs_diff"]) and not result["passed"]

    calls.clear()
    assert main(["verify", str(specs_dir / "resblock2.json"), "--trials", "3"]) == EXIT_VERIFY
    assert "layer 1 (residual_block): max abs diff nan [FAIL]" in capsys.readouterr().out


def test_token_kinds_hold_only_their_parts():
    projections, ffn = ("w_q", "w_k", "w_v", "w_o"), ("w_2", "w_3", "b_2", "b_3")
    net = materialize(parse_spec_text(json.dumps({
        "input_shape": [["token", 3], ["feature", 4]], "seed": 12, "activation": "relu",
        "layers": [{"kind": "mha", "heads": 2}, {"kind": "ffn", "hidden_dim": 5},
                   {"kind": "transformer_block", "heads": 2, "hidden_dim": 5}],
    })))
    held = {rt.spec.kind: [n for n in projections + ffn if getattr(rt.weights, n) is not None]
            for rt in net.layers}
    assert held == {"mha": list(projections), "ffn": list(ffn),
                    "transformer_block": list(projections + ffn)}
    # one stream, layer by layer and part by part; a missing part draws nothing
    drawn = [getattr(rt.weights, n).ravel() for rt in net.layers
             for n in held[rt.spec.kind]]
    stream = SplitMix64(12).uniform(sum(len(a) for a in drawn), -1.0, 1.0)
    assert np.array_equal(np.concatenate(drawn), stream)


def _stream_order(rt) -> list[np.ndarray]:
    """A conv's or residual block's weight arrays in the order it reads them."""
    w = rt.weights
    if rt.spec.kind == "residual_block":
        return [w.w_1, w.b_1, w.w_2, w.b_2]
    return [w.kernel.data] + ([] if w.params.bias is None else [w.params.bias])


@pytest.mark.parametrize("input_shape, layers", [
    ([["C_I", 2], ["H", 5], ["W", 5]],
     [{"kind": "conv2d", "out_channels": 3, "kernel": [2, 2], "bias": True},
      {"kind": "conv2d", "out_channels": 2, "kernel": [3, 2]}]),
    ([["C_I", 2], ["H", 4], ["W", 4], ["D", 3]],
     [{"kind": "conv3d", "out_channels": 2, "kernel": [2, 2, 2], "bias": True},
      {"kind": "conv3d", "out_channels": 3, "kernel": [1, 2, 2]}]),
    ([["feature", 4]], [{"kind": "residual_block", "hidden_dim": 3}, {"kind": "residual_block"}]),
], ids=["conv2d", "conv3d", "residual_block"])
def test_weighted_kinds_read_one_stream_in_their_documented_order(input_shape, layers):
    # kernel then bias (when there is one); w_1, b_1, w_2, b_2
    net = materialize(parse_spec_text(json.dumps(
        {"input_shape": input_shape, "seed": 9, "activation": "relu", "layers": layers})))
    drawn = [a for rt in net.layers for a in _stream_order(rt)]
    stream = SplitMix64(9).uniform(sum(a.size for a in drawn), -1.0, 1.0)
    assert np.array_equal(np.concatenate([a.ravel() for a in drawn]), stream)
    assert not any(a.flags.writeable for a in drawn)


RESNET_16 = json.dumps({"input_shape": [["feature", 8]], "seed": 11, "activation": "relu",
                        "layers": [{"kind": "residual_block", "hidden_dim": 6}] * 16})


def test_materialize_reads_the_stream_once_per_layer(monkeypatch):
    reads = counted_reads(monkeypatch)
    materialize(parse_spec_text(RESNET_16))
    assert reads == [6 * 8 + 6 + 8 * 6 + 8] * 16  # 16 reads for the 64 arrays


def test_a_layer_over_the_cap_reads_array_by_array_from_the_same_stream(monkeypatch):
    spec = parse_spec_text(RESNET_16)
    whole = materialize(spec)
    reads = counted_reads(monkeypatch)
    set_element_cap(50)  # every array fits, a layer's 110 numbers do not
    try:
        split = materialize(spec)
    finally:
        set_element_cap(None)
    assert reads == [48, 6, 48, 8] * 16
    for a, b in zip(whole.layers, split.layers):
        assert all(np.array_equal(x, y) for x, y in zip(_stream_order(a), _stream_order(b)))
        assert not any(x.flags.writeable for x in _stream_order(b))


def _claim(net, x):
    """The value of the network's expanded canonical form at input ``x``."""
    from uatcv.netspec import expandable_input
    from uatcv.symbolic import INPUT_NAME, eval_canonical

    exp = to_expandable(net)
    env = dict(exp.binding)
    env[INPUT_NAME] = expandable_input(net, x)
    return eval_canonical(exp.chain.canonical, env, net.activation)


VIT_TOKENS = json.dumps({
    "input_shape": [["H", 16], ["W", 16], ["C_I", 3]], "seed": 5, "activation": "relu",
    "layers": [{"kind": "patchify", "patch": [4, 4]}]
    + [{"kind": "transformer_block", "heads": 4, "hidden_dim": 96}] * 3,
})


def _vit_networks(specs_dir, seed):
    from dataclasses import replace

    for spec in (parse_spec(specs_dir / "vit1.json"), parse_spec_text(VIT_TOKENS)):
        yield materialize(replace(spec, seed=seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expandable_input_is_the_patchified_image(specs_dir, seed):
    from uatcv.netspec import expandable_input
    from uatcv.reference import patchify

    for net in _vit_networks(specs_dir, seed):
        x = random_input(net.spec, seed)
        got = expandable_input(net, x)
        assert got.dtype == np.float64
        assert np.array_equal(got, patchify(x, net.spec.layers[0].patch).reshape(-1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expandable_input_refuses_what_forward_refuses(specs_dir, seed):
    from uatcv.errors import ShapeError
    from uatcv.netspec import expandable_input
    from uatcv.tensor import random_uniform

    bad = random_uniform(TensorShape([("H", 2), ("W", 2)]), seed, -1.0, 1.0)
    for net in _vit_networks(specs_dir, seed):
        with pytest.raises(ShapeError) as refused:
            expandable_input(net, bad)
        with pytest.raises(ShapeError) as forward_refused:
            forward(net, bad)
        assert str(refused.value) == str(forward_refused.value)
        assert str(refused.value).startswith("input shape ")


@pytest.mark.parametrize("layers, input_shape, limit_mb", [
    # the dense W'^T of the first conv alone would be 8192 x 3072 float64 (200 MB)
    ([{"kind": "conv2d", "out_channels": 8, "kernel": [3, 3], "padding": 1, "bias": True},
      {"kind": "mean_pool", "window": [2, 2], "stride": 2},
      {"kind": "conv2d", "out_channels": 4, "kernel": [3, 3]}],
     [["C_I", 3], ["H", 32], ["W", 32]], 64),
    # each block's dense attention matrix would be 768 x 768 float64 (4.7 MB)
    ([{"kind": "patchify", "patch": [4, 4]}]
     + [{"kind": "transformer_block", "heads": 4, "hidden_dim": 96}] * 3,
     [["H", 16], ["W", 16], ["C_I", 3]], 8),
], ids=["conv_pool_conv", "vit_tokens"])
def test_claim_check_memory(layers, input_shape, limit_mb):
    from uatcv.netspec import expandable_output

    net = materialize(parse_spec_text(json.dumps(
        {"input_shape": input_shape, "seed": 13, "activation": "relu", "layers": layers}
    )))
    x = random_input(net.spec, 14)
    want = expandable_output(net, forward(net, x)[-1])
    with traced_peak() as peak:
        got = _claim(net, x)
    assert peak.bytes < limit_mb * 2**20
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


VIT_224 = json.dumps({
    "input_shape": [["H", 224], ["W", 224], ["C_I", 3]], "seed": 15, "activation": "relu",
    "layers": [{"kind": "patchify", "patch": [16, 16]},
               {"kind": "transformer_block", "heads": 12, "hidden_dim": 3072}],
})


def test_claim_check_at_vit_b16_size(monkeypatch, tmp_path, capsys):
    # 196 tokens of 768 features: a dense attention matrix would be 150528^2
    # float64 (181 GB), and the FFN stage's index grid has 196*768*3072 cells
    from uatcv.cli import EXIT_PARSE, main
    from uatcv.netspec import expandable_output
    from uatcv.tensor import set_element_cap

    monkeypatch.delenv("UATCV_CAP", raising=False)
    spec = tmp_path / "vit224.json"
    spec.write_text(VIT_224, encoding="utf-8")
    set_element_cap(3_000_000)  # the largest weight array, W_2, has 2.36M elements
    try:
        net = materialize(parse_spec_text(VIT_224))
        x = random_input(net.spec, 16)
        want = expandable_output(net, forward(net, x)[-1])
        got = _claim(net, x)
        code = main(["lower", str(spec), "--cap", "3000000"])
    finally:
        set_element_cap(None)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error[validation]: layer 1 (transformer_block): ")
    assert "index grid of shape (196, 768, 3072)" in err


@st.composite
def _expandable_descriptions(draw):
    """A small description of an expandable family: a conv stack with
    pooling, bias, stride and padding; residual blocks over a 1- to 4-D
    input; or transformer blocks of random heads and hidden width, behind an
    optional patchify."""
    family = draw(st.sampled_from(["vgg", "residual", "transformer"]))
    layers = []
    if family == "vgg":
        extents = [draw(st.integers(2, 7)), draw(st.integers(2, 7))]
        input_shape = [["C_I", draw(st.integers(1, 2))], ["H", extents[0]], ["W", extents[1]]]
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                window = [draw(st.integers(1, min(2, n))) for n in extents]
                stride = draw(st.integers(1, 2))
                extents = [(n - k) // stride + 1 for n, k in zip(extents, window)]
                layers.append({"kind": "mean_pool", "window": window, "stride": stride})
            padding, stride = draw(st.integers(0, 1)), draw(st.integers(1, 2))
            kernel = [draw(st.integers(1, min(3, n + 2 * padding))) for n in extents]
            extents = [(n + 2 * padding - k) // stride + 1 for n, k in zip(extents, kernel)]
            layers.append({"kind": "conv2d", "out_channels": draw(st.integers(1, 3)),
                           "kernel": kernel, "stride": stride, "padding": padding,
                           "bias": draw(st.booleans())})
    elif family == "residual":
        axes = draw(st.permutations(AXIS_NAMES))[:draw(st.integers(1, 4))]
        input_shape = [[a, draw(st.integers(1, 3))] for a in axes]
        hidden = draw(st.sampled_from([None, 1, 3, 5]))
        layers = [{"kind": "residual_block", "hidden_dim": hidden}] * draw(st.integers(1, 4))
    else:
        if draw(st.booleans()):
            patch = [draw(st.integers(1, 2)), draw(st.integers(1, 2))]
            channels = draw(st.integers(1, 2))
            input_shape = [["H", patch[0] * draw(st.integers(1, 3))],
                           ["W", patch[1] * draw(st.integers(1, 2))], ["C_I", channels]]
            layers.append({"kind": "patchify", "patch": patch})
            d = patch[0] * patch[1] * channels
        else:
            d = draw(st.integers(1, 6))
            input_shape = [["token", draw(st.integers(1, 4))], ["feature", d]]
        heads = draw(st.sampled_from([h for h in range(1, d + 1) if d % h == 0]))
        block = {"kind": "transformer_block", "heads": heads,
                 "hidden_dim": draw(st.integers(1, 6))}
        layers += [block] * draw(st.integers(1, 3))
    return json.dumps({"input_shape": input_shape, "seed": draw(st.integers(0, 999)),
                       "activation": draw(st.sampled_from(sorted(ACTIVATIONS))),
                       "layers": layers})


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=_expandable_descriptions())
def test_expanded_form_matches_forward(text):
    from uatcv.netspec import expandable_output

    net = materialize(parse_spec_text(text))
    x = random_input(net.spec, net.spec.seed + 1)
    want = expandable_output(net, forward(net, x)[-1])
    assert np.max(np.abs(_claim(net, x) - want)) <= 1e-12 * np.max(np.abs(want))


CONV_POOL_CONV = json.dumps({
    "input_shape": [["C_I", 2], ["H", 6], ["W", 6]], "seed": 4, "activation": "relu",
    "layers": [{"kind": "conv2d", "out_channels": 2, "kernel": [3, 3], "bias": True},
               {"kind": "mean_pool", "window": [2, 2], "stride": 2},
               {"kind": "conv2d", "out_channels": 1, "kernel": [2, 2]}],
})


@pytest.mark.parametrize("name", ["vgg3", "resblock2", "vit1", "conv_pool_conv"])
def test_binding_holds_exactly_the_primitive_atoms_the_form_reads(specs_dir, name):
    from uatcv.symbolic import ParamAtom

    if name == "conv_pool_conv":
        net = materialize(parse_spec_text(CONV_POOL_CONV))
    else:
        net = materialize(parse_spec(specs_dir / f"{name}.json"))
    exp = to_expandable(net)
    read, seen, todo = set(), set(), [exp.chain.canonical.expression]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(node.children())
            if isinstance(node, ParamAtom) and not node.merged:
                read.add(node.name)
    assert set(exp.binding) == read


# hand-built descriptions at the edges of the expandable families: (input shape, layers)
FAMILY_EDGES = {
    "conv3d": ([["C_I", 1], ["H", 4], ["W", 4], ["D", 4]],
               [{"kind": "conv3d", "out_channels": 2, "kernel": [2, 2, 2], "bias": True},
                {"kind": "conv3d", "out_channels": 2, "kernel": [2, 2, 2]}]),
    "pool_first_trailing_pool": ([["C_I", 2], ["H", 8], ["W", 8]],
                                 [{"kind": "mean_pool", "window": [2, 2], "stride": 2},
                                  {"kind": "conv2d", "out_channels": 2, "kernel": [2, 2]},
                                  {"kind": "mean_pool", "window": [2, 2]},
                                  {"kind": "conv2d", "out_channels": 1, "kernel": [1, 1]},
                                  {"kind": "mean_pool", "window": [1, 1]}]),
    "patchify_only_then_blocks": ([["H", 4], ["W", 4]],
                                  [{"kind": "patchify", "patch": [2, 2]},
                                   {"kind": "transformer_block", "heads": 2, "hidden_dim": 8},
                                   {"kind": "transformer_block", "heads": 2, "hidden_dim": 8}]),
    "mixed_residual_hidden": ([["feature", 5]],
                              [{"kind": "residual_block"},
                               {"kind": "residual_block", "hidden_dim": 5},
                               {"kind": "residual_block", "hidden_dim": 3}]),
    "mixed_transformer_heads": ([["H", 4], ["W", 4]],
                                [{"kind": "patchify", "patch": [2, 2]},
                                 {"kind": "transformer_block", "heads": 2, "hidden_dim": 8},
                                 {"kind": "transformer_block", "heads": 1, "hidden_dim": 8}]),
    "mixed_transformer_hidden": ([["token", 4], ["feature", 4]],
                                 [{"kind": "transformer_block", "heads": 2, "hidden_dim": 8},
                                  {"kind": "transformer_block", "heads": 2, "hidden_dim": 4}]),
    "mha_ffn": ([["token", 4], ["feature", 4]],
                [{"kind": "mha", "heads": 2}, {"kind": "ffn", "hidden_dim": 6},
                 {"kind": "transformer_block", "heads": 2, "hidden_dim": 4},
                 {"kind": "mha", "heads": 1}]),
}

# per prefix: [family, n_terms] or the SpecError text, as to_expandable gave
# them when it still held the family rules itself
_RESIDUAL_16 = [["residual", k] for k in range(1, 17)]
_NO_POOL_END = "chain must end with an activation stage, not pooling"
_MIXED_HEADS = "transformer chains with mixed heads/hidden dims are not expandable"
EXPANSION_FAMILIES = {
    "vgg3": [["vgg", 1], ["vgg", 2], ["vgg", 3]],
    "resblock2": [["residual", 1], ["residual", 2]],
    "vit1": ["network with layer kinds ['patchify'] does not match an expandable family",
             ["transformer", 1]],
    "conv_mid": [["vgg", 1], _NO_POOL_END, ["vgg", 2], ["vgg", 3]],
    "resnet_deep": _RESIDUAL_16,
    "vit_tokens": ["network with layer kinds ['patchify'] does not match an expandable family",
                   ["transformer", 1], ["transformer", 2], ["transformer", 3]],
    "conv3d": [["vgg", 1], ["vgg", 2]],
    "pool_first_trailing_pool": [_NO_POOL_END, ["vgg", 1], _NO_POOL_END, ["vgg", 2],
                                 _NO_POOL_END],
    "patchify_only_then_blocks": [
        "network with layer kinds ['patchify'] does not match an expandable family",
        ["transformer", 1], ["transformer", 2]],
    "mixed_residual_hidden": [["residual", 1], ["residual", 2],
                              "residual chains with mixed hidden dims are not expandable"],
    "mixed_transformer_heads": [
        "network with layer kinds ['patchify'] does not match an expandable family",
        ["transformer", 1], _MIXED_HEADS],
    "mixed_transformer_hidden": [["transformer", 1], _MIXED_HEADS],
    "mha_ffn": [
        "network with layer kinds ['mha'] does not match an expandable family",
        "network with layer kinds ['ffn', 'mha'] does not match an expandable family",
        "network with layer kinds ['ffn', 'mha', 'transformer_block'] does not match an "
        "expandable family",
        "network with layer kinds ['ffn', 'mha', 'transformer_block'] does not match an "
        "expandable family"],
}


def _family_cases(specs_dir):
    import importlib.util
    import sys
    from pathlib import Path

    cases = {name: parse_spec(specs_dir / f"{name}.json") for name in ("vgg3", "resblock2", "vit1")}
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    for w in workloads.WORKLOADS.values():
        cases[w.name] = parse_spec_text(json.dumps(w.spec(w.default_seed)))
    for name, (shape, layers) in FAMILY_EDGES.items():
        cases[name] = parse_spec_text(json.dumps(
            {"input_shape": shape, "seed": 1, "activation": "relu", "layers": layers}))
    return cases


def _outcome(call):
    try:
        return call()
    except SpecError as exc:
        return str(exc)


def test_expansion_family_matches_the_built_chain_on_every_prefix(specs_dir):
    from dataclasses import replace

    from uatcv.netspec import expansion_family

    cases = _family_cases(specs_dir)
    assert sorted(cases) == sorted(EXPANSION_FAMILIES)
    for name, net in cases.items():
        assert len(EXPANSION_FAMILIES[name]) == len(net.layers), name
        for k, want in enumerate(EXPANSION_FAMILIES[name], start=1):
            prefix = replace(net, layers=net.layers[:k])
            got = _outcome(lambda: list(expansion_family(prefix)))
            assert got == want, (name, k)

            def built():
                exp = to_expandable(materialize(prefix))
                return [exp.family, exp.chain.canonical.n_terms]

            assert _outcome(built) == want, (name, k)
