import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uatcv.errors import ParseError, SpecError, UatcvError, ValidationError
from uatcv.netspec import (
    Conv2dSpec,
    ResidualBlockSpec,
    check_layer,
    emit_spec,
    forward,
    infer_shapes,
    materialize,
    parse_spec,
    parse_spec_text,
    random_input,
    to_expandable,
    verify_network,
)
from uatcv.tensor import TensorShape

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
    assert np.array_equal(a.layers[0].conv_weights.data, b.layers[0].conv_weights.data)
    doc = json.loads(MINIMAL)
    doc["seed"] = 2
    c = materialize(parse_spec_text(json.dumps(doc)))
    assert not np.array_equal(a.layers[0].conv_weights.data, c.layers[0].conv_weights.data)


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
        assert check_layer(rt, x, "relu").max_abs_diff <= 1e-9, kind
        assert apply_layer(rt, x, "relu").shape == infer_shapes(spec)[-1], kind

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
        res = check_layer(rt, value, "relu")
        assert res.max_abs_diff <= 1e-9
        from uatcv.netspec import apply_layer

        value = apply_layer(rt, value, "relu")


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
