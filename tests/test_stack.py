"""The stacked direct pass: each layer kind's one rule on a stack of inputs,
``forward_stack``, and the prune study that runs on it, each held bitwise to
its inputs run one at a time."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uatcv.netspec as netspec
from conftest import SPECS_DIR
from oracles import prune_impact_per_input
from uatcv.analysis import PruneMask, prune, prune_impact
from uatcv.cli import EXIT_OK, main
from uatcv.errors import SpecError, UatcvError, ValidationError
from uatcv.netspec import (
    _LAYER_KINDS,
    apply_layer,
    forward,
    forward_stack,
    materialize,
    parse_spec,
    parse_spec_text,
    random_input,
)
from uatcv.reference import ACTIVATIONS
from uatcv.tensor import Tensor, set_element_cap

SPATIAL = ("H", "W", "D")


@st.composite
def _one_layer_descriptions(draw):
    """A valid one-layer description of any kind, its geometry drawn."""
    kind = draw(st.sampled_from(sorted(_LAYER_KINDS)))
    if kind in ("conv2d", "conv3d"):
        padding, stride = draw(st.integers(0, 2)), draw(st.integers(1, 3))
        extents = [draw(st.integers(1, 6)) for _ in range(2 if kind == "conv2d" else 3)]
        input_shape = [["C_I", draw(st.integers(1, 3))], *map(list, zip(SPATIAL, extents))]
        layer = {"out_channels": draw(st.integers(1, 4)), "stride": stride, "padding": padding,
                 "kernel": [draw(st.integers(1, min(4, n + 2 * padding))) for n in extents],
                 "bias": draw(st.booleans())}
    elif kind == "mean_pool":
        extents = [draw(st.integers(1, 7)) for _ in range(2)]
        input_shape = [["C_I", draw(st.integers(1, 3))], *map(list, zip(SPATIAL, extents))]
        layer = {"window": [draw(st.integers(1, n)) for n in extents],
                 "stride": draw(st.integers(1, 3))}
    elif kind == "residual_block":
        input_shape = draw(st.sampled_from([[["feature", 5]], [["C_I", 2], ["H", 3], ["W", 2]],
                                            [["token", 2], ["feature", 3]]]))
        layer = {"hidden_dim": draw(st.sampled_from([None, 1, 4, 9]))}
    elif kind == "patchify":
        patch = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
        input_shape = [["H", patch[0] * draw(st.integers(1, 3))],
                       ["W", patch[1] * draw(st.integers(1, 3))]]
        if draw(st.booleans()):
            input_shape.append(["C_I", draw(st.integers(1, 3))])
        layer = {"patch": patch}
    else:
        heads = draw(st.integers(1, 3))
        input_shape = [["token", draw(st.integers(1, 5))],
                       ["feature", heads * draw(st.integers(1, 3))]]
        layer = {"heads": heads, "hidden_dim": draw(st.integers(1, 7))}
        layer = {f: layer[f] for f in ("heads", "hidden_dim") if f in _field_names(kind)}
    return json.dumps({"input_shape": input_shape, "seed": draw(st.integers(0, 999)),
                       "activation": draw(st.sampled_from(sorted(ACTIVATIONS))),
                       "layers": [{"kind": kind, **layer}]})


def _field_names(kind: str) -> set[str]:
    from dataclasses import fields

    return {f.name for f in fields(_LAYER_KINDS[kind])}


def _inputs(net, seed: int, n: int) -> list[Tensor]:
    return [random_input(net.spec, seed + i) for i in range(n)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=_one_layer_descriptions(), size=st.integers(1, 4))
def test_every_kind_runs_a_stack_as_each_input_alone(text, size):
    net = materialize(parse_spec_text(text))
    rt, xs = net.layers[0], _inputs(net, 7, size)
    got = rt.spec.apply(rt, np.stack([x.data for x in xs]))
    assert got.shape == (size, *rt.out_shape.extents)
    for row, x in zip(got, xs, strict=True):
        assert row.tobytes() == apply_layer(rt, x).data.tobytes()


# conv 3->8 (3x3, padding 1) on 3x12x12, pooling, conv 8->4: one input's
# largest array is layer 0's 9-offset x 144-position column block, 1,296
# elements, and its input holds 432
SMALL_CONV = {
    "input_shape": [["C_I", 3], ["H", 12], ["W", 12]], "seed": 4, "activation": "relu",
    "layers": [{"kind": "conv2d", "out_channels": 8, "kernel": [3, 3], "padding": 1,
                "bias": True},
               {"kind": "mean_pool", "window": [2, 2], "stride": 2},
               {"kind": "conv2d", "out_channels": 4, "kernel": [3, 3]}],
}
ONE_INPUT_PEAK = 1296

NETWORKS = {
    "small_conv": SMALL_CONV,
    "conv3d": {
        "input_shape": [["C_I", 2], ["H", 5], ["W", 4], ["D", 6]], "seed": 1,
        "activation": "logistic",
        "layers": [{"kind": "conv3d", "out_channels": 3, "kernel": [2, 2, 2], "padding": 1,
                    "bias": True},
                   {"kind": "conv3d", "out_channels": 2, "kernel": [2, 1, 2], "stride": 2}],
    },
    "conv_residual": {
        "input_shape": [["C_I", 2], ["H", 6], ["W", 6]], "seed": 2, "activation": "identity",
        "layers": [{"kind": "conv2d", "out_channels": 4, "kernel": [3, 3], "padding": 1},
                   {"kind": "conv2d", "out_channels": 2, "kernel": [3, 3]},
                   {"kind": "residual_block", "hidden_dim": 7}, {"kind": "residual_block"}],
    },
    "tokens": {
        "input_shape": [["H", 8], ["W", 8], ["C_I", 2]], "seed": 3, "activation": "logistic",
        "layers": [{"kind": "patchify", "patch": [2, 4]}, {"kind": "mha", "heads": 2},
                   {"kind": "ffn", "hidden_dim": 5},
                   {"kind": "transformer_block", "heads": 4, "hidden_dim": 6}],
    },
}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(name=st.sampled_from(sorted(NETWORKS) + ["specs"]), spec_file=st.integers(0, 2),
       seed=st.integers(0, 999), size=st.integers(1, 6))
def test_forward_stack_rows_are_forward_outputs(name, spec_file, seed, size):
    if name == "specs":
        doc = json.loads(sorted(SPECS_DIR.glob("*.json"))[spec_file].read_text())
    else:
        doc = NETWORKS[name]
    net = materialize(parse_spec_text(json.dumps({**doc, "seed": seed})))
    xs = _inputs(net, seed + 1, size)
    rows = forward_stack(net, xs)
    assert len(rows) == size
    for row, x in zip(rows, xs):
        assert row.tobytes() == forward(net, x)[-1].data.tobytes()


def _record_conv_stacks(monkeypatch) -> list[tuple[int, int, int]]:
    """(stack size, padded input, column block) elements of every direct conv
    call that returned; a refused call allocated neither."""
    real, ran = netspec.conv2d_direct, []

    def recorded(x, p, w):
        out = real(x, p, w)
        b, spatial = (1, x.shape.extents[1:]) if isinstance(x, Tensor) else (len(x), x.shape[2:])
        padded = math.prod(n + 2 * p.padding for n in spatial)
        positions = math.prod(p.out_extents(tuple(spatial)))
        ran.append((b, b * p.in_channels * padded, b * math.prod(p.kernel) * positions))
        return out

    monkeypatch.setattr(netspec, "conv2d_direct", recorded)
    return ran


@settings(derandomize=True, deadline=None, max_examples=40)
@given(size=st.integers(2, 8), data=st.data())
def test_a_stack_over_the_cap_is_split_down_to_what_fits(size, data):
    # the cap fits one input's arrays, but not the stack's column block
    cap = data.draw(st.integers(ONE_INPUT_PEAK, size * ONE_INPUT_PEAK - 1))
    net = materialize(parse_spec_text(json.dumps(SMALL_CONV)))
    xs = _inputs(net, 5, size)
    want = [forward(net, x)[-1].data.tobytes() for x in xs]
    with pytest.MonkeyPatch.context() as patched:
        ran = _record_conv_stacks(patched)
        set_element_cap(cap)
        try:
            rows = forward_stack(net, xs)
        finally:
            set_element_cap(None)
    assert [row.tobytes() for row in rows] == want
    assert max(b for b, _, _ in ran) < size  # the whole stack never ran
    assert all(padded <= cap and cols <= cap for _, padded, cols in ran)


def test_one_input_over_the_cap_raises_what_forward_raises():
    net = materialize(parse_spec_text(json.dumps(SMALL_CONV)))
    xs = _inputs(net, 5, 4)
    set_element_cap(ONE_INPUT_PEAK - 1)
    try:
        with pytest.raises(ValidationError) as alone:
            forward(net, xs[0])
        with pytest.raises(ValidationError) as stacked:
            forward_stack(net, xs)
    finally:
        set_element_cap(None)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith("layer 0 (conv2d): column block of shape (9, 144)")


def test_an_overflowing_input_raises_what_forward_raises():
    net = materialize(parse_spec_text(json.dumps(SMALL_CONV)))
    xs = _inputs(net, 5, 4)
    huge = Tensor(net.spec.input_shape, np.full(net.spec.input_shape.extents, 1e308))
    xs[2] = huge
    with pytest.raises(ValidationError) as alone:
        forward(net, huge)
    with pytest.raises(ValidationError) as stacked:
        forward_stack(net, xs)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "layer 0 (conv2d): tensor entries must be finite"


@st.composite
def _prune_cases(draw):
    """A conv/pool stack, optionally ending in a residual block, with a mask
    on one of its conv layers; some masks cannot be applied."""
    extents = [draw(st.integers(3, 7)), draw(st.integers(3, 7))]
    input_shape = [["C_I", draw(st.integers(1, 3))], ["H", extents[0]], ["W", extents[1]]]
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()) and min(extents) >= 2:
            layers.append({"kind": "mean_pool", "window": [2, 2], "stride": 1})
            extents = [n - 1 for n in extents]
        kernel = [draw(st.integers(1, min(2, n))) for n in extents]
        extents = [n - k + 1 for n, k in zip(extents, kernel)]
        layers.append({"kind": "conv2d", "out_channels": draw(st.integers(1, 4)),
                       "kernel": kernel, "bias": draw(st.booleans())})
    if draw(st.booleans()):
        layers.append({"kind": "residual_block", "hidden_dim": 3})
    doc = {"input_shape": input_shape, "seed": draw(st.integers(0, 999)),
           "activation": draw(st.sampled_from(sorted(ACTIVATIONS))), "layers": layers}
    convs = [i for i, layer in enumerate(layers) if layer["kind"] == "conv2d"]
    index = draw(st.sampled_from(convs))
    channels = draw(st.sets(st.integers(0, layers[index]["out_channels"] - 1), min_size=1))
    return doc, PruneMask(layer=index, channels=tuple(channels)), draw(st.integers(1, 6))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(case=_prune_cases())
def test_prune_impact_is_the_per_input_loop(case):
    doc, mask, n = case
    net = materialize(parse_spec_text(json.dumps(doc)))
    inputs = _inputs(net, doc["seed"] + 1, n)
    try:
        want = prune_impact_per_input(net, mask, inputs)
    except UatcvError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            prune_impact(net, mask, inputs)
        return
    assert prune_impact(net, mask, inputs) == want
    assert prune_impact(net, mask, inputs, pruned=prune(net, mask)) == want


def test_prune_impact_needs_an_input(specs_dir):
    net = materialize(parse_spec(specs_dir / "vgg3.json"))
    with pytest.raises(SpecError, match="^prune impact needs at least one input$"):
        prune_impact(net, PruneMask(layer=0, channels=(0,)), [])


def test_a_failing_stack_names_the_first_failure_one_input_at_a_time(monkeypatch):
    # the original network fails on input 2 and the pruned one on input 1: one
    # input at a time meets the pruned network's failure first
    import uatcv.analysis as analysis

    net = materialize(parse_spec_text(json.dumps(SMALL_CONV)))
    mask = PruneMask(layer=0, channels=(1,))
    pruned = prune(net, mask)
    inputs = _inputs(net, 3, 4)
    failing = {(id(net), 2): "original, input 2", (id(pruned), 1): "pruned, input 1"}
    calls = []

    def one_at_a_time(network, x):
        index = next(i for i, y in enumerate(inputs) if y is x)
        calls.append((network is net, index))
        if (id(network), index) in failing:
            raise ValidationError(failing[id(network), index])
        return forward(network, x)

    def stacked(network, xs):
        for i, _ in enumerate(xs):
            if (id(network), i) in failing:
                raise ValidationError(failing[id(network), i])
        return forward_stack(network, xs)

    monkeypatch.setattr(analysis, "forward", one_at_a_time)
    monkeypatch.setattr(analysis, "forward_stack", stacked)
    with pytest.raises(ValidationError, match="^pruned, input 1$"):
        prune_impact(net, mask, inputs, pruned=pruned)
    assert calls == [(True, 0), (False, 0), (True, 1), (False, 1)]


def _analyze(spec, *flags):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(spec), "--prune-layer", "0", "--prune-channels", "0,3",
                     *flags])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=20)
@given(trials=st.integers(2, 12), data=st.data())
def test_analyze_bytes_do_not_depend_on_how_the_stack_is_split(tmp_path_factory, trials, data):
    spec = tmp_path_factory.mktemp("stack") / "small_conv.json"
    spec.write_text(json.dumps(SMALL_CONV))
    cap = data.draw(st.integers(ONE_INPUT_PEAK, trials * ONE_INPUT_PEAK - 1))
    whole = _analyze(spec, "--trials", str(trials))
    split = _analyze(spec, "--trials", str(trials), "--cap", str(cap))
    assert whole[0] == EXIT_OK and split == whole


def test_many_trials_never_allocate_past_the_cap(tmp_path, monkeypatch):
    import uatcv.analysis as analysis

    spec = tmp_path / "small_conv.json"
    spec.write_text(json.dumps(SMALL_CONV))
    ran, stacks = _record_conv_stacks(monkeypatch), []

    def recorded(net, xs):
        stacks.append(len(xs))
        return forward_stack(net, xs)

    monkeypatch.setattr(analysis, "forward_stack", recorded)
    code, out, _ = _analyze(spec, "--trials", "300", "--cap", "3000")
    assert code == EXIT_OK and json.loads(out)["prune"]["inputs"] == 300
    assert all(padded <= 3000 and cols <= 3000 for _, padded, cols in ran)
    assert {b for b, _, _ in ran} == {1, 2}  # column blocks of 1,296 per input
    # each network's 4x4x4 outputs are held 46 inputs at a time: 2,944 elements
    assert stacks == [46] * 12 + [24, 24]
