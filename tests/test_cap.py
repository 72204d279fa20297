"""The element cap as one rule: every array a direct rule allocates is
checked where it is allocated, for a stack of any size, and one input is a
stack of one; the prune study draws its inputs one stack at a time."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uatcv.analysis as analysis
import uatcv.reference as reference
from conftest import traced_peak
from uatcv.analysis import PruneMask, prune, prune_impact
from uatcv.cli import EXIT_OK, EXIT_PARSE, main
from uatcv.errors import SpecError
from uatcv.netspec import forward, forward_stack, materialize, parse_spec_text, random_input
from uatcv.tensor import DEFAULT_ELEMENT_CAP, Tensor, set_element_cap

# 2048 tokens of one feature: one head's scores are 2048 x 2048 float64, 32 MiB
LONG_VIT = {"input_shape": [["H", 32], ["W", 64], ["C_I", 1]], "seed": 1, "activation": "relu",
            "layers": [{"kind": "patchify", "patch": [1, 1]},
                       {"kind": "transformer_block", "heads": 1, "hidden_dim": 2}]}
# 4096 tokens of one feature: the FFN hidden layer is 4096 x 512 float64, 16 MiB
LONG_FFN = {"input_shape": [["token", 4096], ["feature", 1]], "seed": 1, "activation": "relu",
            "layers": [{"kind": "ffn", "hidden_dim": 512}]}


def _spec(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _traced_main(capsys, *argv):
    with traced_peak() as peak:
        code = main(list(argv))
    return code, capsys.readouterr().err, peak.bytes


@pytest.mark.parametrize("command", ["lower", "verify", "report"])
def test_one_long_input_refuses_its_attention_scores(command, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("UATCV_CAP", raising=False)
    code, err, peak = _traced_main(capsys, command, _spec(tmp_path, LONG_VIT))
    assert code == EXIT_PARSE
    assert err == ("error[validation]: layer 1 (transformer_block): attention scores of shape "
                   "(2048, 2048) has 4194304 elements, cap is 1048576\n")
    assert peak < 2048 * 2048 * 8


@pytest.mark.parametrize("command", ["expand", "classify"])
def test_the_long_input_still_expands_and_classifies(command, capsys, tmp_path, monkeypatch):
    # neither command evaluates the attention matrix
    monkeypatch.delenv("UATCV_CAP", raising=False)
    assert main([command, _spec(tmp_path, LONG_VIT)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_one_long_input_refuses_its_ffn_hidden_layer(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("UATCV_CAP", raising=False)
    code, err, peak = _traced_main(capsys, "analyze", _spec(tmp_path, LONG_FFN),
                                   "--lora-layer", "0", "--lora-target", "w_2")
    assert code == EXIT_PARSE
    assert err == ("error[validation]: layer 0 (ffn): FFN hidden layer of shape (4096, 512) "
                   "has 2097152 elements, cap is 1048576\n")
    assert peak < 4096 * 512 * 8


# 16 tokens of 2 features through two 2-head blocks: one input's largest
# array is a head's 16 x 16 scores
SMALL_VIT = {"input_shape": [["H", 4], ["W", 4], ["C_I", 2]], "seed": 6, "activation": "relu",
             "layers": [{"kind": "patchify", "patch": [1, 1]}]
             + [{"kind": "transformer_block", "heads": 2, "hidden_dim": 3}] * 2}
ONE_INPUT_SCORES = 16 * 16


def _record_scores(monkeypatch) -> list[tuple[int, int]]:
    """(stack size, elements of one head's scores) of every attention call
    that returned; a refused call allocated no scores."""
    real, ran = reference.attention_probabilities_raw, []

    def recorded(x, w_q, w_k, heads):
        probs = real(x, w_q, w_k, heads)
        ran.append((math.prod(x.shape[:-2]), probs[0].size))
        return probs

    monkeypatch.setattr(reference, "attention_probabilities_raw", recorded)
    return ran


@settings(derandomize=True, deadline=None, max_examples=40)
@given(size=st.integers(2, 8), data=st.data())
def test_a_transformer_stack_over_the_cap_is_split_down_to_what_fits(size, data):
    # the cap fits one input's scores, but not the stack's
    cap = data.draw(st.integers(ONE_INPUT_SCORES, size * ONE_INPUT_SCORES - 1))
    net = materialize(parse_spec_text(json.dumps(SMALL_VIT)))
    xs = [random_input(net.spec, 5 + i) for i in range(size)]
    want = [forward(net, x)[-1].data.tobytes() for x in xs]
    with pytest.MonkeyPatch.context() as patched:
        ran = _record_scores(patched)
        set_element_cap(cap)
        try:
            rows = forward_stack(net, xs)
        finally:
            set_element_cap(None)
    assert [row.tobytes() for row in rows] == want
    assert max(b for b, _ in ran) < size  # the whole stack never ran
    assert all(scores <= cap for _, scores in ran)


# conv 2->4 (3x3) on 2x8x8: 144 output elements per input
SMALL_CONV = {"input_shape": [["C_I", 2], ["H", 8], ["W", 8]], "seed": 2, "activation": "relu",
              "layers": [{"kind": "conv2d", "out_channels": 4, "kernel": [3, 3], "bias": True}]}


def _drawn(net, n: int):
    """``n`` inputs, made only as they are read."""
    rng = np.random.default_rng(12)
    shape = net.spec.input_shape
    return (Tensor(shape, rng.uniform(-1.0, 1.0, shape.extents)) for _ in range(n))


def test_prune_impact_holds_one_stack_of_inputs_at_a_time(monkeypatch):
    monkeypatch.delenv("UATCV_CAP", raising=False)
    net = materialize(parse_spec_text(json.dumps(SMALL_CONV)))
    mask = PruneMask(layer=0, channels=(1, 2))
    pruned = prune(net, mask)
    want = prune_impact(net, mask, list(_drawn(net, 2000)), pruned=pruned)
    set_element_cap(3000)  # 20 inputs' outputs to a stack
    try:
        results, peaks = {}, {}
        for n in (200, 2000):
            with traced_peak() as peak:
                results[n] = prune_impact(net, mask, _drawn(net, n), pruned=pruned)
            peaks[n] = peak.bytes
    finally:
        set_element_cap(None)
    assert results[2000] == want
    assert results[200]["per_input"] == want["per_input"][:200]
    # 1,800 more per-input floats; 1,800 more inputs held would be 1.8 MiB
    assert peaks[2000] - peaks[200] < 256 * 2**10


def test_no_inputs_are_refused_before_the_network_is_pruned(monkeypatch):
    net = materialize(parse_spec_text(json.dumps(SMALL_CONV)))
    monkeypatch.setattr(analysis, "prune", lambda *_: pytest.fail("pruned with no inputs"))
    with pytest.raises(SpecError, match="^prune impact needs at least one input$"):
        prune_impact(net, PruneMask(layer=0, channels=(0,)), iter(()))


def test_a_layer_over_the_cap_keeps_materializes_memory_bound(monkeypatch):
    # 3.1 M numbers in one layer at the default cap of 2^20: read whole, its
    # temporaries would be twice the layer's 24 MiB; read array by array,
    # each within the cap, they stay within one array's read
    monkeypatch.delenv("UATCV_CAP", raising=False)
    spec = parse_spec_text(json.dumps({
        "input_shape": [["token", 4], ["feature", 512]], "seed": 1, "activation": "relu",
        "layers": [{"kind": "transformer_block", "heads": 8, "hidden_dim": 2048}],
    }))
    with traced_peak() as peak:
        p = materialize(spec).layers[0].weights
    weights = sum(getattr(p, n).nbytes
                  for n in ("w_q", "w_k", "w_v", "w_o", "w_2", "w_3", "b_2", "b_3"))
    assert weights > 3 * DEFAULT_ELEMENT_CAP * 8
    assert peak.bytes <= weights + 2 * DEFAULT_ELEMENT_CAP * 8
