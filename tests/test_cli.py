import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uatcv.cli import EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, _random_lora, main
from uatcv.netspec import materialize, parse_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_vgg_sample_100_trials(capsys, specs_dir):
    code, out, _ = run(capsys, "verify", str(specs_dir / "vgg3.json"), "--trials", "100")
    assert code == EXIT_OK
    assert "PASS" in out


def test_verify_failure_exits_3(capsys, specs_dir):
    code, _, err = run(
        capsys, "verify", str(specs_dir / "vgg3.json"), "--trials", "2", "--tol", "1e-30"
    )
    assert code == EXIT_VERIFY
    assert "error[verify]" in err


def test_expand_text_and_latex(capsys, specs_dir):
    code, out, _ = run(capsys, "expand", str(specs_dir / "vgg3.json"))
    assert code == EXIT_OK
    assert out.strip() == "σ(W'_{i+2}[σ(W'_{i+1}σ(W'_i x'_i + b'_i) + b'_{i+1})] + b'_{i+2})"
    code, out, _ = run(capsys, "expand", str(specs_dir / "vgg3.json"), "--format", "latex")
    assert code == EXIT_OK
    assert r"\sigma(\mathbf{W}'_{i+2}" in out


def test_expand_mixed_architecture_is_internal_error(capsys, tmp_path):
    spec = tmp_path / "mixed.json"
    spec.write_text(
        json.dumps(
            {
                "input_shape": [["token", 4], ["feature", 4]],
                "seed": 1,
                "activation": "relu",
                "layers": [{"kind": "mha", "heads": 2}, {"kind": "ffn", "hidden_dim": 4}],
            }
        )
    )
    code, _, err = run(capsys, "expand", str(spec))
    assert code == EXIT_INTERNAL
    assert "error[spec]" in err


def test_classify_residual_sample(capsys, specs_dir):
    code, out, _ = run(capsys, "classify", str(specs_dir / "resblock2.json"))
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if "input-dependent" in l]
    assert len(lines) == 1
    assert "b̂_{i+1,2}" in lines[0]


def test_lower_writes_stats(capsys, specs_dir, tmp_path):
    out_path = tmp_path / "lower.json"
    code, _, _ = run(capsys, "lower", str(specs_dir / "vgg3.json"), "--out", str(out_path))
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert len(doc["layers"]) == 3
    first = doc["layers"][0]["forms"][0]
    assert first["rows"] == 36  # 1 channel * 6x6 input
    assert first["structural_nonzeros"] == 2 * 25 * 4  # C_O*out_positions*k*k


def test_analyze_with_lora_and_prune(capsys, specs_dir):
    code, out, _ = run(
        capsys,
        "analyze",
        str(specs_dir / "vgg3.json"),
        "--lora-layer", "0", "--lora-rank", "1",
        "--prune-layer", "0", "--prune-channels", "0",
        "--trials", "3",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["lora"]["lowering_linearity_max_abs"] == 0.0
    assert doc["prune"]["pruned_channels"] == [0]
    assert [r["n_terms"] for r in doc["term_counts"]] == [1, 2, 3]
    assert doc["receptive_field"][-1] == {"H": 4, "W": 4}


def test_report_deterministic_bytes(capsys, specs_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "report", str(specs_dir / "vit1.json"),
            "--trials", "3", "--out", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_report_seed_override_changes_bytes(capsys, specs_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "report", str(specs_dir / "resblock2.json"), "--trials", "2", "--out", str(a))
    run(
        capsys, "report", str(specs_dir / "resblock2.json"),
        "--trials", "2", "--seed", "99", "--out", str(b),
    )
    assert a.read_bytes() != b.read_bytes()


def test_report_latex_sidecar(capsys, specs_dir, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "report", str(specs_dir / "resblock2.json"),
        "--trials", "2", "--out", str(out_path), "--format", "latex",
    )
    assert code == EXIT_OK
    sidecar = out_path.with_suffix(".tex")
    assert sidecar.exists()
    assert r"\hat{\mathbf{b}}" in sidecar.read_text()


@pytest.mark.parametrize("layers, reason, analysis", [
    ([], "empty networks cannot be expanded",
     {"term_counts": {"error": "empty networks cannot be expanded"},
      "receptive_field": {"error": "no layers"}}),
    ([{"kind": "conv2d", "out_channels": 2, "kernel": [3, 3], "stride": 1, "padding": 1,
       "bias": True},
      {"kind": "mean_pool", "window": [2, 2], "stride": 2}],
     "chain must end with an activation stage, not pooling", None),
])
def test_report_on_a_description_that_does_not_expand(capsys, tmp_path, layers, reason,
                                                      analysis):
    spec = tmp_path / "flat.json"
    spec.write_text(json.dumps({"input_shape": [["C_I", 1], ["H", 6], ["W", 6]], "seed": 1,
                                "activation": "relu", "layers": layers}))
    code, out, _ = run(capsys, "report", str(spec), "--format", "latex", "--trials", "1")
    assert code == EXIT_OK
    text, latex = out.split("% generated by uatcv")
    doc = json.loads(text)
    assert doc["expansion"] == {"expandable": False, "reason": reason}
    if analysis is not None:
        assert doc["analysis"] == analysis
    assert f"Not expandable: {reason}\n" in latex


def test_report_out_that_is_its_own_sidecar_is_validation_error(capsys, specs_dir, tmp_path):
    out_path = tmp_path / "r.tex"
    code, out, err = run(capsys, "report", str(specs_dir / "vgg3.json"), "--trials", "1",
                         "--out", str(out_path), "--format", "latex")
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[validation]: ")
    assert not out_path.exists()


@pytest.mark.parametrize("activation", ["logistic", "identity"])
@pytest.mark.parametrize("name", ["vgg3", "resblock2", "vit1"])
def test_commands_run_non_relu_descriptions(capsys, specs_dir, tmp_path, name, activation):
    spec = tmp_path / f"{name}.json"
    doc = json.loads((specs_dir / f"{name}.json").read_text())
    spec.write_text(json.dumps({**doc, "activation": activation}))
    code, out, _ = run(capsys, "verify", str(spec), "--trials", "2")
    assert code == EXIT_OK and out.endswith("PASS\n")
    code, out, _ = run(capsys, "report", str(spec), "--trials", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["description"]["activation"] == activation
    assert report["verification"]["passed"]
    if name == "vgg3":
        code, out, _ = run(capsys, "analyze", str(spec), "--lora-layer", "1",
                           "--prune-layer", "0", "--prune-channels", "0")
        assert code == EXIT_OK
        assert json.loads(out)["prune"]["pruned_channels"] == [0]


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == EXIT_PARSE
    assert "error[parse]" in err


def test_deeply_nested_json_is_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, "lower", str(deep))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[parse]: not valid JSON")


@pytest.mark.parametrize("command", ["lower", "report"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_is_validation_error(capsys, specs_dir, tmp_path, command, target):
    out_path = tmp_path / "no" / "r.json" if target == "missing_dir" else tmp_path
    flags = ["--trials", "1"] if command == "report" else []
    code, _, err = run(capsys, command, str(specs_dir / "vgg3.json"), *flags,
                       "--out", str(out_path))
    assert code == EXIT_PARSE
    assert err.startswith(f"error[validation]: cannot write {out_path}: ")


def test_unwritable_latex_sidecar_is_validation_error(capsys, specs_dir, tmp_path):
    (tmp_path / "r.tex").mkdir()
    code, out, err = run(capsys, "report", str(specs_dir / "vgg3.json"), "--trials", "1",
                         "--out", str(tmp_path / "r.json"), "--format", "latex")
    # both targets are opened before either is written: the JSON is not left behind
    assert code == EXIT_PARSE and out == "" and not (tmp_path / "r.json").exists()
    assert err.startswith(f"error[validation]: cannot write {tmp_path / 'r.tex'}: ")


def test_unwritable_sidecar_leaves_an_existing_json_as_it_was(capsys, specs_dir, tmp_path):
    (tmp_path / "r.json").write_text("kept\n")
    (tmp_path / "r.tex").mkdir()
    code, out, err = run(capsys, "report", str(specs_dir / "vgg3.json"), "--trials", "1",
                         "--out", str(tmp_path / "r.json"), "--format", "latex")
    assert code == EXIT_PARSE and out == "" and err.startswith("error[validation]: cannot write")
    assert (tmp_path / "r.json").read_text() == "kept\n"  # opened to append, not truncated


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "input_shape": [["C_I", 1], ["H", 2], ["W", 2]],
                "seed": 1,
                "activation": "relu",
                "layers": [{"kind": "conv2d", "out_channels": 1, "kernel": [5, 5]}],
            }
        )
    )
    code, _, err = run(capsys, "verify", str(bad))
    assert code == EXIT_PARSE
    assert "error[validation]" in err


def test_cap_flag_and_env(capsys, tmp_path, monkeypatch):
    from uatcv.tensor import set_element_cap

    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "input_shape": [["C_I", 1], ["H", 64], ["W", 64]],
                "seed": 1,
                "activation": "relu",
                "layers": [],
            }
        )
    )
    try:
        code, _, err = run(capsys, "verify", str(big), "--cap", "1000")
        assert code == EXIT_PARSE and "error[validation]" in err
        monkeypatch.setenv("UATCV_CAP", "1000")
        set_element_cap(None)
        code, _, err = run(capsys, "verify", str(big))
        assert code == EXIT_PARSE
        code, _, _ = run(capsys, "verify", str(big), "--cap", "65536")
        assert code == EXIT_OK
    finally:
        set_element_cap(None)


def test_weight_draw_over_cap_is_validation_error(capsys, tmp_path):
    from uatcv.tensor import set_element_cap

    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps(
            {
                "input_shape": [["feature", 8]],
                "seed": 1,
                "activation": "relu",
                "layers": [{"kind": "residual_block", "hidden_dim": 200}],
            }
        )
    )
    try:
        # the input and every stage hold 8 elements; w_1 and w_2 hold 1600
        code, _, err = run(capsys, "verify", str(wide), "--cap", "1000")
        assert code == EXIT_PARSE
        assert "error[validation]" in err and "layer 0 (residual_block)" in err
        code, _, _ = run(capsys, "verify", str(wide), "--cap", "1600", "--trials", "1")
        assert code == EXIT_OK
    finally:
        set_element_cap(None)


def test_missing_file_is_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == EXIT_PARSE
    assert "error[parse]" in err


TOKENS = [["token", 3], ["feature", 4]]


PROJECTIONS = "('w_q', 'w_k', 'w_v', 'w_o')"
# the whole refusal after "layer 0 (<kind>) ", by kind and target
LORA_REFUSALS = {
    ("mha", "w_2"): f"has no LoRA target 'w_2' (have {PROJECTIONS})",
    ("ffn", "w_q"): "has no LoRA target 'w_q' (have ('w_2', 'w_3'))",
    ("mha", "nope"): f"has no LoRA target 'nope' (have {PROJECTIONS})",
    ("residual_block", "w_3"): "has no LoRA target 'w_3' (have ('w_1', 'w_2'))",
    ("patchify", "w_2"): "has no adjustable matrix",
    ("conv2d", "w_q"): "takes no --lora-target: its one target is the kernel",
}


@pytest.mark.parametrize(
    "shape, layer, target",
    [
        (TOKENS, {"kind": "mha", "heads": 2}, "w_2"),  # mha has no FFN
        (TOKENS, {"kind": "ffn", "hidden_dim": 3}, "w_q"),  # ffn has no projections
        (TOKENS, {"kind": "mha", "heads": 2}, "nope"),
        ([["feature", 4]], {"kind": "residual_block"}, "w_3"),
        ([["H", 4], ["W", 4]], {"kind": "patchify", "patch": [2, 2]}, "w_2"),  # no matrix
        # a conv layer's one target is its kernel, so it takes no named target
        ([["C_I", 1], ["H", 4], ["W", 4]], {"kind": "conv2d", "out_channels": 2, "kernel": [2, 2]},
         "w_q"),
    ],
)
def test_lora_target_must_name_a_part_of_the_layer(capsys, tmp_path, shape, layer, target):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"input_shape": shape, "seed": 1, "activation": "relu",
                                "layers": [layer]}))
    code, out, err = run(capsys, "analyze", str(spec), "--lora-layer", "0", "--lora-rank", "1",
                         "--lora-target", target)
    assert code == EXIT_PARSE and out == ""
    kind = layer["kind"]
    assert err == f"error[validation]: layer 0 ({kind}) {LORA_REFUSALS[kind, target]}\n"


@pytest.mark.parametrize("shape, layers", [
    ([["feature", 4]], [{"kind": "residual_block"}]),
    ([["C_I", 1], ["H", 4], ["W", 4]], [{"kind": "mean_pool", "window": [2, 2]}]),
    ([["C_I", 1], ["H", 4], ["W", 4]],
     [{"kind": "conv2d", "out_channels": 2, "kernel": [2, 2]},
      {"kind": "mean_pool", "window": [2, 2]}]),
    ([["H", 4], ["W", 4]], [{"kind": "patchify", "patch": [2, 2]}]),
    (TOKENS, [{"kind": "mha", "heads": 2}]),
    (TOKENS, [{"kind": "ffn", "hidden_dim": 3}]),
    (TOKENS, [{"kind": "transformer_block", "heads": 2, "hidden_dim": 3}]),
])
def test_prune_targets_conv_layers(capsys, tmp_path, shape, layers):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"input_shape": shape, "seed": 1, "activation": "relu",
                                "layers": layers}))
    n = len(layers) - 1
    code, out, err = run(capsys, "analyze", str(spec), "--prune-layer", str(n),
                         "--prune-channels", "0")
    assert code == EXIT_PARSE and out == ""
    assert err == (f"error[validation]: layer {n} ({layers[-1]['kind']}): "
                   "pruning targets conv layers\n")


@pytest.mark.parametrize("command", ["lower", "verify", "report", "analyze"])
def test_lowering_over_cap_is_validation_error(capsys, tmp_path, monkeypatch, command):
    from uatcv.tensor import set_element_cap

    # the input holds 262,144 elements; the conv's index grid 2,359,296
    big = tmp_path / "bigconv.json"
    big.write_text(json.dumps({
        "input_shape": [["C_I", 1], ["H", 512], ["W", 512]],
        "seed": 1,
        "activation": "relu",
        "layers": [{"kind": "conv2d", "out_channels": 1, "kernel": [3, 3], "padding": 1}],
    }))
    monkeypatch.delenv("UATCV_CAP", raising=False)
    set_element_cap(None)
    flags = ["--lora-layer", "0"] if command == "analyze" else []  # lowers the kernel's W'
    code, _, err = run(capsys, command, str(big), *flags)
    assert code == EXIT_PARSE
    assert "error[validation]" in err and "layer 0 (conv2d)" in err


@pytest.mark.parametrize("layer, code", [(1, EXIT_OK), (0, EXIT_PARSE)])
def test_lora_check_lowers_only_its_target(capsys, tmp_path, monkeypatch, layer, code):
    from uatcv.tensor import set_element_cap

    # lowering index grids: layer 0 (4->4) 5,184 elements, over the cap; layer 1 (4->2) 2,592
    spec = tmp_path / "two_convs.json"
    spec.write_text(json.dumps({
        "input_shape": [["C_I", 4], ["H", 6], ["W", 6]],
        "seed": 1,
        "activation": "relu",
        "layers": [{"kind": "conv2d", "out_channels": n, "kernel": [3, 3], "padding": 1}
                   for n in (4, 2)],
    }))
    monkeypatch.delenv("UATCV_CAP", raising=False)
    try:
        got, out, err = run(capsys, "analyze", str(spec), "--lora-layer", str(layer),
                            "--lora-rank", "1", "--cap", "3000")
    finally:
        set_element_cap(None)
    assert got == code
    if code == EXIT_OK:
        assert json.loads(out)["lora"]["untouched_layers_identical"] is True
    else:
        assert err.startswith("error[validation]: layer 0 (conv2d): lowering index grid")



def _write_conv_spec(path, input_hw, layer):
    path.write_text(json.dumps({
        "input_shape": [["C_I", 1], ["H", input_hw], ["W", input_hw]],
        "seed": 1,
        "activation": "relu",
        "layers": [{"kind": "conv2d", **layer}],
    }))
    return str(path)


@pytest.mark.parametrize("command", ["lower", "verify", "report"])
def test_padded_input_over_cap_is_validation_error(capsys, tmp_path, monkeypatch, command):
    from uatcv.tensor import set_element_cap

    # the lowering index grid holds 81 elements, the padded input 124 x 124 = 15,376
    spec = _write_conv_spec(tmp_path / "padded.json", 4, {
        "out_channels": 1, "kernel": [3, 3], "stride": 60, "padding": 60,
    })
    monkeypatch.setenv("UATCV_CAP", "10000")
    set_element_cap(None)
    code, _, err = run(capsys, command, spec)
    assert code == EXIT_PARSE
    assert "error[validation]: layer 0 (conv2d): padded input" in err


def test_column_block_over_cap_is_validation_error(capsys, tmp_path, monkeypatch):
    from uatcv.tensor import set_element_cap

    # analyze with a prune runs the direct conv only: the input holds 1,600
    # elements, the output 882, the 400-offset x 441-position column block 176,400
    spec = _write_conv_spec(tmp_path / "wide.json", 40, {"out_channels": 2, "kernel": [20, 20]})
    monkeypatch.setenv("UATCV_CAP", "10000")
    set_element_cap(None)
    code, _, err = run(capsys, "analyze", spec, "--prune-layer", "0", "--prune-channels", "0")
    assert code == EXIT_PARSE
    assert "error[validation]: layer 0 (conv2d): column block" in err


@pytest.mark.parametrize("axes, layer", [
    ([["H", 5], ["W", 6]], {"kind": "conv2d", "out_channels": 2, "kernel": [2, 2],
                            "padding": 1, "bias": True}),
    ([["H", 4], ["W", 3], ["D", 5]], {"kind": "conv3d", "out_channels": 2,
                                      "kernel": [2, 2, 2], "padding": 1}),
    ([["H", 5], ["W", 6]], {"kind": "mean_pool", "window": [2, 2]}),
], ids=["conv2d", "conv3d", "mean_pool"])
def test_stride_past_the_padded_extent_runs(capsys, tmp_path, axes, layer):
    # a valid stride of 2^63 or more leaves one output per axis, as a stride
    # of the padded extent does, and lowers to the same W'
    padded = max(n for _, n in axes) + 2 * layer.get("padding", 0)
    lowered = {}
    for stride in (2**63, padded):
        spec = tmp_path / f"stride{stride}.json"
        spec.write_text(json.dumps({
            "input_shape": [["C_I", 2], *axes], "seed": 3, "activation": "relu",
            "layers": [{**layer, "stride": stride}],
        }))
        for command, flags in [("lower", []), ("verify", ["--trials", "2"]),
                               ("report", ["--trials", "2"]), ("analyze", [])]:
            code, out, err = run(capsys, command, str(spec), *flags)
            assert (code, err) == (EXIT_OK, ""), (stride, command)
            if command == "lower":
                lowered[stride] = out
    assert lowered[2**63] == lowered[padded]


_CONV2D = {"kind": "conv2d", "out_channels": 1, "kernel": [2, 2]}
_CONV3D = {"kind": "conv3d", "out_channels": 1, "kernel": [2, 2, 2]}
_POOL = {"kind": "mean_pool", "window": [2, 2]}


@pytest.mark.parametrize("layer, message", [
    ({**_CONV2D, "kernel": [2]}, "layer 0 (conv2d): kernel needs 2 extents, got (2,)"),
    ({**_CONV3D, "kernel": [2, 2]}, "layer 0 (conv3d): kernel needs 3 extents, got (2, 2)"),
    ({**_CONV2D, "kernel": [2, 0]}, "layer 0 (conv2d): kernel extents must be >= 1"),
    ({**_CONV3D, "kernel": [-1, 2, 2]}, "layer 0 (conv3d): kernel extents must be >= 1"),
    ({**_CONV2D, "out_channels": 0}, "layer 0 (conv2d): out_channels must be >= 1"),
    ({**_CONV2D, "in_channels": 0}, "layer 0 (conv2d): in_channels must be >= 1"),
    ({**_CONV2D, "stride": 0}, "layer 0 (conv2d): stride must be >= 1 and padding >= 0"),
    ({**_CONV3D, "padding": -1}, "layer 0 (conv3d): stride must be >= 1 and padding >= 0"),
    ({**_POOL, "window": [2]}, "layer 0 (mean_pool): window needs 2 extents >= 1, got (2,)"),
    ({**_POOL, "window": [0, 2]}, "layer 0 (mean_pool): window needs 2 extents >= 1, got (0, 2)"),
    ({**_POOL, "stride": 0}, "layer 0 (mean_pool): stride must be >= 1"),
])
def test_bad_conv_and_pool_geometry_is_validation_error(capsys, tmp_path, layer, message):
    axes = [["C_I", 1], ["H", 4], ["W", 4]] + ([["D", 4]] if layer["kind"] == "conv3d" else [])
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"input_shape": axes, "seed": 1, "activation": "relu",
                                "layers": [layer]}))
    assert run(capsys, "lower", str(spec)) == (EXIT_PARSE, "", f"error[validation]: {message}\n")


@pytest.mark.parametrize("shape, patch, message", [
    ([["H", 4], ["W", 4]], [0, 2], "patch needs 2 extents >= 1, got (0, 2)"),
    ([["H", 5], ["W", 4]], [2, 2], "patch (2, 2) does not divide (5, 4)"),
])
def test_bad_patch_is_validation_error(capsys, tmp_path, shape, patch, message):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"input_shape": shape, "seed": 1, "activation": "relu",
                                "layers": [{"kind": "patchify", "patch": patch}]}))
    assert run(capsys, "lower", str(spec)) == (
        EXIT_PARSE, "", f"error[validation]: layer 0 (patchify): {message}\n")


_VALID = {"input_shape": [["feature", 4]], "seed": 1, "activation": "relu", "layers": []}


@pytest.mark.parametrize("doc, flags, line", [
    ({**_VALID, "layers": [3]}, [], "error[parse]: layer 0: expected an object, got int"),
    ({**_VALID, "layers": [{}]}, [], "error[parse]: layer 0: missing 'kind'"),
    ([], [], "error[parse]: top level must be an object, got list"),
    ({**_VALID, "input_shape": []}, [],
     "error[parse]: input_shape must be a non-empty list of [axis, extent] pairs"),
    ({**_VALID, "input_shape": [["H"]]}, [],
     "error[parse]: input_shape entries must be [axis, extent], got ['H']"),
    ({**_VALID, "input_shape": [["Q", 2]]}, [], "error[parse]: unknown axis 'Q' "
     "(allowed: ('C_I', 'C_O', 'H', 'W', 'D', 'token', 'feature'))"),
    ({**_VALID, "layers": {}}, [], "error[parse]: layers must be a list"),
    (b'{"seed": "\xff"}', [], "error[parse]: {spec} is not UTF-8: 'utf-8' codec can't decode "
                             "byte 0xff in position 10: invalid start byte"),
    (None, ["--lora-layer", "9"], "error[validation]: no layer 9 in a 3-layer network"),
    (None, ["--lora-layer", "0", "--lora-rank", "0"],
     "error[validation]: --lora-rank must be >= 1, got 0"),
])
def test_malformed_description_and_lora_flags_are_refused(capsys, specs_dir, tmp_path, doc, flags,
                                                          line):
    spec = tmp_path / "bad.json"
    if doc is None:  # vgg3's 3 layers, refused for the flags alone
        spec.write_bytes((specs_dir / "vgg3.json").read_bytes())
    else:
        spec.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    assert run(capsys, "analyze", str(spec), *flags) == (
        EXIT_PARSE, "", line.format(spec=spec) + "\n")


def test_over_long_integer_literal_is_parse_error(capsys, tmp_path):
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps(_VALID).replace('"seed": 1', '"seed": ' + "7" * 5000))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default limit, whatever this process set
    try:
        code, out, err = run(capsys, "verify", str(spec))
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error[parse]: not valid JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("hash_seed", ["0", "2"])
def test_missing_field_refusal_is_the_same_under_every_hash_seed(tmp_path, hash_seed):
    spec = tmp_path / "empty.json"
    spec.write_text("{}")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "uatcv", "verify", str(spec)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (EXIT_PARSE, "")
    assert done.stderr == "error[parse]: missing top-level field 'input_shape'\n"


# sha256 of each report with the round-off fields masked (see _mask_roundoff)
REPORT_LAYOUT = {
    ("resblock2", "text"): "269c67e118fd818da06e7f12b6bae968bf4f6c3cb5daed04b09a80152f526b13",
    ("resblock2", "latex"): "b2d3699becde994d628968802f4f769672ca40cbca4aab729f95cad0c7d7ca3b",
    ("vgg3", "text"): "b3a8abc28aff043fb8145a88571873a95d64390ab8a096e70460d237fbfa526e",
    ("vgg3", "latex"): "1bf70550c316e6e68fad4f6d416cdefa4038192eaf254f89c28a0e4d31e27f8e",
    ("vit1", "text"): "43a81b5f7f4380854bf1ba011b1d79d5385ab5c8d38a30897d90863285c880c5",
    ("vit1", "latex"): "079612516788c24785244b679306b83840572ec36a22ca697307949ddeefc46a",
}


def _mask_roundoff(text):
    """Replace every max_abs_diff* value and per_layer_max_abs_diff entry by #."""
    import re

    text = re.sub(r'("max_abs_diff\w*": )[^,\n]+', r"\1#", text)
    return re.sub(
        r'("per_layer_max_abs_diff": \[)([^\]]*)\]',
        lambda m: m.group(1) + re.sub(r"[^\s,]+", "#", m.group(2)) + "]",
        text,
    )


@pytest.mark.parametrize("name", ["vgg3", "resblock2", "vit1"])
def test_no_report_form_replicates_an_input(capsys, specs_dir, name):
    code, out, _ = run(capsys, "report", str(specs_dir / f"{name}.json"), "--trials", "1")
    assert code == EXIT_OK
    forms = [form for layer in json.loads(out)["layers"] for form in layer["forms"]]
    assert forms and all(form["replicated_input_sources"] == 0 for form in forms)


@pytest.mark.parametrize("name, fmt", sorted(REPORT_LAYOUT))
def test_report_layout_is_pinned(capsys, specs_dir, monkeypatch, name, fmt):
    import hashlib

    monkeypatch.delenv("UATCV_CAP", raising=False)
    code, out, _ = run(capsys, "report", str(specs_dir / f"{name}.json"), "--format", fmt)
    assert code == EXIT_OK
    masked = _mask_roundoff(out)
    assert masked.count("#") >= 2  # the masked fields are there
    assert hashlib.sha256(masked.encode()).hexdigest() == REPORT_LAYOUT[name, fmt]


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--trials", "0"]),
    ("verify", ["--trials", "-3"]),
    ("report", ["--trials", "0"]),
    ("analyze", ["--trials", "0", "--prune-layer", "0", "--prune-channels", "0"]),
])
def test_trials_below_one_is_validation_error(capsys, specs_dir, command, flags):
    code, out, err = run(capsys, command, str(specs_dir / "vgg3.json"), *flags)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[validation]: --trials must be >= 1")


@pytest.mark.parametrize("flags, message", [
    (["--prune-layer", "0", "--prune-channels", "x"], "--prune-channels takes integers"),
    (["--prune-layer", "9", "--prune-channels", "0"], "no layer 9"),
    (["--prune-layer", "0", "--prune-channels", "5"], "out of range"),
    (["--prune-layer", "0", "--prune-channels", "0,1"], "leaves nothing"),
    (["--prune-layer", "0"], "exactly one of"),
    (["--prune-layer", "0", "--prune-channels", "0", "--prune-threshold", "1"], "exactly one of"),
    (["--prune-layer", "0", "--prune-threshold", "nan"], "threshold must be finite"),
    (["--cap", "0"], "--cap must be >= 1"),
])
def test_bad_prune_and_cap_flags_are_validation_errors(capsys, specs_dir, flags, message):
    code, out, err = run(capsys, "analyze", str(specs_dir / "vgg3.json"), *flags)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[validation]: ") and message in err


@pytest.mark.parametrize("earlier", [None, 700])
def test_cap_flag_lasts_for_one_call(capsys, specs_dir, monkeypatch, earlier):
    from uatcv.tensor import element_cap, set_element_cap

    monkeypatch.delenv("UATCV_CAP", raising=False)
    set_element_cap(earlier)
    try:
        want = element_cap()
        assert run(capsys, "expand", str(specs_dir / "vgg3.json"), "--cap", "5000")[0] == EXIT_OK
        assert element_cap() == want
        # the 36-element input is over a cap of 1, so this call raises inside main
        assert run(capsys, "expand", str(specs_dir / "vgg3.json"), "--cap", "1")[0] == EXIT_PARSE
        assert element_cap() == want
    finally:
        set_element_cap(None)


@pytest.mark.parametrize("flags, message", [
    (["--prune-channels", "0"], "need --prune-layer"),
    (["--prune-threshold", "0.5"], "need --prune-layer"),
    (["--lora-rank", "5"], "need --lora-layer"),
    (["--lora-target", "w_9"], "need --lora-layer"),
    (["--lora-layer", "0", "--prune-channels", "0"], "need --prune-layer"),
])
def test_analyze_flags_without_their_layer_are_validation_errors(capsys, specs_dir, flags,
                                                                 message):
    code, out, err = run(capsys, "analyze", str(specs_dir / "vgg3.json"), *flags)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[validation]: ") and message in err


def test_python_dash_m_runs_the_cli(specs_dir):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "uatcv", "verify", str(specs_dir / "vgg3.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "20 trials, tol 1e-09: PASS"


@pytest.mark.parametrize("command", ["verify", "lower", "report"])
def test_overflowing_layer_is_validation_error(capsys, tmp_path, command):
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({
        "input_shape": [["feature", 64]], "seed": 1, "activation": "relu",
        "layers": [{"kind": "residual_block"}] * 400,
    }))
    flags = ["--trials", "1"] if command == "verify" else []
    code, _, err = run(capsys, command, str(spec), *flags)
    assert code == EXIT_PARSE
    assert err.startswith("error[validation]: layer ") and err.count("\n") == 1


@pytest.mark.parametrize("value, message", [
    ("abc", "UATCV_CAP must be an integer"),
    ("0", "UATCV_CAP must be positive"),
])
def test_bad_cap_env_is_validation_error(capsys, specs_dir, monkeypatch, value, message):
    monkeypatch.setenv("UATCV_CAP", value)
    code, out, err = run(capsys, "expand", str(specs_dir / "vgg3.json"))
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[validation]: ") and message in err


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_is_validation_error(capsys, specs_dir, command, tol):
    code, out, err = run(capsys, command, str(specs_dir / "vgg3.json"), "--tol", tol)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error[validation]: --tol must be finite and >= 0")


@pytest.mark.parametrize("spec, flags, smaller", [
    ("vgg3.json", ["--lora-layer", "0"], 2),
    ("resblock2.json", ["--lora-layer", "0", "--lora-target", "w_1"], 6),
    ("vit1.json", ["--lora-layer", "1"], 4),
])
def test_lora_rank_above_target_is_validation_error(capsys, specs_dir, monkeypatch, spec,
                                                    flags, smaller):
    import uatcv.cli as cli

    draws = []
    monkeypatch.setattr(cli, "draw_weights", lambda *args: draws.append(args))
    code, out, err = run(capsys, "analyze", str(specs_dir / spec), *flags, "--lora-rank", "1000")
    assert code == EXIT_PARSE and out == "" and draws == []
    assert err == f"error[validation]: --lora-rank 1000 exceeds min(target dims) = {smaller}\n"


@pytest.mark.parametrize("channels", [",", ""])
def test_empty_prune_channels_is_validation_error(capsys, specs_dir, channels):
    code, out, err = run(capsys, "analyze", str(specs_dir / "vgg3.json"),
                         "--prune-layer", "0", "--prune-channels", channels)
    assert code == EXIT_PARSE and out == ""
    assert err == "error[validation]: --prune-channels lists no channel\n"


def _conv_then(tmp_path, name, second):
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps({
        "input_shape": [["C_I", 1], ["H", 6], ["W", 6]], "seed": 7, "activation": "relu",
        "layers": [{"kind": "conv2d", "out_channels": 3, "kernel": [2, 2]}, second],
    }))
    return str(spec)


def test_prune_across_declared_in_channels(capsys, tmp_path):
    # the absorbing conv's declared in_channels follows the prune, so the
    # analysis is the one of the same description without the declaration
    conv = {"kind": "conv2d", "out_channels": 2, "kernel": [2, 2]}
    prune = ["--prune-layer", "0", "--prune-channels", "0"]
    declared = run(capsys, "analyze", _conv_then(tmp_path, "declared", {**conv, "in_channels": 3}),
                   *prune)
    plain = run(capsys, "analyze", _conv_then(tmp_path, "plain", conv), *prune)
    assert declared[0] == EXIT_OK and declared[2] == ""
    assert declared == plain


def test_unabsorbable_prune_is_validation_error(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", _conv_then(tmp_path, "res", {"kind": "residual_block"}),
                         "--prune-layer", "0", "--prune-channels", "0")
    assert code == EXIT_PARSE and out == ""
    assert err == ("error[validation]: layer 1 (residual_block) downstream of the pruned layer "
                   "cannot absorb a channel change\n")


def test_main_builds_its_parser_once(capsys, specs_dir, monkeypatch):
    spec = str(specs_dir / "resblock2.json")
    assert run(capsys, "classify", spec)[0] == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "expand", spec, "--seed", "3")[0] == EXIT_OK
    assert run(capsys, "verify", spec, "--trials", "0")[0] == EXIT_PARSE
    assert built == []


def test_repeated_main_calls_are_independent(capsys, specs_dir):
    # each call, run again after others with different flags, prints what
    # it printed the first time: no flag or default carries over
    calls = []
    for name, analyze_flags in (
        ("vgg3", ("--lora-layer", "1", "--prune-layer", "0", "--prune-channels", "1")),
        ("resblock2", ("--lora-layer", "0", "--lora-rank", "2")),
    ):
        spec = str(specs_dir / f"{name}.json")
        calls += [
            ("lower", spec, "--seed", "3"), ("lower", spec),
            ("verify", spec, "--trials", "3"), ("verify", spec, "--seed", "3"),
            ("expand", spec, "--seed", "3"), ("expand", spec),
            ("classify", spec, "--seed", "3"), ("classify", spec),
            ("analyze", spec, "--trials", "2", *analyze_flags), ("analyze", spec),
            ("analyze", spec, "--seed", "3", *analyze_flags),
            ("report", spec, "--seed", "3", "--trials", "2"), ("report", spec),
            ("verify", spec, "--tol", "-1"),
        ]
    first = {argv: run(capsys, *argv) for argv in calls}
    assert [code for code, _, _ in first.values()].count(EXIT_OK) == len(calls) - 2
    again = {argv: run(capsys, *argv) for argv in reversed(calls)}
    assert again == first


def test_lora_factors_are_read_only(specs_dir):
    net = materialize(parse_spec(specs_dir / "vgg3.json"))
    delta = _random_lora(net, layer=1, rank=2, target=None)
    for factor in (delta.a, delta.b):
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 0.0


def test_lora_factors_read_b_then_a_from_the_offset_stream(specs_dir):
    import numpy as np

    from uatcv.cli import LORA_SEED_OFFSET
    from uatcv.tensor import SplitMix64

    net = materialize(parse_spec(specs_dir / "resblock2.json"))
    delta = _random_lora(net, layer=1, rank=2, target="w_1")
    m, n = net.layers[1].weights.w_1.shape
    assert (delta.b.shape, delta.a.shape) == ((m, 2), (2, n))
    gen = SplitMix64(net.spec.seed + LORA_SEED_OFFSET)
    stream = gen.uniform(delta.b.size + delta.a.size, -1.0, 1.0)
    assert np.array_equal(np.concatenate([delta.b.ravel(), delta.a.ravel()]), stream)


def test_residual_weight_over_the_cap_is_refused_before_its_layer_reads(capsys, tmp_path,
                                                                          monkeypatch):
    from conftest import counted_reads

    reads = counted_reads(monkeypatch)
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({
        "input_shape": [["feature", 4]], "seed": 3, "activation": "relu",
        "layers": [{"kind": "residual_block", "hidden_dim": 2},
                   {"kind": "residual_block", "hidden_dim": 8}],
    }))
    code, out, err = run(capsys, "verify", str(spec), "--cap", "16")
    assert code == EXIT_PARSE and out == ""
    assert err == ("error[validation]: layer 1 (residual_block): weight array of shape (8, 4) "
                   "has 32 elements, cap is 16\n")
    assert reads == [8, 2, 8, 4]  # layer 0's 22 numbers array by array; nothing of layer 1


def test_residual_commands_build_no_cells(capsys, specs_dir, monkeypatch):
    # a residual block's dense stages and a transformer's FFN stages hold W
    # itself, so no command on them builds an index grid or its cells
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("an index grid was built")

    monkeypatch.setattr(np, "indices", refuse)
    for name, lora in (("resblock2", ("--lora-layer", "0", "--lora-target", "w_1")),
                       ("vit1", ("--lora-layer", "1", "--lora-target", "w_3"))):
        spec = str(specs_dir / f"{name}.json")
        for argv in (("lower", spec), ("verify", spec), ("report", spec),
                     ("analyze", spec, *lora)):
            assert run(capsys, *argv)[0] == EXIT_OK, argv
