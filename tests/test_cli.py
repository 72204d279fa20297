import json

import pytest

from uatcv.cli import EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main


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


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == EXIT_PARSE
    assert "error[parse]" in err


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


@pytest.mark.parametrize(
    "shape, layer, target",
    [
        (TOKENS, {"kind": "mha", "heads": 2}, "w_2"),  # mha has no FFN
        (TOKENS, {"kind": "ffn", "hidden_dim": 3}, "w_q"),  # ffn has no projections
        (TOKENS, {"kind": "mha", "heads": 2}, "nope"),
        ([["feature", 4]], {"kind": "residual_block"}, "w_3"),
        ([["H", 4], ["W", 4]], {"kind": "patchify", "patch": [2, 2]}, "w_2"),  # no matrix
    ],
)
def test_lora_target_must_name_a_part_of_the_layer(capsys, tmp_path, shape, layer, target):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"input_shape": shape, "seed": 1, "activation": "relu",
                                "layers": [layer]}))
    code, _, err = run(capsys, "analyze", str(spec), "--lora-layer", "0", "--lora-rank", "1",
                       "--lora-target", target)
    assert code == EXIT_PARSE
    assert "error[validation]" in err and f"layer 0 ({layer['kind']})" in err
