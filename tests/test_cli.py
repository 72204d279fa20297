import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("command", ["lower", "verify", "report"])
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
    code, _, err = run(capsys, command, str(big))
    assert code == EXIT_PARSE
    assert "error[validation]" in err and "layer 0 (conv2d)" in err


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
