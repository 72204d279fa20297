import json

import numpy as np
import pytest

from uatcv.errors import SpecError
from uatcv.lowering import extract_mha_effective_matrix
from uatcv.reference import (
    ACTIVATIONS,
    attention_probabilities_raw,
    ffn_direct,
    mha_direct,
    transformer_block_direct,
)
from uatcv.symbolic import (
    INPUT_NAME,
    Dependence,
    atom_value,
    build_residual_block,
    build_residual_chain,
    build_transformer_chain,
    build_vgg_chain,
    classify_params,
    emit,
    eval_canonical,
    eval_vector,
)

SIGMAS = tuple(ACTIVATIONS)


# ---------------------------------------------------------------------------
# feed-forward chains
# ---------------------------------------------------------------------------


def test_vgg_depth1_text():
    chain = build_vgg_chain([3, 3])
    assert emit(chain.expression) == "σ(W'_i x'_i + b'_i)"
    assert emit(chain.canonical) == "σ(W'_i x'_i + b'_i)"


def test_vgg_depth3_text_matches_nested_form():
    chain = build_vgg_chain([4, 4, 4, 4])
    expected = "σ(W'_{i+2}[σ(W'_{i+1}σ(W'_i x'_i + b'_i) + b'_{i+1})] + b'_{i+2})"
    assert emit(chain.expression) == expected
    assert emit(chain.canonical) == expected


def test_vgg_depth_zero_rejected():
    with pytest.raises(SpecError):
        build_vgg_chain([5])


def test_vgg_numeric_matches_sequential():
    rng = np.random.default_rng(0)
    chain = build_vgg_chain([5, 4, 3])
    for sigma in SIGMAS:
        act = ACTIVATIONS[sigma]
        for _ in range(20):
            env = chain.random_binding(rng)
            # sequential oracle: plain layer loop
            v = env[INPUT_NAME]
            for k, lbl in enumerate(("W'_i", "W'_{i+1}")):
                blbl = "b'_i" if k == 0 else "b'_{i+1}"
                v = act(env[lbl] @ v + env[blbl])
            got = eval_canonical(chain.canonical, env, sigma)
            assert np.max(np.abs(got - v)) <= 1e-9
            assert np.max(np.abs(eval_vector(chain.expression, env, sigma) - v)) <= 1e-9


def test_vgg_all_atoms_fixed():
    for depth in (1, 2, 3):
        chain = build_vgg_chain([3] * (depth + 1))
        rows = classify_params(chain.canonical)
        assert all(r.dependence is Dependence.FIXED for r in rows)
        assert chain.canonical.n_terms == depth


# ---------------------------------------------------------------------------
# residual chains
# ---------------------------------------------------------------------------


def _sequential_residual(env, chain, sigma):
    act = ACTIVATIONS[sigma]
    v = env[INPUT_NAME]
    for k in range(chain.depth):
        sub = "i" if k == 0 else f"i+{k}"
        pre = "i" if chain.shared else sub
        w1 = env[f"W'_{{{pre},1}}"]
        w2 = env[f"W'_{{{pre},2}}"]
        b1 = env[f"b_{{{sub},1}}"]
        b2 = env[f"b_{{{sub},2}}"]
        v = v + w2 @ act(w1 @ v + b1) + b2
    return v


def test_residual_expansion_shape():
    chain = build_residual_chain(2, 6, 4)
    c = chain.canonical
    assert c.structure == "flat"
    assert c.n_terms == 2
    assert c.linear_term is not None and c.linear_term.name == "I"
    t0, t1 = c.sigma_terms
    assert not t0.bias.merged and t0.bias.dependence is Dependence.FIXED
    assert t1.bias.merged and t1.bias.dependence is Dependence.INPUT_DEPENDENT
    for t in (t0, t1):
        assert t.outer.dependence is Dependence.FIXED
        assert t.inner.dependence is Dependence.FIXED
    assert c.constant_term.merged
    assert c.constant_term.dependence is Dependence.FIXED


def test_residual_classification_exactly_merged_bias_dependent():
    chain = build_residual_chain(2, 6, 4)
    rows = classify_params(chain.canonical)
    dependent = {r.display for r in rows if r.dependence is Dependence.INPUT_DEPENDENT}
    assert dependent == {"b̂_{i+1,2}"}
    assert all(
        r.dependence is Dependence.FIXED for r in rows if r.kind == "weight"
    )


def test_residual_zero_weights_collapse():
    chain = build_residual_chain(2, 5, 3)
    rng = np.random.default_rng(1)
    env = chain.random_binding(rng)
    for name in list(env):
        if name.startswith("W"):
            env[name] = np.zeros_like(env[name])
    got = eval_canonical(chain.canonical, env, "relu")
    want = env[INPUT_NAME] + env["b_{i,2}"] + env["b_{i+1,2}"]
    assert np.max(np.abs(got - want)) < 1e-12


def test_residual_canonical_matches_sequential():
    rng = np.random.default_rng(2)
    for shared in (False, True):
        chain = build_residual_chain(2, 6, 4, shared=shared)
        for sigma in SIGMAS:
            for _ in range(10):
                env = chain.random_binding(rng)
                got = eval_canonical(chain.canonical, env, sigma)
                want = _sequential_residual(env, chain, sigma)
                assert np.max(np.abs(got - want)) <= 1e-8


def test_residual_shared_mode_matches_appendix_fold():
    chain = build_residual_chain(2, 6, 4, shared=True)
    rows = {r.display: r for r in classify_params(chain.canonical)}
    bhat = rows["b̂_{i+1,2}"]
    assert bhat.provenance == (
        "W'_{i,1}W'_{i,2}σ(W'_{i,1} x'_i + b_{i,1}) + W'_{i,1}b_{i,2} + b_{i+1,1}"
    )
    bbar = rows["b̄_{i+1,2}"]
    assert bbar.provenance == "b_{i,2} + b_{i+1,2}"


def test_residual_block_is_depth_one():
    chain = build_residual_block(4)
    assert chain.depth == 1
    assert chain.canonical.n_terms == 1
    rows = classify_params(chain.canonical)
    assert all(r.dependence is Dependence.FIXED for r in rows)


def test_residual_n_terms_strictly_increasing():
    counts = [build_residual_chain(d, 4, 3).canonical.n_terms for d in (1, 2, 3, 4)]
    assert counts == sorted(counts)
    assert len(set(counts)) == len(counts)


def test_residual_depth3_matches_sequential():
    rng = np.random.default_rng(3)
    chain = build_residual_chain(3, 5, 4)
    for sigma in SIGMAS:
        env = chain.random_binding(rng)
        got = eval_canonical(chain.canonical, env, sigma)
        want = _sequential_residual(env, chain, sigma)
        assert np.max(np.abs(got - want)) <= 1e-8


# ---------------------------------------------------------------------------
# transformer chains
# ---------------------------------------------------------------------------


def _sequential_transformer(env, chain, sigma):
    x = env[INPUT_NAME].reshape(chain.tokens, chain.model_dim)
    for k in range(chain.depth):
        p = chain.block_params(env, k)
        h = mha_direct(x, p)
        x = h + ffn_direct(h, p, sigma)
    return x.reshape(-1)


def test_transformer_classification_dependent_weights_and_biases():
    chain = build_transformer_chain(2, tokens=3, model_dim=4, heads=2, ffn_dim=5)
    rows = classify_params(chain.canonical)
    dep_weights = [r for r in rows if r.kind == "weight" and r.dependence is Dependence.INPUT_DEPENDENT]
    dep_biases = [r for r in rows if r.kind == "bias" and r.dependence is Dependence.INPUT_DEPENDENT]
    assert dep_weights and dep_biases
    # one fixed outer weight survives, matching the two-block expansion
    fixed_weights = {r.display for r in rows if r.kind == "weight" and r.dependence is Dependence.FIXED}
    assert fixed_weights == {"W'_{i+1,3}"}
    fixed_biases = {r.display for r in rows if r.kind == "bias" and r.dependence is Dependence.FIXED}
    assert fixed_biases == {"b'_{i,2}"}


def test_transformer_depth2_canonical_matches_sequential():
    rng = np.random.default_rng(4)
    chain = build_transformer_chain(2, tokens=3, model_dim=4, heads=2, ffn_dim=5)
    for sigma in SIGMAS:
        for _ in range(8):
            env = chain.random_binding(rng)
            got = eval_canonical(chain.canonical, env, sigma)
            want = _sequential_transformer(env, chain, sigma)
            assert np.max(np.abs(got - want)) <= 1e-8


def test_transformer_depth3_canonical_matches_sequential():
    rng = np.random.default_rng(5)
    chain = build_transformer_chain(3, tokens=2, model_dim=4, heads=2, ffn_dim=3)
    for sigma in SIGMAS:
        env = chain.random_binding(rng)
        got = eval_canonical(chain.canonical, env, sigma)
        want = _sequential_transformer(env, chain, sigma)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_transformer_expression_matches_canonical():
    rng = np.random.default_rng(6)
    chain = build_transformer_chain(2, tokens=3, model_dim=4, heads=2, ffn_dim=5)
    env = chain.random_binding(rng)
    a = eval_vector(chain.expression, env, "relu")
    b = eval_canonical(chain.canonical, env, "relu")
    assert np.max(np.abs(a - b)) <= 1e-9


def test_transformer_zero_query_key_gives_uniform_attention():
    rng = np.random.default_rng(7)
    chain = build_transformer_chain(1, tokens=4, model_dim=4, heads=2, ffn_dim=5)
    env = chain.random_binding(rng)
    q_key, k_key, _, _ = chain.proj_keys[0]
    env[q_key] = np.zeros_like(env[q_key])
    env[k_key] = np.zeros_like(env[k_key])
    x = env[INPUT_NAME].reshape(4, 4)
    for a in attention_probabilities_raw(x, env[q_key], env[k_key], 2):
        assert np.max(np.abs(a - 0.25)) < 1e-12
    got = eval_canonical(chain.canonical, env, "relu")
    want = _sequential_transformer(env, chain, "relu")
    assert np.max(np.abs(got - want)) <= 1e-9


def test_atom_value_of_merged_weights_is_a_dense_array():
    chain = build_transformer_chain(2, tokens=3, model_dim=4, heads=2, ffn_dim=5)
    env = chain.random_binding(np.random.default_rng(11))
    merged = [a for _, a in chain.canonical.slots() if a.kind == "weight" and a.merged]
    assert merged
    for atom in merged:
        value = atom_value(atom, env, "relu")
        assert isinstance(value, np.ndarray) and value.ndim == 2, atom.display
    # the linear term A_{i+1} A_i: the two blocks' effective matrices at their inputs
    x0 = env[INPUT_NAME].reshape(3, 4)
    p0, p1 = chain.block_params(env, 0), chain.block_params(env, 1)
    x1 = transformer_block_direct(x0, p0, "relu")
    want = extract_mha_effective_matrix(x1, p1) @ extract_mha_effective_matrix(x0, p0)
    got = atom_value(chain.canonical.linear_term, env, "relu")
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_transformer_depth1_structure():
    chain = build_transformer_chain(1, tokens=2, model_dim=4, heads=1, ffn_dim=3)
    c = chain.canonical
    assert c.n_terms == 1
    assert c.linear_term.dependence is Dependence.INPUT_DEPENDENT
    assert c.sigma_terms[0].inner.dependence is Dependence.INPUT_DEPENDENT
    assert c.sigma_terms[0].bias.dependence is Dependence.FIXED
    assert c.constant_term.dependence is Dependence.FIXED


# ---------------------------------------------------------------------------
# classification soundness by finite perturbation
# ---------------------------------------------------------------------------


def _all_atoms(canonical):
    atoms = []
    if canonical.linear_term is not None and canonical.linear_term.name != "I":
        atoms.append(canonical.linear_term)
    for t in canonical.sigma_terms:
        for a in (t.outer, t.inner, t.bias):
            if a is not None:
                atoms.append(a)
    if canonical.constant_term is not None:
        atoms.append(canonical.constant_term)
    return atoms


@pytest.mark.parametrize("family", ["residual", "transformer"])
def test_dependence_matches_value_perturbation(family):
    # One structural exception: the transformer constant folds an attention
    # matrix applied to a token-tiled bias.  Softmax rows sum to one, so the
    # product is the same for every input even though the folding expression
    # reaches the input (and is therefore tagged input-dependent).
    rng = np.random.default_rng(8)
    if family == "residual":
        chain = build_residual_chain(2, 5, 3)
    else:
        chain = build_transformer_chain(2, tokens=3, model_dim=4, heads=2, ffn_dim=4)
    env = chain.random_binding(rng)
    perturbed = dict(env)
    perturbed[INPUT_NAME] = env[INPUT_NAME] + 0.25 * rng.normal(size=env[INPUT_NAME].shape)
    stochastic_exception = (
        chain.canonical.constant_term if family == "transformer" else None
    )
    for atom in _all_atoms(chain.canonical):
        before = atom_value(atom, env, "relu")
        after = atom_value(atom, perturbed, "relu")
        changed = bool(np.max(np.abs(before - after)) > 1e-9)
        if atom is stochastic_exception:
            assert atom.dependence is Dependence.INPUT_DEPENDENT
            assert not changed
            continue
        assert changed == (atom.dependence is Dependence.INPUT_DEPENDENT), atom.display


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_latex_has_hatted_bias():
    chain = build_residual_chain(2, 4, 3)
    latex = emit(chain.canonical, "latex")
    assert r"\hat{\mathbf{b}}" in latex
    assert r"\overline{\mathbf{b}}" in latex
    assert r"\sigma" in latex


def test_emit_deterministic():
    chain = build_transformer_chain(2, tokens=2, model_dim=4, heads=2, ffn_dim=3)
    assert emit(chain.canonical) == emit(chain.canonical)
    assert emit(chain.expression, "latex") == emit(chain.expression, "latex")


def test_emit_rejects_unknown_format():
    chain = build_vgg_chain([2, 2])
    with pytest.raises(SpecError):
        emit(chain.canonical, "markdown")


def test_residual_canonical_text_shape():
    chain = build_residual_chain(2, 4, 3)
    text = emit(chain.canonical)
    assert text == (
        "x'_i + W'_{i,2}σ(W'_{i,1} x'_i + b_{i,1})"
        " + W'_{i+1,2}σ(W'_{i+1,1} x'_i + b̂_{i+1,2}) + b̄_{i+1,2}"
    )


def _pooled_vgg_canonical():
    from uatcv.netspec import materialize, parse_spec_text, to_expandable

    conv = {"kind": "conv2d", "out_channels": 2, "kernel": [2, 2]}
    net = materialize(parse_spec_text(json.dumps({
        "input_shape": [["C_I", 1], ["H", 6], ["W", 6]], "seed": 0, "activation": "relu",
        "layers": [{**conv, "kernel": [3, 3], "padding": 1, "bias": True},
                   {"kind": "mean_pool", "window": [2, 2], "stride": 2},
                   conv, {**conv, "out_channels": 1, "bias": True}],
    })))
    return to_expandable(net).chain.canonical


# full text and LaTeX of each family's canonical form at depth 3
CANONICAL_BYTES = {
    "vgg_pooled": (
        _pooled_vgg_canonical,
        "σ(W'_{i+2}[σ(W̄'_{i+1}σ(W'_i x'_i + b'_i))] + b'_{i+2})",
        r"\sigma(\mathbf{W}'_{i+2}[\sigma(\overline{\mathbf{W}}'_{i+1}\sigma(\mathbf{W}'_i"
        r" \mathbf{x}'_i + \mathbf{b}'_i))] + \mathbf{b}'_{i+2})",
    ),
    "residual": (
        lambda: build_residual_chain(3, 4, 3).canonical,
        "x'_i + W'_{i,2}σ(W'_{i,1} x'_i + b_{i,1})"
        " + W'_{i+1,2}σ(W'_{i+1,1} x'_i + b̂_{i+1,2})"
        " + W'_{i+2,2}σ(W'_{i+2,1} x'_i + b̂_{i+2,2}) + b̄_{i+2,2}",
        r"\mathbf{x}'_i + \mathbf{W}'_{i,2}\sigma(\mathbf{W}'_{i,1} \mathbf{x}'_i"
        r" + \mathbf{b}_{i,1}) + \mathbf{W}'_{i+1,2}\sigma(\mathbf{W}'_{i+1,1} \mathbf{x}'_i"
        r" + \hat{\mathbf{b}}_{i+1,2}) + \mathbf{W}'_{i+2,2}\sigma(\mathbf{W}'_{i+2,1}"
        r" \mathbf{x}'_i + \hat{\mathbf{b}}_{i+2,2}) + \overline{\mathbf{b}}_{i+2,2}",
    ),
    "transformer": (
        lambda: build_transformer_chain(3, 2, 4, 2, 3).canonical,
        "W\u0302'_{i+2,1} x'_i + W\u0302'_{i+2,2;0}σ(W\u0302'_{i,1} x'_i + b'_{i,2})"
        " + W\u0302'_{i+2,2}σ(W\u0302'_{i+1,3} x'_i + b̂'_{i+1,2})"
        " + W'_{i+2,3}σ(W\u0302'_{i+2,3} x'_i + b̂'_{i+2,2}) + b̂'_{i+1,1}",
        r"\hat{\mathbf{W}}'_{i+2,1} \mathbf{x}'_i + \hat{\mathbf{W}}'_{i+2,2;0}"
        r"\sigma(\hat{\mathbf{W}}'_{i,1} \mathbf{x}'_i + \mathbf{b}'_{i,2})"
        r" + \hat{\mathbf{W}}'_{i+2,2}\sigma(\hat{\mathbf{W}}'_{i+1,3} \mathbf{x}'_i"
        r" + \hat{\mathbf{b}}'_{i+1,2}) + \mathbf{W}'_{i+2,3}\sigma(\hat{\mathbf{W}}'_{i+2,3}"
        r" \mathbf{x}'_i + \hat{\mathbf{b}}'_{i+2,2}) + \hat{\mathbf{b}}'_{i+1,1}",
    ),
}


@pytest.mark.parametrize("family", sorted(CANONICAL_BYTES))
def test_canonical_bytes_are_pinned(family):
    build, text, latex = CANONICAL_BYTES[family]
    form = build()
    assert emit(form, "text") == text
    assert emit(form, "latex") == latex
    for fmt in ("text", "latex"):
        assert emit(form.expression, fmt) == emit(form, fmt)


# ---------------------------------------------------------------------------
# evaluation cost: each shared node once per binding
# ---------------------------------------------------------------------------


def test_one_effective_matrix_per_block_per_evaluation(monkeypatch):
    import uatcv.symbolic as symbolic

    calls = []
    original = symbolic.effective_matrix_from_projections

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(symbolic, "effective_matrix_from_projections", counted)
    chain = build_transformer_chain(3, tokens=4, model_dim=4, heads=2, ffn_dim=6)
    env = chain.random_binding(np.random.default_rng(9))
    eval_canonical(chain.canonical, env, "relu")
    assert len(calls) == 3
    calls.clear()
    eval_vector(chain.expression, env, "relu")
    assert len(calls) == 3


def test_residual_evaluation_reads_binding_linearly():
    class CountingDict(dict):
        reads = 0

        def __getitem__(self, key):
            CountingDict.reads += 1
            return super().__getitem__(key)

    chain = build_residual_chain(10, 5, 4)
    env = CountingDict(chain.random_binding(np.random.default_rng(10)))
    eval_canonical(chain.canonical, env, "relu")
    assert CountingDict.reads <= 2 * len(env)
