"""Symbolic composition of matrix-vector layers and canonical-form expansion.

A network built from lowered layers is a tree over: the input vector symbol,
parameter atoms (weights and biases), linear application, addition, and an
opaque elementwise activation ``sigma``.  Expanding a composition rewrites it
into a canonical approximator form

    G(x) = [L x] + sum_j outer_j sigma(inner_j x + bias_j) + [const]

(for feed-forward chains the sigma stages nest instead of summing, and the
canonical value is the last stage's output).  Merging coefficients during
expansion creates *merged* atoms that remember the folding expression they
came from; an atom whose folding expression reaches the input symbol is
classified input-dependent, everything else stays fixed once the network's
parameters are bound.  Displays mark merged fixed atoms with a bar and
merged input-dependent atoms with a hat.

Only three folding rules are used: distribute linear maps over sums, fold
pure-parameter subexpressions in bias position into fixed atoms, and fold
input-reaching subexpressions in bias position into input-dependent atoms.
``sigma`` is never rewritten.

All expression values are immutable; evaluation is pure, so independent
bindings can be evaluated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import ShapeError, SpecError
from .lowering import effective_matrix_from_projections
from .reference import AttnParams, activation, random_attn_params

INPUT_NAME = "x'_i"

TEXT_HAT = "̂"
TEXT_BAR = "̄"


class Dependence(Enum):
    FIXED = "fixed"
    INPUT_DEPENDENT = "input-dependent"


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    """The network input vector symbol."""

    name: str = INPUT_NAME


@dataclass(frozen=True)
class ParamAtom:
    """A named parameter: primitive (bound directly) or merged (carrying the
    folding expression that defines it)."""

    name: str
    kind: str  # "weight" | "bias"
    dependence: Dependence
    provenance: "MatrixExpr | VectorExpr | None" = None

    @property
    def merged(self) -> bool:
        return self.provenance is not None

    @property
    def display(self) -> str:
        if not self.merged:
            return self.name
        mark = TEXT_HAT if self.dependence is Dependence.INPUT_DEPENDENT else TEXT_BAR
        return self.name[0] + mark + self.name[1:]


@dataclass(frozen=True)
class Apply:
    """Linear application: weight value times the argument vector."""

    weight: "MatrixExpr"
    arg: "VectorExpr"


@dataclass(frozen=True)
class Add:
    terms: tuple["VectorExpr", ...]


@dataclass(frozen=True)
class Activate:
    """Elementwise sigma; kept opaque, resolved only at evaluation time."""

    arg: "VectorExpr"


@dataclass(frozen=True)
class MatProduct:
    factors: tuple["MatrixExpr", ...]


@dataclass(frozen=True)
class IdentityMat:
    dim: int


@dataclass(frozen=True)
class AttnMatrix:
    """The attention effective matrix of one block, as a matrix-valued node.

    Evaluation recomputes the block's input from ``arg``, reshapes it to a
    token matrix, and freezes the softmax probabilities there; the node is
    therefore input-dependent whenever ``arg`` reaches the input symbol.
    """

    label: str  # display label, e.g. "A_{i+1}"
    arg_label: str  # short display for the block input, e.g. "x'_{i+1}"
    q_key: str
    k_key: str
    v_key: str
    o_key: str
    heads: int
    tokens: int
    model_dim: int
    arg: "VectorExpr"


VectorExpr = Union[Input, ParamAtom, Apply, Add, Activate]
MatrixExpr = Union[ParamAtom, MatProduct, IdentityMat, AttnMatrix]


def contains_input(expr) -> bool:
    """Whether the expression reaches the input symbol."""
    if isinstance(expr, Input):
        return True
    if isinstance(expr, ParamAtom):
        return expr.provenance is not None and contains_input(expr.provenance)
    if isinstance(expr, Apply):
        return contains_input(expr.weight) or contains_input(expr.arg)
    if isinstance(expr, (Add, MatProduct)):
        items = expr.terms if isinstance(expr, Add) else expr.factors
        return any(contains_input(t) for t in items)
    if isinstance(expr, Activate):
        return contains_input(expr.arg)
    if isinstance(expr, AttnMatrix):
        return contains_input(expr.arg)
    if isinstance(expr, IdentityMat):
        return False
    raise SpecError(f"unknown expression node {type(expr).__name__}")


def weight_atom(name: str) -> ParamAtom:
    return ParamAtom(name, "weight", Dependence.FIXED)


def bias_atom(name: str) -> ParamAtom:
    return ParamAtom(name, "bias", Dependence.FIXED)


def _mat_factors(weight: MatrixExpr) -> tuple[MatrixExpr, ...]:
    if isinstance(weight, MatProduct):
        return weight.factors
    return (weight,)


def _product(factors: tuple[MatrixExpr, ...]) -> MatrixExpr:
    return factors[0] if len(factors) == 1 else MatProduct(factors)


def distribute_linear(expr: VectorExpr) -> VectorExpr:
    """Normalize a vector expression: distribute linear maps over sums,
    flatten nested sums, and merge nested applications into products."""
    if isinstance(expr, Add):
        flat: list[VectorExpr] = []
        for t in expr.terms:
            t = distribute_linear(t)
            if isinstance(t, Add):
                flat.extend(t.terms)
            else:
                flat.append(t)
        return Add(tuple(flat))
    if isinstance(expr, Activate):
        return Activate(distribute_linear(expr.arg))
    if isinstance(expr, Apply):
        arg = distribute_linear(expr.arg)
        if isinstance(arg, Add):
            return distribute_linear(
                Add(tuple(Apply(expr.weight, t) for t in arg.terms))
            )
        if isinstance(arg, Apply):
            merged = _product(_mat_factors(expr.weight) + _mat_factors(arg.weight))
            return Apply(merged, arg.arg)
        return Apply(expr.weight, arg)
    return expr


def merged_atom(name: str, kind: str, provenance) -> ParamAtom:
    if kind == "bias":
        provenance = distribute_linear(provenance)
    dep = Dependence.INPUT_DEPENDENT if contains_input(provenance) else Dependence.FIXED
    return ParamAtom(name, kind, dep, provenance)


def identity_atom(dim: int) -> ParamAtom:
    return ParamAtom("I", "weight", Dependence.FIXED, IdentityMat(dim))


def is_identity(atom: ParamAtom | None) -> bool:
    return atom is not None and isinstance(atom.provenance, IdentityMat)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

Binding = Mapping[str, np.ndarray]


def _lookup(env: Binding, name: str) -> np.ndarray:
    try:
        return np.asarray(env[name], dtype=np.float64)
    except KeyError:
        raise SpecError(f"binding for {name!r} missing") from None


def atom_value(atom: ParamAtom, env: Binding, sigma: str = "relu") -> np.ndarray:
    if atom.provenance is None:
        return _lookup(env, atom.name)
    if atom.kind == "weight":
        return eval_matrix(atom.provenance, env, sigma)
    return eval_vector(atom.provenance, env, sigma)


def eval_matrix(expr: MatrixExpr, env: Binding, sigma: str = "relu") -> np.ndarray:
    if isinstance(expr, ParamAtom):
        if expr.kind != "weight":
            raise ShapeError(f"atom {expr.name} is not matrix-valued")
        return atom_value(expr, env, sigma)
    if isinstance(expr, MatProduct):
        vals = [eval_matrix(f, env, sigma) for f in expr.factors]
        out = vals[0]
        for v in vals[1:]:
            out = out @ v
        return out
    if isinstance(expr, IdentityMat):
        return np.eye(expr.dim)
    if isinstance(expr, AttnMatrix):
        flat = eval_vector(expr.arg, env, sigma)
        x = flat.reshape(expr.tokens, expr.model_dim)
        return effective_matrix_from_projections(
            x,
            _lookup(env, expr.q_key),
            _lookup(env, expr.k_key),
            _lookup(env, expr.v_key),
            _lookup(env, expr.o_key),
            expr.heads,
        )
    raise SpecError(f"not a matrix expression: {type(expr).__name__}")


def eval_vector(expr: VectorExpr, env: Binding, sigma: str = "relu") -> np.ndarray:
    if isinstance(expr, Input):
        return _lookup(env, expr.name)
    if isinstance(expr, ParamAtom):
        if expr.kind != "bias":
            raise ShapeError(f"atom {expr.name} is not vector-valued")
        return atom_value(expr, env, sigma)
    if isinstance(expr, Apply):
        return eval_matrix(expr.weight, env, sigma) @ eval_vector(expr.arg, env, sigma)
    if isinstance(expr, Add):
        vals = [eval_vector(t, env, sigma) for t in expr.terms]
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out
    if isinstance(expr, Activate):
        return activation(sigma)(eval_vector(expr.arg, env, sigma))
    raise SpecError(f"not a vector expression: {type(expr).__name__}")


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaTerm:
    """One sigma stage: outer * sigma(inner * argument + bias).

    ``arg`` is "input" when the stage reads the network input directly (flat
    expansions) and "previous" when it consumes the preceding stage's output
    (nested feed-forward chains).
    """

    outer: ParamAtom | None
    inner: ParamAtom
    bias: ParamAtom | None
    arg: str = "input"


@dataclass(frozen=True)
class CanonicalUAT:
    """Expanded approximator form.

    ``structure`` is "flat" (value = linear + sum of sigma terms + constant)
    or "chain" (sigma stages nest; value = last stage output).
    """

    linear_term: ParamAtom | None
    sigma_terms: tuple[SigmaTerm, ...]
    constant_term: ParamAtom | None
    structure: str = "flat"
    input_name: str = INPUT_NAME

    def __post_init__(self):
        if self.structure not in ("flat", "chain"):
            raise SpecError(f"unknown canonical structure {self.structure!r}")
        if self.structure == "chain":
            if self.linear_term is not None or self.constant_term is not None:
                raise SpecError("chain form has no separate linear/constant terms")
            for k, t in enumerate(self.sigma_terms):
                expect = "input" if k == 0 else "previous"
                if t.arg != expect:
                    raise SpecError("chain stages must consume the previous stage")
        else:
            for t in self.sigma_terms:
                if t.arg != "input":
                    raise SpecError("flat terms must consume the input")

    @property
    def n_terms(self) -> int:
        return len(self.sigma_terms)


def eval_canonical(form: CanonicalUAT, env: Binding, sigma: str = "relu") -> np.ndarray:
    """Numeric value of the canonical form under a primitive-atom binding."""
    act = activation(sigma)
    x = _lookup(env, form.input_name)
    if form.structure == "chain":
        cur = x
        for t in form.sigma_terms:
            pre = atom_value(t.inner, env, sigma) @ cur
            if t.bias is not None:
                pre = pre + atom_value(t.bias, env, sigma)
            cur = act(pre)
            if t.outer is not None:
                cur = atom_value(t.outer, env, sigma) @ cur
        return cur
    acc: np.ndarray | None = None
    if form.linear_term is not None:
        acc = atom_value(form.linear_term, env, sigma) @ x
    for t in form.sigma_terms:
        pre = atom_value(t.inner, env, sigma) @ x
        if t.bias is not None:
            pre = pre + atom_value(t.bias, env, sigma)
        val = act(pre)
        if t.outer is not None:
            val = atom_value(t.outer, env, sigma) @ val
        acc = val if acc is None else acc + val
    if form.constant_term is not None:
        cval = atom_value(form.constant_term, env, sigma)
        acc = cval if acc is None else acc + cval
    if acc is None:
        raise SpecError("canonical form has no terms")
    return acc


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _split_name(name: str) -> tuple[str, str]:
    """Split a symbol name into its leading letter and the trailing
    primes/subscript, e.g. "W'_{i,1}" -> ("W", "'_{i,1}")."""
    return name[0], name[1:]


def _render_name(name: str, fmt: str, decoration: str | None = None) -> str:
    if fmt == "text":
        if decoration == "hat":
            return name[0] + TEXT_HAT + name[1:]
        if decoration == "bar":
            return name[0] + TEXT_BAR + name[1:]
        return name
    head, tail = _split_name(name)
    core = rf"\mathbf{{{head}}}"
    if decoration == "hat":
        core = rf"\hat{{{core}}}"
    elif decoration == "bar":
        core = rf"\overline{{{core}}}"
    return core + tail


def _atom_text(atom: ParamAtom, fmt: str) -> str:
    if not atom.merged:
        return _render_name(atom.name, fmt)
    mark = "hat" if atom.dependence is Dependence.INPUT_DEPENDENT else "bar"
    return _render_name(atom.name, fmt, mark)


def _sigma_depth(expr) -> int:
    if isinstance(expr, Activate):
        return 1 + _sigma_depth(expr.arg)
    if isinstance(expr, Apply):
        return _sigma_depth(expr.arg)
    if isinstance(expr, Add):
        return max((_sigma_depth(t) for t in expr.terms), default=0)
    return 0


def _render_matrix(expr: MatrixExpr, fmt: str) -> str:
    if isinstance(expr, ParamAtom):
        return _atom_text(expr, fmt)
    if isinstance(expr, MatProduct):
        return "".join(_render_matrix(f, fmt) for f in expr.factors)
    if isinstance(expr, IdentityMat):
        return _render_name("I", fmt)
    if isinstance(expr, AttnMatrix):
        return f"{_render_name(expr.label, fmt)}({_render_name(expr.arg_label, fmt)})"
    raise SpecError(f"not a matrix expression: {type(expr).__name__}")


def _render_vector(expr: VectorExpr, fmt: str) -> str:
    sigma_sym = "σ" if fmt == "text" else r"\sigma"
    if isinstance(expr, Input):
        return _render_name(expr.name, fmt)
    if isinstance(expr, ParamAtom):
        return _atom_text(expr, fmt)
    if isinstance(expr, Activate):
        return f"{sigma_sym}({_render_vector(expr.arg, fmt)})"
    if isinstance(expr, Add):
        return " + ".join(_render_vector(t, fmt) for t in expr.terms)
    if isinstance(expr, Apply):
        w = _render_matrix(expr.weight, fmt)
        if isinstance(expr.arg, Input):
            return f"{w} {_render_vector(expr.arg, fmt)}"
        if isinstance(expr.arg, Activate):
            body = _render_vector(expr.arg, fmt)
            if _sigma_depth(expr.arg) >= 2:
                return f"{w}[{body}]"
            return f"{w}{body}"
        if isinstance(expr.arg, ParamAtom):
            return f"{w}{_render_vector(expr.arg, fmt)}"
        return f"{w}({_render_vector(expr.arg, fmt)})"
    raise SpecError(f"not a vector expression: {type(expr).__name__}")


def _render_canonical(form: CanonicalUAT, fmt: str) -> str:
    sigma_sym = "σ" if fmt == "text" else r"\sigma"
    x = _render_name(form.input_name, fmt)

    def stage(t: SigmaTerm, arg_text: str, bracket: bool) -> str:
        inner = f"{_atom_text(t.inner, fmt)} {arg_text}" if not bracket else (
            f"{_atom_text(t.inner, fmt)}{arg_text}"
        )
        if t.bias is not None:
            inner += f" + {_atom_text(t.bias, fmt)}"
        body = f"{sigma_sym}({inner})"
        if t.outer is not None:
            body = f"{_atom_text(t.outer, fmt)}{body}"
        return body

    if form.structure == "chain":
        cur = ""
        for k, t in enumerate(form.sigma_terms):
            if k == 0:
                cur = stage(t, x, bracket=False)
            else:
                arg = f"[{cur}]" if k >= 2 else cur
                cur = stage(t, arg, bracket=True)
        return cur

    parts: list[str] = []
    if form.linear_term is not None:
        if is_identity(form.linear_term):
            parts.append(x)
        else:
            parts.append(f"{_atom_text(form.linear_term, fmt)} {x}")
    for t in form.sigma_terms:
        parts.append(stage(t, x, bracket=False))
    if form.constant_term is not None:
        parts.append(_atom_text(form.constant_term, fmt))
    return " + ".join(parts)


def emit(obj, fmt: str = "text") -> str:
    """Deterministic rendering of an expression or canonical form.

    ``fmt`` is "text" (unicode, hats/bars as combining marks) or "latex".
    """
    if fmt not in ("text", "latex"):
        raise SpecError(f"unknown emit format {fmt!r}")
    if isinstance(obj, CanonicalUAT):
        return _render_canonical(obj, fmt)
    return _render_vector(obj, fmt)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedParam:
    atom: ParamAtom
    display: str
    kind: str
    dependence: Dependence
    provenance: str  # "primitive" or the rendered folding expression
    roles: tuple[str, ...]


def classify_params(form: CanonicalUAT) -> tuple[ClassifiedParam, ...]:
    """Label every atom of the canonical form with its dependence and, for
    merged atoms, the folding expression that produced it."""
    slots: list[tuple[str, ParamAtom | None]] = [("linear", form.linear_term)]
    for j, t in enumerate(form.sigma_terms):
        slots.append((f"sigma[{j}].outer", t.outer))
        slots.append((f"sigma[{j}].inner", t.inner))
        slots.append((f"sigma[{j}].bias", t.bias))
    slots.append(("constant", form.constant_term))

    ordered: list[ParamAtom] = []
    roles: dict[ParamAtom, list[str]] = {}
    for role, atom in slots:
        if atom is None or is_identity(atom):
            continue
        if atom not in roles:
            roles[atom] = []
            ordered.append(atom)
        roles[atom].append(role)

    rows = []
    for atom in ordered:
        prov = "primitive"
        if atom.merged:
            prov = (
                _render_matrix(atom.provenance, "text")
                if atom.kind == "weight"
                else _render_vector(atom.provenance, "text")
            )
        rows.append(
            ClassifiedParam(
                atom=atom,
                display=atom.display,
                kind=atom.kind,
                dependence=atom.dependence,
                provenance=prov,
                roles=tuple(roles[atom]),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# chain builders
# ---------------------------------------------------------------------------


def _sub(k: int) -> str:
    return "i" if k == 0 else f"i+{k}"


def _name(base: str, sub: str, prime: bool = True) -> str:
    tick = "'" if prime else ""
    if len(sub) == 1:
        return f"{base}{tick}_{sub}"
    return f"{base}{tick}_{{{sub}}}"


@dataclass(frozen=True)
class ChainStage:
    """One sigma stage of a feed-forward chain: the weights (leftmost applied
    last) multiply the stage input, then bias, then sigma."""

    weights: tuple[ParamAtom, ...]
    bias: ParamAtom | None


class _PrimitiveChain:
    """A chain over an ``input_dim`` input whose parameters are all primitive
    atoms (``param_shapes``)."""

    def random_binding(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        env: dict[str, np.ndarray] = {INPUT_NAME: rng.normal(size=self.input_dim)}
        for name, shape in self.param_shapes.items():
            env[name] = rng.normal(scale=1.0 / np.sqrt(max(shape[-1], 1)), size=shape)
        return env


@dataclass
class DenseChain(_PrimitiveChain):
    """Feed-forward chain sigma(W_k ... sigma(W_0 x + b_0) ... + b_k)."""

    input_dim: int
    stages: tuple[ChainStage, ...]
    expression: VectorExpr
    canonical: CanonicalUAT
    param_shapes: dict[str, tuple[int, ...]]

    @property
    def depth(self) -> int:
        return len(self.stages)


def dense_chain(stages: Sequence[ChainStage], input_dim: int,
                param_shapes: Mapping[str, tuple[int, ...]]) -> DenseChain:
    """Assemble a feed-forward chain from prepared stages.

    Used directly by the network bridge (where stages may carry extra fixed
    linear factors, e.g. a pooling matrix folded into the next stage).
    """
    if not stages:
        raise SpecError("chain depth must be >= 1")
    expr: VectorExpr = Input()
    terms: list[SigmaTerm] = []
    for k, st in enumerate(stages):
        inner_expr: VectorExpr = expr
        for w in reversed(st.weights):
            inner_expr = Apply(w, inner_expr)
        pre = Add((inner_expr, st.bias)) if st.bias is not None else inner_expr
        expr = Activate(pre)
        if len(st.weights) == 1:
            inner_atom = st.weights[0]
        else:
            inner_atom = merged_atom(
                st.weights[0].name, "weight", MatProduct(st.weights)
            )
        terms.append(
            SigmaTerm(outer=None, inner=inner_atom, bias=st.bias,
                      arg="input" if k == 0 else "previous")
        )
    canonical = CanonicalUAT(
        linear_term=None,
        sigma_terms=tuple(terms),
        constant_term=None,
        structure="chain",
    )
    return DenseChain(
        input_dim=input_dim,
        stages=tuple(stages),
        expression=expr,
        canonical=canonical,
        param_shapes=dict(param_shapes),
    )


def build_vgg_chain(dims: Sequence[int]) -> DenseChain:
    """Plain feed-forward chain with one weight and one bias per stage;
    ``dims`` lists the vector dimensions d_0 .. d_depth."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise SpecError("chain depth must be >= 1 (need at least two dims)")
    if any(d < 1 for d in dims):
        raise ShapeError(f"dims must be positive, got {dims}")
    stages = []
    shapes: dict[str, tuple[int, ...]] = {}
    for k in range(len(dims) - 1):
        w = weight_atom(_name("W", _sub(k)))
        b = bias_atom(_name("b", _sub(k)))
        shapes[w.name] = (dims[k + 1], dims[k])
        shapes[b.name] = (dims[k + 1],)
        stages.append(ChainStage(weights=(w,), bias=b))
    return dense_chain(stages, dims[0], shapes)


@dataclass
class ResidualChain(_PrimitiveChain):
    """Stack of residual units v + W_2 sigma(W_1 v + b_1) + b_2, expanded into
    a flat canonical form whose later sigma-stage biases absorb the input."""

    depth: int
    input_dim: int
    hidden: int
    shared: bool
    expression: VectorExpr
    canonical: CanonicalUAT
    param_shapes: dict[str, tuple[int, ...]]


def build_residual_chain(
    depth: int, dim: int, hidden: int | None = None, shared: bool = False
) -> ResidualChain:
    """Build and expand a residual chain.

    With ``shared=True`` every block reuses the first block's two weight
    matrices (biases stay per-block); the default gives each block its own.
    """
    if depth < 1:
        raise SpecError(f"depth must be >= 1, got {depth}")
    if dim < 1 or (hidden is not None and hidden < 1):
        raise ShapeError("dimensions must be >= 1")
    hidden = dim if hidden is None else hidden

    shapes: dict[str, tuple[int, ...]] = {}
    expr: VectorExpr = Input()
    terms: list[SigmaTerm] = []
    term_exprs: list[VectorExpr] = []
    const_expr: VectorExpr | None = None
    const_atoms: list[ParamAtom] = []
    w1_0 = w2_0 = None

    for k in range(depth):
        if shared and k > 0:
            w1, w2 = w1_0, w2_0
        else:
            w1 = weight_atom(_name("W", f"{_sub(k)},1"))
            w2 = weight_atom(_name("W", f"{_sub(k)},2"))
            shapes[w1.name] = (hidden, dim)
            shapes[w2.name] = (dim, hidden)
            if k == 0:
                w1_0, w2_0 = w1, w2
        b1 = bias_atom(_name("b", f"{_sub(k)},1", prime=False))
        b2 = bias_atom(_name("b", f"{_sub(k)},2", prime=False))
        shapes[b1.name] = (hidden,)
        shapes[b2.name] = (dim,)

        # composed expression: v + W2 sigma(W1 v + b1) + b2
        expr = Add((expr, Apply(w2, Activate(Add((Apply(w1, expr), b1)))), b2))

        # canonical: the new stage reads the raw input; everything else the
        # block would have seen folds into the stage bias
        if k == 0:
            stage_bias = b1
        else:
            carried = Add((*term_exprs, const_expr))
            stage_bias = merged_atom(
                _name("b", f"{_sub(k)},2", prime=False),
                "bias",
                Add((Apply(w1, carried), b1)),
            )
        terms.append(SigmaTerm(outer=w2, inner=w1, bias=stage_bias))
        term_exprs.append(Apply(w2, Activate(Add((Apply(w1, Input()), stage_bias)))))
        const_atoms.append(b2)
        const_expr = b2 if const_expr is None else Add((const_expr, b2))

    if depth == 1:
        constant = const_atoms[0]
    else:
        constant = merged_atom(
            _name("b", f"{_sub(depth - 1)},2", prime=False),
            "bias",
            Add(tuple(const_atoms)),
        )
    canonical = CanonicalUAT(
        linear_term=identity_atom(dim),
        sigma_terms=tuple(terms),
        constant_term=constant,
    )
    return ResidualChain(
        depth=depth,
        input_dim=dim,
        hidden=hidden,
        shared=shared,
        expression=expr,
        canonical=canonical,
        param_shapes=shapes,
    )


def build_residual_block(dim: int, hidden: int | None = None) -> ResidualChain:
    return build_residual_chain(1, dim, hidden)


@dataclass
class TransformerChain:
    """Stack of blocks h = MHA(v); h + FFN(h), expanded over the flattened
    token matrix.  Attention enters as an input-dependent linear atom whose
    value is the frozen-probability effective matrix at the block's input."""

    depth: int
    tokens: int
    model_dim: int
    heads: int
    ffn_dim: int
    expression: VectorExpr
    canonical: CanonicalUAT
    proj_keys: tuple[tuple[str, str, str, str], ...]  # per block Q/K/V/O env keys
    raw_keys: tuple[tuple[str, str, str, str], ...]  # per block raw FFN env keys
    ffn_atoms: tuple[tuple[ParamAtom, ParamAtom, ParamAtom, ParamAtom], ...]

    @property
    def flat_dim(self) -> int:
        return self.tokens * self.model_dim

    def random_binding(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        x = rng.normal(size=self.flat_dim)  # the input is drawn first
        blocks = [random_attn_params(self.model_dim, self.heads, self.ffn_dim, rng)
                  for _ in range(self.depth)]
        return self.binding(blocks, x)

    def binding(
        self, blocks: Sequence[AttnParams], x: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Bind each block's AttnParams (and the input ``x``, if given)."""
        env: dict[str, np.ndarray] = {} if x is None else {INPUT_NAME: x}
        eye = np.eye(self.tokens)
        for k, p in enumerate(blocks):
            q_key, k_key, v_key, o_key = self.proj_keys[k]
            env[q_key], env[k_key] = p.w_q, p.w_k
            env[v_key], env[o_key] = p.w_v, p.w_o
            w2_key, w3_key, b2_key, b3_key = self.raw_keys[k]
            env[w2_key], env[w3_key] = p.w_2, p.w_3
            env[b2_key], env[b3_key] = p.b_2, p.b_3
            w2a, w3a, b2a, b3a = self.ffn_atoms[k]
            env[w2a.name] = np.kron(eye, p.w_2.T)
            env[w3a.name] = np.kron(eye, p.w_3.T)
            env[b2a.name] = np.tile(p.b_2, self.tokens)
            env[b3a.name] = np.tile(p.b_3, self.tokens)
        return env

    def block_params(self, env: Binding, k: int) -> AttnParams:
        """Reassemble the k-th block's attention/FFN parameters from a binding."""
        q_key, k_key, v_key, o_key = self.proj_keys[k]
        w2_key, w3_key, b2_key, b3_key = self.raw_keys[k]
        return AttnParams(
            model_dim=self.model_dim,
            heads=self.heads,
            w_q=env[q_key],
            w_k=env[k_key],
            w_v=env[v_key],
            w_o=env[o_key],
            w_2=env[w2_key],
            w_3=env[w3_key],
            b_2=env[b2_key],
            b_3=env[b3_key],
        )


def _wrap_weight(factors: tuple, name: str) -> ParamAtom:
    if len(factors) == 1 and isinstance(factors[0], ParamAtom):
        return factors[0]
    return merged_atom(name, "weight", MatProduct(tuple(factors)))


def build_transformer_chain(
    depth: int, tokens: int, model_dim: int, heads: int, ffn_dim: int
) -> TransformerChain:
    """Build and expand a transformer chain over the flattened token matrix."""
    if depth < 1:
        raise SpecError(f"depth must be >= 1, got {depth}")
    if tokens < 1 or model_dim < 1 or ffn_dim < 1:
        raise ShapeError("dimensions must be >= 1")
    if heads < 1 or model_dim % heads != 0:
        raise ShapeError(f"head count {heads} must divide model dim {model_dim}")

    expr: VectorExpr = Input()
    proj_keys = []
    raw_keys = []
    ffn_atoms = []

    linear_factors: tuple = ()
    raw_terms: list[dict] = []  # outer: tuple of factors, inner: tuple, bias: atom
    const_expr: VectorExpr | None = None

    for k in range(depth):
        sub = _sub(k)
        q_key, k_key, v_key, o_key = (f"W_Q[{sub}]", f"W_K[{sub}]", f"W_V[{sub}]", f"W_O[{sub}]")
        proj_keys.append((q_key, k_key, v_key, o_key))
        raw_keys.append((f"w2[{sub}]", f"w3[{sub}]", f"b2[{sub}]", f"b3[{sub}]"))

        attn = merged_atom(
            _name("W", f"{sub},1"),
            "weight",
            AttnMatrix(
                label=_name("A", sub, prime=False),
                arg_label=_name("x", sub),
                q_key=q_key,
                k_key=k_key,
                v_key=v_key,
                o_key=o_key,
                heads=heads,
                tokens=tokens,
                model_dim=model_dim,
                arg=expr,
            ),
        )
        w2 = weight_atom(_name("W", f"{sub},2"))
        w3 = weight_atom(_name("W", f"{sub},3"))
        b2 = bias_atom(_name("b", f"{sub},2"))
        b3 = bias_atom(_name("b", f"{sub},3"))
        ffn_atoms.append((w2, w3, b2, b3))

        # composed expression: h = A v; h + W3 sigma(W2 h + b2) + b3
        h = Apply(attn, expr)
        expr = Add((h, Apply(w3, Activate(Add((Apply(w2, h), b2)))), b3))

        # canonical state before this block, minus the linear part; the new
        # stage's bias absorbs it
        if k == 0:
            stage_bias = b2
        else:
            pieces: list[VectorExpr] = []
            for t in raw_terms:
                outer_m = t["outer"][0] if len(t["outer"]) == 1 else MatProduct(t["outer"])
                inner_m = t["inner"][0] if len(t["inner"]) == 1 else MatProduct(t["inner"])
                pieces.append(
                    Apply(outer_m, Activate(Add((Apply(inner_m, Input()), t["bias"]))))
                )
            if const_expr is not None:
                pieces.append(const_expr)
            stage_bias = merged_atom(
                _name("b", f"{sub},2"),
                "bias",
                Add((Apply(MatProduct((w2, attn)), Add(tuple(pieces))), b2)),
            )

        for t in raw_terms:
            t["outer"] = (attn, *t["outer"])
        raw_terms.append(
            {"outer": (w3,), "inner": (w2, attn, *linear_factors), "bias": stage_bias, "block": k}
        )
        linear_factors = (attn, *linear_factors)
        const_expr = b3 if const_expr is None else Add((Apply(attn, const_expr), b3))

    last = depth - 1
    linear = _wrap_weight(linear_factors, _name("W", f"{_sub(last)},1"))
    terms = []
    for t in raw_terms:
        j = t["block"]
        if j == 0:
            inner_name = _name("W", f"{_sub(0)},1")
        else:
            inner_name = _name("W", f"{_sub(j)},3")
        inner = _wrap_weight(t["inner"], inner_name)
        if j == last:
            outer_name = t["outer"][0].name  # primitive, kept as-is
        elif j == last - 1:
            outer_name = _name("W", f"{_sub(last)},2")
        else:
            outer_name = _name("W", f"{_sub(last)},2;{j}")
        outer = _wrap_weight(t["outer"], outer_name)
        terms.append(SigmaTerm(outer=outer, inner=inner, bias=t["bias"]))

    if depth == 1:
        constant = ffn_atoms[0][3]
    else:
        constant = merged_atom(_name("b", f"{_sub(depth - 2)},1"), "bias", const_expr)

    canonical = CanonicalUAT(
        linear_term=linear,
        sigma_terms=tuple(terms),
        constant_term=constant,
    )
    return TransformerChain(
        depth=depth,
        tokens=tokens,
        model_dim=model_dim,
        heads=heads,
        ffn_dim=ffn_dim,
        expression=expr,
        canonical=canonical,
        proj_keys=tuple(proj_keys),
        raw_keys=tuple(raw_keys),
        ffn_atoms=tuple(ffn_atoms),
    )
