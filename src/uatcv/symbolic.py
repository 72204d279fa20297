"""Symbolic composition of matrix-vector layers and canonical-form expansion.

A network built from lowered layers is an expression graph over: the input
vector symbol, parameter atoms (weights and biases), linear application,
addition, and an opaque elementwise activation ``sigma``.  Expanding a
composition rewrites it into a canonical approximator form

    G(x) = [L x] + sum_j outer_j sigma(inner_j x + bias_j) + [const]

(for feed-forward chains the sigma stages nest instead of summing, and the
canonical value is the last stage's output).  The canonical form is itself
an expression over the same nodes (``CanonicalUAT.expression``), so it has
one renderer and one evaluator, those of the nodes.  Merging coefficients
during expansion creates *merged* atoms that remember the folding expression
they came from; an atom whose folding expression reaches the input symbol is
classified input-dependent, everything else stays fixed once the network's
parameters are bound.  Displays mark merged fixed atoms with a bar and
merged input-dependent atoms with a hat.

Only three folding rules are used: distribute linear maps over sums, fold
pure-parameter subexpressions in bias position into fixed atoms, and fold
input-reaching subexpressions in bias position into input-dependent atoms.
``sigma`` is never rewritten.

Each node class holds its own rules (children, value, rendering).  A node
is hashed once, when it is built, and so is whether it reaches the input.
Each evaluation call memoizes per node: it computes every node once for its
binding and drops the memo on return.  No cache outlives the call; all
expression values are immutable and evaluation is pure, so independent
bindings can be evaluated concurrently.

A matrix-valued node evaluates to an array or a
:class:`~uatcv.lowering.LinearMap`, only ever combined by ``@``: a product
of maps composes them, so each is applied to vectors and never densified.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import ShapeError, SpecError
from .lowering import LinearMap, effective_matrix_from_projections, identity_map, tokenwise_map
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


def _render_name(name: str, fmt: str, decoration: str | None = None) -> str:
    """A symbol name, split into its leading letter and the trailing
    primes/subscript (e.g. "W'_{i,1}"), with an optional hat or bar."""
    if fmt == "text":
        marks = {"hat": TEXT_HAT, "bar": TEXT_BAR}
        return name if decoration is None else name[0] + marks[decoration] + name[1:]
    core = rf"\mathbf{{{name[0]}}}"
    if decoration == "hat":
        core = rf"\hat{{{core}}}"
    elif decoration == "bar":
        core = rf"\overline{{{core}}}"
    return core + name[1:]


def _sigma_symbol(fmt: str) -> str:
    return "σ" if fmt == "text" else r"\sigma"


class Node:
    """Base of the expression nodes, each a frozen dataclass with structural
    equality.  A subclass overrides ``children`` (the nodes its value reads),
    ``value`` (from its children's values, read through ``ev``) and
    ``render``."""

    def __post_init__(self) -> None:
        # the generated __init__ has set exactly the fields; the derived
        # values go straight into __dict__, past the frozen guard
        fields = self.__dict__
        fields["_hash"] = hash(tuple(fields.values()))
        fields["reaches_input"] = self._reaches_input()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self) and self._hash == other._hash
            and self.__dict__ == other.__dict__
        )

    def _reaches_input(self) -> bool:
        for c in self.children():
            if c.reaches_input:
                return True
        return False

    def children(self) -> tuple[Node, ...]:
        return ()

    def nesting(self) -> int:
        """How deeply sigmas nest along the vector path (sets brackets)."""
        return 0

    def distribute(self) -> Node:
        """Normal form: linear maps distributed over sums, nested sums
        flattened, nested applications merged into products."""
        return self

    def applied(self, weight: MatrixExpr) -> Node:
        """The normal form of ``Apply(weight, self)``, self being normal."""
        return Apply(weight, self)


@dataclass(frozen=True, eq=False)
class Input(Node):
    """The network input vector symbol."""

    name: str = INPUT_NAME

    def _reaches_input(self) -> bool:
        return True

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev.lookup(self.name)

    def render(self, fmt: str) -> str:
        return _render_name(self.name, fmt)


@dataclass(frozen=True, eq=False)
class ParamAtom(Node):
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
        return self.render("text")

    def children(self) -> tuple[Node, ...]:
        return () if self.provenance is None else (self.provenance,)

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev.lookup(self.name) if self.provenance is None else ev(self.provenance)

    def render(self, fmt: str) -> str:
        mark = "hat" if self.dependence is Dependence.INPUT_DEPENDENT else "bar"
        return _render_name(self.name, fmt, mark if self.merged else None)


@dataclass(frozen=True, eq=False)
class Apply(Node):
    """Linear application: weight value times the argument vector."""

    weight: "MatrixExpr"
    arg: "VectorExpr"

    def children(self) -> tuple[Node, ...]:
        return (self.weight, self.arg)

    def nesting(self) -> int:
        return self.arg.nesting()

    def distribute(self) -> Node:
        arg = self.arg.distribute()
        if arg is self.arg and not isinstance(arg, (Add, Apply)):
            return self  # already normal
        return arg.applied(self.weight)

    def applied(self, weight: MatrixExpr) -> Node:
        return Apply(_product(_mat_factors(weight) + _mat_factors(self.weight)), self.arg)

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev(self.weight) @ ev(self.arg)

    def render(self, fmt: str) -> str:
        w, arg = self.weight.render(fmt), self.arg.render(fmt)
        if isinstance(self.arg, Input):
            return f"{w} {arg}"
        if isinstance(self.arg, Activate):
            return f"{w}[{arg}]" if self.arg.nesting() >= 2 else f"{w}{arg}"
        if isinstance(self.arg, ParamAtom):
            return f"{w}{arg}"
        return f"{w}({arg})"


@dataclass(frozen=True, eq=False)
class Add(Node):
    terms: tuple["VectorExpr", ...]

    def children(self) -> tuple[Node, ...]:
        return self.terms

    def nesting(self) -> int:
        return max((t.nesting() for t in self.terms), default=0)

    def distribute(self) -> Node:
        flat: list[VectorExpr] = []
        for t in self.terms:
            t = t.distribute()
            flat.extend(t.terms if isinstance(t, Add) else (t,))
        flat = tuple(flat)
        return self if flat == self.terms else Add(flat)

    def applied(self, weight: MatrixExpr) -> Node:
        return Add(tuple(t.applied(weight) for t in self.terms))  # terms are normal, no sums

    def value(self, ev: _Evaluation) -> np.ndarray:
        return reduce(operator.add, map(ev, self.terms))  # in term order

    def render(self, fmt: str) -> str:
        return " + ".join(t.render(fmt) for t in self.terms)


@dataclass(frozen=True, eq=False)
class Activate(Node):
    """Elementwise sigma; kept opaque, resolved only at evaluation time."""

    arg: "VectorExpr"

    def children(self) -> tuple[Node, ...]:
        return (self.arg,)

    def nesting(self) -> int:
        return 1 + self.arg.nesting()

    def distribute(self) -> Node:
        arg = self.arg.distribute()
        return self if arg is self.arg else Activate(arg)

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev.act(ev(self.arg))

    def render(self, fmt: str) -> str:
        return f"{_sigma_symbol(fmt)}({self.arg.render(fmt)})"


@dataclass(frozen=True, eq=False)
class MatProduct(Node):
    factors: tuple["MatrixExpr", ...]

    def children(self) -> tuple[Node, ...]:
        return self.factors

    def value(self, ev: _Evaluation) -> np.ndarray:
        return reduce(operator.matmul, map(ev, self.factors))  # left to right

    def render(self, fmt: str) -> str:
        return "".join(f.render(fmt) for f in self.factors)


@dataclass(frozen=True, eq=False)
class IdentityMat(Node):
    dim: int

    def value(self, ev: _Evaluation) -> LinearMap:
        return identity_map(self.dim)

    def render(self, fmt: str) -> str:
        return _render_name("I", fmt)


@dataclass(frozen=True, eq=False)
class AttnMatrix(Node):
    """The attention effective matrix of one block, as a matrix-valued node.

    Evaluation recomputes the block's input from ``arg``, reshapes it to a
    token matrix, and freezes the softmax probabilities there; the value is
    the attention map at that input, held as its per-head factors.  The node
    is therefore input-dependent whenever ``arg`` reaches the input symbol.
    """

    label: str  # display label, e.g. "A_{i+1}"
    arg_label: str  # short display for the block input, e.g. "x'_{i+1}"
    proj_keys: tuple[str, str, str, str]  # binding keys of W_Q, W_K, W_V, W_O
    heads: int
    tokens: int
    model_dim: int
    arg: "VectorExpr"

    def children(self) -> tuple[Node, ...]:
        return (self.arg,)

    def value(self, ev: _Evaluation) -> LinearMap:
        x = ev(self.arg).reshape(self.tokens, self.model_dim)
        projections = [ev.lookup(key) for key in self.proj_keys]
        # called through the module global, so a wrapper installed on it sees every call
        return effective_matrix_from_projections(x, *projections, self.heads)

    def render(self, fmt: str) -> str:
        return f"{_render_name(self.label, fmt)}({_render_name(self.arg_label, fmt)})"


VectorExpr = Union[Input, ParamAtom, Apply, Add, Activate]
MatrixExpr = Union[ParamAtom, MatProduct, IdentityMat, AttnMatrix]


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


def _wrap_weight(factors: tuple[ParamAtom, ...], name: str) -> ParamAtom:
    """The single factor itself, or the product merged into atom ``name``."""
    return factors[0] if len(factors) == 1 else merged_atom(name, "weight", MatProduct(factors))


def merged_atom(name: str, kind: str, provenance) -> ParamAtom:
    if kind == "bias":
        provenance = provenance.distribute()
    dep = Dependence.INPUT_DEPENDENT if provenance.reaches_input else Dependence.FIXED
    return ParamAtom(name, kind, dep, provenance)


def identity_atom(dim: int) -> ParamAtom:
    return ParamAtom("I", "weight", Dependence.FIXED, IdentityMat(dim))


def is_identity(atom: ParamAtom | None) -> bool:
    return atom is not None and isinstance(atom.provenance, IdentityMat)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

Binding = Mapping[str, "np.ndarray | LinearMap"]


class _Evaluation:
    """The memo of one evaluation call under one binding: ``value(root)``
    computes each node under ``root`` once, children first and without
    recursion; ``ev(node)`` reads a computed value.  Reads are counted up
    front and a value is dropped at its last read."""

    def __init__(self, env: Binding, sigma: str, roots: Sequence[Node]):
        self.env = env
        self.act = activation(sigma)
        self.held: dict[Node, np.ndarray] = {}
        self.reads: dict[Node, int] = {}
        todo = list(roots)
        while todo:
            node = todo.pop()
            seen = self.reads.get(node, 0)
            self.reads[node] = seen + 1
            if not seen:
                todo.extend(node.children())

    def lookup(self, name: str) -> np.ndarray | LinearMap:
        try:
            value = self.env[name]
        except KeyError:
            raise SpecError(f"binding for {name!r} missing") from None
        return value if isinstance(value, LinearMap) else np.asarray(value, dtype=np.float64)

    def __call__(self, node: Node) -> np.ndarray:
        out = self.held[node]
        self.reads[node] -= 1
        if not self.reads[node]:
            del self.held[node]
        return out

    def value(self, root: Node) -> np.ndarray:
        todo = [root]
        while todo:
            node = todo[-1]
            if node in self.held:
                todo.pop()
                continue
            missing = [c for c in node.children() if c not in self.held]
            if missing:
                todo.extend(missing)
            else:
                self.held[todo.pop()] = node.value(self)
        return self(root)


def atom_value(atom: ParamAtom, env: Binding, sigma: str = "relu") -> np.ndarray:
    """The atom's value as an array; a weight held as a map is made dense."""
    value = _Evaluation(env, sigma, [atom]).value(atom)
    return value.dense() if isinstance(value, LinearMap) else value


def eval_vector(expr: VectorExpr, env: Binding, sigma: str = "relu") -> np.ndarray:
    return _Evaluation(env, sigma, [expr]).value(expr)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaTerm:
    """One sigma stage: outer * sigma(inner * argument + bias)."""

    outer: ParamAtom | None
    inner: ParamAtom
    bias: ParamAtom | None

    def expr(self, arg: VectorExpr) -> VectorExpr:
        """The stage applied to ``arg``, leaving out the parts that are None."""
        pre: VectorExpr = Apply(self.inner, arg)
        if self.bias is not None:
            pre = Add((pre, self.bias))
        out = Activate(pre)
        return out if self.outer is None else Apply(self.outer, out)


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

    @property
    def n_terms(self) -> int:
        return len(self.sigma_terms)

    def slots(self) -> list[tuple[str, ParamAtom]]:
        """(role, atom) for every filled slot of the form, in display order."""
        slots = [("linear", self.linear_term)]
        for j, t in enumerate(self.sigma_terms):
            slots += [(f"sigma[{j}].outer", t.outer), (f"sigma[{j}].inner", t.inner),
                      (f"sigma[{j}].bias", t.bias)]
        slots.append(("constant", self.constant_term))
        return [(role, atom) for role, atom in slots if atom is not None]

    @property
    def expression(self) -> VectorExpr:
        """The form as one node over the input symbol: a chain nests its
        stages, a flat form adds its parts in display order."""
        x: VectorExpr = Input(self.input_name)
        if self.structure == "chain":
            for t in self.sigma_terms:
                x = t.expr(x)
            return x
        parts: list[VectorExpr] = []
        if self.linear_term is not None:
            parts.append(x if is_identity(self.linear_term) else Apply(self.linear_term, x))
        parts.extend(t.expr(x) for t in self.sigma_terms)
        if self.constant_term is not None:
            parts.append(self.constant_term)
        if not parts:
            raise SpecError("canonical form has no terms")
        return Add(tuple(parts))

    def render(self, fmt: str) -> str:
        return self.expression.render(fmt)


def eval_canonical(form: CanonicalUAT, env: Binding, sigma: str = "relu") -> np.ndarray:
    """Numeric value of the canonical form under a primitive-atom binding."""
    return eval_vector(form.expression, env, sigma)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit(obj, fmt: str = "text") -> str:
    """Deterministic rendering of an expression or canonical form.

    ``fmt`` is "text" (unicode, hats/bars as combining marks) or "latex".
    """
    if fmt not in ("text", "latex"):
        raise SpecError(f"unknown emit format {fmt!r}")
    return obj.render(fmt)


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
    roles: dict[ParamAtom, list[str]] = {}
    for role, atom in form.slots():
        if not is_identity(atom):
            roles.setdefault(atom, []).append(role)
    return tuple(
        ClassifiedParam(
            atom=atom,
            display=atom.display,
            kind=atom.kind,
            dependence=atom.dependence,
            provenance=atom.provenance.render("text") if atom.merged else "primitive",
            roles=tuple(atom_roles),
        )
        for atom, atom_roles in roles.items()
    )


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
    for st in stages:
        inner_expr: VectorExpr = expr
        for w in reversed(st.weights):
            inner_expr = Apply(w, inner_expr)
        pre = Add((inner_expr, st.bias)) if st.bias is not None else inner_expr
        expr = Activate(pre)
        terms.append(SigmaTerm(None, _wrap_weight(st.weights, st.weights[0].name), st.bias))
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
    block_atoms: tuple[tuple[ParamAtom, ParamAtom, ParamAtom, ParamAtom], ...]  # w1, b1, w2, b2


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
    const_atoms: list[ParamAtom] = []
    block_atoms = []

    for k in range(depth):
        if shared and k > 0:
            w1, _, w2, _ = block_atoms[0]
        else:
            w1 = weight_atom(_name("W", f"{_sub(k)},1"))
            w2 = weight_atom(_name("W", f"{_sub(k)},2"))
            shapes[w1.name] = (hidden, dim)
            shapes[w2.name] = (dim, hidden)
        b1 = bias_atom(_name("b", f"{_sub(k)},1", prime=False))
        b2 = bias_atom(_name("b", f"{_sub(k)},2", prime=False))
        shapes[b1.name] = (hidden,)
        shapes[b2.name] = (dim,)
        block_atoms.append((w1, b1, w2, b2))

        # composed expression: v + W2 sigma(W1 v + b1) + b2
        expr = Add((expr, SigmaTerm(w2, w1, b1).expr(expr), b2))

        # canonical: the new stage reads the raw input; everything else the
        # block would have seen folds into the stage bias
        if k == 0:
            stage_bias = b1
        else:
            carried = Add((*term_exprs, *const_atoms))
            stage_bias = merged_atom(
                _name("b", f"{_sub(k)},2", prime=False),
                "bias",
                Add((Apply(w1, carried), b1)),
            )
        terms.append(SigmaTerm(outer=w2, inner=w1, bias=stage_bias))
        term_exprs.append(terms[-1].expr(Input()))
        const_atoms.append(b2)

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
        block_atoms=tuple(block_atoms),
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

    def random_binding(self, rng: np.random.Generator) -> dict[str, np.ndarray | LinearMap]:
        x = rng.normal(size=self.flat_dim)  # the input is drawn first
        blocks = [random_attn_params(self.model_dim, self.heads, self.ffn_dim, rng)
                  for _ in range(self.depth)]
        return self.binding(blocks, x)

    def binding(
        self, blocks: Sequence[AttnParams], x: np.ndarray | None = None
    ) -> dict[str, np.ndarray | LinearMap]:
        """Bind each block's AttnParams (and the input ``x``, if given); the
        row-wise FFN weights are bound as maps over the flattened tokens."""
        env: dict[str, np.ndarray | LinearMap] = {} if x is None else {INPUT_NAME: x}
        for k, p in enumerate(blocks):
            q_key, k_key, v_key, o_key = self.proj_keys[k]
            env[q_key], env[k_key] = p.w_q, p.w_k
            env[v_key], env[o_key] = p.w_v, p.w_o
            w2_key, w3_key, b2_key, b3_key = self.raw_keys[k]
            env[w2_key], env[w3_key] = p.w_2, p.w_3
            env[b2_key], env[b3_key] = p.b_2, p.b_3
            w2a, w3a, b2a, b3a = self.ffn_atoms[k]
            env[w2a.name] = tokenwise_map(p.w_2, self.tokens)
            env[w3a.name] = tokenwise_map(p.w_3, self.tokens)
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
        keys = (f"W_Q[{sub}]", f"W_K[{sub}]", f"W_V[{sub}]", f"W_O[{sub}]")
        proj_keys.append(keys)
        raw_keys.append((f"w2[{sub}]", f"w3[{sub}]", f"b2[{sub}]", f"b3[{sub}]"))

        attn = merged_atom(
            _name("W", f"{sub},1"),
            "weight",
            AttnMatrix(
                label=_name("A", sub, prime=False),
                arg_label=_name("x", sub),
                proj_keys=keys,
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
        expr = Add((h, SigmaTerm(w3, w2, b2).expr(h), b3))

        # canonical state before this block, minus the linear part; the new
        # stage's bias absorbs it
        if k == 0:
            stage_bias = b2
        else:
            pieces = [SigmaTerm(_product(t["outer"]), _product(t["inner"]), t["bias"]).expr(Input())
                      for t in raw_terms]
            pieces.append(const_expr)
            stage_bias = merged_atom(
                _name("b", f"{sub},2"),
                "bias",
                Add((Apply(MatProduct((w2, attn)), Add(tuple(pieces))), b2)),
            )

        for t in raw_terms:
            t["outer"] = (attn, *t["outer"])
        raw_terms.append(
            {"outer": (w3,), "inner": (w2, attn, *linear_factors), "bias": stage_bias}
        )
        linear_factors = (attn, *linear_factors)
        const_expr = b3 if const_expr is None else Add((Apply(attn, const_expr), b3))

    last = depth - 1
    linear = _wrap_weight(linear_factors, _name("W", f"{_sub(last)},1"))
    terms = []
    for j, t in enumerate(raw_terms):  # term j comes from block j
        inner = _wrap_weight(t["inner"], _name("W", f"{_sub(j)},{3 if j else 1}"))
        # the last block's outer factor is its primitive W3, kept as it is
        outer_name = _name("W", f"{_sub(last)},2" + ("" if j >= last - 1 else f";{j}"))
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
