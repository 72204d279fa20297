"""Symbolic composition of matrix-vector layers and canonical-form expansion.

A network built from lowered layers is an expression graph over: the input
vector symbol, parameter atoms (weights and biases), linear application,
addition, and an opaque elementwise activation ``sigma``.  Every primitive
the graph reads, the attention projections included, is a parameter atom,
bound by its name: a binding maps atom names and the input symbol to
values, and :func:`bind` builds one from each block's atoms and values.
Expanding a composition rewrites it into a canonical approximator form

    G(x) = [L x] + sum_j outer_j sigma(inner_j x + bias_j) + [const]

(for feed-forward chains the sigma stages nest instead of summing, and the
canonical value is the last stage's output).  Residual and transformer
chains come from one builder, ``_skip_chain``, of blocks
``h + W_out sigma(W_in h + b_in) + b_out`` at ``h = M v``, and differ only in
the mixing map M: the identity in a residual block, the frozen attention map
in a transformer block.  The canonical form is itself an expression over the
same nodes (``CanonicalUAT.expression``), so it has one renderer and one
evaluator, those of the nodes.  Merging coefficients during expansion
creates *merged* atoms that keep the folding expression they came from, over
the state the chain carried, so each chain is folded once; only
classification distributes it into its normal form, to show it.  An atom
whose folding expression reaches the input symbol is classified
input-dependent, everything else stays fixed once the network's parameters
are bound.  Displays mark merged fixed atoms with a bar and merged
input-dependent atoms with a hat.

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
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, reduce
from typing import Callable, ClassVar, Iterable, Mapping, Sequence, Union

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

    def __repr__(self) -> str:
        # one line whatever the depth: a generated repr would print a shared
        # node once per path to it
        tag = getattr(self, "name", None) or getattr(self, "label", None)
        tag = "" if tag is None else f"{tag!r}, "
        return f"{type(self).__name__}({tag}children={len(self.children())})"

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

    def distribute(self, weights: tuple[MatrixExpr, ...] = ()) -> Node:
        """Normal form of ``weights`` (leftmost applied last) applied to this
        node: linear maps distributed over sums, nested sums flattened,
        nested applications merged into products."""
        return Apply(_product(weights), self) if weights else self


@dataclass(frozen=True, eq=False, repr=False)
class Input(Node):
    """The network input vector symbol."""

    name: str = INPUT_NAME

    def _reaches_input(self) -> bool:
        return True

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev.lookup(self.name)

    def render(self, fmt: str) -> str:
        return _render_name(self.name, fmt)


@dataclass(frozen=True, eq=False, repr=False)
class ParamAtom(Node):
    """A named parameter: primitive (bound directly) or merged (carrying the
    folding expression that defines it)."""

    name: str
    kind: str  # "weight" | "bias"
    provenance: "MatrixExpr | VectorExpr | None" = None

    @property
    def merged(self) -> bool:
        return self.provenance is not None

    @property
    def dependence(self) -> Dependence:
        """Input-dependent exactly when the folding expression reaches the input."""
        return Dependence.INPUT_DEPENDENT if self.reaches_input else Dependence.FIXED

    @property
    def display(self) -> str:
        return self.render("text")

    def children(self) -> tuple[Node, ...]:
        return () if self.provenance is None else (self.provenance,)

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev.lookup(self.name) if self.provenance is None else ev(self.provenance)

    def render(self, fmt: str) -> str:
        # reaches_input, not the dependence property: atoms render by the thousand
        mark = "hat" if self.reaches_input else "bar"
        return _render_name(self.name, fmt, mark if self.merged else None)


@dataclass(frozen=True, eq=False, repr=False)
class Apply(Node):
    """Linear application: weight value times the argument vector."""

    weight: "MatrixExpr"
    arg: "VectorExpr"

    def children(self) -> tuple[Node, ...]:
        return (self.weight, self.arg)

    def nesting(self) -> int:
        return self.arg.nesting()

    def distribute(self, weights: tuple[MatrixExpr, ...] = ()) -> Node:
        if not weights and not isinstance(self.arg, (Add, Apply)):  # only the arg can change
            arg = self.arg.distribute()
            return self if arg is self.arg else Apply(self.weight, arg)
        # a chain of nested applications becomes one product, in one pass
        weights, node = [*weights, self.weight], self.arg
        while isinstance(node, Apply):
            weights.append(node.weight)
            node = node.arg
        return node.distribute(tuple(weights))

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


@dataclass(frozen=True, eq=False, repr=False)
class Add(Node):
    terms: tuple["VectorExpr", ...]

    def children(self) -> tuple[Node, ...]:
        return self.terms

    def nesting(self) -> int:
        return max((t.nesting() for t in self.terms), default=0)

    def distribute(self, weights: tuple[MatrixExpr, ...] = ()) -> Node:
        flat: list[VectorExpr] = []
        for t in self.terms:
            t = t.distribute(weights)
            flat.extend(t.terms if isinstance(t, Add) else (t,))
        flat = tuple(flat)
        return self if flat == self.terms else Add(flat)

    def value(self, ev: _Evaluation) -> np.ndarray:
        return reduce(operator.add, map(ev, self.terms))  # in term order

    def render(self, fmt: str) -> str:
        return " + ".join(t.render(fmt) for t in self.terms)


@dataclass(frozen=True, eq=False, repr=False)
class Activate(Node):
    """Elementwise sigma; kept opaque, resolved only at evaluation time."""

    arg: "VectorExpr"

    def children(self) -> tuple[Node, ...]:
        return (self.arg,)

    def nesting(self) -> int:
        return 1 + self.arg.nesting()

    def distribute(self, weights: tuple[MatrixExpr, ...] = ()) -> Node:
        arg = self.arg.distribute()
        return Node.distribute(self if arg is self.arg else Activate(arg), weights)

    def value(self, ev: _Evaluation) -> np.ndarray:
        return ev.act(ev(self.arg))

    def render(self, fmt: str) -> str:
        return f"{_sigma_symbol(fmt)}({self.arg.render(fmt)})"


@dataclass(frozen=True, eq=False, repr=False)
class MatProduct(Node):
    factors: tuple["MatrixExpr", ...]

    def children(self) -> tuple[Node, ...]:
        return self.factors

    def value(self, ev: _Evaluation) -> np.ndarray:
        return reduce(operator.matmul, map(ev, self.factors))  # left to right

    def render(self, fmt: str) -> str:
        return "".join(f.render(fmt) for f in self.factors)


@dataclass(frozen=True, eq=False, repr=False)
class IdentityMat(Node):
    dim: int

    def value(self, ev: _Evaluation) -> LinearMap:
        return identity_map(self.dim)

    def render(self, fmt: str) -> str:
        return _render_name("I", fmt)


@dataclass(frozen=True, eq=False, repr=False)
class AttnMatrix(Node):
    """The attention effective matrix of one block, as a matrix-valued node.

    Evaluation recomputes the block's input from ``arg``, reshapes it to a
    token matrix, and freezes the softmax probabilities there; the value is
    the attention map at that input, held as its per-head factors.  The node
    is therefore input-dependent whenever ``arg`` reaches the input symbol.
    Its four projections are primitive atoms, bound by name like any other.
    """

    label: str  # display label, e.g. "A_{i+1}"
    arg_label: str  # short display for the block input, e.g. "x'_{i+1}"
    projections: tuple[ParamAtom, ParamAtom, ParamAtom, ParamAtom]  # W_Q, W_K, W_V, W_O
    heads: int
    tokens: int
    model_dim: int
    arg: "VectorExpr"

    def children(self) -> tuple[Node, ...]:
        return (*self.projections, self.arg)

    def value(self, ev: _Evaluation) -> LinearMap:
        x = ev(self.arg).reshape(self.tokens, self.model_dim)
        # called through the module global, so a wrapper installed on it sees every call
        return effective_matrix_from_projections(x, *map(ev, self.projections), self.heads)

    def render(self, fmt: str) -> str:
        return f"{_render_name(self.label, fmt)}({_render_name(self.arg_label, fmt)})"


VectorExpr = Union[Input, ParamAtom, Apply, Add, Activate]
MatrixExpr = Union[ParamAtom, MatProduct, IdentityMat, AttnMatrix]


def weight_atom(name: str) -> ParamAtom:
    return ParamAtom(name, "weight")


def bias_atom(name: str) -> ParamAtom:
    return ParamAtom(name, "bias")


def _mat_factors(weight: MatrixExpr) -> tuple[MatrixExpr, ...]:
    if isinstance(weight, MatProduct):
        return weight.factors
    return (weight,)


def _product(weights: tuple[MatrixExpr, ...]) -> MatrixExpr:
    """The one weight itself, or the flat product of the weights' factors."""
    if len(weights) == 1:
        return weights[0]
    return MatProduct(tuple(f for w in weights for f in _mat_factors(w)))


def _wrap_weight(factors: tuple[ParamAtom, ...], name: str) -> ParamAtom:
    """The single factor itself, or the product merged into atom ``name``."""
    return factors[0] if len(factors) == 1 else ParamAtom(name, "weight", MatProduct(factors))


def identity_atom(dim: int) -> ParamAtom:
    return ParamAtom("I", "weight", IdentityMat(dim))


def is_identity(atom: ParamAtom | None) -> bool:
    return atom is not None and isinstance(atom.provenance, IdentityMat)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

Binding = Mapping[str, "np.ndarray | LinearMap"]


def bind(block_atoms: Iterable[Sequence[ParamAtom]],
         block_values: Iterable[Sequence]) -> dict[str, np.ndarray | LinearMap]:
    """The binding that gives each block's atoms, by name, the block's values,
    one value per atom and in the atoms' order."""
    return {
        atom.name: value
        for atoms, values in zip(block_atoms, block_values, strict=True)
        for atom, value in zip(atoms, values, strict=True)
    }


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


def atom_value(atom: ParamAtom, env: Binding, sigma: str) -> np.ndarray:
    """The atom's value as an array; a weight held as a map is made dense."""
    value = _Evaluation(env, sigma, [atom]).value(atom)
    return value.dense() if isinstance(value, LinearMap) else value


def eval_vector(expr: VectorExpr, env: Binding, sigma: str) -> np.ndarray:
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

    def __post_init__(self) -> None:
        # the node built for each argument, past the frozen guard: the form
        # then holds the chain builders' own nodes, which a memo finds by identity
        self.__dict__["_exprs"] = {}

    def expr(self, arg: VectorExpr) -> VectorExpr:
        """The stage applied to ``arg``, leaving out the parts that are None;
        one node for every call with an equal ``arg``."""
        node = self._exprs.get(arg)
        if node is None:
            pre: VectorExpr = Apply(self.inner, arg)
            if self.bias is not None:
                pre = Add((pre, self.bias))
            out = Activate(pre)
            node = self._exprs[arg] = out if self.outer is None else Apply(self.outer, out)
        return node


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
    input_name: ClassVar[str] = INPUT_NAME  # the one input symbol the expansion reads

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
        x: VectorExpr = Input()
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


def eval_canonical(form: CanonicalUAT, env: Binding, sigma: str) -> np.ndarray:
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
    """One atom of a canonical form and the form's slots it fills (``roles``)."""

    atom: ParamAtom
    provenance: str  # "primitive" or the rendered folding expression
    roles: tuple[str, ...]
    display = property(operator.attrgetter("atom.display"))
    kind = property(operator.attrgetter("atom.kind"))
    dependence = property(operator.attrgetter("atom.dependence"))


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
            provenance=atom.provenance.distribute().render("text") if atom.merged else "primitive",
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
    expression: VectorExpr
    canonical: CanonicalUAT
    block_atoms: tuple[tuple[ParamAtom, ...], ...]  # per layer: (P,), (W,) or (W, b)
    param_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)


def dense_chain(layers: Sequence[tuple[bool, bool]], input_dim: int) -> DenseChain:
    """A feed-forward chain over an ``input_dim`` input, one (pooling, has
    bias) pair per layer.  A stage multiplies by its weight W, adds its bias
    b if it has one, then applies sigma; a pooling layer's fixed matrix P
    folds into the next stage's merged weight."""
    expr: VectorExpr = Input()
    terms: list[SigmaTerm] = []
    block_atoms: list[tuple[ParamAtom, ...]] = []
    pools: list[ParamAtom] = []  # the pooling matrices since the last stage, last first
    n_pools = 0
    for pooling, has_bias in layers:
        if pooling:
            pools.insert(0, weight_atom(_name("P", _sub(n_pools))))
            n_pools += 1
            block_atoms.append((pools[0],))
            continue
        sub = _sub(len(terms))
        w = weight_atom(_name("W", sub))
        b = bias_atom(_name("b", sub)) if has_bias else None
        weights = (w, *pools)
        pre: VectorExpr = expr
        for m in reversed(weights):
            pre = Apply(m, pre)
        expr = Activate(pre if b is None else Add((pre, b)))
        terms.append(SigmaTerm(None, _wrap_weight(weights, w.name), b))
        block_atoms.append((w,) if b is None else (w, b))
        pools = []
    if not terms:
        raise SpecError("chain depth must be >= 1")
    canonical = CanonicalUAT(
        linear_term=None,
        sigma_terms=tuple(terms),
        constant_term=None,
        structure="chain",
    )
    return DenseChain(input_dim, expr, canonical, tuple(block_atoms))


def build_vgg_chain(dims: Sequence[int]) -> DenseChain:
    """Plain feed-forward chain with one weight and one bias per stage;
    ``dims`` lists the vector dimensions d_0 .. d_depth."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise SpecError("chain depth must be >= 1 (need at least two dims)")
    if any(d < 1 for d in dims):
        raise ShapeError(f"dims must be positive, got {dims}")
    chain = dense_chain([(False, True)] * (len(dims) - 1), dims[0])
    for (w, b), n_in, n_out in zip(chain.block_atoms, dims, dims[1:]):
        chain.param_shapes[w.name], chain.param_shapes[b.name] = (n_out, n_in), (n_out,)
    return chain


def _skip_chain(depth: int, dim: int, block: Callable[[int, VectorExpr], tuple]
                ) -> tuple[VectorExpr, CanonicalUAT, tuple[tuple[ParamAtom, ...], ...]]:
    """The composed expression, flat canonical form and block atoms of
    ``depth`` skip blocks ``h + W_out sigma(W_in h + b_in) + b_out`` at
    ``h = M v`` over a ``dim`` input.  ``block(k, v)`` gives block k at its
    input v as ``(M, W_in, b_in, W_out, b_out, atoms, name)``: M None for the
    identity, ``atoms`` its ``block_atoms`` entry, and ``name(role, j)`` the
    name a role's product takes if merged: "bias", "inner", and of the last
    block "linear", "outer" (of term j) and "constant".

    Before block k the chain is ``L x + sum_j T_j + C``, L the product of the
    mixing maps so far.  The block's sigma stage reads the raw input through
    ``W_in M L``, and ``W_in M`` times the earlier terms T_j and constant C,
    as the block's input holds them, folds into its merged bias; M then
    carries them on.  Without a mixing map C stays one flat sum of the
    blocks' ``b_out``; a mixing map nests it.
    """
    expr: VectorExpr = Input()
    factors: tuple[ParamAtom, ...] = ()  # L's factors, the last block's first
    carried, consts = [], []  # T_j and C as block k's input holds them
    stages, block_atoms = [], []  # per block: (its inner weight, its sigma term); its atoms
    for k in range(depth):
        m, w_in, b_in, w_out, b_out, atoms, name = block(k, expr)
        mix = () if m is None else (m,)
        h = expr if m is None else Apply(m, expr)
        expr = Add((h, SigmaTerm(w_out, w_in, b_in).expr(h), b_out))

        bias = b_in if k == 0 else ParamAtom(name("bias", k), "bias", Add((
            Apply(_product((w_in, *mix)), Add((*carried, *consts))), b_in)))
        factors = (*mix, *factors)
        inner = _wrap_weight((w_in, *factors), name("inner", k))
        term = SigmaTerm(w_out, inner.provenance if inner.merged else inner, bias)
        stages.append((inner, term))
        block_atoms.append(atoms)
        if m is None:
            consts.append(b_out)
        else:
            carried = [Apply(m, t) for t in carried]
            consts = [Add((Apply(m, consts[0]), b_out)) if consts else b_out]
        carried.append(term.expr(Input()))

    terms = []
    for j, (inner, term) in enumerate(stages):
        outer = _wrap_weight((*factors[:depth - 1 - j], term.outer), name("outer", j))
        # a term its block built already is that object, the merged biases' node
        fresh = outer is not term.outer or inner is not term.inner
        terms.append(SigmaTerm(outer, inner, term.bias) if fresh else term)
    const = consts[0] if len(consts) == 1 else Add(tuple(consts))
    constant = const if depth == 1 else ParamAtom(name("constant", 0), "bias", const)
    linear = _wrap_weight(factors, name("linear", 0)) if factors else identity_atom(dim)
    return expr, CanonicalUAT(linear, tuple(terms), constant), tuple(block_atoms)


@dataclass
class ResidualChain(_PrimitiveChain):
    """Stack of residual units v + W_2 sigma(W_1 v + b_1) + b_2, expanded into
    a flat canonical form whose later sigma-stage biases absorb the input.
    Built by :func:`_skip_chain`: a residual block is a skip block whose
    mixing map is the identity."""

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
    shapes: dict[str, tuple[int, ...]] = {}  # in the order random_binding draws them

    @cache
    def weights(k: int) -> tuple[ParamAtom, ParamAtom]:
        return weight_atom(_name("W", f"{_sub(k)},1")), weight_atom(_name("W", f"{_sub(k)},2"))

    def block(k: int, v: VectorExpr) -> tuple:
        w1, w2 = weights(0 if shared else k)
        b1, b2 = (bias_atom(_name("b", f"{_sub(k)},{r}", prime=False)) for r in "12")
        shapes.update({w1.name: (hidden, dim), w2.name: (dim, hidden), b1.name: (hidden,),
                       b2.name: (dim,)})
        # a residual block merges only biases, each named after its b_2
        return None, w1, b1, w2, b2, (w1, b1, w2, b2), lambda role, j: b2.name

    expression, canonical, block_atoms = _skip_chain(depth, dim, block)
    return ResidualChain(depth, dim, hidden, shared, expression, canonical, shapes, block_atoms)


def build_residual_block(dim: int, hidden: int | None = None) -> ResidualChain:
    return build_residual_chain(1, dim, hidden)


@dataclass
class TransformerChain:
    """Stack of blocks h = MHA(v); h + FFN(h), expanded over the flattened
    token matrix.  Attention enters as an input-dependent linear atom whose
    value is the frozen-probability effective matrix at the block's input.
    Built by :func:`_skip_chain`: a transformer block is a skip block whose
    mixing map is that attention map."""

    depth: int
    tokens: int
    model_dim: int
    heads: int
    ffn_dim: int
    expression: VectorExpr
    canonical: CanonicalUAT
    block_atoms: tuple[tuple[ParamAtom, ...], ...]  # per block: W_Q, W_K, W_V, W_O, W2, W3, b2, b3

    @property
    def flat_dim(self) -> int:
        return self.tokens * self.model_dim

    def random_binding(self, rng: np.random.Generator) -> dict[str, np.ndarray | LinearMap]:
        x = rng.normal(size=self.flat_dim)  # the input is drawn first
        blocks = [random_attn_params(self.model_dim, self.heads, self.ffn_dim, rng)
                  for _ in range(self.depth)]
        values = (transformer_block_values(p, self.tokens) for p in blocks)
        return {INPUT_NAME: x, **bind(self.block_atoms, values)}


def transformer_block_values(p: AttnParams, tokens: int) -> tuple:
    """A transformer block's values in its ``block_atoms`` order: the
    projections as given, the row-wise FFN weights as maps over the
    flattened tokens, and the FFN biases tiled over the tokens."""
    return (p.w_q, p.w_k, p.w_v, p.w_o,
            tokenwise_map(p.w_2, tokens), tokenwise_map(p.w_3, tokens),
            np.tile(p.b_2, tokens), np.tile(p.b_3, tokens))


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

    def block(k: int, v: VectorExpr) -> tuple:
        sub = _sub(k)
        projections = tuple(weight_atom(_name("W", f"{sub},{r}", prime=False)) for r in "QKVO")
        attn = ParamAtom(_name("W", f"{sub},1"), "weight", AttnMatrix(
            label=_name("A", sub, prime=False), arg_label=_name("x", sub), projections=projections,
            heads=heads, tokens=tokens, model_dim=model_dim, arg=v))
        w2, w3 = (weight_atom(_name("W", f"{sub},{r}")) for r in "23")
        b2, b3 = (bias_atom(_name("b", f"{sub},{r}")) for r in "23")

        def name(role: str, j: int) -> str:
            if role == "outer":  # term j's; ";j" on all but the last two terms
                return _name("W", f"{sub},2" + ("" if j >= k - 1 else f";{j}"))
            if role == "constant":
                return _name("b", f"{_sub(k - 1)},1")
            return {"bias": b2, "inner": w3 if k else attn, "linear": attn}[role].name

        return attn, w2, b2, w3, b3, (*projections, w2, w3, b2, b3), name

    return TransformerChain(depth, tokens, model_dim, heads, ffn_dim,
                            *_skip_chain(depth, tokens * model_dim, block))
