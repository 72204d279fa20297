"""Dense tensor values, named shapes, and the deterministic RNG.

Conventions used throughout the package:

* all numeric data is float64,
* tensor storage is row-major in the order of the shape's axes,
* ``Matrix`` and ``Vector`` are plain 2-D / 1-D ``numpy.ndarray`` values
  (validated at the few places where they enter the library),
* values are immutable by convention: functions never mutate their inputs
  and freshly constructed arrays are returned with the write flag cleared,
  so sharing across threads is safe.

The RNG is a splitmix-style 64-bit mixer, chosen so that any consumer can
reproduce the stream from the documented recurrence (see
:class:`SplitMix64`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, RangeError, ShapeError

AXIS_NAMES = ("C_I", "C_O", "H", "W", "D", "token", "feature")

DEFAULT_ELEMENT_CAP = 1 << 20
ENV_CAP_VAR = "UATCV_CAP"

_cap_override: int | None = None


def element_cap() -> int:
    """Current element cap: explicit override, then the UATCV_CAP env var,
    then the built-in default."""
    if _cap_override is not None:
        return _cap_override
    env = os.environ.get(ENV_CAP_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise RangeError(f"{ENV_CAP_VAR} must be an integer, got {env!r}") from exc
        if value < 1:
            raise RangeError(f"{ENV_CAP_VAR} must be positive, got {value}")
        return value
    return DEFAULT_ELEMENT_CAP


def set_element_cap(cap: int | None) -> int | None:
    """Override the element cap process-wide (``None`` restores lookup order).

    Returns the override it replaces, so it can be put back; not synchronized.
    """
    global _cap_override
    if cap is not None and cap < 1:
        raise RangeError(f"element cap must be positive, got {cap}")
    previous, _cap_override = _cap_override, cap
    return previous


def check_cap(what: str, dims: tuple[int, ...]) -> None:
    """An array of extents ``dims`` over the element cap is a CapacityError,
    raised before it is allocated."""
    n = math.prod(dims)
    if n > element_cap():
        raise CapacityError(f"{what} of shape {dims} has {n} elements, cap is {element_cap()}")


def check_finite(arr: np.ndarray) -> None:
    """An array with a non-finite entry is a RangeError, as a Tensor of it is."""
    if not np.isfinite(arr).all():
        raise RangeError("tensor entries must be finite")


@dataclass(frozen=True)
class TensorShape:
    """Ordered list of (axis name, extent) pairs.

    Axis names come from :data:`AXIS_NAMES`, must be unique within a shape,
    and every extent must be >= 1.  The total element count is checked
    against the configured element cap.
    """

    dims: tuple[tuple[str, int], ...]

    def __init__(self, dims: Iterable[tuple[str, int]]):
        object.__setattr__(self, "dims", tuple((str(a), int(n)) for a, n in dims))
        names = [a for a, _ in self.dims]
        if not names:
            raise ShapeError("shape needs at least one axis")
        for a, n in self.dims:
            if a not in AXIS_NAMES:
                raise ShapeError(f"unknown axis name {a!r} (allowed: {AXIS_NAMES})")
            if n < 1:
                raise ShapeError(f"axis {a} has extent {n}; extents must be >= 1")
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate axis names in {names}")
        if self.size > element_cap():
            raise CapacityError(
                f"shape {self.dims} has {self.size} elements, cap is {element_cap()}"
            )

    @property
    def size(self) -> int:
        return math.prod(n for _, n in self.dims)

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.dims)

    @cached_property  # read on every Tensor built and every cap check
    def extents(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.dims)

    def extent(self, axis: str) -> int:
        for a, n in self.dims:
            if a == axis:
                return n
        raise ShapeError(f"shape {self.dims} has no axis {axis!r}")

    def __str__(self) -> str:
        return "(" + ", ".join(f"{a}:{n}" for a, n in self.dims) + ")"


@dataclass(frozen=True)
class Tensor:
    """A named-shape dense array of float64, row-major in ``shape.dims`` order."""

    shape: TensorShape
    data: np.ndarray

    def __init__(self, shape: TensorShape, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float64).reshape(shape.extents)
        check_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", arr)

    @property
    def flat(self) -> np.ndarray:
        """Row-major flat view (the storage order of ``shape.dims``)."""
        return self.data.reshape(-1)


def zeros(shape: TensorShape) -> Tensor:
    return Tensor(shape, np.zeros(shape.extents))


class SplitMix64:
    """Deterministic 64-bit stream generator (splitmix-style mixer).

    The stream for seed ``s`` is defined by::

        state_0 = s  (mod 2^64)
        state_k = state_{k-1} + 0x9E3779B97F4A7C15
        z = state_k
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31
        output_k = z

    Uniform floats in [0, 1) take the top 53 bits: ``(z >> 11) * 2**-53``.
    All arithmetic is mod 2^64.  This recurrence is the normative stream
    contract, whatever computes it (here a Python-int state and one ``uint64``
    array per draw, mixed in place, which wraps without a warning); tests
    hold an independent implementation against it.  Consecutive reads
    concatenate: reads of n and then m numbers give the n + m of one read,
    so ``netspec.draw_weights`` may read a layer whole or array by array.
    """

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    MIX2 = np.uint64(0x94D049BB133111EB)
    S11, S27, S30, S31 = (np.uint64(k) for k in (11, 27, 30, 31))

    def __init__(self, seed: int):
        self._state = seed % (1 << 64)

    def next_raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(self.GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + self.GAMMA * n) % (1 << 64)
        z ^= z >> self.S30
        z *= self.MIX1
        z ^= z >> self.S27
        z *= self.MIX2
        z ^= z >> self.S31
        return z

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo < hi:
            raise RangeError(f"need lo < hi, got [{lo}, {hi})")
        u = (self.next_raw(n) >> self.S11).astype(np.float64) / float(1 << 53)
        return lo + (hi - lo) * u


def random_uniform(shape: TensorShape, seed: int, lo: float = 0.0, hi: float = 1.0) -> Tensor:
    """Deterministic uniform tensor on [lo, hi) from the splitmix stream."""
    gen = SplitMix64(seed)
    return Tensor(shape, gen.uniform(shape.size, lo, hi).reshape(shape.extents))


def as_matrix(m: np.ndarray) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise RangeError("matrix entries must be finite")
    return arr


def as_vector(v: np.ndarray) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ShapeError(f"expected a vector, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise RangeError("vector entries must be finite")
    return arr


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec mismatch: {m.shape} @ {v.shape}")
    return m @ v


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    return a @ b


def flatten(t: Tensor, axis_order: Sequence[str] | None = None) -> np.ndarray:
    """Flatten ``t`` row-major in ``axis_order`` (default: storage order)."""
    if axis_order is None:
        return t.flat.copy()
    order = tuple(axis_order)
    if sorted(order) != sorted(t.shape.axes):
        raise ShapeError(
            f"axis order {order} is not a permutation of {t.shape.axes}"
        )
    perm = tuple(t.shape.axes.index(a) for a in order)
    return np.ascontiguousarray(t.data.transpose(perm)).reshape(-1)


def unflatten(v: np.ndarray, shape: TensorShape, axis_order: Sequence[str] | None = None) -> Tensor:
    """Inverse of :func:`flatten` for the same shape and axis order."""
    v = as_vector(v)
    if v.shape[0] != shape.size:
        raise ShapeError(f"vector of length {v.shape[0]} cannot fill shape {shape}")
    if axis_order is None:
        return Tensor(shape, v.reshape(shape.extents))
    order = tuple(axis_order)
    if sorted(order) != sorted(shape.axes):
        raise ShapeError(f"axis order {order} is not a permutation of {shape.axes}")
    ordered_extents = tuple(shape.extent(a) for a in order)
    arr = v.reshape(ordered_extents)
    inv = tuple(order.index(a) for a in shape.axes)
    return Tensor(shape, np.ascontiguousarray(arr.transpose(inv)))
