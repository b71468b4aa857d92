"""Finite truncations of multi-mode Fock spaces.

A truncation shape selects a finite set of occupation multi-indices
(k_1, ..., k_m).  Two variants are supported: per-mode caps (``Rect``)
and a weighted bound on the total excitation number (``WeightedTotal``).
A ``Sector`` keeps the states of either one that carry given per-mode
charges n_j mod m_j.  Basis enumeration is graded lexicographic and
deterministic, so dense indices are stable across runs.  All values here
are immutable.  ``trace_norm`` is the one singular-value sum of the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Rect",
    "WeightedTotal",
    "Sector",
    "TruncationShape",
    "BasisMap",
    "DenseOperator",
    "ShapeError",
    "dimension",
    "basis_map",
    "base_shape",
    "charge_residues",
    "contains",
    "embed",
    "project",
    "trace_norm",
    "grow",
    "shrink",
]


class ShapeError(ValueError):
    """Invalid shape, or an operation on incompatible shapes."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        # nearest fraction with denominator at most 10**12, so a decimal
        # float such as 0.1 becomes 1/10, not its binary value;
        # rational strings are preferred
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


@dataclass(frozen=True)
class Rect:
    """All multi-indices k with k_j <= caps[j] for every mode j."""

    caps: tuple[int, ...]

    def __init__(self, caps: Sequence[int]):
        caps = tuple(int(c) for c in caps)
        if len(caps) == 0:
            raise ShapeError("Rect needs at least one mode")
        if any(c < 0 for c in caps):
            raise ShapeError(f"negative cap in {caps}")
        object.__setattr__(self, "caps", caps)

    @property
    def mode_count(self) -> int:
        return len(self.caps)

    def admits(self, state: tuple[int, ...]) -> bool:
        return all(0 <= k <= c for k, c in zip(state, self.caps))

    def grade(self, state: tuple[int, ...]):
        return sum(state)


@dataclass(frozen=True)
class WeightedTotal:
    """All multi-indices k with sum_j weights[j] * k_j <= cap.

    Weights and cap are exact rationals so membership has no rounding
    ambiguity.
    """

    weights: tuple[Fraction, ...]
    cap: Fraction

    def __init__(self, weights: Sequence, cap):
        weights = tuple(_as_fraction(w) for w in weights)
        cap = _as_fraction(cap)
        if len(weights) == 0:
            raise ShapeError("WeightedTotal needs at least one mode")
        if any(w <= 0 for w in weights):
            raise ShapeError(f"weights must be positive, got {weights}")
        if cap < 0:
            raise ShapeError(f"cap must be non-negative, got {cap}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cap", cap)

    @property
    def mode_count(self) -> int:
        return len(self.weights)

    def admits(self, state: tuple[int, ...]) -> bool:
        return sum(w * k for w, k in zip(self.weights, state)) <= self.cap

    def grade(self, state: tuple[int, ...]):
        return sum(w * k for w, k in zip(self.weights, state))


def charge_residues(moduli: Sequence[int], state: Sequence[int]) -> tuple[int, ...]:
    """Per-mode charges of a state: n_j mod m_j, and n_j itself where m_j = 0."""
    return tuple(n % m if m else n for m, n in zip(moduli, state))


@dataclass(frozen=True)
class Sector:
    """The states of a base shape whose per-mode charges n_j mod moduli[j]
    (n_j itself where the modulus is 0) equal ``residues``.

    A model whose every word conserves these charges maps operators on
    the sector to operators on it.  Basis order, grades, growth and
    shrinking are the base shape's.
    """

    base: Union[Rect, WeightedTotal]
    moduli: tuple[int, ...]
    residues: tuple[int, ...]

    def __init__(self, base, moduli: Sequence[int], residues: Sequence[int]):
        if not isinstance(base, (Rect, WeightedTotal)):
            raise ShapeError(
                f"a sector's base must be a Rect or WeightedTotal, got {base!r}"
            )
        moduli = tuple(int(m) for m in moduli)
        residues = tuple(int(r) for r in residues)
        if len(moduli) != base.mode_count or len(residues) != base.mode_count:
            raise ShapeError("one modulus and one residue per mode")
        if any(m < 0 or r < 0 or (m and r >= m) for m, r in zip(moduli, residues)):
            raise ShapeError(f"invalid charges: moduli {moduli}, residues {residues}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "residues", residues)

    @property
    def mode_count(self) -> int:
        return self.base.mode_count

    def in_sector(self, state: tuple[int, ...]) -> bool:
        return charge_residues(self.moduli, state) == self.residues

    def admits(self, state: tuple[int, ...]) -> bool:
        return self.base.admits(state) and self.in_sector(state)

    def grade(self, state: tuple[int, ...]):
        return self.base.grade(state)

    def with_base(self, base) -> "Sector":
        return Sector(base, self.moduli, self.residues)


TruncationShape = Union[Rect, WeightedTotal, Sector]


def base_shape(shape: TruncationShape):
    """The Rect or WeightedTotal a shape restricts: a sector's base, or
    the shape itself."""
    return shape.base if isinstance(shape, Sector) else shape


def _enumerate_states(shape: TruncationShape) -> list[tuple[int, ...]]:
    if isinstance(shape, Sector):
        return [s for s in basis_map(shape.base).states if shape.in_sector(s)]
    if isinstance(shape, Rect):
        states: list[tuple[int, ...]] = []

        def walk_rect(prefix: tuple[int, ...], j: int):
            if j == len(shape.caps):
                states.append(prefix)
                return
            for k in range(shape.caps[j] + 1):
                walk_rect(prefix + (k,), j + 1)

        walk_rect((), 0)
        return states

    states = []

    def walk(prefix: tuple[int, ...], j: int, budget: Fraction):
        if j == len(shape.weights):
            states.append(prefix)
            return
        w = shape.weights[j]
        kmax = int(budget / w)
        for k in range(kmax + 1):
            walk(prefix + (k,), j + 1, budget - w * k)

    walk((), 0, shape.cap)
    return states


@dataclass(frozen=True, eq=False)
class BasisMap:
    """Deterministic graded-lexicographic enumeration of a shape's basis."""

    shape: TruncationShape
    states: tuple[tuple[int, ...], ...]
    index: dict

    def occupations(self, mode: int) -> np.ndarray:
        arr = np.array([s[mode] for s in self.states], dtype=np.int64)
        arr.setflags(write=False)
        return arr


@lru_cache(maxsize=None)
def basis_map(shape: TruncationShape) -> BasisMap:
    states = sorted(_enumerate_states(shape), key=lambda s: (shape.grade(s), s))
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    return BasisMap(shape=shape, states=states, index=index)


def dimension(shape: TruncationShape) -> int:
    return len(basis_map(shape).states)


def contains(shape_small: TruncationShape, shape_big: TruncationShape) -> bool:
    """True iff every basis multi-index of shape_small lies in shape_big."""
    if shape_small.mode_count != shape_big.mode_count:
        raise ShapeError(
            f"mode-count mismatch: {shape_small.mode_count} vs {shape_big.mode_count}"
        )
    if isinstance(shape_small, Rect) and isinstance(shape_big, Rect):
        return all(a <= b for a, b in zip(shape_small.caps, shape_big.caps))
    if isinstance(shape_small, Rect) and isinstance(shape_big, WeightedTotal):
        # the max-grade corner decides
        return shape_big.admits(shape_small.caps)
    if isinstance(shape_small, WeightedTotal) and isinstance(shape_big, Rect):
        return all(
            int(shape_small.cap / w) <= c
            for w, c in zip(shape_small.weights, shape_big.caps)
        )
    # any other pair, charge sectors included: test every state
    return all(shape_big.admits(s) for s in basis_map(shape_small).states)


@lru_cache(maxsize=None)
def _embedding_indices(
    shape_small: TruncationShape, shape_big: TruncationShape
) -> np.ndarray:
    if not contains(shape_small, shape_big):
        raise ShapeError(f"{shape_small} is not contained in {shape_big}")
    big = basis_map(shape_big)
    idx = np.array(
        [big.index[s] for s in basis_map(shape_small).states], dtype=np.intp
    )
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _complement_indices(
    shape_small: TruncationShape, shape_big: TruncationShape
) -> np.ndarray:
    inside = set(_embedding_indices(shape_small, shape_big).tolist())
    idx = np.array(
        [i for i in range(dimension(shape_big)) if i not in inside], dtype=np.intp
    )
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Real or complex matrix over the basis of an explicit truncation
    shape: a real input (bool, integer or float) is stored as float64,
    any other as complex128.  The solver keeps a state real when it
    integrates in a real gauge (``lindblad.real_gauge``)."""

    shape: TruncationShape
    matrix: np.ndarray

    def __init__(self, shape: TruncationShape, matrix):
        arr = np.array(matrix, order="C")
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
        d = dimension(shape)
        if arr.shape != (d, d):
            raise ShapeError(f"matrix shape {arr.shape} does not match dimension {d}")
        arr.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def identity(cls, shape: TruncationShape) -> "DenseOperator":
        return cls(shape, np.eye(dimension(shape), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def _embed_array(mat: np.ndarray, pos: np.ndarray, dim: int) -> np.ndarray:
    """``mat`` placed at rows and columns ``pos`` of a zero dim x dim
    matrix of its dtype."""
    out = np.zeros((dim, dim), dtype=mat.dtype)
    out[np.ix_(pos, pos)] = mat
    return out


def embed(op: DenseOperator, shape_big: TruncationShape) -> DenseOperator:
    """Copy matrix elements to the matching multi-indices of a larger shape."""
    if op.shape == shape_big:
        return op
    idx = _embedding_indices(op.shape, shape_big)
    return DenseOperator(shape_big, _embed_array(op.matrix, idx, dimension(shape_big)))


def project(
    op: DenseOperator, shape_small: TruncationShape
) -> tuple[DenseOperator, float]:
    """Restrict to a contained shape; also return ||M - P M P||_1.

    The trace norm of the discarded part is the certified loss a
    projection adds to the error budget.
    """
    if op.shape == shape_small:
        return op, 0.0
    idx = _embedding_indices(shape_small, op.shape)
    sub = op.matrix[np.ix_(idx, idx)]
    kept = np.zeros_like(op.matrix)
    kept[np.ix_(idx, idx)] = sub
    return DenseOperator(shape_small, sub), trace_norm(op.matrix - kept)


def trace_norm(op) -> float:
    """Sum of the singular values of a DenseOperator or a matrix."""
    mat = op.matrix if isinstance(op, DenseOperator) else np.asarray(op)
    if not np.all(np.isfinite(mat)):
        raise ValueError("trace norm of a non-finite matrix")
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def resize_step_fractions(step):
    """A grow or shrink step as exact rationals: a tuple for per-mode
    steps, one Fraction otherwise.  Both the solver's check of a step and
    grow and shrink convert through here, so they agree on its value
    (a float below 5e-13 is 0)."""
    if isinstance(step, Iterable) and not isinstance(step, (str, bytes)):
        return tuple(_as_fraction(s) for s in step)
    return _as_fraction(step)


def _resize_increment(shape: TruncationShape, step):
    """The increment that a grow or shrink step makes on a shape's base:
    whole per-mode increments on a Rect (a scalar applies to every mode),
    one rational cap increment on a WeightedTotal.  A step the base does
    not take raises ShapeError."""
    shape = base_shape(shape)
    inc = resize_step_fractions(step)
    if isinstance(shape, WeightedTotal):
        if isinstance(inc, tuple):
            raise ShapeError(
                f"a WeightedTotal takes one cap step, not per-mode steps {step!r}"
            )
        return inc
    if not isinstance(inc, tuple):
        inc = (inc,) * shape.mode_count
    elif len(inc) != shape.mode_count:
        raise ShapeError("per-mode step length does not match mode count")
    if any(s.denominator != 1 for s in inc):
        raise ShapeError(f"a Rect takes whole steps, got {step!r}")
    return tuple(int(s) for s in inc)


def grow(shape: TruncationShape, step) -> TruncationShape:
    """Enlarge a shape: Rect adds a per-mode increment, WeightedTotal raises
    the cap, a Sector grows its base.  A positive step on a WeightedTotal
    raises the cap at least to the next grade, so the grown shape always
    holds a new state."""
    if isinstance(shape, Sector):
        return shape.with_base(grow(shape.base, step))
    inc = _resize_increment(shape, step)
    if isinstance(shape, Rect):
        if any(s < 0 for s in inc):
            raise ShapeError("grow step must be non-negative")
        return Rect([c + s for c, s in zip(shape.caps, inc)])
    if inc < 0:
        raise ShapeError("grow step must be non-negative")
    cap = shape.cap + inc
    if 0 < inc < min(shape.weights):
        # a step of at least the smallest weight reaches the next grade:
        # one more quantum of the lightest mode on a state of the top grade
        cap = max(cap, _next_grade(shape))
    return WeightedTotal(shape.weights, cap)


def _next_grade(shape: WeightedTotal) -> Fraction:
    """The smallest grade above the cap.  A state of that grade loses a
    quantum of some mode and lands inside the shape, so it is a basis
    state's grade plus one weight."""
    grades = (shape.grade(s) for s in basis_map(shape).states)
    return min(g + w for g in grades for w in shape.weights if g + w > shape.cap)


def shrink(shape: TruncationShape, step) -> TruncationShape:
    """Mirror of grow; errors if any cap would become negative."""
    if isinstance(shape, Sector):
        return shape.with_base(shrink(shape.base, step))
    dec = _resize_increment(shape, step)
    if isinstance(shape, Rect):
        new_caps = tuple(c - s for c, s in zip(shape.caps, dec))
        if any(c < 0 for c in new_caps):
            raise ShapeError(f"shrink would drop a cap below zero: {new_caps}")
        return Rect(new_caps)
    new_cap = shape.cap - dec
    if new_cap < 0:
        raise ShapeError(f"shrink would drop the cap below zero: {new_cap}")
    return WeightedTotal(shape.weights, new_cap)


def _grow_by_margin(shape: TruncationShape, margin: Sequence[int]) -> TruncationShape:
    """Grow a shape by a per-mode margin, converting to a grade increment
    for weighted shapes."""
    margin = tuple(int(m) for m in margin)
    if all(m == 0 for m in margin):
        return shape
    if isinstance(shape, Sector):
        return shape.with_base(_grow_by_margin(shape.base, margin))
    if isinstance(shape, Rect):
        return grow(shape, margin)
    inc = sum(w * m for w, m in zip(shape.weights, margin))
    return grow(shape, inc)
