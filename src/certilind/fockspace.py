"""Finite truncations of multi-mode Fock spaces.

A truncation shape selects a finite set of occupation multi-indices
(k_1, ..., k_m).  Two variants are supported: per-mode caps (``Rect``)
and a weighted bound on the total excitation number (``WeightedTotal``).
A ``Sector`` keeps the states of either one that carry given per-mode
charges n_j mod m_j.  Basis enumeration is graded lexicographic and
deterministic, so dense indices are stable across runs.  All values here
are immutable.
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
    """Complex matrix over the basis of an explicit truncation shape."""

    shape: TruncationShape
    matrix: np.ndarray

    def __init__(self, shape: TruncationShape, matrix):
        arr = np.array(matrix, dtype=np.complex128, order="C")
        d = dimension(shape)
        if arr.shape != (d, d):
            raise ShapeError(f"matrix shape {arr.shape} does not match dimension {d}")
        arr.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def zeros(cls, shape: TruncationShape) -> "DenseOperator":
        d = dimension(shape)
        return cls(shape, np.zeros((d, d), dtype=np.complex128))

    @classmethod
    def identity(cls, shape: TruncationShape) -> "DenseOperator":
        return cls(shape, np.eye(dimension(shape), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "DenseOperator":
        return DenseOperator(self.shape, self.matrix.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def _check_same(self, other: "DenseOperator"):
        if self.shape != other.shape:
            raise ShapeError("operators live on different shapes")

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        self._check_same(other)
        return DenseOperator(self.shape, self.matrix + other.matrix)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._check_same(other)
        return DenseOperator(self.shape, self.matrix - other.matrix)

    def __neg__(self) -> "DenseOperator":
        return DenseOperator(self.shape, -self.matrix)

    def __mul__(self, scalar) -> "DenseOperator":
        return DenseOperator(self.shape, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        self._check_same(other)
        return DenseOperator(self.shape, self.matrix @ other.matrix)


def _embed_array(mat: np.ndarray, pos: np.ndarray, dim: int) -> np.ndarray:
    """``mat`` placed at rows and columns ``pos`` of a zero dim x dim matrix."""
    out = np.zeros((dim, dim), dtype=np.complex128)
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
    discarded = op.matrix - kept
    nrm = float(np.linalg.svd(discarded, compute_uv=False).sum())
    return DenseOperator(shape_small, sub), nrm


def _step_vector(shape: Rect, step) -> tuple[int, ...]:
    """Per-mode increments of a grow or shrink step on a Rect: one per
    mode, or a scalar applied to every mode."""
    if isinstance(step, Iterable) and not isinstance(step, (str, bytes)):
        inc = tuple(int(s) for s in step)
        if len(inc) != len(shape.caps):
            raise ShapeError("per-mode step length does not match mode count")
        return inc
    return (int(step),) * len(shape.caps)


def grow(shape: TruncationShape, step) -> TruncationShape:
    """Enlarge a shape: Rect adds a per-mode increment, WeightedTotal raises
    the cap, a Sector grows its base."""
    if isinstance(shape, Sector):
        return shape.with_base(grow(shape.base, step))
    if isinstance(shape, Rect):
        inc = _step_vector(shape, step)
        if any(s < 0 for s in inc):
            raise ShapeError("grow step must be non-negative")
        return Rect([c + s for c, s in zip(shape.caps, inc)])
    inc = _as_fraction(step)
    if inc < 0:
        raise ShapeError("grow step must be non-negative")
    return WeightedTotal(shape.weights, shape.cap + inc)


def shrink(shape: TruncationShape, step) -> TruncationShape:
    """Mirror of grow; errors if any cap would become negative."""
    if isinstance(shape, Sector):
        return shape.with_base(shrink(shape.base, step))
    if isinstance(shape, Rect):
        inc = _step_vector(shape, step)
        new_caps = tuple(c - s for c, s in zip(shape.caps, inc))
        if any(c < 0 for c in new_caps):
            raise ShapeError(f"shrink would drop a cap below zero: {new_caps}")
        return Rect(new_caps)
    dec = _as_fraction(step)
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
