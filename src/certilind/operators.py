"""Operator constructors on truncated Fock spaces.

Symbolic polynomials in per-mode creation/annihilation letters with
*exact* truncation-aware materialization, displacement-type truncated
unitaries via the stable Laguerre closed form, and Hermitian parts.

Exactness convention: ``materialize_poly(Q, shape)`` returns the true
P Q P of the untruncated operator, never the product of truncated
letters.  Each word acts on the integer occupations of the basis
states, rightmost letter first, with the ladder's square-root factors;
an entry is kept when the final occupation lies in the shape, so no
intermediate state meets a cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .fockspace import DenseOperator, TruncationShape, basis_map

__all__ = [
    "PolyOperator",
    "OperatorError",
    "materialize_poly",
    "displacement_q",
    "displacement_block",
    "cosine_of",
    "cosine_unitary_pair",
    "fock_density",
]

UNDERFLOW_FLUSH = 1e-300

# letter = (mode, is_creation); a word is a product of letters in
# multiplication order, the empty word is the identity
Letter = tuple[int, bool]
Word = tuple[Letter, ...]


class OperatorError(ValueError):
    """Invalid operator construction or incompatible operands."""


def _merge_terms(terms) -> tuple[tuple[complex, Word], ...]:
    acc: dict[Word, complex] = {}
    for coeff, word in terms:
        word = tuple((int(m), bool(d)) for m, d in word)
        acc[word] = acc.get(word, 0j) + complex(coeff)
    return tuple(sorted(((c, w) for w, c in acc.items() if c != 0), key=lambda cw: cw[1]))


@dataclass(frozen=True)
class PolyOperator:
    """Word-sum polynomial in per-mode annihilation/creation operators."""

    mode_count: int
    terms: tuple[tuple[complex, Word], ...]

    def __init__(self, mode_count: int, terms=()):
        mode_count = int(mode_count)
        if mode_count < 1:
            raise OperatorError("mode_count must be positive")
        merged = _merge_terms(terms)
        for _, word in merged:
            for mode, _ in word:
                if not 0 <= mode < mode_count:
                    raise OperatorError(f"letter mode {mode} out of range")
        object.__setattr__(self, "mode_count", mode_count)
        object.__setattr__(self, "terms", merged)

    # -- constructors ------------------------------------------------
    @classmethod
    def annihilator(cls, mode_count: int, mode: int) -> "PolyOperator":
        return cls(mode_count, [(1.0, ((mode, False),))])

    @classmethod
    def creator(cls, mode_count: int, mode: int) -> "PolyOperator":
        return cls(mode_count, [(1.0, ((mode, True),))])

    @classmethod
    def identity(cls, mode_count: int, coeff: complex = 1.0) -> "PolyOperator":
        return cls(mode_count, [(coeff, ())])

    @classmethod
    def position(cls, mode_count: int, mode: int) -> "PolyOperator":
        s = 1.0 / math.sqrt(2.0)
        return cls(mode_count, [(s, ((mode, False),)), (s, ((mode, True),))])

    @classmethod
    def momentum(cls, mode_count: int, mode: int) -> "PolyOperator":
        s = -1j / math.sqrt(2.0)
        return cls(mode_count, [(s, ((mode, False),)), (-s, ((mode, True),))])

    # -- algebra -----------------------------------------------------
    def __add__(self, other: "PolyOperator") -> "PolyOperator":
        if self.mode_count != other.mode_count:
            raise OperatorError("mode-count mismatch")
        return PolyOperator(self.mode_count, self.terms + other.terms)

    def __sub__(self, other: "PolyOperator") -> "PolyOperator":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PolyOperator):
            if self.mode_count != other.mode_count:
                raise OperatorError("mode-count mismatch")
            prod = [
                (c1 * c2, w1 + w2)
                for c1, w1 in self.terms
                for c2, w2 in other.terms
            ]
            return PolyOperator(self.mode_count, prod)
        return PolyOperator(
            self.mode_count, [(complex(other) * c, w) for c, w in self.terms]
        )

    def __rmul__(self, scalar):
        return self * scalar

    def dag(self) -> "PolyOperator":
        terms = [
            (c.conjugate(), tuple((m, not d) for m, d in reversed(w)))
            for c, w in self.terms
        ]
        return PolyOperator(self.mode_count, terms)

    # -- degree bookkeeping -------------------------------------------
    @property
    def degree(self) -> int:
        return max((len(w) for _, w in self.terms), default=0)

    def per_mode_degree(self) -> tuple[int, ...]:
        deg = [0] * self.mode_count
        for _, word in self.terms:
            for j in range(self.mode_count):
                deg[j] = max(deg[j], sum(1 for m, _ in word if m == j))
        return tuple(deg)

    def word_nets(self) -> tuple[tuple[int, ...], ...]:
        nets = []
        for _, word in self.terms:
            net = [0] * self.mode_count
            for m, d in word:
                net[m] += 1 if d else -1
            nets.append(tuple(net))
        return tuple(nets)

    def is_lowering_exact(self) -> bool:
        """True when the dissipator defect of this jump operator vanishes.

        Holds when every word shifts occupations by one common
        non-positive net vector, so Gamma rho_N and Gamma^dag Gamma rho_N
        never leave the truncated space.
        """
        nets = set(self.word_nets())
        if not nets:
            return True
        if len(nets) > 1:
            return False
        (net,) = nets
        return all(n <= 0 for n in net)


def _word_action(states: np.ndarray, word: Word):
    """Push every basis state through a word, rightmost letter first.

    Returns the columns the word does not annihilate, their final
    occupations, and the word's matrix elements, the square-root factors
    multiplied leftmost letter first.  Occupations are plain integers,
    so no intermediate state meets a cut.
    """
    cols = np.arange(len(states))
    occ = states.copy()
    factors = []
    for mode, dagger in reversed(word):
        if not dagger:
            alive = occ[:, mode] > 0
            cols, occ, factors = cols[alive], occ[alive], [f[alive] for f in factors]
        factors.append(np.sqrt(occ[:, mode] + float(dagger)))
        occ[:, mode] += 1 if dagger else -1
    vals = np.ones(len(cols))
    for f in reversed(factors):
        vals = vals * f
    return cols, occ, vals


@lru_cache(maxsize=512)
def materialize_poly(poly: PolyOperator, shape: TruncationShape) -> DenseOperator:
    """Exact truncation P Q P, built by index arithmetic on the basis.

    Each word maps a basis state to one occupation tuple with a
    square-root weight; the entry is kept when that tuple lies in
    `shape`.  Words are added in term order.
    """
    if poly.mode_count != shape.mode_count:
        raise OperatorError(
            f"polynomial has {poly.mode_count} modes, shape has {shape.mode_count}"
        )
    bm = basis_map(shape)
    states = np.array(bm.states, dtype=np.int64).reshape(-1, shape.mode_count)
    d = len(states)
    total = np.zeros((d, d), dtype=np.complex128)
    for coeff, word in poly.terms:
        cols, occ, vals = _word_action(states, word)
        rows = [bm.index.get(s, -1) for s in map(tuple, occ.tolist())]
        rows = np.array(rows, dtype=np.intp)
        inside = rows >= 0
        total[rows[inside], cols[inside]] += coeff * vals[inside]
    return DenseOperator(shape, total)


# ---------------------------------------------------------------------------
# displacement-type unitaries
# ---------------------------------------------------------------------------


def _laguerre_diag(offset: int, x: float, count: int) -> np.ndarray:
    """Associated Laguerre values L_n^(offset)(x) for n = 0..count-1,
    by the stable three-term recurrence in n."""
    vals = np.empty(count, dtype=np.float64)
    if count == 0:
        return vals
    vals[0] = 1.0
    if count == 1:
        return vals
    vals[1] = 1.0 + offset - x
    for n in range(1, count - 1):
        vals[n + 1] = (
            (2 * n + 1 + offset - x) * vals[n] - (n + offset) * vals[n - 1]
        ) / (n + 1)
    return vals


def displacement_block(rows: int, cols: int, beta: complex) -> np.ndarray:
    """Matrix elements <m|D(beta)|n> for 0 <= m < rows, 0 <= n < cols.

    D(beta) = exp(beta a^dag - conj(beta) a).  Entries below 1e-300 are
    flushed to zero.
    """
    beta = complex(beta)
    out = np.zeros((rows, cols), dtype=np.complex128)
    if beta == 0:
        k = min(rows, cols)
        out[:k, :k] = np.eye(k)
        return out
    x = abs(beta) ** 2
    logb = math.log(abs(beta))
    phase_lower = beta / abs(beta)
    phase_upper = -beta.conjugate() / abs(beta)
    for offset in range(rows):
        count = min(cols, rows - offset)
        if count <= 0:
            break
        lag = _laguerre_diag(offset, x, count)
        n = np.arange(count)
        logpref = 0.5 * (gammaln(n + 1) - gammaln(n + offset + 1))
        logpref += offset * logb - 0.5 * x
        vals = _stable_product(logpref, lag) * phase_lower**offset
        out[n + offset, n] = vals
    for offset in range(1, cols):
        count = min(rows, cols - offset)
        if count <= 0:
            break
        lag = _laguerre_diag(offset, x, count)
        m = np.arange(count)
        logpref = 0.5 * (gammaln(m + 1) - gammaln(m + offset + 1))
        logpref += offset * logb - 0.5 * x
        vals = _stable_product(logpref, lag) * phase_upper**offset
        out[m, m + offset] = vals
    out[np.abs(out) < UNDERFLOW_FLUSH] = 0.0
    return out


def _stable_product(logpref: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """exp(logpref) * lag evaluated in log space to dodge under/overflow."""
    vals = np.zeros_like(lag)
    nz = lag != 0.0
    vals[nz] = np.sign(lag[nz]) * np.exp(logpref[nz] + np.log(np.abs(lag[nz])))
    return vals


def _displacement_table(
    occ_rows: np.ndarray, occ_cols: np.ndarray, beta: complex
) -> np.ndarray:
    """<m|D(beta)|n> for the single-mode occupations m in ``occ_rows``
    and n in ``occ_cols``."""
    table = displacement_block(int(occ_rows.max()) + 1, int(occ_cols.max()) + 1, beta)
    return table[np.ix_(occ_rows, occ_cols)]


@lru_cache(maxsize=256)
def displacement_q(shape: TruncationShape, eta: float) -> DenseOperator:
    """Exact truncation of exp(i*eta*q) to a single-mode shape."""
    if shape.mode_count != 1:
        raise OperatorError("operation requires a single-mode shape")
    occ = basis_map(shape).occupations(0)
    beta = 1j * eta / math.sqrt(2.0)
    return DenseOperator(shape, _displacement_table(occ, occ, beta))


# ---------------------------------------------------------------------------
# cosine of a linear position/momentum combination
# ---------------------------------------------------------------------------


def _linear_qp_coefficients(arg: PolyOperator) -> tuple[np.ndarray, np.ndarray]:
    """Extract (c_j, d_j) from O = sum_j c_j q_j + d_j p_j.

    Rejects arguments that are not Hermitian degree-1 combinations.
    """
    m = arg.mode_count
    coeff_a = np.zeros(m, dtype=np.complex128)
    coeff_ad = np.zeros(m, dtype=np.complex128)
    for c, word in arg.terms:
        if len(word) == 0:
            if abs(c) > 1e-14:
                raise OperatorError("cosine argument must have no constant term")
            continue
        if len(word) != 1:
            raise OperatorError("cosine argument must be degree 1 in the letters")
        mode, dagger = word[0]
        if dagger:
            coeff_ad[mode] += c
        else:
            coeff_a[mode] += c
    if not np.allclose(coeff_a, coeff_ad.conjugate(), atol=1e-12):
        raise OperatorError("cosine argument must be a real q/p combination")
    c = math.sqrt(2.0) * coeff_ad.real
    d = math.sqrt(2.0) * coeff_ad.imag
    return c, d


def _tensor_displacement(
    shape: TruncationShape, betas: Sequence[complex]
) -> np.ndarray:
    bm = basis_map(shape)
    d = len(bm.states)
    out = np.ones((d, d), dtype=np.complex128)
    for mode, beta in enumerate(betas):
        occ = bm.occupations(mode)
        out *= _displacement_table(occ, occ, beta)
    return out


def cosine_unitary_pair(
    arg: PolyOperator, shape: TruncationShape
) -> tuple[DenseOperator, DenseOperator]:
    """Exact truncations of U = exp(iO) and U^2 for a linear q/p argument O."""
    c, d = _linear_qp_coefficients(arg)
    betas = (1j * c - d) / math.sqrt(2.0)
    u = DenseOperator(shape, _tensor_displacement(shape, betas))
    u2 = DenseOperator(shape, _tensor_displacement(shape, 2.0 * betas))
    return u, u2


def cosine_of(arg: PolyOperator, shape: TruncationShape) -> DenseOperator:
    """Exact truncation of cos(O) = (U + U^dag)/2 with U = exp(iO)."""
    u, _ = cosine_unitary_pair(arg, shape)
    return DenseOperator(shape, _hermitian_part(u.matrix))


# ---------------------------------------------------------------------------
# Hermitian parts
# ---------------------------------------------------------------------------


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^dag) / 2, exactly Hermitian: the input the generator's
    one-sided products need."""
    out = mat + mat.conj().T
    out *= 0.5
    return out


def _hermitian_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part (mat + mat^dag) / 2, ascending."""
    return np.linalg.eigvalsh(_hermitian_part(mat))


def fock_density(shape: TruncationShape, state: Sequence[int]) -> DenseOperator:
    """|k><k| as a density operator on the shape's basis."""
    bm = basis_map(shape)
    idx = bm.index[tuple(int(s) for s in state)]
    d = len(bm.states)
    out = np.zeros((d, d), dtype=np.complex128)
    out[idx, idx] = 1.0
    return DenseOperator(shape, out)
