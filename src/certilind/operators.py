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
    "displacement_block",
    "cosine_of",
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


def _int_power(z: complex, k: int) -> complex:
    """z**k for an integer k >= 0 by repeated squaring, the steps Python's
    ``**`` takes up to k = 100; above that ``**`` switches to exp/log, so
    (1j)**101 carries a residue that this product does not."""
    out, bit = 1 + 0j, 1
    while bit <= k:
        if k & bit:
            out *= z
        bit <<= 1
        z *= z
    return out


def _offset_diagonals(out, first, span, width, beta_phase, x, logb, lower):
    """Write the diagonals at offsets first..span-1 of a displacement block.

    Diagonal o holds <n + o|D|n> (``lower``) or <n|D|n + o> at
    n = 0..min(width, span - o) - 1: sqrt(n!/(n + o)!) |beta|^o
    exp(-x/2) L_n^(o)(x) times beta_phase^o.  The associated Laguerre
    values run the stable three-term recurrence in n for all offsets at
    once; at step n only the offsets whose diagonal is still that long
    take part, so every value is the one a per-offset loop computes.
    """
    offsets = np.arange(first, span)
    if offsets.size == 0:
        return
    counts = np.minimum(width, span - offsets)  # non-increasing
    lag = np.zeros((offsets.size, int(counts[0])))
    lag[:, 0] = 1.0
    if lag.shape[1] > 1:
        live = int(np.count_nonzero(counts > 1))
        lag[:live, 1] = 1.0 + offsets[:live] - x
    for n in range(1, lag.shape[1] - 1):
        live = int(np.count_nonzero(counts > n + 1))
        o = offsets[:live]
        lag[:live, n + 1] = (
            (2 * n + 1 + o - x) * lag[:live, n] - (n + o) * lag[:live, n - 1]
        ) / (n + 1)
    row, n = np.nonzero(np.arange(lag.shape[1])[None, :] < counts[:, None])
    o = offsets[row]
    logpref = 0.5 * (gammaln(n + 1) - gammaln(n + o + 1))
    logpref += o * logb - 0.5 * x
    phases = np.array([_int_power(beta_phase, int(k)) for k in offsets])
    vals = _stable_product(logpref, lag[row, n]) * phases[row]
    if lower:
        out[n + o, n] = vals
    else:
        out[n, n + o] = vals


def displacement_block(rows: int, cols: int, beta: complex) -> np.ndarray:
    """Matrix elements <m|D(beta)|n> for 0 <= m < rows, 0 <= n < cols.

    D(beta) = exp(beta a^dag - conj(beta) a).  Entry (m, n) carries the
    phase (beta/|beta|)^(m - n) below the diagonal and
    (-conj(beta)/|beta|)^(n - m) above it, each an exact product, so a
    purely imaginary beta gives entries that are exactly i^(m - n) times
    a real number.  Entries below 1e-300 are flushed to zero.
    """
    beta = complex(beta)
    out = np.zeros((rows, cols), dtype=np.complex128)
    if beta == 0:
        k = min(rows, cols)
        out[:k, :k] = np.eye(k)
        return out
    x = abs(beta) ** 2
    logb = math.log(abs(beta))
    _offset_diagonals(out, 0, rows, cols, beta / abs(beta), x, logb, lower=True)
    _offset_diagonals(
        out, 1, cols, rows, -beta.conjugate() / abs(beta), x, logb, lower=False
    )
    out[np.abs(out) < UNDERFLOW_FLUSH] = 0.0
    return out


def _offband_pad(beta: complex, top: int) -> int:
    """The number of rows past level ``top`` over which the off band of
    D(beta) restricted to levels n <= top is taken:
    8 |beta| sqrt(top + 1) + 8 |beta|^2, at least 30.  Past them the
    entries fall off faster than geometrically, far below the rounding
    of the values kept."""
    b = abs(beta)
    return max(30, int(math.ceil(8.0 * b * math.sqrt(top + 1.0) + 8.0 * b**2)))


def _stable_product(logpref: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """exp(logpref) * lag evaluated in log space to dodge under/overflow."""
    vals = np.zeros_like(lag)
    nz = lag != 0.0
    vals[nz] = np.sign(lag[nz]) * np.exp(logpref[nz] + np.log(np.abs(lag[nz])))
    return vals


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


@lru_cache(maxsize=64)
def _cosine_tables(arg: PolyOperator, shape: TruncationShape):
    """(states, tables) of cos O on a shape, for O a real q/p combination:
    the shape's basis as an occupation array, and per mode j the table
    <m|D(beta_j)|n> of U = exp(iO) = prod_j D(beta_j) over the levels n up
    to the mode's top level N_j and m up to ``_offband_pad`` past it."""
    c, d = _linear_qp_coefficients(arg)
    betas = (1j * c - d) / math.sqrt(2.0)
    states = np.array(basis_map(shape).states, dtype=np.intp).reshape(-1, len(betas))
    tables = tuple(
        displacement_block(n + 1 + _offband_pad(beta, n), n + 1, beta)
        for beta, n in zip(betas, states.max(axis=0).tolist())
    )
    for array in (states, *tables):
        array.setflags(write=False)
    return states, tables


def _tensor_entries(tables, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries <m|U|n> of U = prod_j D(beta_j) from its per-mode tables,
    for the occupation arrays ``rows`` (m) and ``cols`` (n)."""
    out = np.ones((len(rows), len(cols)), dtype=np.complex128)
    for j, table in enumerate(tables):
        out *= table[np.ix_(rows[:, j], cols[:, j])]
    return out


def cosine_of(arg: PolyOperator, shape: TruncationShape) -> DenseOperator:
    """Exact truncation of cos(O) = (U + U^dag)/2 with U = exp(iO)."""
    states, tables = _cosine_tables(arg, shape)
    return DenseOperator(shape, _hermitian_part(_tensor_entries(tables, states, states)))


def _cosine_offband(arg: PolyOperator, shape: TruncationShape) -> np.ndarray:
    """P_perp cos(O) P_N over the rows of the level tuples past the shape
    that the tables of ``_cosine_tables`` reach.  U^dag = P U P for the
    total parity P, so cos O = (U + U^dag)/2 equals U on the entries
    (m, n) with |m| + |n| even and is zero elsewhere."""
    states, tables = _cosine_tables(arg, shape)
    sizes = tuple(table.shape[0] for table in tables)
    outside = np.ones(math.prod(sizes), dtype=bool)
    outside[np.ravel_multi_index(tuple(states.T), sizes)] = False
    rows = np.stack(np.unravel_index(np.flatnonzero(outside), sizes), axis=1)
    band = _tensor_entries(tables, rows, states)
    band[(rows.sum(axis=1)[:, None] + states.sum(axis=1)) % 2 == 1] = 0.0
    return band


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
