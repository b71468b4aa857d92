"""Lindblad model definition and application on truncated spaces.

A model is shape-independent: Hamiltonian terms (time-dependent scalar
coefficient times an operator expression) plus a list of jump-operator
expressions.  Expressions are polynomial words, GKP-type composites
A*exp(i eta q)(Id - eps p) - Id conjugated by Fock rotations, or cosines
of linear q/p combinations.  Truncations are always exact: polynomial
content goes through ``materialize_poly`` and unitary content through
the displacement closed form, so applying the truncated generator on an
adequately grown shape reproduces the untruncated action on states
supported in the original shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np
from scipy import sparse

from .fockspace import (
    DenseOperator,
    TruncationShape,
    _grow_by_margin,
    basis_map,
    dimension,
)
from .operators import (
    PolyOperator,
    _offband_pad,
    cosine_of,
    displacement_block,
    materialize_poly,
)

__all__ = [
    "CoefficientFn",
    "PolyExpr",
    "GkpDissipator",
    "CosineExpr",
    "OperatorExpr",
    "LindbladModel",
    "DensityState",
    "ModelError",
    "growth_margin",
    "grown_shape",
    "conserved_charges",
    "real_gauge",
    "gauged_model",
    "gauge_phases",
    "truncated_expr",
]

SPARSE_DIM_THRESHOLD = 64


class ModelError(ValueError):
    """Model construction or validation failure."""


@dataclass(frozen=True, eq=False)
class CoefficientFn:
    """Time-dependent scalar coefficient with optional regularity bounds.

    ``sup`` and ``dsup`` dominate |u| and |u'| over the run interval;
    they unlock the explicit-Euler time certificate and are never
    estimated by sampling.
    """

    fn: Callable[[float], float]
    sup: float | None = None
    dsup: float | None = None
    const_value: float | None = None
    label: str = "u(t)"

    def __call__(self, t: float) -> float:
        if self.const_value is not None:
            return self.const_value
        return float(self.fn(t))

    @property
    def is_constant(self) -> bool:
        return self.const_value is not None

    @classmethod
    def constant(cls, value: float) -> "CoefficientFn":
        value = float(value)
        return cls(
            fn=lambda t: value,
            sup=abs(value),
            dsup=0.0,
            const_value=value,
            label=repr(value),
        )


@dataclass(frozen=True)
class PolyExpr:
    poly: PolyOperator


@dataclass(frozen=True)
class GkpDissipator:
    """A * exp(i eta q) (Id - eps p) - Id, conjugated by R^sector."""

    amplitude: float
    eta: float
    eps: float
    sector: int = 0

    def __post_init__(self):
        if self.sector not in (0, 1, 2, 3):
            raise ModelError("GKP sector must be 0..3")


@dataclass(frozen=True)
class CosineExpr:
    """cos(O) with O a real linear combination of q and p operators."""

    arg: PolyOperator


OperatorExpr = Union[PolyExpr, GkpDissipator, CosineExpr]


@dataclass(frozen=True, eq=False)
class LindbladModel:
    mode_count: int
    hamiltonian: tuple[tuple[CoefficientFn, OperatorExpr], ...] = ()
    dissipators: tuple[OperatorExpr, ...] = ()

    def __init__(self, mode_count, hamiltonian=(), dissipators=()):
        object.__setattr__(self, "mode_count", int(mode_count))
        object.__setattr__(self, "hamiltonian", tuple(hamiltonian))
        object.__setattr__(self, "dissipators", tuple(dissipators))
        object.__setattr__(self, "kind", self._classify())

    def _classify(self) -> str:
        exprs = [expr for _, expr in self.hamiltonian] + list(self.dissipators)
        for coeff, _ in self.hamiltonian:
            if not isinstance(coeff, CoefficientFn):
                raise ModelError("Hamiltonian coefficients must be CoefficientFn")
        if any(isinstance(e, GkpDissipator) for e in exprs):
            if self.hamiltonian or not all(
                isinstance(e, GkpDissipator) for e in self.dissipators
            ):
                raise ModelError(
                    "GKP jump operators cannot be mixed with the generic path"
                )
            if self.mode_count != 1:
                raise ModelError("GKP models are single-mode")
            return "gkp"
        if any(isinstance(e, CosineExpr) for e in exprs):
            if self.dissipators or not all(
                isinstance(e, CosineExpr) for _, e in self.hamiltonian
            ):
                raise ModelError(
                    "cosine terms cannot be mixed with the generic path; "
                    "cosine jump operators are unsupported"
                )
            return "cosine"
        for e in exprs:
            if not isinstance(e, PolyExpr):
                raise ModelError(f"unknown operator expression {e!r}")
            if e.poly.mode_count != self.mode_count:
                raise ModelError("operator mode count does not match model")
        return "poly"

    @property
    def is_time_invariant(self) -> bool:
        return all(c.is_constant for c, _ in self.hamiltonian)


@dataclass(frozen=True, eq=False)
class DensityState:
    rho: DenseOperator
    time: float = 0.0


# ---------------------------------------------------------------------------
# growth margins
# ---------------------------------------------------------------------------


def growth_margin(model: LindbladModel) -> tuple[int, ...]:
    """Per-mode margin d with L(rho_N) = L_{N+d}(rho_N) for polynomial models.

    Hamiltonian terms contribute their per-mode word degree, jump
    operators twice theirs; jump operators whose defect vanishes
    identically (pure lowering structure) contribute nothing.
    """
    if model.kind != "poly":
        raise ModelError(
            "growth margin is defined for polynomial models only; GKP and "
            "cosine content uses its dedicated estimator path"
        )
    margin = [0] * model.mode_count
    for _, expr in model.hamiltonian:
        for j, d in enumerate(expr.poly.per_mode_degree()):
            margin[j] = max(margin[j], d)
    for expr in model.dissipators:
        if expr.poly.is_lowering_exact():
            continue
        for j, d in enumerate(expr.poly.per_mode_degree()):
            margin[j] = max(margin[j], 2 * d)
    return tuple(margin)


def grown_shape(model: LindbladModel, shape: TruncationShape, factor: int = 1) -> TruncationShape:
    """Shape enlarged by ``factor`` growth margins (weighted shapes grow
    their cap by the weighted margin)."""
    margin = growth_margin(model)
    return _grow_by_margin(shape, tuple(factor * m for m in margin))


def conserved_charges(model: LindbladModel) -> tuple[int, ...] | None:
    """Per-mode moduli m_j of the charges n_j mod m_j that every word of
    H and of each jump operator conserves.

    m_j is the gcd of mode j's word nets, so every word changes n_j by a
    multiple of m_j; m_j = 0 means no word changes n_j, which is then
    conserved itself.  Each charge sector is then mapped to itself by L
    and by every L_N (the weak symmetry of Buca and Prosen, New J. Phys.
    14, 073007, 2012).  None for non-polynomial models and when every
    m_j is 1.
    """
    if model.kind != "poly":
        return None
    moduli = [0] * model.mode_count
    exprs = [expr for _, expr in model.hamiltonian] + list(model.dissipators)
    for expr in exprs:
        for net in expr.poly.word_nets():
            moduli = [math.gcd(m, n) for m, n in zip(moduli, net)]
    if all(m == 1 for m in moduli):
        return None
    return tuple(moduli)


_I_POWERS = np.array([1, 1j, -1, -1j])


def _phased_terms(poly: PolyOperator, exponents) -> list:
    """The terms of ``poly`` with each word coefficient multiplied by
    i^(f . net), exactly (a power of i permutes and negates parts)."""
    return [
        (complex(c * _I_POWERS[sum(f * n for f, n in zip(exponents, net)) % 4]), w)
        for (c, w), net in zip(poly.terms, poly.word_nets())
    ]


def real_gauge(model: LindbladModel) -> tuple[int, ...] | None:
    """Exponents f of a diagonal Fock phase Phi = diag(i^(f . n)) in which
    the model is real, or None.

    Phi A Phi^dag multiplies entry (m, n) of an operator by i^(f.(m - n)),
    so a word's coefficient by i^(f . net).  The model is real in the
    gauge when, after that phase, every Hamiltonian word is purely
    imaginary (so -iH is real) and each jump operator's words are all
    real or all imaginary (a global phase drops out of D[Gamma]); L then
    maps real matrices to real matrices.  Adding 2 to an exponent
    multiplies a word by +-1, so f is searched in {0, 1}^modes.  None
    for non-polynomial models.
    """
    if model.kind != "poly":
        return None
    for f in itertools.product((0, 1), repeat=model.mode_count):
        h = [c for _, e in model.hamiltonian for c, _ in _phased_terms(e.poly, f)]
        jumps = [[c for c, _ in _phased_terms(e.poly, f)] for e in model.dissipators]
        if all(c.real == 0 for c in h) and all(
            all(c.imag == 0 for c in cs) or all(c.real == 0 for c in cs)
            for cs in jumps
        ):
            return f
    return None


@lru_cache(maxsize=64)
def gauged_model(model: LindbladModel, exponents: tuple[int, ...]) -> LindbladModel:
    """The model conjugated by Phi = diag(i^(f . n)): every word
    coefficient multiplied by i^(f . net).  Words that share a matrix
    entry share their net, so each truncation is exactly Phi A_N Phi^dag.
    The model itself when every exponent is 0."""
    if not any(exponents):
        return model

    def phased(expr):
        return PolyExpr(PolyOperator(model.mode_count, _phased_terms(expr.poly, exponents)))

    return LindbladModel(
        model.mode_count,
        hamiltonian=[(coeff, phased(expr)) for coeff, expr in model.hamiltonian],
        dissipators=[phased(expr) for expr in model.dissipators],
    )


@lru_cache(maxsize=256)
def gauge_phases(shape: TruncationShape, exponents: tuple[int, ...]) -> np.ndarray:
    """Read-only diagonal i^(f . n) of Phi over the basis of a shape, read
    from a table, so every entry is exact.  For one mode and f = (k,) it
    is the Fock rotation R^k, R = exp(i pi n / 2)."""
    states = np.array(basis_map(shape).states, dtype=np.int64)
    states = states.reshape(-1, shape.mode_count)
    phases = _I_POWERS[(states @ np.array(exponents, dtype=np.int64)) % 4]
    phases.setflags(write=False)
    return phases


def _phase_conjugate(mat: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Phi M Phi^dag for the diagonal Phi = diag(phases); with powers of i
    as phases every entry is exact.  Pass phases.conj() for Phi^dag M Phi."""
    return (phases[:, None] * mat) * phases.conj()[None, :]


# ---------------------------------------------------------------------------
# exact truncation of operator expressions
# ---------------------------------------------------------------------------


def _gkp_q_poly(amplitude: float, eps: float) -> PolyOperator:
    return amplitude * (
        PolyOperator.identity(1) - eps * PolyOperator.momentum(1, 0)
    )


def _single_mode_caps(shape: TruncationShape) -> np.ndarray:
    occ = basis_map(shape).occupations(0)
    if shape.mode_count != 1 or not np.array_equal(occ, np.arange(len(occ))):
        raise ModelError("GKP expressions require a single-mode shape with levels 0..N")
    return occ


@lru_cache(maxsize=64)
def _off_class_mask(shape: TruncationShape) -> np.ndarray:
    """Read-only mask of the entries (m, n) with m - n not divisible by 4.

    A rotation-invariant state, R rho R^dag = rho, holds exact zeros
    there: R^k rho R^-k multiplies entry (m, n) by i^(k (m - n)).
    """
    occ = _single_mode_caps(shape)
    mask = (occ[:, None] - occ[None, :]) % 4 != 0
    mask.setflags(write=False)
    return mask


def _sector1(block: np.ndarray, row0: int = 0) -> np.ndarray:
    """R B R^dag for R = diag(i^n) and a block B whose rows start at
    level ``row0`` and columns at level 0: entry (m, n) times i^(m - n),
    exactly.  A float64 array when the product's imaginary part is exactly
    zero, as for a block whose entries carry the phase i^(m - n)."""
    levels = np.arange(row0, row0 + block.shape[0])[:, None] - np.arange(block.shape[1])
    out = _I_POWERS[levels % 4] * block
    return out if out.imag.any() else out.real


class _GkpBlocks(NamedTuple):
    """The exact sector-1 blocks of one (A, eta, eps) (``_gkp_blocks``)."""

    f: np.ndarray  # F = P_perp U P_(N+1), the rows of U from N + 1
    q: np.ndarray  # P_(N+1) Q P_N
    v: np.ndarray  # P_(N+1) V P_N, complex
    qdq: np.ndarray  # P_(N+2) Q^dag Q P_N
    b: np.ndarray  # B = P_N U Q P_N = (P_N U P_(N+1)) (P_(N+1) Q P_N)


@lru_cache(maxsize=32)
def _gkp_blocks(amplitude: float, eta: float, eps: float, shape: TruncationShape) -> _GkpBlocks:
    """The exact blocks on the levels 0..N of Gamma = U Q - Id
    (U = exp(i eta q), Q = A (Id - eps p)) and of V = Id - eps p - eps eta q
    that the generator and the stabilizer bound read, all from one
    ``displacement_block`` table whose rows reach ``_offband_pad`` past
    level N + 1.  Each block is R X R^dag for R = diag(i^n)
    (``_sector1``): entry (m, n) of U, Q and p carries the phase
    i^(m - n), so every block is real there except V (q is imaginary),
    and B - Id is Gamma_1, the sector-1 truncation."""
    d = len(_single_mode_caps(shape))
    beta = 1j * eta / math.sqrt(2.0)
    table = displacement_block(d + 1 + _offband_pad(beta, d), d + 1, beta)
    q_poly = _gkp_q_poly(amplitude, eps)
    p, x = PolyOperator.momentum(1, 0), PolyOperator.position(1, 0)
    v_poly = PolyOperator.identity(1) - eps * p - eps * eta * x

    def block(poly, margin):
        """P_(N+margin) poly P_N, exact."""
        return _sector1(materialize_poly(poly, _grow_by_margin(shape, (margin,))).matrix[:, :d])

    q = block(q_poly, 1)
    f, b = _sector1(table[d:], row0=d), _sector1(table[:d]) @ q
    return _GkpBlocks(f, q, block(v_poly, 1), block(q_poly.dag() * q_poly, 2), b)


def _gkp_truncated_gamma(
    amplitude: float, eta: float, eps: float, sector: int, shape: TruncationShape
) -> DenseOperator:
    """Exact P (R^k Gamma_0 R^-k) P = R^(k-1) Gamma_1 R^(1-k), with
    Gamma_1 = B - Id from ``_gkp_blocks`` and the exact phases R^(k-1)."""
    gamma1 = _gkp_blocks(amplitude, eta, eps, shape).b - np.eye(dimension(shape))
    phases = gauge_phases(shape, ((sector - 1) % 4,))
    return DenseOperator(shape, _phase_conjugate(gamma1, phases))


def truncated_expr(expr: OperatorExpr, shape: TruncationShape) -> DenseOperator:
    """Exact truncation of an operator expression to a shape."""
    if isinstance(expr, PolyExpr):
        return materialize_poly(expr.poly, shape)
    if isinstance(expr, GkpDissipator):
        return _gkp_truncated_gamma(
            expr.amplitude, expr.eta, expr.eps, expr.sector, shape
        )
    if isinstance(expr, CosineExpr):
        return cosine_of(expr.arg, shape)
    raise ModelError(f"unknown operator expression {expr!r}")


# ---------------------------------------------------------------------------
# fast application of the truncated generator
# ---------------------------------------------------------------------------


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """C-contiguous conjugate transpose; a transposing copy conjugated in
    place is faster than ``mat.conj().T`` arithmetic at reference sizes."""
    adj = np.ascontiguousarray(mat.T)
    if adj.dtype.kind == "c":
        np.conjugate(adj, out=adj)
    return adj


def _real_form(mat: np.ndarray, scale: complex = 1.0):
    """(matrix, factor) with factor * matrix == scale * mat exactly, the
    matrix a float64 view when ``mat`` is purely imaginary or real, and
    the factor a float whenever it is real.  An all-zero ``mat`` counts
    as imaginary, so the -iH form of a zero H stays real."""
    if not mat.real.any():
        mat, scale = mat.imag, 1j * scale
    elif not mat.imag.any():
        mat = mat.real
    if isinstance(scale, complex) and scale.imag == 0:
        scale = scale.real
    return mat, scale


def _left_products(a, varying, t: float, rho: np.ndarray) -> np.ndarray:
    """A rho + sum_i u_i(t) factor_i op_i rho, each time-dependent term
    (coeff, factor, op) of ``varying`` skipped where u_i(t) = 0."""
    half = a @ rho
    for coeff, factor, op in varying:
        u = coeff(t)
        if u == 0.0:
            continue
        z = op @ rho
        z *= factor * u
        half += z
    return half


class _ShapedGenerator:
    """Materialized truncated operators of a model on one shape, in the
    form L_N(rho) = A rho + rho A^dag + sum_k w_k G_k rho G_k^dag.

    A = -(1/2) K - i sum_i u_i H_i (``a``) is one operator over the
    constant Hamiltonian terms, with K = sum_k G_k^dag G_k and every
    weight w_k = 1; each time-dependent term keeps its own -i H_i
    (``varying``), scaled by u_i(t) at every call.  Above a dimension
    threshold the operators are CSR (scipy's fast sparse-times-dense
    path): ladder-polynomial operators are banded, so this cuts the
    cost of one application by an order of magnitude at reference
    sizes.  A polynomial model takes each -i H_i and each jump (up to
    its global phase) in its real form (``_real_form``) when it has
    one, so A is real when they all are.  ``dtype`` is float64 when
    every stored operator and factor is real; the generator then maps
    a real state to a real state.  A GKP model whose dissipators form
    full rotation orbits also keeps a real orbit form (``orbits``, see
    ``_rotation_orbits``) for rotation-invariant states.
    """

    def __init__(self, model: LindbladModel, shape: TruncationShape):
        self.model = model
        self.shape = shape
        self.dim = dimension(shape)
        self.use_sparse = self.dim >= SPARSE_DIM_THRESHOLD

        def stored(mat, scale=1.0):
            """(factor, operator) of a truncation in storage form, in its
            real form for a polynomial model; GKP and cosine runs are
            complex, and their operators stay as they are."""
            if model.kind == "poly":
                mat, scale = _real_form(mat, scale)
            if self.use_sparse:
                return scale, sparse.csr_matrix(mat)
            return scale, np.ascontiguousarray(mat)

        # (weight, G), each jump up to its phase
        self.jumps = [
            (1.0, stored(truncated_expr(expr, shape).matrix)[1])
            for expr in model.dissipators
        ]
        square = (self.dim, self.dim)
        zero = sparse.csr_matrix(square) if self.use_sparse else np.zeros(square)
        a = -0.5 * sum((g.conj().T @ g for _, g in self.jumps), zero)
        self.varying = []  # (coeff, factor, op) with factor * op = -iH
        for coeff, expr in model.hamiltonian:
            factor, h = stored(truncated_expr(expr, shape).matrix, -1j)
            if coeff.is_constant:
                a = a + (factor * coeff.const_value) * h
            else:
                self.varying.append((coeff, factor, h))
        self.a = a
        self.orbits = _rotation_orbits(model, shape, a, self.jumps)
        self.dtype = np.result_type(
            np.float64,
            a.dtype,
            *(factor for _, factor, _ in self.varying),
            *(op.dtype for _, _, op in self.varying),
            *(g.dtype for _, g in self.jumps),
        )

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        """L_N(t, rho) for a Hermitian ``rho``, real when ``rho`` and the
        generator are; a real ``rho`` under a complex generator is taken
        as complex.

        Every product is taken from the left: with rho Hermitian,
        A rho + rho A^dag = Z + Z^dag for Z = A rho (plus the
        time-dependent terms -i u(t) H rho), and G rho G^dag =
        G (G rho)^dag.  On a non-Hermitian ``rho`` the result is not
        L_N(t, rho).

        A GKP model whose dissipators form full rotation orbits maps a
        rotation-invariant ``rho`` (exact zeros off the classes m = n
        mod 4) through its real orbit form, with the off-class entries
        set to zero: the orbit sum of R^k X R^-k is 4 X on the classes
        and 0 off them.  A real invariant ``rho`` gives a real result.
        """
        a, jumps, mask = self.a, self.jumps, None
        if self.orbits is not None and not rho[self.orbits.mask].any():
            mask, a, jumps = self.orbits
        elif self.dtype.kind == "c" and rho.dtype.kind != "c":
            rho = rho.astype(self.dtype)
        half = _left_products(a, self.varying, t, rho)
        out = _adjoint(half)
        out += half
        for weight, g in jumps:
            jump = g @ _adjoint(g @ rho)
            if weight != 1.0:
                jump *= weight
            out += jump
        if mask is not None:
            out[mask] = 0.0
        return out


class _OrbitForm(NamedTuple):
    mask: np.ndarray  # the off-class entries, m - n not divisible by 4
    a: object  # A = -(1/2) K, real
    jumps: list  # (4 m, Gamma_1), real


def _rotation_orbits(model: LindbladModel, shape: TruncationShape, a, jumps):
    """The real orbit form of a GKP model whose dissipators form full
    rotation orbits, from the generator's stored ``a`` and ``jumps``, else
    None.

    Full orbits: every (A, eta, eps) appears in each sector 0..3 equally
    often, m times.  The model is then its own R-gauge (R = diag(i^n)
    maps sector k to sector k + 1), and on rotation-invariant states one
    jump (4 m, Gamma_k) stands for the 4 m jumps of its orbit, whichever
    k represents it.  Entry (m, n) of Gamma_0 carries the phase
    i^(m - n), so sector 1's truncation Gamma_1 = R Gamma_0 R^dag is
    real exactly, and so is K = sum_k Gamma_k^dag Gamma_k, which
    commutes with R.  Both are tested exactly where they are stored (a
    CSR matrix's ``data``); the form is None if either is not real.
    """
    if model.kind != "gkp":
        return None
    counts: dict[tuple, list[int]] = {}
    sector1 = {}  # the stored Gamma_1 of each (A, eta, eps)
    for expr, (_, g) in zip(model.dissipators, jumps):
        key = (expr.amplitude, expr.eta, expr.eps)
        counts.setdefault(key, [0, 0, 0, 0])[expr.sector] += 1
        if expr.sector == 1:
            sector1[key] = g
    if any(min(c) != max(c) for c in counts.values()):
        return None
    if any((m.data if sparse.issparse(m) else m).imag.any() for m in [a, *sector1.values()]):
        return None
    # copied, so that a CSR matrix's data is contiguous as well
    return _OrbitForm(
        _off_class_mask(shape),
        a.real.copy(),
        [(4.0 * c[0], sector1[key].real.copy()) for key, c in counts.items()],
    )


@lru_cache(maxsize=64)
def shaped_generator(model: LindbladModel, shape: TruncationShape) -> _ShapedGenerator:
    return _ShapedGenerator(model, shape)

