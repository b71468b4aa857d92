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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy import sparse

from .fockspace import (
    DenseOperator,
    TruncationShape,
    _embedding_indices,
    _grow_by_margin,
    base_shape,
    basis_map,
    dimension,
    grow,
)
from .operators import (
    PolyOperator,
    _displacement_table,
    cosine_of,
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
    "apply_truncated",
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
    parameters: tuple[tuple[str, float], ...] = ()

    def __init__(self, mode_count, hamiltonian=(), dissipators=(), parameters=()):
        object.__setattr__(self, "mode_count", int(mode_count))
        object.__setattr__(self, "hamiltonian", tuple(hamiltonian))
        object.__setattr__(self, "dissipators", tuple(dissipators))
        object.__setattr__(self, "parameters", tuple(parameters))
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


# ---------------------------------------------------------------------------
# exact truncation of operator expressions
# ---------------------------------------------------------------------------


def _gkp_q_poly(amplitude: float, eps: float) -> PolyOperator:
    return amplitude * (
        PolyOperator.identity(1) - eps * PolyOperator.momentum(1, 0)
    )


_I_POWERS = np.array([1, 1j, -1, -1j])


def _fock_rotation_phase(occ: np.ndarray, sector: int) -> np.ndarray:
    """Diagonal i^(sector n) of the Fock rotation R^sector, R = exp(i pi n / 2),
    at the occupations ``occ``; read from a table, so every entry is exact."""
    return _I_POWERS[(sector * occ) % 4]


def _single_mode_caps(shape: TruncationShape) -> np.ndarray:
    if shape.mode_count != 1:
        raise ModelError("GKP expressions require a single-mode shape")
    return basis_map(shape).occupations(0)


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


@lru_cache(maxsize=256)
def _gkp_truncated_gamma(
    amplitude: float, eta: float, eps: float, sector: int, shape: TruncationShape
) -> DenseOperator:
    """Exact P (R^k Gamma_0 R^-k) P via a one-step margin for the degree-1
    polynomial factor."""
    occ = _single_mode_caps(shape)
    big = grow(shape, 1)
    occ_big = basis_map(big).occupations(0)
    beta = 1j * eta / math.sqrt(2.0)
    u_block = _displacement_table(occ, occ_big, beta)  # P U P_(N+1)
    q_big = materialize_poly(_gkp_q_poly(amplitude, eps), big).matrix
    uq = u_block @ q_big[:, _embedding_indices(shape, big)]  # P U Q P, exact
    gamma0 = uq - np.eye(len(occ))
    if sector % 4:
        r = _fock_rotation_phase(occ, sector)
        gamma0 = (r[:, None] * gamma0) * r.conj()[None, :]
    return DenseOperator(shape, gamma0)


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


def _diagonal_of(mat) -> np.ndarray | None:
    """The diagonal of a dense or sparse matrix whose off-diagonal entries
    are all zero, else None."""
    diag = mat.diagonal().copy()
    nonzero = mat.count_nonzero() if sparse.issparse(mat) else np.count_nonzero(mat)
    return diag if nonzero == np.count_nonzero(diag) else None


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^dag) / 2, exactly Hermitian: the input the generator's
    one-sided products need."""
    out = mat + mat.conj().T
    out *= 0.5
    return out


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """C-contiguous conjugate transpose; a transposing copy conjugated in
    place is faster than ``mat.conj().T`` arithmetic at reference sizes."""
    adj = np.ascontiguousarray(mat.T)
    np.conjugate(adj, out=adj)
    return adj


class _ShapedGenerator:
    """Materialized truncated operators of a model on one shape.

    Above a dimension threshold the operators are CSR (scipy's fast
    sparse-times-dense path), and diagonal operators collapse to fused
    broadcast updates.  Ladder-polynomial operators are banded, so this
    cuts the cost of one generator application by an order of magnitude
    at reference sizes.  A charge sector takes the form its base shape
    takes, so its products round as the base shape's do on the sector
    block.
    """

    def __init__(self, model: LindbladModel, shape: TruncationShape):
        self.model = model
        self.shape = shape
        self.dim = dimension(shape)
        self.use_sparse = dimension(base_shape(shape)) >= SPARSE_DIM_THRESHOLD

        def factor(mat):
            return sparse.csr_matrix(mat) if self.use_sparse else mat

        self.h_diag = []  # (coeff, d_i - d_j grid) for diagonal H terms
        self.half_terms = []  # (coeff or None, scale, A): Z = scale u(t) A rho
        self.jumps = []
        self.k_grids = []  # fused -(gdg_i + gdg_j)/2 grids for diagonal gdg
        for coeff, expr in model.hamiltonian:
            h = truncated_expr(expr, shape).matrix
            diag = _diagonal_of(h)
            if diag is not None:
                self.h_diag.append((coeff, diag[:, None] - diag[None, :]))
            else:
                self.half_terms.append((coeff, -1j, factor(h)))
        gdgs = []
        for expr in model.dissipators:
            g = factor(truncated_expr(expr, shape).matrix)
            self.jumps.append(g)
            if self.use_sparse:
                gdg = (g.conj().T @ g).tocsr()
                gdg.sort_indices()
            else:
                gdg = g.conj().T @ g
            gdgs.append(gdg)
            kdiag = _diagonal_of(gdg)
            if kdiag is not None:
                self.k_grids.append(-0.5 * (kdiag[:, None] + kdiag[None, :]))
            else:
                self.half_terms.append((None, -0.5, gdg))
        self.orbits = _rotation_orbits(model, shape, self.jumps, gdgs)

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        """L_N(t, rho) for a Hermitian ``rho``.

        Every product is taken from the left: with rho Hermitian,
        -i[H, rho] = Z + Z^dag for Z = -i H rho, -(1/2){K, rho} = Y + Y^dag
        for Y = -(1/2) K rho, and G rho G^dag = G (G rho)^dag.  On a
        non-Hermitian ``rho`` the result is not L_N(t, rho).

        A GKP model whose dissipators form full rotation orbits maps a
        rotation-invariant ``rho`` (exact zeros off the classes m = n
        mod 4) to -(1/2){K, rho} + sum_orbits w Gamma_0 rho Gamma_0^dag
        with the off-class entries set to zero: the orbit sum of
        R^k X R^-k is 4 X on the classes and 0 off them.
        """
        if self.orbits is not None:
            mask, k_sum, reps = self.orbits
            if not rho[mask].any():
                half = k_sum @ rho
                half *= -0.5
                out = _adjoint(half)
                out += half
                for weight, g in reps:
                    jump = g @ _adjoint(g @ rho)
                    jump *= weight
                    out += jump
                out[mask] = 0.0
                return out
        half = None  # sum of the Z and Y terms
        for coeff, scale, op in self.half_terms:
            if coeff is not None:
                u = coeff(t)
                if u == 0.0:
                    continue
                scale = scale * u
            z = op @ rho
            z *= scale
            if half is None:
                half = z
            else:
                half += z
        if half is None:
            out = np.zeros_like(rho)
        else:
            out = _adjoint(half)
            out += half
        for g in self.jumps:
            out += g @ _adjoint(g @ rho)
        for coeff, grid in self.h_diag:
            u = coeff(t)
            if u == 0.0:
                continue
            hr = grid * rho
            hr *= -1j * u
            out += hr
        for grid in self.k_grids:
            out += grid * rho
        return out


def _rotation_orbits(model: LindbladModel, shape: TruncationShape, jumps, gdgs):
    """(off-class mask, K = sum Gamma_k^dag Gamma_k, [(4 m, Gamma_0)]) when
    the model's GKP dissipators form full rotation orbits, else None.

    Full orbits: every (A, eta, eps) appears in each sector 0..3 equally
    often, m times; its sector-0 jump then stands for the 4 m jumps of
    its orbit on rotation-invariant states.
    """
    if model.kind != "gkp":
        return None
    counts: dict[tuple, list[int]] = {}
    for expr in model.dissipators:
        key = (expr.amplitude, expr.eta, expr.eps)
        counts.setdefault(key, [0, 0, 0, 0])[expr.sector] += 1
    if any(min(c) != max(c) for c in counts.values()):
        return None
    reps = {}
    for expr, g in zip(model.dissipators, jumps):
        key = (expr.amplitude, expr.eta, expr.eps)
        if expr.sector == 0:
            reps.setdefault(key, (4.0 * counts[key][0], g))
    return _off_class_mask(shape), sum(gdgs[1:], gdgs[0]), list(reps.values())


@lru_cache(maxsize=64)
def shaped_generator(model: LindbladModel, shape: TruncationShape) -> _ShapedGenerator:
    return _ShapedGenerator(model, shape)


def apply_truncated(
    model: LindbladModel, t: float, rho: DenseOperator
) -> DenseOperator:
    """L_N(rho): commutator plus dissipators built from exactly-truncated
    operators on rho's shape.  ``rho`` must be Hermitian (see
    ``_ShapedGenerator.apply``)."""
    gen = shaped_generator(model, rho.shape)
    return DenseOperator(rho.shape, gen.apply(t, np.asarray(rho.matrix)))
