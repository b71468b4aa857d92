"""Certified error bounds for truncated Lindblad dynamics.

Everything returned here is a rigorous upper bound (or the exact value)
of a trace-norm defect, suitable for accumulation into the certified
estimator xi.  Polynomial defects are computed exactly on margin-grown
shapes; unitary-type content is bounded through the truncated-unitary
norm identity ||P_perp U M||_1 = tr sqrt(M^dag (Id - U_N^dag U_N) M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fockspace import (
    DenseOperator,
    TruncationShape,
    _complement_indices,
    _embedding_indices,
    basis_map,
    contains,
    dimension,
)
from .lindblad import (
    LindbladModel,
    ModelError,
    grown_shape,
    shaped_generator,
    truncated_expr,
)
from .operators import (
    PolyOperator,
    _grow_by_margin,
    cosine_unitary_pair,
    displacement_block,
    materialize_poly,
)

__all__ = [
    "EstimatorLedger",
    "LedgerEntry",
    "EstimatorError",
    "LEDGER_KINDS",
    "xi_step",
    "space_defect_generic",
    "model_space_defect",
    "defect_drive_closed_form",
    "defect_cat_closed_form",
    "dissipator_defect_blocks",
    "unitary_offblock_norm",
    "unitary_dissipator_bound",
    "gkp_defect_bound",
    "cosine_defect",
    "taylor_step_bound",
    "euler_timedep_step_bound",
    "global_time_bound",
    "tr_sqrt_psd",
]

LEDGER_KINDS = (
    "space_defect",
    "shrink_jump",
    "init_projection",
    "time_taylor",
    "time_euler",
)

RADICAND_EIG_FLOOR = -1e-8
VALUE_NEGATIVE_SLACK = -1e-12


class EstimatorError(ValueError):
    """A certified quantity could not be produced."""


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    time: float
    kind: str
    value: float


@dataclass(frozen=True, eq=False)
class EstimatorLedger:
    """Accumulated certified bound xi with an append-only breakdown.

    A ledger is an immutable snapshot: the first ``_count`` entries of a
    log that successive snapshots share and only ever append to, so
    ``record`` costs O(1) amortized.  Recording on a snapshot whose log
    has already grown past it copies its prefix first, which keeps every
    snapshot's entries unchanged.
    """

    _log: list = field(default_factory=list, repr=False)
    _count: int = 0
    xi: float = 0.0

    @classmethod
    def empty(cls) -> "EstimatorLedger":
        return cls()

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._log[: self._count])

    def record(self, time: float, kind: str, value: float) -> "EstimatorLedger":
        if kind not in LEDGER_KINDS:
            raise EstimatorError(f"unknown ledger kind {kind!r}")
        value = float(value)
        if value < 0.0:
            if value < VALUE_NEGATIVE_SLACK:
                raise EstimatorError(f"negative certified value {value!r}")
            value = 0.0
        log = self._log
        if self._count and time < log[self._count - 1].time:
            raise EstimatorError("ledger times must be non-decreasing")
        if len(log) != self._count:
            log = log[: self._count]
        log.append(LedgerEntry(float(time), kind, value))
        return EstimatorLedger(log, self._count + 1, self.xi + value)


def xi_step(
    ledger: EstimatorLedger, t_new: float, defect_at_new_state: float, dt: float
) -> EstimatorLedger:
    """Rectangle-rule accumulation at the accepted step endpoint."""
    if dt <= 0:
        raise EstimatorError("step size must be positive")
    return ledger.record(t_new, "space_defect", dt * float(defect_at_new_state))


def global_time_bound(per_step_bounds: Iterable[float]) -> float:
    return float(sum(per_step_bounds))


# ---------------------------------------------------------------------------
# PSD square-root traces and structured Hermitian trace norms
# ---------------------------------------------------------------------------


def tr_sqrt_psd(mat: np.ndarray, floor: float = RADICAND_EIG_FLOOR) -> float:
    """tr sqrt of a PSD-by-construction radicand.

    The matrix is symmetrized and eigen-clipped at zero; an eigenvalue
    below the floor signals an input that is not a truncated-unitary
    radicand and raises.
    """
    sym = 0.5 * (mat + mat.conj().T)
    eigs = np.linalg.eigvalsh(sym)
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if eigs.size and eigs.min() < floor * scale:
        raise EstimatorError(
            f"radicand eigenvalue {eigs.min():.3e} below tolerance"
        )
    return float(np.sqrt(np.clip(eigs, 0.0, None)).sum())


def _hermitian_trace_norm(mat: np.ndarray) -> float:
    sym = 0.5 * (mat + mat.conj().T)
    return float(np.abs(np.linalg.eigvalsh(sym)).sum())


def _structured_defect_norm(
    delta: np.ndarray, pos_in: np.ndarray, pos_out: np.ndarray
) -> float:
    """Trace norm of a Hermitian defect on a grown shape.

    Commutator-only defects are block-anti-diagonal, so their norm is
    2 sum svd of the off block, far cheaper at reference sizes than a
    full eigendecomposition.  Diagonal blocks that are pure float residue
    enter through the triangle inequality with the rank-bounded estimate
    ||A||_1 <= sqrt(dim) ||A||_F; the fast path is taken only while that
    certified slack is negligible relative to the off-block value.
    """
    if pos_out.size:
        inner = delta[np.ix_(pos_in, pos_in)]
        outer = delta[np.ix_(pos_out, pos_out)]
        slack = math.sqrt(inner.shape[0]) * float(np.linalg.norm(inner))
        slack += math.sqrt(outer.shape[0]) * float(np.linalg.norm(outer))
        off_value = 2.0 * float(
            np.linalg.svd(delta[np.ix_(pos_out, pos_in)], compute_uv=False).sum()
        )
        if slack <= 1e-13 * off_value:
            return off_value + slack
    return _hermitian_trace_norm(delta)


# ---------------------------------------------------------------------------
# generic polynomial space defect
# ---------------------------------------------------------------------------


class _DefectContext:
    def __init__(self, model: LindbladModel, shape: TruncationShape):
        self.shape = shape
        self.big = grown_shape(model, shape)
        self.pos = _embedding_indices(shape, self.big)
        self.perp = _complement_indices(shape, self.big)
        self.gen_big = shaped_generator(model, self.big)
        self.gen_small = shaped_generator(model, shape)
        self.dim_big = dimension(self.big)

    def defect(
        self, t: float, rho: np.ndarray, applied: np.ndarray | None = None
    ) -> float:
        """||(L - L_N) rho||_1; ``applied`` is L_N(t, rho) when the caller
        already holds it, so that only the grown-shape generator runs."""
        if self.perp.size == 0:
            return 0.0
        emb = np.zeros((self.dim_big, self.dim_big), dtype=np.complex128)
        emb[np.ix_(self.pos, self.pos)] = rho
        delta = self.gen_big.apply(t, emb)
        if applied is None:
            applied = self.gen_small.apply(t, rho)
        delta[np.ix_(self.pos, self.pos)] -= applied
        return _structured_defect_norm(delta, self.pos, self.perp)


@lru_cache(maxsize=64)
def _defect_context(model: LindbladModel, shape: TruncationShape) -> _DefectContext:
    return _DefectContext(model, shape)


def space_defect_generic(
    model: LindbladModel,
    t: float,
    rho: DenseOperator,
    applied: np.ndarray | None = None,
) -> float:
    """||(L - L_N) rho||_1 computed exactly on the margin-grown shape.

    ``applied``, when given, is L_N(t, rho) as already computed (for
    instance the last stage of the time step that produced rho).
    """
    if model.kind != "poly":
        raise ModelError("generic space defect requires a polynomial model")
    ctx = _defect_context(model, rho.shape)
    return ctx.defect(t, np.asarray(rho.matrix), applied)


def model_space_defect(
    model: LindbladModel,
    t: float,
    rho: DenseOperator,
    applied: np.ndarray | None = None,
) -> float:
    """Certified bound on ||(L - L_N) rho||_1 for any supported model kind.

    ``applied`` is an already computed L_N(t, rho); the polynomial route
    reuses it, the GKP and cosine routes do not need it.
    """
    if model.kind == "poly":
        return space_defect_generic(model, t, rho, applied)
    if model.kind == "gkp":
        total = 0.0
        for diss in model.dissipators:
            total += _gkp_sector_defect(
                diss.amplitude, diss.eta, diss.eps, diss.sector, rho
            )
        return total
    # cosine Hamiltonian terms: commutator bound 2 |u| ||(cos O - (cos O)_N) rho||
    total = 0.0
    for coeff, expr in model.hamiltonian:
        total += 2.0 * abs(coeff(t)) * cosine_defect(expr.arg, rho)
    return total


# ---------------------------------------------------------------------------
# closed forms for the drive and cat models
# ---------------------------------------------------------------------------


def _last_two_indices(rho: DenseOperator) -> tuple[int, int]:
    if rho.shape.mode_count != 1:
        raise EstimatorError("closed form requires a single-mode shape")
    d = rho.dim
    return d - 1, d - 2


def defect_drive_closed_form(u_val: float, rho: DenseOperator) -> float:
    """||[H - H_N, rho]||_1 for H = u (a + a^dag): rank-one tail formula
    2|u| sqrt(N+1) sqrt(<N| rho^2 |N>)."""
    idx_n, _ = _last_two_indices(rho)
    n = idx_n
    col = rho.matrix[:, idx_n]
    row_norm_sq = float(np.vdot(col, col).real)
    return 2.0 * abs(u_val) * math.sqrt(n + 1.0) * math.sqrt(max(row_norm_sq, 0.0))


def defect_cat_closed_form(alpha: float, rho: DenseOperator) -> float:
    """||(D_Gamma - D_Gamma_N) rho||_1 for Gamma = a^2 - alpha^2.

    The defect is block-anti-diagonal with off block
    B = (alpha^2/2)(c2 |N+2><N| + c1 |N+1><N-1|) rho, so its norm is
    twice the trace norm of B, evaluated through the 2x2 Gram matrix of
    the two scaled rows of rho.
    """
    idx_n, idx_nm1 = _last_two_indices(rho)
    n = idx_n
    mat = rho.matrix
    col_n = mat[:, idx_n]
    r00 = float(np.vdot(col_n, col_n).real)
    if n >= 1:
        col_m = mat[:, idx_nm1]
        r11 = float(np.vdot(col_m, col_m).real)
        r10 = complex(np.vdot(col_m, col_n))
    else:
        r11, r10 = 0.0, 0.0
    gram = np.array(
        [
            [n * r11, math.sqrt(n * (n + 2.0)) * r10],
            [math.sqrt(n * (n + 2.0)) * np.conj(r10), (n + 2.0) * r00],
        ],
        dtype=np.complex128,
    )
    eigs = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return alpha**2 * math.sqrt(n + 1.0) * float(np.sqrt(eigs).sum())


# ---------------------------------------------------------------------------
# block decomposition for generic polynomial dissipators
# ---------------------------------------------------------------------------


def dissipator_defect_blocks(gamma: PolyOperator, rho: DenseOperator) -> float:
    """||(D_Gamma - D_Gamma_N) rho||_1 from the 2x2 block form.

    Assembled from d = (Gamma - Gamma_N) P_N, g = Gamma_N^dag (Gamma -
    Gamma_N) and k = P_perp (Gamma - Gamma_N)^dag (Gamma - Gamma_N) P_N,
    all realized exactly on the shape grown by twice the per-mode degree.
    """
    shape = rho.shape
    margin = tuple(2 * d for d in gamma.per_mode_degree())
    big = _grow_by_margin(shape, margin)
    pos = _embedding_indices(shape, big)
    perp = _complement_indices(shape, big)
    nbig = dimension(big)

    gamma_big = materialize_poly(gamma, big).matrix
    gamma_n = np.zeros_like(gamma_big)
    gamma_n[np.ix_(pos, pos)] = materialize_poly(gamma, shape).matrix

    diff = gamma_big - gamma_n
    d = diff.copy()
    if perp.size:
        d[:, perp] = 0.0  # (Gamma - Gamma_N) P_N
    g = gamma_n.conj().T @ diff
    k = diff.conj().T @ d
    if pos.size:
        k[pos, :] = 0.0  # P_perp projection on the left

    emb = np.zeros((nbig, nbig), dtype=np.complex128)
    emb[np.ix_(pos, pos)] = rho.matrix

    ddag = d.conj().T
    defect = d @ emb @ ddag
    defect += gamma_n @ emb @ ddag
    defect += d @ emb @ gamma_n.conj().T
    defect -= 0.5 * (k @ emb + ddag @ (d @ emb) + g.conj().T @ emb)
    defect -= 0.5 * (emb @ k.conj().T + (emb @ ddag) @ d + emb @ g)
    return _structured_defect_norm(defect, pos, perp)


# ---------------------------------------------------------------------------
# unitary estimates
# ---------------------------------------------------------------------------


def unitary_offblock_norm(
    u_small: DenseOperator, m: DenseOperator, shape_small: TruncationShape
) -> float:
    """||P_small_perp U M||_1 for U exactly truncated to M's shape.

    Uses the norm identity plus the norm of the between-shapes rows when
    shape_small is strictly inside the operator shape.
    """
    shape_big = u_small.shape
    if m.shape != shape_big:
        raise EstimatorError("operand must live on the unitary's shape")
    if not contains(shape_small, shape_big):
        raise EstimatorError("shape_small must be contained in the operator shape")
    mm = m.matrix
    uu = u_small.matrix
    radicand = mm.conj().T @ (np.eye(mm.shape[0]) - uu.conj().T @ uu) @ mm
    total = tr_sqrt_psd(radicand)
    if shape_small != shape_big:
        between = _complement_indices(shape_small, shape_big)
        rows = (uu @ mm)[between, :]
        total += float(np.linalg.svd(rows, compute_uv=False).sum())
    return total


def unitary_dissipator_bound(u_n: DenseOperator, rho: DenseOperator) -> float:
    """Upper bound on ||(D_U - D_U_N) rho||_1 for a truncated unitary.

    2 ||(Id - U_N^dag U_N) rho||_1 + 2 ||P_perp U rho U_N^dag||_1
    + tr(rho) - tr(U_N rho U_N^dag); the middle term carries the factor
    two of the two equal cross blocks.
    """
    if u_n.shape != rho.shape:
        raise EstimatorError("unitary and state must share a shape")
    uu = u_n.matrix
    rr = rho.matrix
    kmat = np.eye(uu.shape[0]) - uu.conj().T @ uu
    term1 = 2.0 * float(np.linalg.svd(kmat @ rr, compute_uv=False).sum())
    m = rr @ uu.conj().T
    term2 = 2.0 * tr_sqrt_psd(m.conj().T @ kmat @ m)
    term3 = float(np.trace(rr).real - np.trace(uu @ rr @ uu.conj().T).real)
    return term1 + term2 + max(term3, 0.0)


# ---------------------------------------------------------------------------
# GKP dissipator bound
# ---------------------------------------------------------------------------


class _GkpContext:
    """Exactly-truncated building blocks for the stabilizer defect bound,
    shared across rotation sectors and time steps."""

    def __init__(self, amplitude: float, eta: float, eps: float, shape: TruncationShape):
        if shape.mode_count != 1:
            raise EstimatorError("GKP bound requires a single-mode shape")
        self.shape = shape
        g1 = _grow_by_margin(shape, (1,))
        g2 = _grow_by_margin(shape, (2,))
        self.dim = dimension(shape)
        self.dim2 = dimension(g2)
        occ2 = basis_map(g2).occupations(0)
        self.pos_g1 = _embedding_indices(g1, g2)
        kmax = int(occ2.max())
        beta = 1j * eta / math.sqrt(2.0)
        table = displacement_block(kmax + 1, kmax + 1, beta)
        self.u2 = table[np.ix_(occ2, occ2)]  # exact truncation to g2
        u1 = np.zeros_like(self.u2)
        sub = np.ix_(self.pos_g1, self.pos_g1)
        u1[sub] = self.u2[sub]
        self.u1 = u1  # U_(N+1) embedded in g2
        q_poly = amplitude * (
            PolyOperator.identity(1) - eps * PolyOperator.momentum(1, 0)
        )
        self.q = materialize_poly(q_poly, g2).matrix
        self.qdq = materialize_poly(q_poly.dag() * q_poly, g2).matrix
        # BCH companion (Id - eps p - eps eta q), without the amplitude
        v_poly = (
            PolyOperator.identity(1)
            - eps * PolyOperator.momentum(1, 0)
            - eps * eta * PolyOperator.position(1, 0)
        )
        self.v = materialize_poly(v_poly, g2).matrix
        self.amplitude = amplitude
        occ_n = basis_map(shape).occupations(0)
        self.rot_phase = np.power(1j, occ_n % 4)
        self.n_count = dimension(shape)
        # state-independent kernel of the Q^dag Q mismatch term
        uq = self.u1 @ self.q
        uq[:, self.n_count :] = 0.0  # U_(N+1) Q P_N
        s2 = uq.copy()
        s2[self.n_count :, :] = 0.0  # P_N U Q P_N
        z = self.q.conj().T @ (self.u1.conj().T @ s2)
        z[self.n_count :, :] = 0.0  # leading P_N
        self.a2_kernel = self.qdq - z

    def _offblock_norm_from_g1(self, m_g2: np.ndarray, unitary: np.ndarray) -> float:
        """||P_N_perp W M||_1 for M supported on g1 and W with exact
        truncation ``unitary`` (g2-embedded, g1-supported)."""
        sub = np.ix_(self.pos_g1, self.pos_g1)
        m1 = m_g2[sub]
        w1 = unitary[sub]
        k1 = np.eye(m1.shape[0]) - w1.conj().T @ w1
        term = tr_sqrt_psd(m1.conj().T @ k1 @ m1)
        rows = (w1 @ m1)[self.n_count :, :]
        term += float(np.linalg.svd(rows, compute_uv=False).sum())
        return term

    def sector_defect(self, rho: np.ndarray, sector: int) -> float:
        if sector % 4:
            r = self.rot_phase ** (sector % 4)
            rho = (r.conj()[:, None] * rho) * r[None, :]
        emb = np.zeros((self.dim2, self.dim2), dtype=np.complex128)
        emb[: self.dim, : self.dim] = rho

        x = self.q @ emb @ self.q.conj().T  # Q rho Q^dag, exact, on g1
        uxu = self.u2 @ x @ self.u2.conj().T
        t1 = float(
            np.trace(x).real - np.trace(uxu[: self.dim, : self.dim]).real
        )
        t1 = max(t1, 0.0)

        m_cross = x @ self.u2.conj().T
        m_cross[:, self.dim :] = 0.0  # right factor U^dag P_N
        t2 = 2.0 * self._offblock_norm_from_g1(m_cross, self.u2)

        t3 = float(np.linalg.svd(self.a2_kernel @ emb, compute_uv=False).sum())

        m_uq = self.q @ emb  # Q rho, exact, on g1
        t4 = self._offblock_norm_from_g1(m_uq, self.u2)

        m_v = self.v @ emb
        t5 = self.amplitude * self._offblock_norm_from_g1(m_v, self.u2.conj().T)

        return t1 + t2 + t3 + t4 + t5


@lru_cache(maxsize=32)
def _gkp_context(
    amplitude: float, eta: float, eps: float, shape: TruncationShape
) -> _GkpContext:
    return _GkpContext(amplitude, eta, eps, shape)


def _gkp_sector_defect(
    amplitude: float, eta: float, eps: float, sector: int, rho: DenseOperator
) -> float:
    ctx = _gkp_context(amplitude, eta, eps, rho.shape)
    return ctx.sector_defect(np.asarray(rho.matrix), sector)


def gkp_defect_bound(
    amplitude: float, eta: float, eps: float, rho: DenseOperator
) -> float:
    """Bound on ||(L - L_N) rho||_1 for the four rotated stabilizer
    dissipators: sum over sectors of the base-sector functional applied
    to the rotated state."""
    return sum(
        _gkp_sector_defect(amplitude, eta, eps, k, rho) for k in range(4)
    )


# ---------------------------------------------------------------------------
# cosine estimate
# ---------------------------------------------------------------------------


def _cosine_offband(arg: PolyOperator, shape: TruncationShape) -> np.ndarray:
    """Rows of P_perp (U + U^dag) P_N over a window wide enough that the
    dropped tail has underflowed, from the exact matrix elements."""
    from .operators import _linear_qp_coefficients

    c, d = _linear_qp_coefficients(arg)
    betas = (1j * c - d) / math.sqrt(2.0)
    bm = basis_map(shape)
    m = shape.mode_count
    occ_max = [int(bm.occupations(j).max()) for j in range(m)]
    pads = [
        max(30, int(math.ceil(8.0 * abs(b) * math.sqrt(n + 1.0) + 8.0 * abs(b) ** 2)))
        for b, n in zip(betas, occ_max)
    ]
    tables = [
        displacement_block(n + p + 1, n + 1, b)
        for b, n, p in zip(betas, occ_max, pads)
    ]
    tables_wide = [
        displacement_block(n + 1, n + p + 1, b)
        for b, n, p in zip(betas, occ_max, pads)
    ]

    inside = set(bm.states)
    window = []

    def walk(prefix, j):
        if j == m:
            if prefix not in inside:
                window.append(prefix)
            return
        for k in range(occ_max[j] + pads[j] + 1):
            walk(prefix + (k,), j + 1)

    walk((), 0)

    cols = np.array(bm.states, dtype=np.int64)
    out = np.zeros((len(window), len(bm.states)), dtype=np.complex128)
    for r, state in enumerate(window):
        row_u = np.ones(len(bm.states), dtype=np.complex128)
        row_udag = np.ones(len(bm.states), dtype=np.complex128)
        for j in range(m):
            row_u *= tables[j][state[j], cols[:, j]]
            row_udag *= np.conj(tables_wide[j][cols[:, j], state[j]])
        out[r, :] = row_u + row_udag
    return out


def cosine_defect(arg: PolyOperator, rho: DenseOperator) -> float:
    """Exact ||(cos O - (cos O)_N) rho||_1 for O a real q/p combination.

    Equal to (1/2) tr sqrt(rho K rho) with K assembled from the exact
    truncations of exp(iO) and exp(2iO) through the block identity
    P U^2 P = A^2 + C B.  The radicand check keeps that form; the value
    itself is the singular-value sum of the exactly-known off band of
    (U + U^dag), which carries full double precision where the Gram form
    loses half the mantissa near its null space.
    """
    u, u2 = cosine_unitary_pair(arg, rho.shape)
    a = u.matrix
    eye = np.eye(a.shape[0])
    cb = u2.matrix - a @ a
    k = (eye - a.conj().T @ a) + (eye - a @ a.conj().T) + cb + cb.conj().T
    rr = rho.matrix
    tr_sqrt_psd(rr.conj().T @ k @ rr)  # PSD guard on the truncated radicand
    offband = _cosine_offband(arg, rho.shape)
    return 0.5 * float(np.linalg.svd(offband @ rr, compute_uv=False).sum())


# ---------------------------------------------------------------------------
# time-discretization bounds
# ---------------------------------------------------------------------------


def _embedded(rho: np.ndarray, pos: np.ndarray, dim_big: int) -> np.ndarray:
    out = np.zeros((dim_big, dim_big), dtype=np.complex128)
    out[np.ix_(pos, pos)] = rho
    return out


def taylor_step_bound(
    model: LindbladModel, rho: DenseOperator, dt: float, k: int
) -> float:
    """Per-step bound for the order-k Taylor scheme on a time-invariant
    polynomial model: the truncation mismatch of the first k generator
    powers plus the Taylor remainder, all realized on the shape grown by
    (k+1) margins."""
    if k < 1:
        raise EstimatorError("Taylor order must be at least 1")
    if model.kind != "poly":
        raise ModelError("time bounds require a polynomial model")
    if not model.is_time_invariant:
        raise ModelError("the Taylor bound requires a time-invariant model")
    shape = rho.shape
    big = grown_shape(model, shape, factor=k + 1)
    pos = _embedding_indices(shape, big)
    dim_big = dimension(big)
    gen_big = shaped_generator(model, big)
    gen_small = shaped_generator(model, shape)

    mismatch = np.zeros((dim_big, dim_big), dtype=np.complex128)
    iter_full = _embedded(np.asarray(rho.matrix), pos, dim_big)
    iter_trunc = np.asarray(rho.matrix)
    fact = 1.0
    for j in range(1, k + 1):
        iter_full = gen_big.apply(0.0, iter_full)
        iter_trunc = gen_small.apply(0.0, iter_trunc)
        fact *= j
        coeff = dt**j / fact
        mismatch += coeff * iter_full
        mismatch[np.ix_(pos, pos)] -= coeff * iter_trunc
    term1 = _hermitian_trace_norm(mismatch)
    iter_full = gen_big.apply(0.0, iter_full)
    term2 = dt ** (k + 1) / (fact * (k + 1)) * _hermitian_trace_norm(iter_full)
    return term1 + term2


def _per_term_generators(model: LindbladModel, shape: TruncationShape):
    """Materialized single-term applications on one shape."""
    terms = []
    for coeff, expr in model.hamiltonian:
        h = truncated_expr(expr, shape).matrix

        def ham_apply(rho, h=h):
            return -1j * (h @ rho - rho @ h)

        terms.append(("ham", coeff, ham_apply))
    for expr in model.dissipators:
        g = truncated_expr(expr, shape).matrix
        gdg = g.conj().T @ g

        def diss_apply(rho, g=g, gdg=gdg):
            return g @ rho @ g.conj().T - 0.5 * (gdg @ rho + rho @ gdg)

        terms.append(("diss", None, diss_apply))
    return terms


def euler_timedep_step_bound(
    model: LindbladModel, rho: DenseOperator, t_n: float, dt: float
) -> float:
    """Per-step bound for the explicit Euler scheme with time-dependent
    coefficients.

    dt^2 sum_i dsup_i ||L_0i rho||_1 covers the coefficient drift over
    the step, (dt^2/2) sup_s ||L(s, L(t_n, rho))||_1 is assembled from
    the declared sup bounds, and dt ||(L - L_N)(t_n) rho||_1 is the space
    defect.  Interval bounds are never sampled.
    """
    if model.kind != "poly":
        raise ModelError("time bounds require a polynomial model")
    for coeff, _ in model.hamiltonian:
        if coeff.is_constant:
            continue
        if coeff.sup is None or coeff.dsup is None:
            raise EstimatorError(
                f"coefficient {coeff.label} lacks sup/dsup bounds required "
                "by the Euler certificate"
            )
    shape = rho.shape
    big = grown_shape(model, shape, factor=2)
    pos = _embedding_indices(shape, big)
    dim_big = dimension(big)
    emb = _embedded(np.asarray(rho.matrix), pos, dim_big)
    terms = _per_term_generators(model, big)

    drift = 0.0
    for kind, coeff, apply_one in terms:
        if kind != "ham" or coeff.is_constant:
            continue
        drift += coeff.dsup * _hermitian_trace_norm(apply_one(emb))
    term1 = dt**2 * drift

    gen_big = shaped_generator(model, big)
    m = gen_big.apply(t_n, emb)  # L(t_n, rho), exact
    # sup_s ||L(s, M)||: the time-invariant part is a single exact norm,
    # time-dependent terms enter through their declared sup bounds
    const_part = np.zeros_like(m)
    second = 0.0
    for kind, coeff, apply_one in terms:
        if kind == "diss":
            const_part += apply_one(m)
        elif coeff.is_constant:
            if coeff.const_value != 0.0:
                const_part += coeff.const_value * apply_one(m)
        elif coeff.sup != 0.0:
            second += coeff.sup * _hermitian_trace_norm(apply_one(m))
    second += _hermitian_trace_norm(const_part)
    term2 = 0.5 * dt**2 * second

    term3 = dt * space_defect_generic(model, t_n, rho)
    return term1 + term2 + term3
