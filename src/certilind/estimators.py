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

import numpy as np

from .fockspace import (
    DenseOperator,
    TruncationShape,
    _complement_indices,
    _embed_array,
    _embedding_indices,
    _grow_by_margin,
    basis_map,
    dimension,
    trace_norm,
)
from .lindblad import (
    CoefficientFn,
    LindbladModel,
    ModelError,
    _gkp_q_poly,
    _off_class_mask,
    _real_form,
    gauge_phases,
    grown_shape,
    shaped_generator,
    truncated_expr,
)
from .operators import (
    PolyOperator,
    _hermitian_eigvalsh,
    _hermitian_part,
    cosine_unitary_pair,
    displacement_block,
    displacement_q,
    materialize_poly,
)

__all__ = [
    "EstimatorLedger",
    "LedgerEntry",
    "EstimatorError",
    "LEDGER_KINDS",
    "xi_step",
    "model_space_defect",
    "unitary_offblock_norm",
    "cosine_defect",
    "taylor_step_bound",
    "euler_timedep_step_bound",
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


# ---------------------------------------------------------------------------
# PSD square-root traces and Hermitian trace norms
# ---------------------------------------------------------------------------


def tr_sqrt_psd(mat: np.ndarray, floor: float = RADICAND_EIG_FLOOR) -> float:
    """tr sqrt of a PSD-by-construction radicand.

    The matrix is symmetrized and eigen-clipped at zero; an eigenvalue
    below the floor signals an input that is not a truncated-unitary
    radicand and raises.
    """
    eigs = _hermitian_eigvalsh(mat)
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if eigs.size and eigs.min() < floor * scale:
        raise EstimatorError(
            f"radicand eigenvalue {eigs.min():.3e} below tolerance"
        )
    return float(np.sqrt(np.clip(eigs, 0.0, None)).sum())


def _hermitian_trace_norm(mat: np.ndarray) -> float:
    return float(np.abs(_hermitian_eigvalsh(mat)).sum())


# ---------------------------------------------------------------------------
# generic polynomial space defect
# ---------------------------------------------------------------------------


class _DefectContext:
    """The defect D = (L - L_N) rho of a polynomial model, from one
    application of the generator on the margin-grown shape.

    With P the shape and P_perp the rest of the grown shape, the grown
    generator gives the off blocks and the outer block of D exactly.
    Its inner block is -(1/2)(B rho + rho B), B = sum_k C_k^dag C_k for
    the boundary jumps C_k = P_perp Gamma_k P; when every C_k is zero,
    so are both diagonal blocks, and ||D||_1 is twice the singular-value
    sum of the off block.  B is real when the jumps are real or purely
    imaginary (``_real_form``), so a real ``rho`` keeps every product and
    the eigensolve real.
    """

    def __init__(self, model: LindbladModel, shape: TruncationShape):
        big = grown_shape(model, shape)
        self.pos = _embedding_indices(shape, big)
        self.perp = _complement_indices(shape, big)
        self.gen_big = shaped_generator(model, big)
        self.dim_big = dimension(big)
        self.boundary = None  # B, None when every C_k is zero
        for expr in model.dissipators:
            c = truncated_expr(expr, big).matrix[np.ix_(self.perp, self.pos)]
            c = _real_form(c)[0]
            if c.any():
                b = c.conj().T @ c
                self.boundary = b if self.boundary is None else self.boundary + b

    def defect(self, t: float, rho: np.ndarray) -> float:
        """||(L - L_N) rho||_1 for a Hermitian ``rho`` on the shape."""
        if self.perp.size == 0:
            return 0.0
        delta = self.gen_big.apply(t, _embed_array(rho, self.pos, self.dim_big))
        if self.boundary is None:
            off = delta[np.ix_(self.perp, self.pos)]
            return 2.0 * trace_norm(off)
        half = self.boundary @ rho
        half *= -0.5
        delta[np.ix_(self.pos, self.pos)] = half + half.conj().T
        return _hermitian_trace_norm(delta)


@lru_cache(maxsize=64)
def _defect_context(model: LindbladModel, shape: TruncationShape) -> _DefectContext:
    return _DefectContext(model, shape)


def model_space_defect(model: LindbladModel, t: float, rho: DenseOperator) -> float:
    """Certified bound on ||(L - L_N) rho||_1 for any supported model kind.

    Polynomial models get the exact value, computed on the margin-grown
    shape (see ``_DefectContext``).
    """
    mat = np.asarray(rho.matrix)
    if model.kind == "poly":
        return _defect_context(model, rho.shape).defect(t, mat)
    total = 0.0
    if model.kind == "gkp":
        # each rotated dissipator: the base-sector functional of the
        # rotated state.  On a rotation-invariant state the rotation
        # multiplies every nonzero entry by a phase that is exactly 1, so
        # every sector of an (A, eta, eps) takes sector 0's value
        invariant = not mat[_off_class_mask(rho.shape)].any()
        values = {}
        for diss in model.dissipators:
            key = (diss.amplitude, diss.eta, diss.eps, 0 if invariant else diss.sector)
            if key not in values:
                ctx = _gkp_context(diss.amplitude, diss.eta, diss.eps, rho.shape)
                values[key] = ctx.sector_defect(mat, key[3])
            total += values[key]
        return total
    # cosine Hamiltonian terms: commutator bound 2 |u| ||(cos O - (cos O)_N) rho||
    for coeff, expr in model.hamiltonian:
        total += 2.0 * abs(coeff(t)) * cosine_defect(expr.arg, rho)
    return total


# ---------------------------------------------------------------------------
# unitary estimates
# ---------------------------------------------------------------------------


def unitary_offblock_norm(u: np.ndarray, m: np.ndarray, rows=None) -> float:
    """Bound on ||P_perp U M||_1 for ``u`` the exact truncation of a
    unitary U to a shape S and ``m`` an operator on S.

    P projects onto S, or, with ``rows``, onto the sub-shape of S whose
    complement in S those row indices select.  The part of U M beyond S
    has the trace norm tr sqrt(M^dag (Id - u^dag u) M), by the
    truncated-unitary norm identity; the selected rows of u M add their
    own by the triangle inequality, so the value is exact without
    ``rows``.
    """
    return _offblock_norm(u, np.eye(m.shape[0]) - u.conj().T @ u, m, rows)


def _offblock_norm(u: np.ndarray, kernel: np.ndarray, m: np.ndarray, rows) -> float:
    """``unitary_offblock_norm`` with its kernel Id - u^dag u given."""
    total = tr_sqrt_psd(m.conj().T @ kernel @ m)
    if rows is not None:
        block = u[rows] @ m
        # a single row's trace norm is its Euclidean norm
        if block.shape[0] == 1:
            total += float(np.linalg.norm(block))
        else:
            total += trace_norm(block)
    return total


# ---------------------------------------------------------------------------
# GKP dissipator bound
# ---------------------------------------------------------------------------


class _GkpContext:
    """Exactly-truncated building blocks for the stabilizer defect bound,
    shared across rotation sectors and time steps."""

    def __init__(self, amplitude: float, eta: float, eps: float, shape: TruncationShape):
        if shape.mode_count != 1:
            raise EstimatorError("GKP bound requires a single-mode shape")
        g1 = _grow_by_margin(shape, (1,))
        g2 = _grow_by_margin(shape, (2,))
        self.dim = dimension(shape)
        self.dim2 = dimension(g2)
        self.pos = _embedding_indices(shape, g2)
        self.beyond = slice(self.dim, None)  # rows of g1 outside the shape
        pos_g1 = _embedding_indices(g1, g2)
        self.g1 = np.ix_(pos_g1, pos_g1)
        self.u2 = displacement_q(g2, eta).matrix  # exact truncation to g2
        self.w1 = self.u2[self.g1]  # U_(N+1)
        self.w1_dag = self.u2.conj().T[self.g1]
        u1 = np.zeros_like(self.u2)
        u1[self.g1] = self.w1  # U_(N+1) embedded in g2
        q_poly = _gkp_q_poly(amplitude, eps)
        self.q = materialize_poly(q_poly, g2).matrix
        qdq = materialize_poly(q_poly.dag() * q_poly, g2).matrix
        # BCH companion (Id - eps p - eps eta q), without the amplitude
        v_poly = (
            PolyOperator.identity(1)
            - eps * PolyOperator.momentum(1, 0)
            - eps * eta * PolyOperator.position(1, 0)
        )
        self.v = materialize_poly(v_poly, g2).matrix
        self.amplitude = amplitude
        self.shape = shape
        # state-independent kernel of the Q^dag Q mismatch term
        uq = u1 @ self.q
        uq[:, self.dim :] = 0.0  # U_(N+1) Q P_N
        s2 = uq.copy()
        s2[self.dim :, :] = 0.0  # P_N U Q P_N
        z = self.q.conj().T @ (u1.conj().T @ s2)
        z[self.dim :, :] = 0.0  # leading P_N
        self.a2_kernel = qdq - z
        # t1 = tr(Q rho Q^dag) - tr(P_N U Q rho Q^dag U^dag P_N) = Re tr(T rho)
        # with T = Q^dag (Id - U^dag P_N U) Q on the shape, stored transposed
        u_n = self.u2[: self.dim]
        t = self.q.conj().T @ (np.eye(self.dim2) - u_n.conj().T @ u_n) @ self.q
        self.t1_kernel = np.ascontiguousarray(t[np.ix_(self.pos, self.pos)].T)
        # Id - W^dag W of the two truncated unitaries of the off-block terms
        eye1 = np.eye(self.w1.shape[0])
        self.w1_kernel = eye1 - self.w1.conj().T @ self.w1
        self.w1_dag_kernel = eye1 - self.w1_dag.conj().T @ self.w1_dag

    def sector_defect(self, rho: np.ndarray, sector: int) -> float:
        if sector % 4:
            r = gauge_phases(self.shape, (sector,))
            rho = (r.conj()[:, None] * rho) * r[None, :]
        emb = _embed_array(rho, self.pos, self.dim2)

        t1 = max(float((self.t1_kernel * rho).sum().real), 0.0)

        # the off-block terms ||P_N_perp W M||_1 have M supported on g1,
        # where U_(N+1) is the exact truncation of W
        m_uq = self.q @ emb  # Q rho, exact, on g1
        x = m_uq @ self.q.conj().T  # Q rho Q^dag
        m_cross = x @ self.u2.conj().T
        m_cross[:, self.dim :] = 0.0  # right factor U^dag P_N
        t2 = 2.0 * _offblock_norm(
            self.w1, self.w1_kernel, m_cross[self.g1], self.beyond
        )

        t3 = trace_norm(self.a2_kernel @ emb)

        t4 = _offblock_norm(self.w1, self.w1_kernel, m_uq[self.g1], self.beyond)

        m_v = self.v @ emb
        t5 = self.amplitude * _offblock_norm(
            self.w1_dag, self.w1_dag_kernel, m_v[self.g1], self.beyond
        )

        return t1 + t2 + t3 + t4 + t5


@lru_cache(maxsize=32)
def _gkp_context(
    amplitude: float, eta: float, eps: float, shape: TruncationShape
) -> _GkpContext:
    return _GkpContext(amplitude, eta, eps, shape)


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
    return 0.5 * trace_norm(offband @ rr)


# ---------------------------------------------------------------------------
# time-discretization bounds
# ---------------------------------------------------------------------------


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
    iter_full = _embed_array(np.asarray(rho.matrix), pos, dim_big)
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


@lru_cache(maxsize=64)
def _euler_sub_models(model: LindbladModel):
    """The model split for the Euler bound: each time-dependent
    Hamiltonian term as its own model with a unit coefficient, paired
    with that coefficient, and one model of all time-invariant terms.
    Cached, so that ``shaped_generator`` builds each sub-model's
    generator once per shape."""
    unit = CoefficientFn.constant(1.0)
    varying = tuple(
        (coeff, LindbladModel(model.mode_count, hamiltonian=((unit, expr),)))
        for coeff, expr in model.hamiltonian
        if not coeff.is_constant
    )
    invariant = LindbladModel(
        model.mode_count,
        hamiltonian=[(c, e) for c, e in model.hamiltonian if c.is_constant],
        dissipators=model.dissipators,
    )
    return varying, invariant


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
    emb = _embed_array(np.asarray(rho.matrix), pos, dimension(big))
    varying, invariant = _euler_sub_models(model)
    varying = [(coeff, shaped_generator(sub, big)) for coeff, sub in varying]

    drift = 0.0
    for coeff, gen in varying:
        drift += coeff.dsup * _hermitian_trace_norm(gen.apply(t_n, emb))
    term1 = dt**2 * drift

    # L(t_n, rho), exact; its Hermitian part, because the generators
    # below take their products from one side
    m = _hermitian_part(shaped_generator(model, big).apply(t_n, emb))
    # sup_s ||L(s, M)||: the time-invariant part is a single exact norm,
    # time-dependent terms enter through their declared sup bounds
    second = 0.0
    for coeff, gen in varying:
        if coeff.sup != 0.0:
            second += coeff.sup * _hermitian_trace_norm(gen.apply(t_n, m))
    second += _hermitian_trace_norm(shaped_generator(invariant, big).apply(t_n, m))
    term2 = 0.5 * dt**2 * second

    term3 = dt * model_space_defect(model, t_n, rho)
    return term1 + term2 + term3
