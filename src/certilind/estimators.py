"""Certified error bounds for truncated Lindblad dynamics.

Everything returned here is a rigorous upper bound (or the exact value)
of a trace-norm defect, suitable for accumulation into the certified
estimator xi.  Polynomial defects are computed exactly on margin-grown
shapes.  Unitary-type content (the GKP stabilizers and cosine
Hamiltonians) is bounded through ||P_perp W M||_1: W's exactly known
rows past the shape, compressed once per shape into one factor whose
dropped rows enter as a stated tail.  No route forms a Gram radicand.
Nothing here truncates an operator: every block is the one the
generator's truncation reads (``lindblad._gkp_blocks``,
``operators._cosine_tables``, the grown generator's jumps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .fockspace import (
    DenseOperator,
    TruncationShape,
    _complement_indices,
    _embed_array,
    _embedding_indices,
    dimension,
    trace_norm,
)
from .lindblad import (
    CoefficientFn,
    LindbladModel,
    ModelError,
    _adjoint,
    _gkp_blocks,
    _left_products,
    _off_class_mask,
    _phase_conjugate,
    gauge_phases,
    grown_shape,
    shaped_generator,
)
from .operators import (
    PolyOperator,
    _cosine_offband,
    _hermitian_eigvalsh,
    _hermitian_part,
    materialize_poly,  # no caller here: the bench tracer rebinds this name
)

__all__ = [
    "EstimatorLedger",
    "LedgerEntry",
    "EstimatorError",
    "LEDGER_KINDS",
    "xi_step",
    "model_space_defect",
    "cosine_defect",
    "taylor_step_bound",
    "euler_timedep_step_bound",
]

LEDGER_KINDS = (
    "space_defect",
    "shrink_jump",
    "init_projection",
    "time_taylor",
    "time_euler",
)

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
            raise EstimatorError(f"negative certified value {value!r}")
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
# Hermitian trace norms
# ---------------------------------------------------------------------------


def _hermitian_trace_norm(mat: np.ndarray) -> float:
    return float(np.abs(_hermitian_eigvalsh(mat)).sum())


# ---------------------------------------------------------------------------
# generic polynomial space defect
# ---------------------------------------------------------------------------


def _grown_generator(model: LindbladModel, shape: TruncationShape, k: int = 1):
    """The generator on the shape grown by k margins, and the positions
    of the shape's basis states in it."""
    big = grown_shape(model, shape, factor=k)
    return shaped_generator(model, big), _embedding_indices(shape, big)


class _DefectContext:
    """The defect D = (L - L_N) rho of a polynomial model, from the rows
    of the margin-grown generator that cross the cut.

    With P the shape, P_perp the rest of the grown shape, rho = P rho P,
    A_perp = P_perp A P (and likewise each time-dependent -i H_i),
    C_k = P_perp G_k P and G_kN = P G_k P, D has the blocks
      off    X = A_perp rho + sum_i u_i(t) (-i H_i)_perp rho
                 + sum_k C_k rho G_kN^dag,
      outer  sum_k C_k rho C_k^dag,
      inner  -(1/2)(B rho + rho B), B = sum_k C_k^dag C_k.
    When every C_k is zero, so are the outer and inner blocks, and
    ||D||_1 is twice the singular-value sum of the m x d block X;
    otherwise D is assembled from its blocks for one eigensolve.  The
    slices keep the grown operators' storage and nonzero order, so X is
    entry for entry the P_perp-P block of the grown generator applied to
    the embedded rho.  The generator stores each jump in its real form
    when it has one, so B is real then, and a real ``rho`` keeps every
    product and the eigensolve real.
    """

    def __init__(self, model: LindbladModel, shape: TruncationShape):
        gen, pos = _grown_generator(model, shape)
        perp = _complement_indices(shape, gen.shape)
        self.empty = perp.size == 0
        self.dtype = gen.dtype
        self.a = gen.a[perp][:, pos]
        self.varying = [(coeff, factor, op[perp][:, pos]) for coeff, factor, op in gen.varying]
        self.jumps = []  # (C_k, G_kN) of each jump that takes a state across the cut
        self.boundary = None  # B, None when every C_k is zero
        for _, g in gen.jumps:
            c = g[perp][:, pos]
            dense = c.toarray() if sparse.issparse(c) else c
            if dense.any():
                self.jumps.append((c, g[pos][:, pos]))
                b = dense.conj().T @ dense
                self.boundary = b if self.boundary is None else self.boundary + b

    def defect(self, t: float, rho: np.ndarray) -> float:
        """||(L - L_N) rho||_1 for a Hermitian ``rho`` on the shape."""
        if self.empty:
            return 0.0
        if self.dtype.kind == "c" and rho.dtype.kind != "c":
            rho = rho.astype(self.dtype)
        off = _left_products(self.a, self.varying, t, rho)
        for c, g in self.jumps:
            off += c @ _adjoint(g @ rho)
        if self.boundary is None:
            return 2.0 * trace_norm(off)
        d = rho.shape[0]
        delta = np.empty((d + off.shape[0],) * 2, dtype=off.dtype)
        half = self.boundary @ rho
        half *= -0.5
        delta[:d, :d] = half + half.conj().T
        delta[d:, :d] = off
        delta[:d, d:] = off.conj().T
        delta[d:, d:] = sum(c @ _adjoint(c @ rho) for c, _ in self.jumps)
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
        # each rotated dissipator: the sector-1 functional of the rotated
        # state.  On a rotation-invariant state the rotation multiplies
        # every nonzero entry by a phase that is exactly 1, so every
        # sector of an (A, eta, eps) takes sector 1's value, which needs
        # no phase product
        invariant = not mat[_off_class_mask(rho.shape)].any()
        values = {}
        for diss in model.dissipators:
            key = (diss.amplitude, diss.eta, diss.eps, 1 if invariant else diss.sector)
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
# GKP dissipator bound
# ---------------------------------------------------------------------------


def _compressed(factor: np.ndarray):
    """(S_r Vh_r, S_d Vh_d) from the SVD factor = W S Vh: the rows of the
    singular values above n eps sigma_max (n the column count), and of
    the dropped ones.  W is an isometry, so ||factor M||_1 <=
    ||S_r Vh_r M||_1 + ||S_d Vh_d M||_1; a zero factor keeps no row."""
    _, sv, vh = np.linalg.svd(factor, full_matrices=False)
    rank = int(np.count_nonzero(sv > factor.shape[1] * np.finfo(float).eps * sv[0]))
    rows = sv[:, None] * vh
    return rows[:rank], rows[rank:]


class _GkpContext:
    """Exactly truncated building blocks of the stabilizer defect bound of
    one (A, eta, eps) on a single-mode shape with levels 0..N, shared
    across rotation sectors and time steps.

    With U = exp(i eta q), Q = A (Id - eps p) and V = Id - eps p -
    eps eta q, the dissipator Gamma = U Q - Id has, on rho = P_N rho P_N,
    the bound t1 + ... + t5 of ||(L - L_N) rho||_1, where B = P_N U Q P_N
    and P_(N+1) Q P_N is the exact degree-1 block:
      t1 = Re tr((Q^dag P_(N+1) Q - B^dag B) rho), the trace lost;
      t2 = 2 ||P_perp U Q rho B^dag||_1 and t4 = ||P_perp U Q rho||_1,
      the off blocks of the jump sandwich;
      t3 = ||Q^dag Q rho - B^dag B rho||_1, the anticommutator mismatch;
      t5 = A ||P_perp U^dag V rho||_1, the BCH companion term.
    Every off-block norm ||P_perp W M||_1 is taken from one factor, with
    no row split: F = P_perp U P_(N+1), the exact rows of U from N + 1
    over the window of ``operators._offband_pad``, or, for
    U^dag = D(-beta) = P D(beta) P (P the parity), the parity-flipped F.  F and t3's kernel
    are compressed once by one SVD each (``_compressed``): their kept
    rows are folded into the fixed left factors, and each dropped part
    enters as the explicit tail ||dropped left||_1 ||right||_2 ||rho||_F,
    which dominates its share by Hoelder's inequality (the spectral norm
    of rho is at most its Frobenius norm).  So one step takes one
    stacked product and four small SVDs, and no eigensolve.

    The blocks are those the generator's truncation reads
    (``lindblad._gkp_blocks``), in the sector-1 frame R X R^dag for
    R = diag(i^n), where every block is real except V.  Sector s is
    evaluated on R^(1-s) rho R^(s-1).
    """

    def __init__(self, amplitude: float, eta: float, eps: float, shape: TruncationShape):
        f, q, v, qdq, b = _gkp_blocks(amplitude, eta, eps, shape)
        d = self.dim = dimension(shape)
        self.shape = shape
        self.amplitude = amplitude
        bdb = b.conj().T @ b
        self.t1_kernel = np.ascontiguousarray((q.conj().T @ q - bdb).T)
        self.b_adj = np.ascontiguousarray(b.conj().T)
        kernel3 = qdq.copy()
        kernel3[:d] -= bdb
        g, g_dropped = _compressed(f)
        g3, g3_dropped = _compressed(kernel3)
        # U^dag's rows: the parity flips the columns (and the row's sign)
        parity = (-1.0) ** np.arange(d + 1)
        g_v = (g * parity) @ v
        self.rank = g.shape[0]
        self.left = np.vstack([g @ q, g_v.real, g_v.imag, g3])
        self.tail = (
            trace_norm(g_dropped @ q) * (1.0 + 2.0 * np.linalg.norm(b, 2))
            + amplitude * trace_norm((g_dropped * parity) @ v)
            + trace_norm(g3_dropped)
        )

    def sector_defect(self, rho: np.ndarray, sector: int) -> float:
        if sector != 1:
            rho = _phase_conjugate(rho, gauge_phases(self.shape, ((1 - sector) % 4,)))
        t1 = max(float((self.t1_kernel * rho).sum().real), 0.0)
        r = self.rank
        y = self.left @ rho
        x4, x5, x3 = y[:r], y[r : 2 * r] + 1j * y[2 * r : 3 * r], y[3 * r :]
        t2 = 2.0 * trace_norm(x4 @ self.b_adj)
        t3 = trace_norm(x3)
        t4 = trace_norm(x4)
        t5 = self.amplitude * trace_norm(x5)
        tail = self.tail * np.linalg.norm(rho)
        return float(t1 + t2 + t3 + t4 + t5 + tail)


@lru_cache(maxsize=32)
def _gkp_context(
    amplitude: float, eta: float, eps: float, shape: TruncationShape
) -> _GkpContext:
    return _GkpContext(amplitude, eta, eps, shape)


# ---------------------------------------------------------------------------
# cosine estimate
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _cosine_factor(arg: PolyOperator, shape: TruncationShape):
    """The compressed off band of cos O for a real q/p combination O:
    (S_r Vh_r, ||S_d Vh_d||_1) of ``_compressed`` on the exact rows of
    P_perp cos(O) P_N that ``operators._cosine_offband`` reads from the
    tables of the truncation itself."""
    kept, dropped = _compressed(_cosine_offband(arg, shape))
    kept.setflags(write=False)
    return kept, trace_norm(dropped)


def cosine_defect(arg: PolyOperator, rho: DenseOperator) -> float:
    """Certified bound on ||(cos O - (cos O)_N) rho||_1 = ||P_perp cos(O)
    P_N rho||_1 for O a real q/p combination.

    The singular-value sum of the cached compressed off band
    (``_cosine_factor``) applied to rho, plus the stated tail
    ||dropped rows||_1 ||rho||_F of the rows the compression drops
    (Hoelder's inequality, as in ``_GkpContext``).  Every entry is an
    exactly known matrix element, so the value carries full double
    precision; no Gram radicand is formed.
    """
    kept, tail = _cosine_factor(arg, rho.shape)
    mat = np.asarray(rho.matrix)
    return float(trace_norm(kept @ mat) + tail * np.linalg.norm(mat))


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
    gen_big, pos = _grown_generator(model, shape, k + 1)
    dim_big = gen_big.dim
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
    gen_big, pos = _grown_generator(model, shape, 2)
    big = gen_big.shape
    emb = _embed_array(np.asarray(rho.matrix), pos, gen_big.dim)
    varying, invariant = _euler_sub_models(model)
    varying = [(coeff, shaped_generator(sub, big)) for coeff, sub in varying]

    drift = 0.0
    for coeff, gen in varying:
        drift += coeff.dsup * _hermitian_trace_norm(gen.apply(t_n, emb))
    term1 = dt**2 * drift

    # L(t_n, rho), exact; its Hermitian part, because the generators
    # below take their products from one side
    m = _hermitian_part(gen_big.apply(t_n, emb))
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
