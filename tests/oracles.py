"""Reference computations that only the tests use.

Closed forms of the paper for the linear drive and the two-photon cat,
the 2x2 block decomposition of a polynomial dissipator's defect, dense
forms of the truncated generator, polynomial words as products of
dense ladder matrices on a grown shape, runs in complex arithmetic,
the trace norm of a Hermitian matrix from its eigenvalues, and the
polynomial space defect from one application of the whole generator on
the margin-grown shape (``grown_apply_defect``).  Each is written
independently of the route the program takes, so the tests can hold
the program to it.  ``unitary_offblock_norm`` is the
truncated-unitary norm identity in its Gram form, with its PSD guard
``tr_sqrt_psd``, which the unitary-lemma tests compare with enlarged
oracles; ``displacement_q``, ``cosine_unitary_pair`` and
``_tensor_displacement`` are exact truncations of displacements, each
from tables over the shape's own levels, and ``cosine_radicand`` is
the Gram radicand of the cosine defect; ``gkp_bound_oracle`` is the stabilizer
bound with every off-block norm taken from the full, uncompressed rows
of U.
"""

import math
from functools import lru_cache
from unittest import mock

import numpy as np
from scipy import sparse

from certilind.fockspace import (
    DenseOperator,
    Rect,
    TruncationShape,
    _complement_indices,
    _embed_array,
    _embedding_indices,
    _grow_by_margin,
    basis_map,
    dimension,
    embed,
    trace_norm,
)
from certilind import solver
from certilind.estimators import EstimatorError
from certilind.lindblad import _gkp_q_poly, grown_shape, shaped_generator, truncated_expr
from certilind.operators import (
    OperatorError,
    PolyOperator,
    _hermitian_eigvalsh,
    _linear_qp_coefficients,
    displacement_block,
    materialize_poly,
)

HERMITIAN_DEFECT_GUARD = 1e-10
RADICAND_EIG_FLOOR = -1e-8


def hermitian_trace_norm(mat) -> float:
    """Trace norm of a Hermitian matrix: the sum of the absolute
    eigenvalues of its Hermitian part.  A matrix whose relative Frobenius
    defect ||M - M^dag|| / ||M|| exceeds HERMITIAN_DEFECT_GUARD raises
    ValueError."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ValueError("trace norm of a non-finite matrix")
    scale = max(float(np.linalg.norm(mat)), 1e-30)
    defect = float(np.linalg.norm(mat - mat.conj().T)) / scale
    if defect > HERMITIAN_DEFECT_GUARD:
        raise ValueError(f"matrix flagged Hermitian has relative defect {defect:.3e}")
    return float(np.abs(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))).sum())


def tr_sqrt_psd(mat: np.ndarray) -> float:
    """tr sqrt of a PSD-by-construction radicand.

    The matrix is symmetrized and eigen-clipped at zero; an eigenvalue
    below RADICAND_EIG_FLOOR signals an input that is not a truncated-unitary
    radicand and raises EstimatorError.
    """
    eigs = _hermitian_eigvalsh(mat)
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if eigs.size and eigs.min() < RADICAND_EIG_FLOOR * scale:
        raise EstimatorError(
            f"radicand eigenvalue {eigs.min():.3e} below tolerance"
        )
    return float(np.sqrt(np.clip(eigs, 0.0, None)).sum())


def _displacement_table(occ_rows: np.ndarray, occ_cols: np.ndarray, beta: complex) -> np.ndarray:
    """<m|D(beta)|n> for the single-mode occupations m in ``occ_rows``
    and n in ``occ_cols``."""
    table = displacement_block(int(occ_rows.max()) + 1, int(occ_cols.max()) + 1, beta)
    return table[np.ix_(occ_rows, occ_cols)]


def _tensor_displacement(shape: TruncationShape, betas) -> np.ndarray:
    """The truncation of prod_j D(beta_j) to a shape, one table per mode
    over the shape's own levels."""
    bm = basis_map(shape)
    d = len(bm.states)
    out = np.ones((d, d), dtype=np.complex128)
    for mode, beta in enumerate(betas):
        occ = bm.occupations(mode)
        out *= _displacement_table(occ, occ, beta)
    return out


@lru_cache(maxsize=256)
def displacement_q(shape: TruncationShape, eta: float) -> DenseOperator:
    """Exact truncation of exp(i*eta*q) to a single-mode shape."""
    if shape.mode_count != 1:
        raise OperatorError("operation requires a single-mode shape")
    occ = basis_map(shape).occupations(0)
    beta = 1j * eta / math.sqrt(2.0)
    return DenseOperator(shape, _displacement_table(occ, occ, beta))


def cosine_unitary_pair(
    arg: PolyOperator, shape: TruncationShape
) -> tuple[DenseOperator, DenseOperator]:
    """Exact truncations of U = exp(iO) and U^2 for a linear q/p argument O."""
    c, d = _linear_qp_coefficients(arg)
    betas = (1j * c - d) / math.sqrt(2.0)
    u = DenseOperator(shape, _tensor_displacement(shape, betas))
    u2 = DenseOperator(shape, _tensor_displacement(shape, 2.0 * betas))
    return u, u2


def cosine_radicand(arg: PolyOperator, rho: np.ndarray, shape: TruncationShape):
    """rho^dag K rho, the Gram radicand of ||(cos O - (cos O)_N) rho||_1 =
    (1/2) tr sqrt(rho^dag K rho), with K assembled from the exact
    truncations of U = exp(iO) and U^2 through the block identity
    P U^2 P = A^2 + C B."""
    u, u2 = cosine_unitary_pair(arg, shape)
    a = u.matrix
    eye = np.eye(a.shape[0])
    cb = u2.matrix - a @ a
    k = (eye - a.conj().T @ a) + (eye - a @ a.conj().T) + cb + cb.conj().T
    return rho.conj().T @ k @ rho


def unitary_offblock_norm(u: np.ndarray, m: np.ndarray, rows=None) -> float:
    """Bound on ||P_perp U M||_1 for ``u`` the exact truncation of a
    unitary U to a shape S and ``m`` an operator on S.

    P projects onto S, or, with ``rows``, onto the sub-shape of S whose
    complement in S those row indices select.  The part of U M beyond S
    has the trace norm tr sqrt(M^dag (Id - u^dag u) M), by the
    truncated-unitary norm identity; the selected rows of u M add their
    own by the triangle inequality, so the value is exact without
    ``rows``.  A radicand eigenvalue below the guard of ``tr_sqrt_psd``
    (an input that is not a truncated unitary) raises EstimatorError.
    """
    kernel = np.eye(m.shape[0]) - u.conj().T @ u
    total = tr_sqrt_psd(m.conj().T @ kernel @ m)
    if rows is not None:
        total += trace_norm(u[rows] @ m)
    return total


def displacement_block_loop(rows: int, cols: int, beta: complex) -> np.ndarray:
    """<m|D(beta)|n> for m < rows, n < cols, one offset at a time: the
    Laguerre recurrence as a scalar loop per diagonal and each phase as
    Python's ``phase**offset`` (exp/log above offset 100, so the phase of
    those diagonals carries a residue of about 1e-15)."""
    from scipy.special import gammaln

    beta = complex(beta)
    out = np.zeros((rows, cols), dtype=np.complex128)
    if beta == 0:
        k = min(rows, cols)
        out[:k, :k] = np.eye(k)
        return out
    x = abs(beta) ** 2

    def diagonal(offset, count, phase):
        lag = np.empty(count)
        lag[0] = 1.0
        if count > 1:
            lag[1] = 1.0 + offset - x
        for n in range(1, count - 1):
            lag[n + 1] = (
                (2 * n + 1 + offset - x) * lag[n] - (n + offset) * lag[n - 1]
            ) / (n + 1)
        n = np.arange(count)
        logpref = 0.5 * (gammaln(n + 1) - gammaln(n + offset + 1))
        logpref += offset * math.log(abs(beta)) - 0.5 * x
        vals = np.zeros(count)
        nz = lag != 0.0
        vals[nz] = np.sign(lag[nz]) * np.exp(logpref[nz] + np.log(np.abs(lag[nz])))
        return n, vals * phase**offset

    for offset in range(rows):
        count = min(cols, rows - offset)
        if count > 0:
            n, vals = diagonal(offset, count, beta / abs(beta))
            out[n + offset, n] = vals
    for offset in range(1, cols):
        count = min(rows, cols - offset)
        if count > 0:
            n, vals = diagonal(offset, count, -beta.conjugate() / abs(beta))
            out[n, n + offset] = vals
    out[np.abs(out) < 1e-300] = 0.0
    return out


def gkp_bound_oracle(amplitude, eta, eps, rho: np.ndarray, sector: int) -> float:
    """The stabilizer bound t1 + ... + t5 (see ``estimators._GkpContext``)
    of the dissipator R^k Gamma_0 R^-k, k = ``sector``, on ``rho`` with
    levels 0..N, in the Fock basis and without compression.

    Sector k is sector 0 on R^-k rho R^k.  Each off-block norm is the
    singular-value sum of F M, for F every row of U (or of
    U^dag = D(-beta), built as such) from N + 1 up to N + 301.
    """
    d = rho.shape[0]
    phases = np.power(1j, (sector * np.arange(d)) % 4)
    rho = (phases.conj()[:, None] * rho) * phases[None, :]
    beta = 1j * eta / math.sqrt(2.0)
    u = displacement_block(d + 301, d + 1, beta)
    u_dag = displacement_block(d + 301, d + 1, -beta)
    q_poly = _gkp_q_poly(amplitude, eps)
    q = materialize_poly(q_poly, Rect([d])).matrix[:, :d]
    v_poly = (
        PolyOperator.identity(1)
        - eps * PolyOperator.momentum(1, 0)
        - eps * eta * PolyOperator.position(1, 0)
    )
    v = materialize_poly(v_poly, Rect([d])).matrix[:, :d]
    qdq = materialize_poly(q_poly.dag() * q_poly, Rect([d + 1])).matrix[:, :d]
    b = u[:d] @ q
    bdb = b.conj().T @ b

    def beyond(w, m):
        """||P_perp W m||_1 from all rows past the shape at once."""
        return trace_norm(w[d:] @ m)

    t1 = max(float(np.trace((q.conj().T @ q - bdb) @ rho).real), 0.0)
    t2 = 2.0 * beyond(u, q @ rho @ b.conj().T)
    mismatch = qdq @ rho
    mismatch[:d] -= bdb @ rho
    t3 = trace_norm(mismatch)
    t4 = beyond(u, q @ rho)
    t5 = amplitude * beyond(u_dag, v @ rho)
    return t1 + t2 + t3 + t4 + t5


def grown_apply_defect(model, t: float, rho: DenseOperator) -> float:
    """||(L - L_N) rho||_1 of a polynomial model from one application of
    the whole generator on the margin-grown shape: rho embedded there,
    the result's inner block replaced by -(1/2)(B rho + rho B) with
    B = sum_k C_k^dag C_k for the boundary jumps C_k = P_perp G_k P, and
    twice the off block's singular-value sum when every C_k is zero."""
    mat = np.asarray(rho.matrix)
    big = grown_shape(model, rho.shape)
    gen = shaped_generator(model, big)
    pos = _embedding_indices(rho.shape, big)
    perp = _complement_indices(rho.shape, big)
    if perp.size == 0:
        return 0.0
    delta = gen.apply(t, _embed_array(mat, pos, gen.dim))
    boundary = None
    for _, g in gen.jumps:
        c = g[perp][:, pos]
        c = c.toarray() if sparse.issparse(c) else c
        if c.any():
            b = c.conj().T @ c
            boundary = b if boundary is None else boundary + b
    if boundary is None:
        return 2.0 * trace_norm(delta[np.ix_(perp, pos)])
    half = -0.5 * (boundary @ mat)
    delta[np.ix_(pos, pos)] = half + half.conj().T
    return float(np.abs(_hermitian_eigvalsh(delta)).sum())


def apply_truncated(model, t: float, rho: DenseOperator) -> DenseOperator:
    """L_N(rho) on rho's shape, for a Hermitian ``rho``."""
    gen = shaped_generator(model, rho.shape)
    return DenseOperator(rho.shape, gen.apply(t, np.asarray(rho.matrix)))


@lru_cache(maxsize=128)
def ladder(shape: TruncationShape, mode: int = 0) -> DenseOperator:
    """Truncated annihilation operator for one mode of a shape."""
    bm = basis_map(shape)
    if not 0 <= mode < shape.mode_count:
        raise ValueError(f"mode {mode} out of range")
    d = len(bm.states)
    out = np.zeros((d, d), dtype=np.complex128)
    for col, state in enumerate(bm.states):
        k = state[mode]
        if k == 0:
            continue
        lower = state[:mode] + (k - 1,) + state[mode + 1 :]
        out[bm.index[lower], col] = math.sqrt(k)
    return DenseOperator(shape, out)


def letter_product_poly(poly: PolyOperator, shape: TruncationShape) -> np.ndarray:
    """P Q P as a sum of dense letter products on the shape grown by the
    per-mode raising count, restricted back to ``shape``.

    On the grown shape no intermediate state of a word meets the cut,
    so the restriction is exact.
    """
    raises = [
        max((sum(1 for m, d in word if m == j and d) for _, word in poly.terms), default=0)
        for j in range(poly.mode_count)
    ]
    big = _grow_by_margin(shape, raises)
    letters = {}
    for mode in range(shape.mode_count):
        a = ladder(big, mode).matrix
        letters[mode, False] = a
        letters[mode, True] = a.conj().T
    d = dimension(big)
    eye = np.eye(d, dtype=np.complex128)
    total = np.zeros((d, d), dtype=np.complex128)
    for coeff, word in poly.terms:
        mat = eye
        for letter in word:
            mat = mat @ letters[letter]
        total = total + coeff * mat
    sub = _embedding_indices(shape, big)
    return total[np.ix_(sub, sub)]


def _last_two_indices(rho: DenseOperator) -> tuple[int, int]:
    if rho.shape.mode_count != 1:
        raise ValueError("closed form requires a single-mode shape")
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

    gamma_big = materialize_poly(gamma, big).matrix
    gamma_n = embed(materialize_poly(gamma, shape), big).matrix

    diff = gamma_big - gamma_n
    d = diff.copy()
    if perp.size:
        d[:, perp] = 0.0  # (Gamma - Gamma_N) P_N
    g = gamma_n.conj().T @ diff
    k = diff.conj().T @ d
    if pos.size:
        k[pos, :] = 0.0  # P_perp projection on the left

    emb = embed(rho, big).matrix
    ddag = d.conj().T
    defect = d @ emb @ ddag
    defect += gamma_n @ emb @ ddag
    defect += d @ emb @ gamma_n.conj().T
    defect -= 0.5 * (k @ emb + ddag @ (d @ emb) + g.conj().T @ emb)
    defect -= 0.5 * (emb @ k.conj().T + (emb @ ddag) @ d + emb @ g)
    return hermitian_trace_norm(defect)


def two_sided_generator(model, t, shape, sigma):
    """L_N(t, sigma) with every product written out on both sides, from
    dense truncations: the matrix form of ``lindblad_superoperator``.
    Exact on any ``sigma``, Hermitian or not."""
    out = np.zeros_like(sigma)
    for coeff, expr in model.hamiltonian:
        h = truncated_expr(expr, shape).matrix
        out += -1j * coeff(t) * (h @ sigma - sigma @ h)
    for expr in model.dissipators:
        g = truncated_expr(expr, shape).matrix
        gdg = g.conj().T @ g
        out += g @ sigma @ g.conj().T - 0.5 * (gdg @ sigma + sigma @ gdg)
    return out


def lindblad_superoperator(model, t, shape) -> np.ndarray:
    """Dense superoperator matrix of L_N for row-major vectorization.

    Desk-scale only: it takes d^4 complex entries.
    """
    d = dimension(shape)
    eye = np.eye(d)
    sup = np.zeros((d * d, d * d), dtype=np.complex128)
    for coeff, expr in model.hamiltonian:
        h = truncated_expr(expr, shape).matrix
        u = coeff(t)
        sup += -1j * u * (np.kron(h, eye) - np.kron(eye, h.T))
    for expr in model.dissipators:
        g = truncated_expr(expr, shape).matrix
        gdg = g.conj().T @ g
        sup += np.kron(g, g.conj())
        sup -= 0.5 * (np.kron(gdg, eye) + np.kron(eye, gdg.T))
    return sup


def rotation_invariant_density(rng, dim) -> np.ndarray:
    """A random single-mode density matrix with R rho R^dag = rho for the
    Fock rotation R = diag(i^n): its entries (m, n) with m - n not
    divisible by 4 are exact zeros (the pinching of a random density)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho[off_class(dim)] = 0.0
    return rho / np.trace(rho).real


def off_class(dim) -> np.ndarray:
    """Mask of the entries (m, n), m - n not divisible by 4, of a
    single-mode operator on occupations 0..dim-1."""
    occ = np.arange(dim)
    return (occ[:, None] - occ[None, :]) % 4 != 0


def complex_arithmetic_run(run, *args):
    """``run(*args)`` for ``solver.run_fixed`` or ``solver.run_adaptive``
    with the working state complex128 in the same frame: the same model
    and sector, but every stage, product, norm and eigensolve in complex
    arithmetic, the route of every GKP and cosine run."""
    enter = solver._enter_frame

    def complex_enter(model, rho):
        frame, model, state = enter(model, rho)
        return frame, model, DenseOperator(state.shape, state.matrix.astype(complex))

    with mock.patch.object(solver, "_enter_frame", complex_enter):
        return run(*args)
