"""Reference computations that only the tests use.

Closed forms of the paper for the linear drive and the two-photon cat,
the 2x2 block decomposition of a polynomial dissipator's defect, dense
forms of the truncated generator, polynomial words as products of
dense ladder matrices on a grown shape, runs in complex arithmetic, and
the trace norm of a Hermitian matrix from its eigenvalues.
Each is written independently of the route the program takes, so the
tests can hold the program to it.
"""

import math
from functools import lru_cache
from unittest import mock

import numpy as np

from certilind.fockspace import (
    DenseOperator,
    TruncationShape,
    _complement_indices,
    _embedding_indices,
    _grow_by_margin,
    basis_map,
    dimension,
    embed,
)
from certilind import solver
from certilind.lindblad import shaped_generator, truncated_expr
from certilind.operators import PolyOperator, materialize_poly

HERMITIAN_DEFECT_GUARD = 1e-10


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
