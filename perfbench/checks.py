"""Correctness checks made apart from the program.

Every operator here is built from the benchmark's own ladder matrices
with numpy and scipy; nothing is imported from ``certilind``.  The
program's basis order is read from the ``states`` array the worker
saves, so a wrong basis labelling shows up as a wrong state.

``CHECKS[workload]()`` computes the workload's oracle once.  Called on
one round's data, it returns a list of failure messages (empty when the
round is correct) and a dict of measured check values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

ETA = 2.0 * math.sqrt(math.pi)  # GKP stabilizer displacement
GKP_EPS = 0.15
SQUEEZE_R = 1.25


def ladder(cap: int) -> np.ndarray:
    """Annihilator on Fock levels 0..cap."""
    return np.diag(np.sqrt(np.arange(1.0, cap + 1.0)), 1).astype(complex)


def trace_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def hermitian_trace_norm(mat: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))).sum())


def superoperator(hamiltonian, jumps):
    """Matrix of L for row-major vectorization: vec(A X B) = (A kron B^T) vec(X)."""
    d = (hamiltonian if hamiltonian is not None else jumps[0]).shape[0]
    eye = sparse.identity(d, dtype=complex, format="csr")
    parts = []
    if hamiltonian is not None:
        h = sparse.csr_matrix(hamiltonian)
        parts.append(-1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T)))
    for g in jumps:
        g = sparse.csr_matrix(g)
        gdg = (g.conj().T @ g).tocsr()
        parts.append(sparse.kron(g, g.conj()))
        parts.append(-0.5 * (sparse.kron(gdg, eye) + sparse.kron(eye, gdg.T)))
    return sparse.csr_matrix(sum(parts))


def dissipate(jumps, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for g in jumps:
        gdg = g.conj().T @ g
        out += g @ rho @ g.conj().T - 0.5 * (gdg @ rho + rho @ gdg)
    return out


def vacuum_flow(segments, d: int) -> np.ndarray:
    """e^{t_k L_k} ... e^{t_1 L_1} |0><0| for a list of (t, L) segments,
    L sparse; real arithmetic when every L is real."""
    real = all(not sup.imag.count_nonzero() for _, sup in segments)
    vec = np.zeros(d * d, dtype=float if real else complex)
    vec[0] = 1.0
    for t, sup in segments:
        vec = expm_multiply(t * (sup.real if real else sup), vec)
    return vec.reshape(d, d)


def to_program_basis(oracle: np.ndarray, levels, states: np.ndarray) -> np.ndarray:
    """Place an oracle state into the program's basis.

    ``levels[j]`` lists the Fock levels of mode j the oracle keeps, in
    its kron order; program basis states outside them get zero."""
    strides = np.cumprod((1,) + tuple(len(lv) for lv in reversed(levels[1:])))[::-1]
    where = [{int(n): i for i, n in enumerate(lv)} for lv in levels]
    pos, idx = [], []
    for p, state in enumerate(states.tolist()):
        ks = [w.get(k) for w, k in zip(where, state)]
        if None not in ks:
            pos.append(p)
            idx.append(int(np.dot(ks, strides)))
    out = np.zeros((len(states), len(states)), dtype=complex)
    out[np.ix_(pos, pos)] = oracle[np.ix_(idx, idx)]
    return out


def density_checks(rho: np.ndarray, failures: list, values: dict) -> None:
    """Trace one, Hermitian, positive semidefinite."""
    trace_err = abs(np.trace(rho) - 1.0)
    herm = float(np.linalg.norm(rho - rho.conj().T) / np.linalg.norm(rho))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    values.update({"trace_err": trace_err, "herm_defect": herm, "min_eig": min_eig})
    if trace_err > 1e-10:
        failures.append(f"|tr rho - 1| = {trace_err:.3e} > 1e-10")
    if herm > 1e-10:
        failures.append(f"relative Hermiticity defect {herm:.3e} > 1e-10")
    if min_eig < -1e-10:
        failures.append(f"smallest eigenvalue {min_eig:.3e} < -1e-10")


# ---------------------------------------------------------------------------
# two_mode_ref: cat-buffer exchange on Rect([40,20]) to T = 0.1
# ---------------------------------------------------------------------------


def two_mode_oracle(caps=(20, 10), t_final=0.1, alpha=1.0) -> np.ndarray:
    """e^{T L} |00><00| on Rect(caps).  Every word of H = a^2 b^dag +
    a^dag^2 b - alpha^2 (b + b^dag) and of the loss b, b^dag b takes its
    intermediate states inside the cut, so the product of truncated
    letters is the exact truncation."""
    a = np.kron(ladder(caps[0]), np.eye(caps[1] + 1))
    b = np.kron(np.eye(caps[0] + 1), ladder(caps[1]))
    ad, bd = a.conj().T, b.conj().T
    h = a @ a @ bd + ad @ ad @ b - alpha**2 * (b + bd)
    return vacuum_flow([(t_final, superoperator(h, [b]))], h.shape[0])


class TwoModeCheck:
    caps = (20, 10)

    def __init__(self):
        self.oracle = two_mode_oracle(self.caps)

    def __call__(self, data):
        failures, values = [], {}
        rho = data["rho"]
        levels = [np.arange(c + 1) for c in self.caps]
        dist = trace_norm(rho - to_program_basis(self.oracle, levels, data["states"]))
        values["dist_to_oracle"] = dist
        if dist > 1e-9:
            failures.append(f"||rho - e^(TL) rho_0||_1 = {dist:.3e} > 1e-9")
        density_checks(rho, failures, values)
        return failures, values


# ---------------------------------------------------------------------------
# squeezed_stiff: squeezed two-photon pumping at cap 40 to T = 0.05
# ---------------------------------------------------------------------------


def squeezed_gamma(cap: int, alpha=1.0, r=SQUEEZE_R) -> np.ndarray:
    """Exact P Gamma P at Fock cap ``cap`` for Gamma = (ch a + sh a^dag)^2 -
    alpha^2: built at cap + 2, where no word reaches the cut, then cut."""
    a = ladder(cap + 2)
    ad = a.conj().T
    ch, sh = math.cosh(r), math.sinh(r)
    g = ch**2 * a @ a + ch * sh * (a @ ad + ad @ a) + sh**2 * ad @ ad
    g -= alpha**2 * np.eye(cap + 3)
    return g[: cap + 1, : cap + 1]


def even_vacuum_flow(cap: int, t_final: float, dense: bool) -> np.ndarray:
    """Exact e^{T L_cap} |0><0| on the even-parity sector, which a vacuum
    start never leaves: Gamma changes the photon number by 0 or +-2.
    ``dense`` takes scipy.linalg.expm, otherwise expm_multiply."""
    even = np.arange(0, cap + 1, 2)
    g = squeezed_gamma(cap)
    odd = np.arange(1, cap + 1, 2)
    if g[np.ix_(odd, even)].any() or g[np.ix_(even, odd)].any():
        raise ValueError("jump operator leaves the even sector")
    d = even.size
    sup = superoperator(None, [g[np.ix_(even, even)]])
    if dense:
        sup = sup.toarray()
        sector = expm(t_final * (sup.real if not sup.imag.any() else sup))[:, 0].reshape(d, d)
    else:
        sector = vacuum_flow([(t_final, sup)], d)
    out = np.zeros((cap + 1, cap + 1), dtype=complex)
    out[np.ix_(even, even)] = sector
    return out


def squeezed_defect(rho: np.ndarray) -> float:
    """||(L - L_N) rho||_1 with L realized exactly at cut 2N >= N + 4."""
    n = rho.shape[0]
    rho = 0.5 * (rho + rho.conj().T)
    g_big = squeezed_gamma(2 * (n - 1))
    emb = np.zeros(g_big.shape, dtype=complex)
    emb[:n, :n] = rho
    delta = dissipate([g_big], emb)
    delta[:n, :n] -= dissipate([squeezed_gamma(n - 1)], rho)
    return hermitian_trace_norm(delta)


class SqueezedCheck:
    cap = 40
    t_final = 0.05

    def __init__(self):
        self.flow = even_vacuum_flow(self.cap, self.t_final, dense=True)
        self.exact_80 = even_vacuum_flow(2 * self.cap, self.t_final, dense=False)

    def __call__(self, data):
        failures, values = [], {}
        rho = data["rho"]
        if rho.shape != (self.cap + 1,) * 2:
            return [f"state has dimension {rho.shape[0]}, expected {self.cap + 1}"], values
        err = trace_norm(rho - self.flow)
        values["dist_to_flow"] = err
        if err > 1e-9:
            failures.append(f"||rho_40 - e^(T L_40) rho_0||_1 = {err:.3e} > 1e-9")
        rate, oracle = float(data["rec_rate"][-1]), squeezed_defect(rho)
        values["defect_rate"], values["defect_oracle"] = rate, oracle
        if not np.isclose(rate, oracle, rtol=1e-10, atol=0.0):
            failures.append(f"final defect rate {rate!r} != oracle {oracle!r}")
        emb = np.zeros_like(self.exact_80)
        emb[: self.cap + 1, : self.cap + 1] = rho
        dist = trace_norm(emb - self.exact_80)
        values["dist_to_cut80"], values["xi"] = dist, float(data["xi"])
        if not data["xi"] >= dist:
            failures.append(f"xi = {data['xi']:.3e} < ||rho_40 - rho_80||_1 = {dist:.3e}")
        return failures, values


# ---------------------------------------------------------------------------
# adaptive2d_pulse: weighted shape, drive pulse until t = 0.2, T = 1.5
# ---------------------------------------------------------------------------


def adaptive2d_oracle(caps=(28, 14), pulse_end=0.2, t_final=1.5, drive=-2.25) -> np.ndarray:
    """Two-segment flow on Rect(caps): H = a^2 b^dag + a^dag^2 b +
    u(t) (b + b^dag) with u = drive before pulse_end and 0 after, loss b.

    The rectangle contains every shape the run visits.  Mode a enters
    only through a^2 and a^dag^2, so a vacuum start keeps n_a even and
    the flow is computed on the even-n_a levels alone."""
    even = np.arange(0, caps[0] + 1, 2)
    a = ladder(caps[0])
    a2 = np.kron((a @ a)[np.ix_(even, even)], np.eye(caps[1] + 1))
    b = np.kron(np.eye(even.size), ladder(caps[1]))
    a2d, bd = a2.conj().T, b.conj().T
    h0 = a2 @ bd + a2d @ b
    segments = [
        (pulse_end, superoperator(h0 + drive * (b + bd), [b])),
        (t_final - pulse_end, superoperator(h0, [b])),
    ]
    return vacuum_flow(segments, h0.shape[0])


class Adaptive2dCheck:
    caps = (28, 14)

    def __init__(self):
        self.oracle = adaptive2d_oracle(self.caps)

    def __call__(self, data):
        failures, values = [], {}
        states = data["states"]
        if np.any(states > np.asarray(self.caps)):
            return [f"final shape leaves Rect({list(self.caps)})"], values
        acc = data["rec_accepted"]
        budget = data["rec_time"][acc] / data["horizon"] * data["space_tol"]
        over = data["rec_xi"][acc] > budget * (1 + 1e-9)
        values["budget_violations"] = int(over.sum())
        if over.any():
            first = int(np.flatnonzero(over)[0])
            failures.append(
                f"xi over the budget (t/T) space_tol at {int(over.sum())} accepted "
                f"records, first at t = {data['rec_time'][acc][first]:.6g}"
            )
        grows = int(np.sum(data["rec_resize"] == "grow"))
        shrinks = int(np.sum(data["rec_resize"] == "shrink"))
        values["grows"], values["shrinks"] = grows, shrinks
        if grows < 1 or shrinks < 1:
            failures.append(f"expected a grow and a shrink, got {grows} and {shrinks}")
        levels = [np.arange(0, self.caps[0] + 1, 2), np.arange(self.caps[1] + 1)]
        dist = trace_norm(data["rho"] - to_program_basis(self.oracle, levels, states))
        values["dist_to_oracle"], values["xi"] = dist, float(data["xi"])
        if not dist <= data["xi"]:
            failures.append(f"||rho - rho_exact||_1 = {dist:.3e} > xi = {data['xi']:.3e}")
        return failures, values


# ---------------------------------------------------------------------------
# gkp_rk4: four rotated stabilizer dissipators at cap 30, RK4
# ---------------------------------------------------------------------------


def gkp_gammas(cap: int, displacement: np.ndarray, amplitude=1.0, eps=GKP_EPS):
    """Exact P R^k (A U (Id - eps p) - Id) R^-k P at cap ``cap``, k = 0..3.
    U rows 0..cap and columns 0..cap+1 come from ``displacement``; the
    degree-1 factor is exact at cap + 1."""
    a = ladder(cap + 1)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    q_factor = amplitude * (np.eye(cap + 2) - eps * p)
    gamma0 = displacement[: cap + 1, : cap + 2] @ q_factor[:, : cap + 1]
    gamma0 -= np.eye(cap + 1)
    occ = np.arange(cap + 1)
    out = []
    for k in range(4):
        r = np.power(1j, (k * occ) % 4)
        out.append((r[:, None] * gamma0) * r.conj()[None, :])
    return out


class GkpCheck:
    cap = 30
    big_cap = 120

    def __init__(self, t_final=2.0 / (GKP_EPS * ETA), disp_cap=240):
        a = ladder(disp_cap)
        q = (a + a.conj().T) / math.sqrt(2.0)
        self.displacement = expm(1j * ETA * q)  # exp(i eta q), exact far below the cut
        gammas = gkp_gammas(self.cap, self.displacement)
        sup = superoperator(None, gammas).toarray()
        d = self.cap + 1
        self.flow = expm(t_final * sup)[:, 0].reshape(d, d)
        self.gammas_big = gkp_gammas(self.big_cap, self.displacement)

    def brute_force_defect(self, rho: np.ndarray) -> float:
        """||(L - L_N) rho||_1 with every operator realized on cap 120."""
        n = rho.shape[0]
        emb = np.zeros(self.gammas_big[0].shape, dtype=complex)
        emb[:n, :n] = rho
        small = []
        for g in self.gammas_big:
            gs = np.zeros_like(g)
            gs[:n, :n] = g[:n, :n]
            small.append(gs)
        return hermitian_trace_norm(dissipate(self.gammas_big, emb) - dissipate(small, emb))

    def __call__(self, data):
        failures, values = [], {}
        rho = data["rho"]
        if rho.shape != self.flow.shape:
            return [f"state has dimension {rho.shape[0]}, expected {self.cap + 1}"], values
        err = trace_norm(rho - self.flow)
        values["dist_to_flow"] = err
        if err > 1e-9:
            failures.append(f"||rho - e^(T L) rho_0||_1 = {err:.3e} > 1e-9")
        bound, brute = float(data["rec_rate"][-1]), self.brute_force_defect(rho)
        values["defect_bound"], values["defect_brute"] = bound, brute
        if not bound >= brute - 1e-10:
            failures.append(f"final defect bound {bound:.6e} < brute force {brute:.6e}")
        return failures, values


CHECKS = {
    "two_mode_ref": TwoModeCheck,
    "squeezed_stiff": SqueezedCheck,
    "adaptive2d_pulse": Adaptive2dCheck,
    "gkp_rk4": GkpCheck,
}
