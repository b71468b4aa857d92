"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime when it completes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
timing.  Criterion 3 checks the squeezed-cat run at N = 40 against exact
matrix-exponential oracles: state, defect rate, tail gap and soundness of xi.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from certilind.estimators import (
    cosine_defect,
    model_space_defect,
    unitary_offblock_norm,
)
from certilind.fockspace import DenseOperator, Rect, embed, trace_norm
from certilind.lindblad import truncated_expr
from models import (
    cat_buffer_model,
    cat_model,
    gkp_model,
    linear_drive_model,
    number_drive_model,
    squeezed_cat_model,
)
from certilind.operators import (
    PolyOperator,
    displacement_block,
    displacement_q,
    fock_density,
    materialize_poly,
)
from certilind.solver import SolverConfig, run_adaptive, run_fixed
from oracles import (
    defect_cat_closed_form,
    defect_drive_closed_form,
    dissipator_defect_blocks,
    hermitian_trace_norm,
    lindblad_superoperator,
)

ETA = 2.0 * math.sqrt(math.pi)


def report(number, message, t0):
    print(f"\nACCEPTANCE {number}: PASS - {message} ({time.time() - t0:.1f}s)")


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def one_run(model, cap, time_tol=1e-14):
    shape = Rect([cap])
    cfg = SolverConfig(final_time=1.0, time_tol=time_tol)
    return run_fixed(model, fock_density(shape, [0]), shape, cfg)


def check_reference_suite(model, ref_cap=40, caps=range(4, 31)):
    """Parts (a)-(c) of a truncation sweep: a reference certified to
    1e-12, the sandwich inequality, and xi non-increasing in N."""
    ref = one_run(model, ref_cap)
    assert ref.xi <= 1e-12, (
        f"reference xi_{ref_cap}(T) = {ref.xi:.3e} exceeds 1e-12 at cut {ref_cap}"
    )
    runs = {ref_cap: ref}
    ref_mat = ref.final.rho.matrix
    for n in caps:
        runs[n] = one_run(model, n)
        dist = trace_norm(
            embed(runs[n].final.rho, Rect([ref_cap])).matrix - ref_mat
        )
        assert dist <= runs[n].xi + ref.xi + 1e-12, f"sandwich violated at N={n}"
    # non-increasing down to the solver floor; the parity staircase makes
    # paired values equal only to the 5% level the pairing check uses
    xis = [runs[n].xi for n in caps]
    for a, b in zip(xis, xis[1:]):
        assert b <= a * 1.05 + 1e-13, (
            f"xi not non-increasing above the 1e-13 floor: {a:.3e} -> {b:.3e}"
        )
    return runs


def test_criterion_01_zero_defect_model():
    t0 = time.time()
    model = number_drive_model(1.0)
    for n in (1, 7, 20):
        shape = Rect([n])
        cfg = SolverConfig(final_time=1.0, time_tol=1e-10)
        result = run_fixed(model, fock_density(shape, [min(n, 3)]), shape, cfg)
        assert result.xi <= 1e-13, f"xi = {result.xi:.3e} at N={n}"
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, "number-drive model certifies xi(T) <= 1e-13 at every cut", t0)


def test_criterion_02_cat_qubit_certification():
    t0 = time.time()
    model = cat_model(alpha=1.0)
    runs = check_reference_suite(model)
    # (d) the parity staircase: adjacent truncations pair up; find the
    # pairing offset from the data, then every pair must agree within 5%
    caps = list(range(4, 31))
    xis = {n: runs[n].xi for n in caps}

    def pair_score(offset):
        pairs = [(n, n + 1) for n in caps[offset::2] if n + 1 in xis]
        good = sum(
            1
            for a, b in pairs
            if max(xis[a], xis[b]) < 1e-13
            or abs(xis[a] - xis[b]) <= 0.05 * max(xis[a], xis[b])
        )
        return good, pairs

    score0, pairs0 = pair_score(0)
    score1, pairs1 = pair_score(1)
    pairs = pairs0 if score0 >= score1 else pairs1
    for a, b in pairs:
        if max(xis[a], xis[b]) < 1e-13:
            continue
        assert abs(xis[a] - xis[b]) <= 0.05 * max(xis[a], xis[b]), (
            f"staircase pair ({a},{b}) differs beyond 5%: "
            f"{xis[a]:.3e} vs {xis[b]:.3e}"
        )
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(2, "cat-qubit sweep certified (reference, sandwich, staircase)", t0)


def _jump_matrices(model, cap):
    """Exactly truncated jump operators of a dissipator-only model."""
    assert not model.hamiltonian, "oracle covers dissipator-only models"
    return [truncated_expr(expr, Rect([cap])).matrix for expr in model.dissipators]


def _dissipate(gammas, rho):
    out = np.zeros_like(rho)
    for g in gammas:
        gdg = g.conj().T @ g
        out += g @ rho @ g.conj().T - 0.5 * (gdg @ rho + rho @ gdg)
    return out


def _vacuum_flow(model, cap, t_final):
    """Exact e^{T L_cap} |0><0| by expm on the even-parity sector.

    Jump operators that change the photon number by 0 or +-2 keep a vacuum
    start in the span of |m><n| with m, n even, so the superoperator there
    has side (cap/2 + 1)^2 instead of (cap + 1)^2.
    """
    even = np.arange(0, cap + 1, 2)
    odd = np.arange(1, cap + 1, 2)
    gammas = []
    for g in _jump_matrices(model, cap):
        assert not g[np.ix_(odd, even)].any() and not g[np.ix_(even, odd)].any()
        gammas.append(g[np.ix_(even, even)])
    d = even.size
    eye = np.eye(d)
    sup = np.zeros((d * d, d * d), dtype=complex)
    for g in gammas:
        gdg = g.conj().T @ g
        sup += np.kron(g, g.conj())
        sup -= 0.5 * (np.kron(gdg, eye) + np.kron(eye, gdg.T))
    if not sup.imag.any():
        sup = sup.real  # real expm is about 3x faster
    out = np.zeros((cap + 1, cap + 1), dtype=complex)
    out[np.ix_(even, even)] = expm(t_final * sup)[:, 0].reshape(d, d)
    return out


def _oracle_defect(model, rho):
    """||(L - L_N) rho||_1 with L realized exactly at cut 2N.

    Jump words move the photon number by at most 2 (4 for Gamma^dag
    Gamma), so cut 2N >= N + 4 applies L exactly to rho.  The top-left
    block of an exact truncation is the exact truncation at cut N.  Like
    the program, this takes the defect of the Hermitian part of rho: its
    ~1e-13 rounding residue times the ~1e4 band entries of Gamma^dag Gamma
    would otherwise move the 11th digit.
    """
    n = rho.shape[0]
    rho = 0.5 * (rho + rho.conj().T)
    big = _jump_matrices(model, 2 * (n - 1))
    emb = np.zeros(big[0].shape, dtype=complex)
    emb[:n, :n] = rho
    delta = _dissipate(big, emb)
    delta[:n, :n] -= _dissipate([g[:n, :n] for g in big], rho)
    return float(np.abs(np.linalg.eigvalsh(delta)).sum())


def test_criterion_03_squeezed_cat_suite():
    # r = 5/4 steady states keep Fock tails decaying like tanh(r)^(2n): at
    # T = 1 the cut-40 state sits 6e-2 from the untruncated one, so no sound
    # xi_40 is small.  The run is checked against exact oracles.
    t0 = time.time()
    model = squeezed_cat_model(alpha=1.0, r=1.25)
    cap = 40
    run = one_run(model, cap)
    rho = np.asarray(run.final.rho.matrix)
    # (a) the state is the exact flow of L_40
    err = trace_norm(rho - _vacuum_flow(model, cap, 1.0))
    assert err <= 1e-9, f"||rho_40 - e^(L_40) rho_0||_1 = {err:.3e} > 1e-9"
    # (b) the final defect rate is the exact space defect of that state
    rate = run.trajectory[-1].defect_rate
    oracle = _oracle_defect(model, rho)
    assert np.isclose(rate, oracle, rtol=1e-10, atol=0.0), (
        f"defect rate {rate!r} vs oracle {oracle!r}"
    )
    # (c) the heavy tail: the exact cut-80 solution is far from rho_40
    ref = _vacuum_flow(model, 2 * cap, 1.0)
    dist = trace_norm(embed(run.final.rho, Rect([2 * cap])).matrix - ref)
    assert dist >= 1e-2, f"||rho_40 - rho_80||_1 = {dist:.3e} < 1e-2"
    # (d) soundness: xi_40 bounds that distance
    assert run.xi >= dist, f"xi_40 = {run.xi:.3e} < ||rho_40 - rho_80||_1 = {dist:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(
        3,
        f"squeezed cat N=40 matches the exact flow ({err:.1e}) and defect; "
        f"xi_40 = {run.xi:.3g} >= {dist:.3g} = distance to N=80",
        t0,
    )


def test_criterion_04_two_mode_certification():
    # tolerance below 1e-13: at 1e-13 the controller rides the explicit
    # stability boundary of the exchange Hamiltonian and parks noise in
    # the stiff border modes, which the estimator then (correctly) prices
    t0 = time.time()
    model = cat_buffer_model(alpha=1.0)
    cfg = SolverConfig(final_time=1.0, time_tol=1e-14)
    ref_shape = Rect([40, 20])
    ref = run_fixed(model, fock_density(ref_shape, [0, 0]), ref_shape, cfg)
    assert ref.xi <= 1e-12, f"reference xi = {ref.xi:.3e}"
    grid = [
        (8, 4), (10, 5), (12, 6), (14, 7), (16, 8), (18, 9), (20, 11),
        (22, 12), (24, 13), (26, 14), (28, 15), (16, 15), (28, 8),
    ]
    assert len(grid) >= 12
    ref_mat = ref.final.rho.matrix
    for caps in grid:
        shape = Rect(list(caps))
        res = run_fixed(model, fock_density(shape, [0, 0]), shape, cfg)
        dist = trace_norm(embed(res.final.rho, ref_shape).matrix - ref_mat)
        assert dist <= res.xi + ref.xi + 1e-12, (
            f"sandwich violated at {caps}: dist={dist:.3e} "
            f"xi={res.xi:.3e} xi_ref={ref.xi:.3e}"
        )
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds 10 min"
    report(4, "two-mode certification over the truncation grid", t0)


def test_criterion_05_closed_form_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    a = PolyOperator.annihilator(1, 0)
    cat_gamma = a * a - PolyOperator.identity(1)
    squeezed = squeezed_cat_model(alpha=1.0, r=1.25)
    squeezed_gamma = squeezed.dissipators[0].poly
    drive = linear_drive_model(0.85)
    cat = cat_model(alpha=1.0)
    for _ in range(100):
        dim = int(rng.integers(5, 13))
        shape = Rect([dim - 1])
        rho = DenseOperator(shape, random_density(rng, dim))
        generic_drive = model_space_defect(drive, 0.0, rho)
        closed_drive = defect_drive_closed_form(0.85, rho)
        assert np.isclose(closed_drive, generic_drive, rtol=1e-12, atol=1e-15)
        generic_cat = model_space_defect(cat, 0.0, rho)
        closed_cat = defect_cat_closed_form(1.0, rho)
        assert np.isclose(closed_cat, generic_cat, rtol=1e-12, atol=1e-15)
        blocks = dissipator_defect_blocks(cat_gamma, rho)
        assert np.isclose(blocks, generic_cat, rtol=1e-12, atol=1e-15)
        blocks_sq = dissipator_defect_blocks(squeezed_gamma, rho)
        generic_sq = model_space_defect(squeezed, 0.0, rho)
        assert np.isclose(blocks_sq, generic_sq, rtol=1e-12, atol=1e-15)
    elapsed = time.time() - t0
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
    report(5, "closed forms match the generic defect on 100 states each", t0)


def test_criterion_06_unitary_lemma_oracle():
    t0 = time.time()
    rng = np.random.default_rng(43)
    shape = Rect([10])
    u = displacement_q(shape, ETA).matrix
    big = displacement_block(61, 61, 1j * ETA / math.sqrt(2.0))
    for _ in range(20):
        m = random_density(rng, 11)
        val = unitary_offblock_norm(u, m)
        brute = float(
            np.linalg.svd(big[11:, :11] @ m, compute_uv=False).sum()
        )
        assert abs(val - brute) < 1e-8, f"|{val} - {brute}| >= 1e-8"
    elapsed = time.time() - t0
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
    report(6, "truncated-unitary norm identity matches the enlarged oracle", t0)


def _gkp_brute_force(amplitude, eta, eps, rho_small, big_cap):
    """Defect of the four-sector stabilizer model with every operator
    realized exactly on Rect([big_cap])."""
    n = rho_small.shape[0] - 1
    d = big_cap + 1
    table = displacement_block(d, d + 1, 1j * eta / math.sqrt(2.0))
    q_poly = amplitude * (
        PolyOperator.identity(1) - eps * PolyOperator.momentum(1, 0)
    )
    q_big = materialize_poly(q_poly, Rect([big_cap + 1])).matrix
    gamma0 = table @ q_big[:, :d] - np.eye(d)
    occ = np.arange(d)
    emb = np.zeros((d, d), dtype=complex)
    emb[: n + 1, : n + 1] = rho_small
    total = np.zeros((d, d), dtype=complex)
    for k in range(4):
        r = np.power(1j, (k * occ) % 4)
        gk = (r[:, None] * gamma0) * r.conj()[None, :]
        gk_small = np.zeros_like(gk)
        gk_small[: n + 1, : n + 1] = gk[: n + 1, : n + 1]
        for g in (gk, gk_small):
            sign = 1.0 if g is gk else -1.0
            gdg = g.conj().T @ g
            total += sign * (
                g @ emb @ g.conj().T - 0.5 * (gdg @ emb + emb @ gdg)
            )
    return hermitian_trace_norm(total)


def test_criterion_07_gkp_bound_validity():
    t0 = time.time()
    eps, amp = 0.15, 1.0
    cap = 30
    shape = Rect([cap])
    rng = np.random.default_rng(44)
    states = [random_density(rng, cap + 1) for _ in range(12)]
    # trajectory snapshots from the stabilizer dynamics
    model = gkp_model(amplitude=amp, eta=ETA, eps=eps)
    t_final = 2.0 / (eps * ETA)
    from certilind.solver import rk4_stepper

    rho = fock_density(shape, [0])
    t = 0.0
    for _ in range(8):
        for _ in range(25):
            rho = rk4_stepper(model, t, rho, t_final / 200)
            t += t_final / 200
        states.append(np.asarray(rho.matrix))
    assert len(states) == 20
    for idx, mat in enumerate(states):
        op = DenseOperator(shape, mat)
        bound = model_space_defect(model, 0.0, op)
        brute = _gkp_brute_force(amp, ETA, eps, mat, big_cap=120)
        assert bound >= brute - 1e-10, (
            f"state {idx}: bound {bound:.6e} < brute force {brute:.6e}"
        )
    elapsed = time.time() - t0
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 min"
    report(7, "stabilizer bound dominates the enlarged-space defect", t0)


def test_criterion_08_adaptive_driver():
    t0 = time.time()
    model = cat_model(alpha=1.0)
    results = {}
    for start in (15, 55):
        cfg = SolverConfig(
            final_time=1.0,
            time_tol=1e-14,
            space_tol=1e-11,
            downsize_factor=5.0,
            grow_step=4,
            shrink_step=4,
            max_dimension=512,
        )
        res = run_adaptive(model, fock_density(Rect([start]), [0]), cfg)
        for rec in res.trajectory:
            if rec.accepted:
                assert rec.xi <= (rec.time / 1.0) * 1e-11 * (1 + 1e-9), (
                    f"budget violated at t={rec.time}"
                )
        results[start] = res
    final_sizes = {s: r.trajectory[-1].dim for s, r in results.items()}
    assert abs(final_sizes[15] - final_sizes[55]) <= 4, final_sizes
    assert any(
        not rec.accepted and rec.resize == "grow"
        for rec in results[15].trajectory
    ), "small start never grew"
    assert any(
        rec.resize == "shrink" for rec in results[55].trajectory
    ), "large start never shrank"
    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    report(
        8,
        f"both starts stabilize at size {final_sizes[15]} under the budget",
        t0,
    )


def test_criterion_09_time_certificates():
    t0 = time.time()
    model = number_drive_model(1.0)
    shape = Rect([5])
    rng = np.random.default_rng(45)
    rho0 = DenseOperator(shape, random_density(rng, 6))
    sup = lindblad_superoperator(model, 0.0, shape)
    t_final = 1.0
    exact = (expm(t_final * sup) @ rho0.matrix.reshape(-1)).reshape(6, 6)
    for k in (1, 2):
        bounds, errors, dts = [], [], []
        for n in (8, 16, 32, 64, 128, 256):
            dt = t_final / n
            cfg = SolverConfig(
                final_time=t_final,
                scheme="taylor",
                taylor_order=k,
                dt=dt,
                enable_time_certificate=True,
            )
            res = run_fixed(model, rho0, shape, cfg)
            err = trace_norm(res.final.rho.matrix - exact)
            assert res.xi >= err, (
                f"k={k}, dt={dt}: bound {res.xi:.3e} < error {err:.3e}"
            )
            bounds.append(res.xi)
            errors.append(err)
            dts.append(dt)
        slope = float(np.polyfit(np.log(dts), np.log(bounds), 1)[0])
        assert abs(slope - k) <= 0.2, f"k={k}: slope {slope:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1 min"
    report(9, "Taylor certificates dominate the true error at order k", t0)


def test_criterion_10_contraction_property():
    t0 = time.time()
    rng = np.random.default_rng(46)
    a = PolyOperator.annihilator(1, 0)
    ad = PolyOperator.creator(1, 0)
    checked = 0
    while checked < 50:
        dim = int(rng.integers(2, 9))
        shape = Rect([dim - 1])
        c1, c2, c3 = rng.standard_normal(3)
        model_h = c1 * (a + ad) + c2 * (ad * a)
        gamma = c3 * a + rng.standard_normal() * (a * a)
        from certilind.lindblad import CoefficientFn, LindbladModel, PolyExpr

        model = LindbladModel(
            1,
            hamiltonian=((CoefficientFn.constant(1.0), PolyExpr(model_h)),),
            dissipators=(PolyExpr(gamma),),
        )
        sup = lindblad_superoperator(model, 0.0, shape)
        dt = float(rng.uniform(0.01, 0.4))
        prop = expm(dt * sup)
        sigma = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        sigma = sigma + sigma.conj().T
        before = hermitian_trace_norm(sigma)
        after = trace_norm((prop @ sigma.reshape(-1)).reshape(dim, dim))
        assert after <= before + 1e-12, f"{after} > {before}"
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1 min"
    report(10, "truncated generators contract the trace norm", t0)


def test_criterion_11_cosine_estimator():
    t0 = time.time()
    rng = np.random.default_rng(47)
    cap = 12
    shape = Rect([cap])
    rho = random_density(rng, cap + 1)
    big = 72
    for eta in (0.5, 2.0):
        arg = eta * PolyOperator.position(1, 0)
        val = cosine_defect(arg, DenseOperator(shape, rho))
        table = displacement_block(big + 1, big + 1, 1j * eta / math.sqrt(2.0))
        cos_big = 0.5 * (table + table.conj().T)
        cos_small = np.zeros_like(cos_big)
        cos_small[: cap + 1, : cap + 1] = cos_big[: cap + 1, : cap + 1]
        emb = np.zeros((big + 1, big + 1), dtype=complex)
        emb[: cap + 1, : cap + 1] = rho
        brute = float(
            np.linalg.svd((cos_big - cos_small) @ emb, compute_uv=False).sum()
        )
        assert abs(val - brute) < 1e-9, f"eta={eta}: |{val} - {brute}|"
    elapsed = time.time() - t0
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
    report(11, "cosine defect equals the enlarged brute force", t0)
