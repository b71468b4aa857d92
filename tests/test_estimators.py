import math
import time

import numpy as np
import pytest

from certilind import estimators
from certilind.estimators import (
    EstimatorError,
    EstimatorLedger,
    LedgerEntry,
    cosine_defect,
    euler_timedep_step_bound,
    model_space_defect,
    taylor_step_bound,
    tr_sqrt_psd,
    unitary_offblock_norm,
    xi_step,
)
from certilind.fockspace import DenseOperator, Rect, embed, trace_norm
from certilind.lindblad import (
    CoefficientFn,
    GkpDissipator,
    LindbladModel,
    grown_shape,
    shaped_generator,
    truncated_expr,
)
from models import (
    cat_buffer_model,
    cat_model,
    gkp_model,
    gkp_terms_model,
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
from certilind.presets import preset_model_file
from oracles import (
    defect_cat_closed_form,
    defect_drive_closed_form,
    dissipator_defect_blocks,
    hermitian_trace_norm,
    lindblad_superoperator,
    rotation_invariant_density,
    two_sided_generator,
)

ETA_GRID = 2.0 * math.sqrt(math.pi)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def decaying_density(rng, dim):
    """A random density matrix whose populations fall like exp(-n): a tail
    far below the bulk, as in a converged run."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= np.exp(-0.5 * np.arange(dim))[:, None]
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def exact_displacement_big(n_small, n_big, eta):
    """<m|exp(i eta q)|n> on a large rectangle, exact closed form."""
    return displacement_block(n_big + 1, n_big + 1, 1j * eta / math.sqrt(2.0))


class TestLedger:
    def test_zero_defect_leaves_xi(self):
        led = EstimatorLedger.empty()
        led2 = xi_step(led, 0.1, 0.0, 0.1)
        assert led2.xi == 0.0

    def test_steps_sum_additively(self):
        led = EstimatorLedger.empty()
        led = xi_step(led, 0.1, 2.0, 0.1)
        led = xi_step(led, 0.2, 3.0, 0.1)
        assert np.isclose(led.xi, 0.1 * 2.0 + 0.1 * 3.0)
        assert np.isclose(led.xi, sum(e.value for e in led.entries))

    def test_constant_defect_accumulates(self):
        led = EstimatorLedger.empty()
        c, dt, n = 0.7, 0.05, 12
        for i in range(1, n + 1):
            led = xi_step(led, i * dt, c, dt)
        assert np.isclose(led.xi, n * dt * c, rtol=1e-12)

    def test_time_monotonicity_enforced(self):
        led = xi_step(EstimatorLedger.empty(), 0.2, 1.0, 0.1)
        with pytest.raises(EstimatorError):
            xi_step(led, 0.1, 1.0, 0.1)

    def test_negative_value_rejected(self):
        with pytest.raises(EstimatorError):
            EstimatorLedger.empty().record(0.0, "space_defect", -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EstimatorError):
            EstimatorLedger.empty().record(0.0, "bogus", 1.0)

    def test_record_is_amortized_constant_and_snapshots_persist(self):
        led = EstimatorLedger.empty()
        start = time.perf_counter()
        for i in range(30_000):
            led = led.record(float(i), "space_defect", 1e-3)
            if i == 99:
                early = led
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"30,000 records took {elapsed:.2f} s"
        assert len(led.entries) == 30_000
        assert len(early.entries) == 100
        assert early.xi == sum(e.value for e in early.entries)
        # recording on the earlier snapshot branches off; neither changes
        branch = early.record(100.0, "shrink_jump", 1.0)
        assert len(early.entries) == 100
        assert [e.kind for e in branch.entries[99:]] == ["space_defect", "shrink_jump"]
        assert led.entries[100] == LedgerEntry(100.0, "space_defect", 1e-3)
        assert isinstance(led.entries, tuple)


class TestSpaceDefectGeneric:
    def test_number_drive_model_is_defect_free(self):
        rng = np.random.default_rng(101)
        model = number_drive_model(0.8)
        for n in (3, 8, 15):
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            assert model_space_defect(model, 0.0, rho) <= 1e-14

    def test_vacuum_state_drive_defect_zero(self):
        model = linear_drive_model(1.0)
        n = 6
        rho = fock_density(Rect([n]), [0])
        assert model_space_defect(model, 0.0, rho) <= 1e-14

    def test_top_fock_drive_defect(self):
        # |N><N| has <N|rho^2|N> = 1, so the defect is 2 sqrt(N+1)
        model = linear_drive_model(1.0)
        n = 7
        rho = fock_density(Rect([n]), [n])
        assert np.isclose(
            model_space_defect(model, 0.0, rho), 2.0 * math.sqrt(n + 1), rtol=1e-12
        )

    def test_outputs_nonnegative_finite(self):
        rng = np.random.default_rng(102)
        model = cat_model(1.0)
        for n in (2, 5, 9):
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            val = model_space_defect(model, 0.0, rho)
            assert np.isfinite(val) and val >= 0.0

    @pytest.mark.parametrize("name", ["exampleC", "exampleD"])
    def test_defect_across_the_storage_threshold(self, monkeypatch, name):
        # the shape is dense below cap 63 and its grown shape (cap + 4)
        # is CSR from cap 59 up; the defect takes one grown-shape
        # application and subtracts nothing, so the two storages cannot
        # round apart in it
        eig_calls = []
        full_eig = estimators._hermitian_trace_norm

        def counting_eig(mat):
            eig_calls.append(mat.shape)
            return full_eig(mat)

        monkeypatch.setattr(estimators, "_hermitian_trace_norm", counting_eig)
        model = preset_model_file(name).build().model
        (gamma,) = model.dissipators
        rng = np.random.default_rng(58)
        for cap in range(58, 64):
            shape = Rect([cap])
            big = shaped_generator(model, grown_shape(model, shape))
            assert big.use_sparse == (cap >= 59)
            rho = DenseOperator(shape, decaying_density(rng, cap + 1))
            got = model_space_defect(model, 0.0, rho)
            want = dissipator_defect_blocks(gamma.poly, rho)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # a^2 - alpha^2 takes no state across the cut: off blocks only
        assert (eig_calls == []) == (name == "exampleC")


class TestClosedForms:
    def test_drive_closed_form_matches_generic(self):
        rng = np.random.default_rng(103)
        for n in (4, 7, 11):
            u = 0.3 + 0.5 * n
            model = linear_drive_model(u)
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            generic = model_space_defect(model, 0.0, rho)
            closed = defect_drive_closed_form(u, rho)
            assert np.isclose(closed, generic, rtol=1e-12)

    def test_cat_closed_form_matches_generic(self):
        rng = np.random.default_rng(104)
        alpha = 1.0
        model = cat_model(alpha)
        for n in (2, 6):
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            generic = model_space_defect(model, 0.0, rho)
            closed = defect_cat_closed_form(alpha, rho)
            assert np.isclose(closed, generic, rtol=1e-12)

    def test_cat_closed_form_zero_cases(self):
        shape = Rect([6])
        assert defect_cat_closed_form(1.0, fock_density(shape, [0])) == 0.0
        rng = np.random.default_rng(105)
        rho = DenseOperator(shape, random_density(rng, 7))
        assert defect_cat_closed_form(0.0, rho) == 0.0

    def test_blocks_zero_for_plain_loss(self):
        rng = np.random.default_rng(106)
        a = PolyOperator.annihilator(1, 0)
        rho = DenseOperator(Rect([5]), random_density(rng, 6))
        assert dissipator_defect_blocks(a, rho) <= 1e-14

    def test_blocks_match_cat_closed_form(self):
        rng = np.random.default_rng(107)
        alpha = 1.0
        gamma = (
            PolyOperator.annihilator(1, 0) * PolyOperator.annihilator(1, 0)
            - PolyOperator.identity(1, alpha**2)
        )
        for n in (3, 7):
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            blocks = dissipator_defect_blocks(gamma, rho)
            closed = defect_cat_closed_form(alpha, rho)
            assert np.isclose(blocks, closed, rtol=1e-11)

    def test_blocks_match_generic_for_squeezed_cat(self):
        rng = np.random.default_rng(108)
        model = squeezed_cat_model(alpha=1.0, r=1.25)
        gamma = model.dissipators[0].poly
        for n in (4, 8):
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            blocks = dissipator_defect_blocks(gamma, rho)
            generic = model_space_defect(model, 0.0, rho)
            assert np.isclose(blocks, generic, rtol=1e-12)


class TestUnitaryLemma:
    def test_identity_unitary_gives_zero(self):
        rng = np.random.default_rng(109)
        shape = Rect([6])
        u = np.eye(7, dtype=complex)
        assert unitary_offblock_norm(u, random_density(rng, 7)) <= 1e-12

    def test_zero_operand_gives_zero(self):
        shape = Rect([6])
        u = displacement_q(shape, 1.1).matrix
        assert unitary_offblock_norm(u, np.zeros((7, 7), dtype=complex)) == 0.0

    def test_matches_brute_force_offblock(self):
        rng = np.random.default_rng(110)
        eta = ETA_GRID
        shape = Rect([10])
        u = displacement_q(shape, eta).matrix
        big = exact_displacement_big(10, 60, eta)
        for _ in range(5):
            m = random_density(rng, 11)
            val = unitary_offblock_norm(u, m)
            tail = big[11:, :11] @ m
            brute = np.linalg.svd(tail, compute_uv=False).sum()
            assert abs(val - brute) < 1e-8

    def test_two_shape_variant_bounds_brute_force(self):
        # the two-shape split is subadditive (the row-orthogonal pieces
        # still share columns), so it upper-bounds the true off norm and
        # is tight when the between-shapes rows carry little weight
        rng = np.random.default_rng(111)
        eta = 1.4
        small, bigshape = Rect([7]), Rect([9])
        u = displacement_q(bigshape, eta).matrix
        m = embed(DenseOperator(small, random_density(rng, 8)), bigshape)
        val = unitary_offblock_norm(u, m.matrix, slice(8, None))
        table = exact_displacement_big(9, 70, eta)
        brute = np.linalg.svd(table[8:, :10] @ m.matrix, compute_uv=False).sum()
        assert val >= brute - 1e-10
        assert val <= 2.0 * brute  # sanity: the split is not vacuous here

    def test_rejects_non_unitary_input(self):
        shape = Rect([5])
        bogus = 2.0 * np.eye(6)
        with pytest.raises(EstimatorError):
            unitary_offblock_norm(bogus, np.eye(6))


class TestGkpBound:
    def test_trivial_parameters_give_zero(self):
        rng = np.random.default_rng(115)
        shape = Rect([8])
        rho = DenseOperator(shape, random_density(rng, 9))
        assert model_space_defect(gkp_model(1.0, 0.0, 0.0), 0.0, rho) <= 1e-10

    def test_dominates_enlarged_oracle_on_vacuum(self):
        eps = 0.15
        eta = ETA_GRID
        n = 12
        shape = Rect([n])
        rho = fock_density(shape, [0])
        bound = model_space_defect(gkp_model(1.0, eta, eps), 0.0, rho)
        brute = gkp_brute_force_defect(1.0, eta, eps, rho, n_big=4 * (n + 1))
        assert bound >= brute - 1e-10
        assert bound < 10.0  # sanity: not vacuously large for the vacuum

    def test_rotation_covariance_on_invariant_state(self):
        # an R-invariant state makes every sector contribute equally
        eps, eta = 0.15, ETA_GRID
        n = 9
        shape = Rect([n])
        diag = np.exp(-0.7 * np.arange(n + 1))
        rho = DenseOperator(shape, np.diag(diag / diag.sum()).astype(complex))
        vals = [
            model_space_defect(
                LindbladModel(1, dissipators=(GkpDissipator(1.0, eta, eps, k),)),
                0.0,
                rho,
            )
            for k in range(4)
        ]
        assert np.allclose(vals, vals[0], rtol=1e-9)
        total = model_space_defect(gkp_model(1.0, eta, eps), 0.0, rho)
        assert np.isclose(total, sum(vals))


def per_sector_defect(model, rho):
    """The GKP bound as the sum over dissipators of each one's sector
    functional, with no sector shared."""
    from certilind.estimators import _gkp_context

    total = 0.0
    for d in model.dissipators:
        ctx = _gkp_context(d.amplitude, d.eta, d.eps, rho.shape)
        total += ctx.sector_defect(rho.matrix, d.sector)
    return total


class TestGkpInvariantDefect:
    """On a rotation-invariant state each (A, eta, eps) is evaluated once."""

    MODELS = {
        "preset": gkp_model(1.0, ETA_GRID, 0.15),
        "two_orbits": gkp_terms_model(
            *[(0.8, ETA_GRID, 0.3, k) for k in (3, 1, 2, 0)],
            *[(1.0, ETA_GRID, 0.15, k) for k in range(4)],
        ),
        "sectors_013": gkp_terms_model(
            *[(1.0, ETA_GRID, 0.15, k) for k in (0, 1, 3)],
            (0.8, ETA_GRID, 0.3, 2),
        ),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("cap", [10, 30])
    def test_equals_per_sector_sum(self, name, cap):
        model = self.MODELS[name]
        shape = Rect([cap])
        rng = np.random.default_rng(cap + 1)
        states = [
            rotation_invariant_density(rng, cap + 1),  # one sector per key
            fock_density(shape, [0]).matrix,
            random_density(rng, cap + 1),  # every sector
        ]
        for mat in states:
            rho = DenseOperator(shape, np.asarray(mat, dtype=complex))
            assert model_space_defect(model, 0.0, rho) == per_sector_defect(model, rho)

    def test_sectors_agree_on_invariant_state(self):
        from certilind.estimators import _gkp_context

        shape = Rect([30])
        rho = rotation_invariant_density(np.random.default_rng(5), 31)
        ctx = _gkp_context(1.0, ETA_GRID, 0.15, shape)
        values = [ctx.sector_defect(rho, k) for k in range(4)]
        assert values == [values[0]] * 4


def gkp_brute_force_defect(amplitude, eta, eps, rho, n_big):
    """||(L - L_N) rho||_1 with every operator realized on Rect([n_big])."""
    n = rho.dim - 1
    shape_big = Rect([n_big])
    d = n_big + 1
    table = displacement_block(d + 1, d + 1, 1j * eta / math.sqrt(2.0))
    q_poly = amplitude * (
        PolyOperator.identity(1) - eps * PolyOperator.momentum(1, 0)
    )
    q_big = materialize_poly(q_poly, Rect([n_big + 1])).matrix
    uq = table[:d, : d + 1] @ q_big[: d + 1, :d]  # exact P U Q P on big
    gamma0_big = uq - np.eye(d)
    occ = np.arange(d)
    emb = np.zeros((d, d), dtype=complex)
    emb[: n + 1, : n + 1] = rho.matrix

    total = np.zeros((d, d), dtype=complex)
    for k in range(4):
        r = np.power(1j, (k * occ) % 4)
        gk_big = (r[:, None] * gamma0_big) * r.conj()[None, :]
        gk_small = np.zeros_like(gk_big)
        gk_small[: n + 1, : n + 1] = gk_big[: n + 1, : n + 1]

        def dissipator(g, rr):
            gdg = g.conj().T @ g
            return g @ rr @ g.conj().T - 0.5 * (gdg @ rr + rr @ gdg)

        total += dissipator(gk_big, emb) - dissipator(gk_small, emb)
    return hermitian_trace_norm(total)


class TestCosineDefect:
    def test_zero_argument(self):
        rng = np.random.default_rng(116)
        shape = Rect([7])
        rho = DenseOperator(shape, random_density(rng, 8))
        assert cosine_defect(PolyOperator(1, []), rho) <= 1e-12

    def test_matches_enlarged_brute_force(self):
        rng = np.random.default_rng(117)
        n = 12
        shape = Rect([n])
        rho = random_density(rng, n + 1)
        for eta in (0.5, 2.0):
            arg = eta * PolyOperator.position(1, 0)
            val = cosine_defect(arg, DenseOperator(shape, rho))
            nb = 6 * (n + 1)
            table = displacement_block(nb, nb, 1j * eta / math.sqrt(2.0))
            cos_big = 0.5 * (table + table.conj().T)
            cos_small = np.zeros_like(cos_big)
            cos_small[: n + 1, : n + 1] = cos_big[: n + 1, : n + 1]
            emb = np.zeros((nb, nb), dtype=complex)
            emb[: n + 1, : n + 1] = rho
            brute = np.linalg.svd(
                (cos_big - cos_small) @ emb, compute_uv=False
            ).sum()
            assert abs(val - brute) < 1e-9

    def test_radicand_guard_is_quiet_for_truncated_unitaries(self):
        rng = np.random.default_rng(118)
        for n in (4, 9, 14):
            rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
            arg = 1.3 * PolyOperator.position(1, 0) + 0.4 * PolyOperator.momentum(
                1, 0
            )
            val = cosine_defect(arg, rho)
            assert np.isfinite(val) and val >= 0.0


class TestTimeBounds:
    def test_closed_space_leaves_only_remainder(self):
        # defect-free model: the power mismatch vanishes, only the Taylor
        # remainder survives
        rng = np.random.default_rng(119)
        model = number_drive_model(1.0)
        n = 5
        rho = DenseOperator(Rect([n]), random_density(rng, n + 1))
        dt, k = 0.01, 2
        bound = taylor_step_bound(model, rho, dt, k)
        sup = lindblad_superoperator(model, 0.0, Rect([n]))
        vec = rho.matrix.reshape(-1)
        lk1 = (np.linalg.matrix_power(sup, k + 1) @ vec).reshape(n + 1, n + 1)
        remainder = (
            dt ** (k + 1) / math.factorial(k + 1) * hermitian_trace_norm(lk1)
        )
        assert np.isclose(bound, remainder, rtol=1e-10)

    def test_halving_dt_scales_remainder(self):
        rng = np.random.default_rng(120)
        model = number_drive_model(1.0)
        rho = DenseOperator(Rect([4]), random_density(rng, 5))
        k = 2
        b1 = taylor_step_bound(model, rho, 0.02, k)
        b2 = taylor_step_bound(model, rho, 0.01, k)
        assert np.isclose(b2 / b1, 2.0 ** -(k + 1), rtol=1e-9)

    def test_k_below_one_rejected(self):
        model = number_drive_model(1.0)
        rho = fock_density(Rect([3]), [0])
        with pytest.raises(EstimatorError):
            taylor_step_bound(model, rho, 0.1, 0)

    def test_euler_constant_coefficient_reduces_to_taylor1(self):
        rng = np.random.default_rng(121)
        model = number_drive_model(0.9)
        rho = DenseOperator(Rect([5]), random_density(rng, 6))
        dt = 0.02
        euler = euler_timedep_step_bound(model, rho, 0.0, dt)
        taylor = taylor_step_bound(model, rho, dt, 1)
        assert np.isclose(euler, taylor, rtol=1e-10)

    def test_euler_missing_bounds_rejected(self):
        u = CoefficientFn(fn=math.sin, sup=None, dsup=None, label="sin(t)")
        model = linear_drive_model(u)
        rho = fock_density(Rect([4]), [0])
        with pytest.raises(EstimatorError):
            euler_timedep_step_bound(model, rho, 0.0, 0.1)

    def test_euler_matches_drive_oracle(self):
        # direct evaluation of the per-step formula for H = u(t)(a + a^dag)
        rng = np.random.default_rng(122)
        u = CoefficientFn(fn=math.sin, sup=1.0, dsup=1.0, label="sin(t)")
        model = linear_drive_model(u)
        n = 6
        rho_mat = random_density(rng, n + 1)
        rho = DenseOperator(Rect([n]), rho_mat)
        dt, t_n = 0.01, 0.4
        got = euler_timedep_step_bound(model, rho, t_n, dt)

        h1 = materialize_poly(
            PolyOperator.annihilator(1, 0) + PolyOperator.creator(1, 0), Rect([n + 2])
        ).matrix
        emb = np.zeros((n + 3, n + 3), dtype=complex)
        emb[: n + 1, : n + 1] = rho_mat
        comm1 = -1j * (h1 @ emb - emb @ h1)
        term1 = dt**2 * 1.0 * hermitian_trace_norm(comm1)
        comm2 = -1j * math.sin(t_n) * (h1 @ comm1 - comm1 @ h1)
        term2 = 0.5 * dt**2 * 1.0 * hermitian_trace_norm(comm2)
        term3 = dt * defect_drive_closed_form(math.sin(t_n), rho)
        assert np.isclose(got, term1 + term2 + term3, rtol=1e-10)

    def test_euler_matches_mixed_oracle(self):
        # constant exchange term, sin(t) drive and buffer loss: the drift,
        # second-order and space-defect terms of the per-step formula,
        # from dense two-sided products on the shape grown by two margins
        rng = np.random.default_rng(125)
        u = CoefficientFn(fn=math.sin, sup=1.0, dsup=1.0, label="sin(t)")
        model = cat_buffer_model(drive=u)
        shape = Rect([4, 2])
        rho = DenseOperator(shape, random_density(rng, 15))
        dt, t_n = 0.01, 0.4
        got = euler_timedep_step_bound(model, rho, t_n, dt)

        big = grown_shape(model, shape, factor=2)
        emb = embed(rho, big).matrix
        h_drive = truncated_expr(model.hamiltonian[1][1], big).matrix

        def drive_comm(x):
            return -1j * (h_drive @ x - x @ h_drive)

        invariant = LindbladModel(
            2, hamiltonian=model.hamiltonian[:1], dissipators=model.dissipators
        )
        term1 = dt**2 * 1.0 * hermitian_trace_norm(drive_comm(emb))
        m = two_sided_generator(model, t_n, big, emb)  # L(t_n, rho), exact
        term2 = 0.5 * dt**2 * (
            1.0 * hermitian_trace_norm(drive_comm(m))
            + hermitian_trace_norm(two_sided_generator(invariant, t_n, big, m))
        )
        local = embed(
            DenseOperator(shape, two_sided_generator(model, t_n, shape, rho.matrix)),
            big,
        ).matrix
        term3 = dt * hermitian_trace_norm(m - local)
        assert term1 > 0 and term3 > 0
        assert np.isclose(got, term1 + term2 + term3, rtol=1e-10)


class TestDispatcher:
    def test_poly_routing(self):
        rng = np.random.default_rng(123)
        model = cat_model(1.0)
        shape = Rect([6])
        rho = DenseOperator(shape, random_density(rng, 7))
        # the exact defect: L on the margin-grown shape, minus L_N
        big = grown_shape(model, shape)
        full = two_sided_generator(model, 0.0, big, embed(rho, big).matrix)
        local = two_sided_generator(model, 0.0, shape, rho.matrix)
        want = trace_norm(full - embed(DenseOperator(shape, local), big).matrix)
        assert np.isclose(model_space_defect(model, 0.0, rho), want, rtol=1e-12)

    def test_gkp_routing(self):
        rho = fock_density(Rect([10]), [0])
        model = gkp_model(eps=0.15)
        val = model_space_defect(model, 0.0, rho)
        # one term per rotated dissipator, each routed on its own
        sectors = [
            model_space_defect(LindbladModel(1, dissipators=(diss,)), 0.0, rho)
            for diss in model.dissipators
        ]
        assert val == sum(sectors) and val > 0

    def test_cosine_routing(self):
        from models import cosine_hamiltonian_model

        rng = np.random.default_rng(124)
        model = cosine_hamiltonian_model([0.8], coeff=2.0)
        rho = DenseOperator(Rect([8]), random_density(rng, 9))
        want = 2.0 * 2.0 * cosine_defect(0.8 * PolyOperator.position(1, 0), rho)
        assert np.isclose(model_space_defect(model, 0.0, rho), want)


def test_tr_sqrt_psd_guard():
    with pytest.raises(EstimatorError):
        tr_sqrt_psd(np.diag([-1.0, 1.0]).astype(complex))
    assert np.isclose(tr_sqrt_psd(np.diag([4.0, 9.0]).astype(complex)), 5.0)
