import math
import time

import numpy as np
import pytest

from certilind import estimators, lindblad, operators, solver
from certilind.estimators import (
    EstimatorError,
    EstimatorLedger,
    LedgerEntry,
    cosine_defect,
    euler_timedep_step_bound,
    model_space_defect,
    taylor_step_bound,
    xi_step,
)
from certilind.fockspace import (
    DenseOperator,
    Rect,
    _complement_indices,
    _embedding_indices,
    basis_map,
    dimension,
    embed,
    trace_norm,
)
from certilind.lindblad import (
    CoefficientFn,
    GkpDissipator,
    LindbladModel,
    PolyExpr,
    grown_shape,
    shaped_generator,
    truncated_expr,
)
from models import (
    annihilator,
    cat_buffer_model,
    cat_model,
    cosine_hamiltonian_model,
    creator,
    gkp_model,
    gkp_terms_model,
    linear_drive_model,
    number_drive_model,
    squeezed_cat_model,
    word_poly,
)
from certilind.operators import (
    PolyOperator,
    displacement_block,
    fock_density,
    materialize_poly,
)
from certilind.presets import preset_model_file
from certilind.solver import rk4_stepper
from oracles import (
    cosine_radicand,
    defect_cat_closed_form,
    defect_drive_closed_form,
    displacement_q,
    dissipator_defect_blocks,
    gkp_bound_oracle,
    grown_apply_defect,
    hermitian_trace_norm,
    lindblad_superoperator,
    rotation_invariant_density,
    tr_sqrt_psd,
    two_sided_generator,
    unitary_offblock_norm,
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


@pytest.fixture
def table_calls(monkeypatch):
    """The arguments of every ``displacement_block`` call, from each
    module that looks the name up."""
    calls = []
    block = operators.displacement_block

    def counting_block(*args):
        calls.append(args)
        return block(*args)

    for module in (operators, lindblad, estimators):
        if hasattr(module, "displacement_block"):
            monkeypatch.setattr(module, "displacement_block", counting_block)
    return calls


class TestOneTablePerShape:
    """The generator and the certified bound read one truncation: on a
    fresh shape, building both takes one displacement table per (beta,
    shape)."""

    def test_gkp_generator_and_defect(self, table_calls):
        model = gkp_model(0.9, 2.1, 0.2)  # parameters no other test uses
        shape = Rect([17])
        shaped_generator(model, shape)
        assert len(table_calls) == 1
        model_space_defect(model, 0.0, fock_density(shape, [0]))
        assert len(table_calls) == 1

    def test_gkp_generator_truncates_each_dissipator_once(self, monkeypatch):
        # the orbit form reuses the stored sector-1 jump; it once
        # truncated Gamma_1 a second time (5 calls on the preset)
        calls = []
        truncate = lindblad._gkp_truncated_gamma

        def counting_truncate(*args):
            calls.append(args)
            return truncate(*args)

        monkeypatch.setattr(lindblad, "_gkp_truncated_gamma", counting_truncate)
        built = preset_model_file("gkp").build()
        gen = lindblad._ShapedGenerator(built.model, built.shape)
        assert gen.orbits is not None
        assert [args[3] for args in calls] == [0, 1, 2, 3]

    def test_cosine_generator_and_defect(self, table_calls):
        model = cosine_hamiltonian_model([0.7, 0.3], [0.0, 0.5])
        shape = Rect([9, 7])
        shaped_generator(model, shape)
        assert len(table_calls) == 2  # one per mode
        model_space_defect(model, 0.0, fock_density(shape, [1, 0]))
        assert len(table_calls) == 2


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
        # every certified value is a sum of nonnegative terms, so a value
        # below zero, however small, is a fault and is not clipped
        for value in (-1.0, -1e-13):
            with pytest.raises(EstimatorError):
                EstimatorLedger.empty().record(0.0, "space_defect", value)

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
        # is CSR from cap 59 up; the defect reads the grown operators'
        # boundary rows and subtracts nothing, so the two storages cannot
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


def adaptive2d_frame():
    """The adaptive2d preset's model and start shape in its working frame:
    a real gauge on a charge sector of a WeightedTotal, with a ``table``
    drive."""
    built = preset_model_file("adaptive2d").build()
    _, model, rho = solver._enter_frame(built.model, built.initial)
    return model, rho.shape


def complex_drive_model():
    """H = (1 + i) a + (1 - i) a^dag + a^dag a with two-photon loss: no
    gauge of powers of i makes it real, so its generator is complex."""
    ham = word_poly((1 + 1j, "a"), (1 - 1j, "A"), (1.0, "Aa"))
    return LindbladModel(
        1,
        hamiltonian=((CoefficientFn.constant(1.0), PolyExpr(ham)),),
        dissipators=(PolyExpr(word_poly((1.0, "aa"), (-1.0, ""))),),
    )


def pumped_cat_model():
    """The two-photon cat with an extra a^dag jump, which takes the top
    level across the cut (B != 0)."""
    return LindbladModel(
        1, dissipators=cat_model(1.0).dissipators + (PolyExpr(creator()),)
    )


def exampled_model():
    return preset_model_file("exampleD").build().model


class TestBoundaryRowKernel:
    """The defect from the boundary rows against the whole grown
    generator applied to the embedded state (``grown_apply_defect``):
    the same number when no jump crosses the cut, and within rounding
    of one eigensolve of the same blocks when one does."""

    @pytest.mark.parametrize(
        "model, shape, t, csr",
        [
            (lambda: preset_model_file("exampleE").build().model, Rect([5, 3]), 0.0, False),
            (lambda: preset_model_file("exampleE").build().model, Rect([10, 6]), 0.0, True),
            (adaptive2d_frame, None, 0.1, None),
            (adaptive2d_frame, None, 2.0, None),
            (lambda: adaptive2d_frame()[0], Rect([8, 4]), 2.0, None),
            (complex_drive_model, Rect([6]), 0.0, False),
            (complex_drive_model, Rect([70]), 0.0, True),
        ],
        ids=["rect_dense", "rect_csr", "sector_drive_on", "sector_drive_off",
             "rect_drive_off", "complex_dense", "complex_csr"],
    )
    def test_equals_grown_apply_without_boundary_jumps(self, model, shape, t, csr):
        # csr: whether the grown generator stores its operators as CSR
        built = model()
        model, shape = built if shape is None else (built, shape)
        assert estimators._defect_context(model, shape).boundary is None
        if csr is not None:
            assert shaped_generator(model, grown_shape(model, shape)).use_sparse == csr
        rng = np.random.default_rng(dimension(shape))
        for rho in (
            random_density(rng, dimension(shape)),
            random_density(rng, dimension(shape)).real.copy(),
        ):
            rho = DenseOperator(shape, rho)
            assert model_space_defect(model, t, rho) == grown_apply_defect(model, t, rho)

    @pytest.mark.parametrize(
        "model, cap",
        [(exampled_model, 9), (exampled_model, 66), (pumped_cat_model, 9),
         (pumped_cat_model, 66)],
        ids=["exampleD_dense", "exampleD_csr", "pumped_cat_dense", "pumped_cat_csr"],
    )
    def test_matches_grown_apply_with_boundary_jumps(self, model, cap):
        model = model()
        shape = Rect([cap])
        assert estimators._defect_context(model, shape).boundary is not None
        rng = np.random.default_rng(cap)
        for rho in (random_density(rng, cap + 1), decaying_density(rng, cap + 1)):
            rho = DenseOperator(shape, rho)
            got = model_space_defect(model, 0.0, rho)
            assert got == pytest.approx(grown_apply_defect(model, 0.0, rho), rel=1e-13)


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
        a = annihilator(1, 0)
        rho = DenseOperator(Rect([5]), random_density(rng, 6))
        assert dissipator_defect_blocks(a, rho) <= 1e-14

    def test_blocks_match_cat_closed_form(self):
        rng = np.random.default_rng(107)
        alpha = 1.0
        gamma = (
            annihilator(1, 0) * annihilator(1, 0)
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

    @staticmethod
    def preset_states():
        """The vacuum and eight snapshots of the preset's run at cap 30,
        25 RK4 steps apart, as criterion 7 takes them."""
        built = preset_model_file("gkp").build()
        rho, t, dt = built.initial, 0.0, built.config.final_time / 200
        states = [rho.matrix]
        for _ in range(8):
            for _ in range(25):
                rho = rk4_stepper(built.model, t, rho, dt)
                t += dt
            states.append(rho.matrix)
        return built.model.dissipators[0], states

    def test_compressed_factors_match_uncompressed_oracle(self):
        from certilind.estimators import _gkp_context

        diss, states = self.preset_states()
        params = (diss.amplitude, diss.eta, diss.eps)
        ctx = _gkp_context(*params, Rect([30]))
        assert 0 < ctx.rank < ctx.dim + 1  # F keeps some rows, not all
        for i, mat in enumerate(states):
            for sector in range(4):
                got = ctx.sector_defect(mat, sector)
                want = gkp_bound_oracle(*params, mat, sector)
                assert got >= want
                # the dropped singular values enter as an absolute tail,
                # which sets the gap on the vacuum (whose bound is 7.6e-6)
                assert got - want <= ctx.tail * np.linalg.norm(mat) + 1e-15 * want
                if i:
                    assert got <= want * (1.0 + 1e-12)

    @pytest.mark.parametrize("eta, eps", [(0.0, 0.15), (ETA_GRID, 0.0), (0.0, 0.0)])
    def test_degenerate_parameters(self, eta, eps):
        from certilind.estimators import _gkp_context

        shape = Rect([12])
        rho = DenseOperator(shape, random_density(np.random.default_rng(119), 13))
        ctx = _gkp_context(1.0, eta, eps, shape)
        # U = Id: F is the row N + 1 of the identity, of rank 1
        assert (ctx.rank == 1) == (eta == 0.0)
        bound = model_space_defect(gkp_model(1.0, eta, eps), 0.0, rho)
        oracle = sum(gkp_bound_oracle(1.0, eta, eps, rho.matrix, k) for k in range(4))
        assert bound == pytest.approx(oracle, rel=1e-12, abs=4.0 * ctx.tail)
        if eta == eps == 0.0:
            assert bound == 0.0  # Gamma = 0
        brute = gkp_brute_force_defect(1.0, eta, eps, rho, n_big=4 * 13)
        assert bound >= brute - 1e-10


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

    def test_two_mode_matches_enlarged_brute_force(self):
        # U^dag enters as the conjugate transpose of the tensor-product
        # displacement, independently of the parity identity
        rng = np.random.default_rng(126)
        arg = 0.5 * PolyOperator.position(2, 0) + 0.25 * PolyOperator.momentum(2, 1)
        shape, big = Rect([5, 4]), Rect([30, 30])
        rho = random_density(rng, dimension(shape))
        val = cosine_defect(arg, DenseOperator(shape, rho))
        states = np.array(basis_map(big).states)
        u = np.ones((len(states), len(states)), dtype=complex)
        for j, beta in enumerate((0.5j / math.sqrt(2.0), -0.25 / math.sqrt(2.0))):
            table = displacement_block(31, 31, beta)
            u *= table[np.ix_(states[:, j], states[:, j])]
        pos = _embedding_indices(shape, big)
        perp = _complement_indices(shape, big)
        cos_cols = 0.5 * (u[:, pos] + u[pos, :].conj().T)
        brute = np.linalg.svd(cos_cols[perp] @ rho, compute_uv=False).sum()
        assert brute > 1e-3
        assert abs(val - brute) < 1e-9

    def test_second_call_builds_no_table(self, table_calls):
        operators._cosine_tables.cache_clear()
        estimators._cosine_factor.cache_clear()
        rng = np.random.default_rng(127)
        rho = DenseOperator(Rect([6, 3]), random_density(rng, 28))
        arg = 0.9 * PolyOperator.position(2, 0) + 0.4 * PolyOperator.position(2, 1)
        first = cosine_defect(arg, rho)
        assert len(table_calls) == 2  # one table per mode
        assert cosine_defect(arg, rho) == first
        assert len(table_calls) == 2

    def test_compression_stays_within_its_tail(self, monkeypatch):
        # a small argument on a tall shape: the band's smallest singular
        # values fall below the cut, so rows are dropped into the tail
        rng = np.random.default_rng(128)
        shape = Rect([20])
        rho = random_density(rng, 21)
        arg = 0.2 * PolyOperator.position(1, 0)
        estimators._cosine_factor.cache_clear()
        kept, tail = estimators._cosine_factor(arg, shape)
        assert kept.shape[0] < 21 and tail > 0.0
        got = cosine_defect(arg, DenseOperator(shape, rho))
        estimators._cosine_factor.cache_clear()
        monkeypatch.setattr(estimators, "_compressed", lambda f: (f, f[:0]))
        full = cosine_defect(arg, DenseOperator(shape, rho))
        estimators._cosine_factor.cache_clear()
        assert got >= full
        assert got - full <= tail * np.linalg.norm(rho) + 1e-15 * full

    def test_radicand_guard_is_quiet_for_truncated_unitaries(self):
        # the Gram form (1/2) tr sqrt(rho^dag K rho) of the same norm: its
        # radicand passes the PSD guard, and its value is the defect's
        rng = np.random.default_rng(118)
        single = 1.3 * PolyOperator.position(1, 0) + 0.4 * PolyOperator.momentum(1, 0)
        double = 0.5 * PolyOperator.position(2, 0) + 0.25 * PolyOperator.momentum(2, 1)
        cases = [(Rect([n]), single) for n in (4, 9, 14)] + [(Rect([5, 4]), double)]
        for shape, arg in cases:
            rho = random_density(rng, dimension(shape))
            gram = 0.5 * tr_sqrt_psd(cosine_radicand(arg, rho, shape))
            val = cosine_defect(arg, DenseOperator(shape, rho))
            assert np.isfinite(val) and val >= 0.0
            assert gram == pytest.approx(val, rel=1e-6)


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
            annihilator(1, 0) + creator(1, 0), Rect([n + 2])
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
