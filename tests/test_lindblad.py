import math

import numpy as np
import pytest
from scipy.linalg import expm

from certilind import lindblad
from certilind.fockspace import (
    DenseOperator,
    Rect,
    Sector,
    WeightedTotal,
    _embedding_indices,
    basis_map,
    charge_residues,
    dimension,
    embed,
    project,
)
from certilind.lindblad import (
    CoefficientFn,
    CosineExpr,
    GkpDissipator,
    LindbladModel,
    ModelError,
    PolyExpr,
    conserved_charges,
    gauge_phases,
    gauged_model,
    growth_margin,
    grown_shape,
    real_gauge,
    truncated_expr,
)
from models import (
    cat_buffer_model,
    cat_model,
    cosine_hamiltonian_model,
    gkp_model,
    gkp_terms_model,
    linear_drive_model,
    number_drive_model,
    squeezed_cat_model,
    word_poly,
)
from certilind.operators import PolyOperator
from certilind.presets import preset_model_file
from oracles import (
    apply_truncated,
    hermitian_trace_norm,
    lindblad_superoperator,
    off_class,
    rotation_invariant_density,
    two_sided_generator,
)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


class TestGrowthMargin:
    def test_number_drive(self):
        # H of degree 2, loss operator exact -> margin 2
        assert growth_margin(number_drive_model()) == (2,)

    def test_cat(self):
        assert growth_margin(cat_model(alpha=1.0)) == (4,)

    def test_cat_buffer_refined_per_mode(self):
        assert growth_margin(cat_buffer_model(alpha=1.0)) == (2, 1)

    def test_linear_drive(self):
        assert growth_margin(linear_drive_model()) == (1,)

    def test_gkp_routed_away(self):
        with pytest.raises(ModelError):
            growth_margin(gkp_model())

    def test_weighted_grown_shape_uses_weighted_margin(self):
        model = cat_buffer_model(alpha=1.0)
        shape = WeightedTotal(["1/2", "1"], 6)
        big = grown_shape(model, shape)
        assert big == WeightedTotal(["1/2", "1"], 8)


class TestApplyTruncated:
    def test_single_photon_loss_on_fock_one(self):
        model = LindbladModel(
            1, dissipators=(PolyExpr(PolyOperator.annihilator(1, 0)),)
        )
        shape = Rect([1])
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply_truncated(model, 0.0, DenseOperator(shape, rho))
        assert np.allclose(out.matrix, np.diag([1.0, -1.0]))

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(3)
        model = cat_model(alpha=1.3)
        shape = Rect([9])
        sigma = random_hermitian(rng, 10)
        out = apply_truncated(model, 0.0, DenseOperator(shape, sigma)).matrix
        assert abs(np.trace(out)) < 1e-12 * np.linalg.norm(out)
        assert np.allclose(out, out.conj().T)

    def test_time_dependent_coefficient(self):
        u = CoefficientFn(fn=math.sin, sup=1.0, dsup=1.0, label="sin(t)")
        model = linear_drive_model(u)
        shape = Rect([4])
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        op = DenseOperator(shape, rho)
        at0 = apply_truncated(model, 0.0, op).matrix
        at1 = apply_truncated(model, math.pi / 2, op).matrix
        assert np.allclose(at0, 0.0)
        assert not np.allclose(at1, 0.0)


def assert_close_rel(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


SIN = CoefficientFn(fn=math.sin, sup=1.0, dsup=1.0, label="sin(t)")


class TestOneSidedApply:
    """The generator takes every product from the left, which is exact on
    Hermitian inputs only; these compare it with the two-sided forms."""

    CASES = {
        "squeezed_cat": (squeezed_cat_model(1.0, 1.25), Rect([9]), 0.0),
        "cat_buffer": (cat_buffer_model(1.0), Rect([4, 3]), 0.0),
        "time_dependent": (cat_buffer_model(drive=SIN), Rect([4, 3]), 0.7),
        "gkp": (gkp_model(), Rect([14]), 0.0),
        "cosine": (cosine_hamiltonian_model([0.5], [0.3]), Rect([12]), 0.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dense_path_matches_superoperator(self, case):
        model, shape, t = self.CASES[case]
        rng = np.random.default_rng(19)
        d = dimension(shape)
        sigma = random_hermitian(rng, d)
        got = apply_truncated(model, t, DenseOperator(shape, sigma)).matrix
        sup = lindblad_superoperator(model, t, shape)
        assert_close_rel(got, (sup @ sigma.reshape(-1)).reshape(d, d))

    @pytest.mark.parametrize("case", ["cat_buffer", "time_dependent", "gkp"])
    def test_sparse_factors_match_superoperator(self, case, monkeypatch):
        # below the dimension threshold only by lowering it for this test
        monkeypatch.setattr(lindblad, "SPARSE_DIM_THRESHOLD", 1)
        model, shape, t = self.CASES[case]
        gen = lindblad._ShapedGenerator(model, shape)
        assert gen.use_sparse
        rng = np.random.default_rng(23)
        d = gen.dim
        sigma = random_hermitian(rng, d)
        sup = lindblad_superoperator(model, t, shape)
        assert_close_rel(gen.apply(t, sigma), (sup @ sigma.reshape(-1)).reshape(d, d))

    @pytest.mark.parametrize("drive", [None, SIN])
    def test_sparse_path_at_threshold(self, drive):
        # dimension 77: the superoperator would take 560 MB, so the
        # reference is its matrix form
        model = cat_buffer_model(1.0, drive=drive)
        shape = Rect([10, 6])
        rng = np.random.default_rng(29)
        d = dimension(shape)
        assert d >= lindblad.SPARSE_DIM_THRESHOLD
        sigma = random_hermitian(rng, d)
        got = apply_truncated(model, 0.7, DenseOperator(shape, sigma)).matrix
        assert_close_rel(got, two_sided_generator(model, 0.7, shape, sigma))


def apply_on_grown_shape(model, t, rho):
    """L(rho) realized exactly: the truncated generator on the shape grown
    by one growth margin, where the defect routes evaluate it."""
    return apply_truncated(model, t, embed(rho, grown_shape(model, rho.shape)))


class TestApplyExactEmbedded:
    def test_number_drive_is_exactly_closed(self):
        rng = np.random.default_rng(5)
        model = number_drive_model(0.7)
        shape = Rect([6])
        rho = DenseOperator(shape, random_density(rng, 7))
        exact = apply_on_grown_shape(model, 0.0, rho)
        back, lost = project(exact, shape)
        local = apply_truncated(model, 0.0, rho)
        assert np.allclose(back.matrix, local.matrix, atol=1e-13)
        assert lost < 1e-14

    def test_cat_defect_block_matches_closed_form(self):
        # off-shape block of (D_Gamma - D_Gamma_N)(|N><N|) from the exact
        # rank analysis: +(alpha^2/2) sqrt((N+1)(N+2)) (|N+2><N| + h.c.),
        # the overall sign following from -1/2 (X + X^dag) with
        # X = -alpha^2 sqrt((N+1)(N+2)) |N+2><N| rho for rho = |N><N|
        alpha, n = 1.0, 5
        model = cat_model(alpha)
        shape = Rect([n])
        rho = np.zeros((n + 1, n + 1), dtype=complex)
        rho[n, n] = 1.0
        op = DenseOperator(shape, rho)
        exact = apply_on_grown_shape(model, 0.0, op)
        local = embed(apply_truncated(model, 0.0, op), exact.shape)
        diff = exact.matrix - local.matrix
        expected = np.zeros_like(diff)
        c = 0.5 * alpha**2 * math.sqrt((n + 1) * (n + 2))
        expected[n + 2, n] = c
        expected[n, n + 2] = c
        assert np.allclose(diff, expected, atol=1e-12)

    def test_trace_free(self):
        rng = np.random.default_rng(9)
        model = squeezed_cat_model(alpha=1.0, r=1.25)
        rho = DenseOperator(Rect([7]), random_density(rng, 8))
        out = apply_on_grown_shape(model, 0.0, rho)
        assert abs(out.trace()) < 1e-12

    def test_rejects_gkp(self):
        rho = DenseOperator.identity(Rect([3]))
        with pytest.raises(ModelError):
            grown_shape(gkp_model(), rho.shape)


class TestContraction:
    def test_truncated_generator_contracts_trace_norm(self):
        rng = np.random.default_rng(11)
        for model, n in [
            (cat_model(1.0), 5),
            (number_drive_model(0.9), 6),
            (linear_drive_model(1.1), 4),
        ]:
            shape = Rect([n])
            d = n + 1
            sup = lindblad_superoperator(model, 0.0, shape)
            prop = expm(0.2 * sup)
            for _ in range(5):
                sigma = random_hermitian(rng, d)
                before = hermitian_trace_norm(sigma)
                after_vec = prop @ sigma.reshape(-1)
                after = hermitian_trace_norm(after_vec.reshape(d, d))
                assert after <= before + 1e-12


class TestTensorAssemble:
    def test_cat_buffer_hamiltonian_matches_kronecker_oracle(self):
        alpha = 1.0
        model = cat_buffer_model(alpha)
        shape = Rect([4, 3])
        h = truncated_expr(model.hamiltonian[0][1], shape).matrix
        # direct Kronecker construction with headroom, restricted to shape
        n0, n1 = 9, 8
        a = np.diag(np.sqrt(np.arange(1, n0)), 1)
        b = np.diag(np.sqrt(np.arange(1, n1)), 1)
        ident = np.eye(n0 * n1)
        ga = np.kron(a @ a - alpha**2 * np.eye(n0), np.eye(n1))
        bfull = np.kron(np.eye(n0), b)
        hfull = ga @ bfull.conj().T + ga.conj().T @ bfull
        idx = [n1 * s[0] + s[1] for s in basis_map(shape).states]
        assert np.allclose(h, hfull[np.ix_(idx, idx)], atol=1e-12)


class TestModelValidation:
    def test_gkp_mixing_rejected(self):
        with pytest.raises(ModelError):
            LindbladModel(
                1,
                dissipators=(
                    GkpDissipator(1.0, 1.0, 0.1, 0),
                    PolyExpr(PolyOperator.annihilator(1, 0)),
                ),
            )

    def test_cosine_dissipator_rejected(self):
        arg = PolyOperator.position(1, 0)
        with pytest.raises(ModelError):
            LindbladModel(1, dissipators=(CosineExpr(arg),))

    def test_cosine_hamiltonian_allowed(self):
        model = cosine_hamiltonian_model([0.5])
        assert model.kind == "cosine"

    def test_gkp_truncation_is_trace_free_generator(self):
        rng = np.random.default_rng(13)
        model = gkp_model()
        shape = Rect([14])
        rho = DenseOperator(shape, random_density(rng, 15))
        out = apply_truncated(model, 0.0, rho)
        assert abs(out.trace()) < 1e-10



PARITY_PRESETS = ["adaptive1d", "adaptive2d", "exampleC", "exampleD", "exampleE"]

# base shapes whose sectors lie below SPARSE_DIM_THRESHOLD (dense
# products) and above it (CSR products)
SECTOR_TEST_SHAPES = {
    "adaptive1d": (Rect([15]), Rect([140])),
    "adaptive2d": (WeightedTotal(["1/2", "1"], 6), WeightedTotal(["1/2", "1"], 12)),
    "exampleC": (Rect([40]), Rect([140])),
    "exampleD": (Rect([40]), Rect([140])),
    "exampleE": (Rect([8, 4]), Rect([16, 8])),
}


def preset_sectors(model, base):
    moduli = conserved_charges(model)
    residues = {charge_residues(moduli, s) for s in basis_map(base).states}
    return [Sector(base, moduli, r) for r in sorted(residues)]


def sector_density(rng, sector):
    """A random density matrix on ``sector`` and the same state on its base."""
    rho = random_density(rng, dimension(sector))
    idx = _embedding_indices(sector, sector.base)
    full = np.zeros((dimension(sector.base),) * 2, dtype=complex)
    full[np.ix_(idx, idx)] = rho
    return rho, full, idx


class TestConservedCharges:
    @pytest.mark.parametrize(
        "name, moduli",
        [
            ("adaptive1d", (2,)),
            ("adaptive2d", (2, 1)),
            ("exampleC", (2,)),
            ("exampleD", (2,)),
            ("exampleE", (2, 1)),
            ("exampleA", None),
            ("exampleB", None),
            ("gkp", None),
        ],
    )
    def test_presets(self, name, moduli):
        assert conserved_charges(preset_model_file(name).build().model) == moduli

    def test_conserved_occupation_and_cosine(self):
        h = PolyExpr(PolyOperator.creator(1, 0) * PolyOperator.annihilator(1, 0))
        closed = LindbladModel(1, hamiltonian=((CoefficientFn.constant(1.0), h),))
        assert conserved_charges(closed) == (0,)
        assert conserved_charges(cosine_hamiltonian_model([1.0])) is None
        assert conserved_charges(number_drive_model(1.0)) is None  # the loss a0


class TestSectorOperators:
    @pytest.mark.parametrize("name", PARITY_PRESETS)
    def test_materialize_equals_full_block(self, name):
        built = preset_model_file(name).build()
        model = built.model
        exprs = [e for _, e in model.hamiltonian] + list(model.dissipators)
        for base in (built.shape, grown_shape(model, built.shape)):
            for sector in preset_sectors(model, base):
                idx = _embedding_indices(sector, base)
                outside = np.setdiff1d(np.arange(dimension(base)), idx)
                for expr in exprs:
                    full = truncated_expr(expr, base).matrix
                    block = truncated_expr(expr, sector).matrix
                    assert block.tobytes() == full[np.ix_(idx, idx)].tobytes()
                    # the sector's columns reach no state outside it
                    assert not full[np.ix_(outside, idx)].any()

    @pytest.mark.parametrize("name", PARITY_PRESETS)
    @pytest.mark.parametrize("sparse_size", [False, True])
    def test_apply_and_defect_equal_full(self, name, sparse_size):
        from certilind.estimators import model_space_defect

        built = preset_model_file(name).build()
        model = built.model
        base = SECTOR_TEST_SHAPES[name][sparse_size]
        rng = np.random.default_rng(17)
        for sector in preset_sectors(model, base)[:2]:
            rho, full, idx = sector_density(rng, sector)
            gen = lindblad.shaped_generator(model, sector)
            assert gen.use_sparse == sparse_size
            for t in (0.0, 0.1):
                applied = gen.apply(t, rho)
                applied_full = lindblad.shaped_generator(model, base).apply(t, full)
                block = applied_full[np.ix_(idx, idx)]
                if sparse_size:
                    assert np.array_equal(applied, block)
                else:
                    np.testing.assert_allclose(applied, block, rtol=0, atol=1e-13)
                applied_full[np.ix_(idx, idx)] = 0.0
                assert not applied_full.any()  # nothing leaves the sector
                rate = model_space_defect(model, t, DenseOperator(sector, rho))
                rate_full = model_space_defect(model, t, DenseOperator(base, full))
                assert rate == pytest.approx(rate_full, rel=1e-12, abs=1e-14)


ETA = 2.0 * math.sqrt(math.pi)
# full rotation orbits: each (A, eta, eps) in every sector equally often
ORBIT_MODELS = {
    "preset": gkp_model(1.0, ETA, 0.15),
    "two_orbits": gkp_terms_model(
        *[(0.8, ETA, 0.3, k) for k in (3, 1, 2, 0)],
        *[(1.0, ETA, 0.15, k) for k in range(4)],
    ),
    "doubled": gkp_terms_model(*[(1.0, ETA, 0.15, k % 4) for k in range(8)]),
}
INCOMPLETE_ORBITS = {
    "sectors_01": gkp_terms_model((1.0, ETA, 0.15, 0), (1.0, ETA, 0.15, 1)),
    "sector_0_twice": gkp_terms_model(
        *[(1.0, ETA, 0.15, k) for k in (0, 0, 1, 2, 3)]
    ),
}


def four_jump_generator(model, shape):
    """The generator of ``model`` with the rotation-orbit path switched off."""
    gen = lindblad._ShapedGenerator(model, shape)
    gen.orbits = None
    return gen


def coherent_superposition(dim):
    psi = np.zeros(dim, dtype=complex)
    psi[[0, 1]] = 1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


class TestRotationOrbits:
    """A GKP model whose dissipators form full rotation orbits applies one
    jump sandwich per orbit to a rotation-invariant state."""

    @pytest.mark.parametrize("name", sorted(ORBIT_MODELS))
    @pytest.mark.parametrize("cap", [10, 30, 70])  # 70: CSR products
    def test_invariant_apply_equals_four_jumps(self, name, cap):
        model = ORBIT_MODELS[name]
        shape = Rect([cap])
        gen = lindblad._ShapedGenerator(model, shape)
        assert gen.orbits is not None
        assert gen.use_sparse == (cap == 70)
        full = four_jump_generator(model, shape)
        rng = np.random.default_rng(cap)
        mask = off_class(cap + 1)
        for _ in range(3):
            rho = rotation_invariant_density(rng, cap + 1)
            out = gen.apply(0.0, rho)
            assert not out[mask].any()
            oracle = two_sided_generator(model, 0.0, shape, rho)
            for ref in (full.apply(0.0, rho), oracle):
                scale = np.abs(ref).max()
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("cap", [10, 30])
    def test_non_invariant_state_takes_full_path(self, cap):
        model = ORBIT_MODELS["two_orbits"]
        shape = Rect([cap])
        gen = lindblad._ShapedGenerator(model, shape)
        full = four_jump_generator(model, shape)
        rng = np.random.default_rng(7)
        for rho in (coherent_superposition(cap + 1), random_density(rng, cap + 1)):
            assert np.array_equal(gen.apply(0.0, rho), full.apply(0.0, rho))

    @pytest.mark.parametrize("name", sorted(INCOMPLETE_ORBITS))
    def test_incomplete_orbits_take_full_path(self, name):
        model = INCOMPLETE_ORBITS[name]
        shape = Rect([12])
        gen = lindblad._ShapedGenerator(model, shape)
        assert gen.orbits is None
        rho = rotation_invariant_density(np.random.default_rng(3), 13)
        out = gen.apply(0.0, rho)
        np.testing.assert_allclose(
            out, two_sided_generator(model, 0.0, shape, rho), rtol=0, atol=1e-13
        )

    def test_polynomial_models_have_no_orbits(self):
        for model in (cat_model(1.0), number_drive_model(1.0)):
            assert lindblad._ShapedGenerator(model, Rect([8])).orbits is None


CONST = CoefficientFn.constant(1.0)


class TestRealGauge:
    @pytest.mark.parametrize(
        "name, exponents",
        [
            ("exampleA", None),  # a^dag a is a real diagonal word
            ("exampleB", (1,)),
            ("exampleC", (0,)),
            ("exampleD", (0,)),
            ("exampleE", (0, 1)),
            ("adaptive1d", (0,)),
            ("adaptive2d", (0, 1)),
            ("gkp", None),
        ],
    )
    def test_presets(self, name, exponents):
        assert real_gauge(preset_model_file(name).build().model) == exponents

    @pytest.mark.parametrize(
        "model",
        [
            # a Hamiltonian with a diagonal word
            LindbladModel(1, hamiltonian=[(CONST, PolyExpr(word_poly((1, "a"), (1, "A"), (1, "Aa"))))]),
            # a jump whose words are real and imaginary under every phase
            LindbladModel(1, dissipators=[PolyExpr(word_poly((1, "a"), (1j, "aaa")))]),
            LindbladModel(1, dissipators=[PolyExpr(word_poly((1 + 1j, "a")))]),
            # the drive needs f_0 odd, the jump's mixed nets need it even
            LindbladModel(
                2,
                hamiltonian=[(CONST, PolyExpr(word_poly((1, "a"), (1, "A"), modes=2)))],
                dissipators=[PolyExpr(word_poly((1, "ab"), (1, "B"), modes=2))],
            ),
            cosine_hamiltonian_model([1.0]),
            gkp_model(),
        ],
    )
    def test_no_gauge(self, model):
        assert real_gauge(model) is None

    def test_gauged_operators_are_phased_truncations(self):
        # the exchange and drive need f_1 odd; the jump a + i a^2 mixes
        # real and imaginary words unless f_0 is odd
        model = LindbladModel(
            2,
            hamiltonian=[
                (CONST, PolyExpr(word_poly((1, "aaB"), (1, "AAb"), modes=2))),
                (SIN, PolyExpr(word_poly((-2.25, "b"), (-2.25, "B"), modes=2))),
            ],
            dissipators=[
                PolyExpr(word_poly((1, "b"), modes=2)),
                PolyExpr(word_poly((1, "a"), (1j, "aa"), modes=2)),
            ],
        )
        exponents = real_gauge(model)
        assert exponents == (1, 1)
        gauged = gauged_model(model, exponents)
        assert gauged is gauged_model(model, exponents)  # one model per gauge
        shape = WeightedTotal(["1/2", "1"], 5)
        phases = gauge_phases(shape, exponents)
        for (_, expr), (_, phased) in zip(model.hamiltonian, gauged.hamiltonian):
            want = phases[:, None] * truncated_expr(expr, shape).matrix * phases.conj()
            got = truncated_expr(phased, shape).matrix
            assert np.array_equal(got, want) and not got.real.any()
        for expr, phased in zip(model.dissipators, gauged.dissipators):
            want = phases[:, None] * truncated_expr(expr, shape).matrix * phases.conj()
            assert np.array_equal(truncated_expr(phased, shape).matrix, want)
        real_model = cat_model()
        assert gauged_model(real_model, (0,)) is real_model

    @pytest.mark.parametrize("name", ["exampleA", "gkp"])
    def test_complex_generators(self, name):
        built = preset_model_file(name).build()
        gen = lindblad.shaped_generator(built.model, Rect([6]))
        assert gen.dtype == np.complex128
        # a real state is taken as complex
        rho = np.diag(np.linspace(1.0, 0.0, 7))
        out = gen.apply(0.3, rho)
        assert out.dtype == np.complex128
        assert np.array_equal(out, gen.apply(0.3, rho.astype(complex)))
