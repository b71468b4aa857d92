import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from certilind.fockspace import (
    DenseOperator,
    Rect,
    WeightedTotal,
    _grow_by_margin,
    basis_map,
    dimension,
    project,
    trace_norm,
)
from certilind.lindblad import PolyExpr, _gkp_q_poly
from certilind.presets import preset_model_file, preset_names
from certilind.operators import (
    OperatorError,
    PolyOperator,
    _hermitian_part,
    cosine_of,
    cosine_unitary_pair,
    displacement_block,
    displacement_q,
    fock_density,
    materialize_poly,
)
from oracles import hermitian_trace_norm, ladder, letter_product_poly


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def series_displacement(shape, eta):
    """Oracle: exp(i*eta*q) computed on a x4 enlarged truncation, restricted."""
    n = dimension(shape)
    big = Rect([4 * n])
    q = materialize_poly(PolyOperator.position(1, 0), big)
    u_big = expm(1j * eta * q.matrix)
    return u_big[:n, :n]


class TestLadder:
    def test_single_mode_entries(self):
        a = ladder(Rect([2]))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = math.sqrt(2.0)
        assert np.allclose(a.matrix, expected)

    def test_vacuum_only(self):
        assert np.all(ladder(Rect([0])).matrix == 0)

    def test_second_mode_matches_kronecker_oracle(self):
        shape = Rect([1, 1])
        a1 = ladder(shape, mode=1)
        # oracle: Id (x) a in the (k0, k1) product ordering, permuted into
        # the shape's own basis order
        single = np.array([[0, 1], [0, 0]], dtype=complex)
        kron = np.kron(np.eye(2), single)
        bm = basis_map(shape)
        perm = [2 * s[0] + s[1] for s in bm.states]
        oracle = kron[np.ix_(perm, perm)]
        assert np.allclose(a1.matrix, oracle)

    def test_weighted_shape_respects_basis(self):
        shape = WeightedTotal(["1/2", "1"], 2)
        a0 = ladder(shape, mode=0)
        bm = basis_map(shape)
        for col, state in enumerate(bm.states):
            if state[0] == 0:
                assert np.all(a0.matrix[:, col] == 0)
            else:
                row = bm.index[(state[0] - 1, state[1])]
                assert np.isclose(a0.matrix[row, col], math.sqrt(state[0]))


class TestMaterializePoly:
    def test_number_operator(self):
        n_op = PolyOperator.creator(1, 0) * PolyOperator.annihilator(1, 0)
        mat = materialize_poly(n_op, Rect([2]))
        assert np.allclose(mat.matrix, np.diag([0.0, 1.0, 2.0]))

    def test_cat_jump_on_tiny_shape(self):
        a = PolyOperator.annihilator(1, 0)
        q = a * a - PolyOperator.identity(1)
        mat = materialize_poly(q, Rect([1]))
        assert np.allclose(mat.matrix, -np.eye(2))

    def test_exactness_vs_truncated_letter_product(self):
        # <0| a a^dag |0> = 1, but the product of truncated letters on
        # Rect([0]) is 0: materialization must use the enlarged space
        prod = PolyOperator.annihilator(1, 0) * PolyOperator.creator(1, 0)
        exact = materialize_poly(prod, Rect([0]))
        assert np.allclose(exact.matrix, [[1.0]])
        a_trunc = ladder(Rect([0]))
        naive = a_trunc.matrix @ a_trunc.matrix.conj().T
        assert np.allclose(naive, [[0.0]])

    def test_growth_stability(self):
        a = PolyOperator.annihilator(1, 0)
        ad = PolyOperator.creator(1, 0)
        q = 0.3 * ad * ad * a - 2.0 * a + PolyOperator.identity(1, 0.5j)
        shape = Rect([6])
        direct = materialize_poly(q, shape)
        for margin in (q.degree, q.degree + 3):
            big = materialize_poly(q, Rect([6 + margin]))
            back, lost = project(big, shape)
            assert lost >= 0
            assert np.allclose(back.matrix, direct.matrix, atol=1e-12)

    def test_two_mode_word(self):
        # a0^2 * ad1 on a small rectangle vs explicit kronecker oracle
        shape = Rect([3, 2])
        poly = (
            PolyOperator.annihilator(2, 0)
            * PolyOperator.annihilator(2, 0)
            * PolyOperator.creator(2, 1)
        )
        got = materialize_poly(poly, shape)
        n0, n1 = 6, 5  # digit headroom for the oracle
        a = np.diag(np.sqrt(np.arange(1, n0)), 1)
        b = np.diag(np.sqrt(np.arange(1, n1)), 1)
        full = np.kron(a @ a, b.conj().T)
        bm = basis_map(shape)
        idx = [n1 * s[0] + s[1] for s in bm.states]
        assert np.allclose(got.matrix, full[np.ix_(idx, idx)])

    def test_mode_count_mismatch(self):
        with pytest.raises(OperatorError):
            materialize_poly(PolyOperator.annihilator(2, 0), Rect([3]))


def _preset_polys():
    cases = []
    for name in preset_names():
        model = preset_model_file(name).build()
        exprs = [e for _, e in model.model.hamiltonian] + list(model.model.dissipators)
        for i, expr in enumerate(e for e in exprs if isinstance(e, PolyExpr)):
            cases.append(pytest.param(expr.poly, model.shape, id=f"{name}-{i}"))
    eps, eta = 0.15, 2.0 * math.sqrt(math.pi)
    q = _gkp_q_poly(1.0, eps)
    v = (
        PolyOperator.identity(1)
        - eps * PolyOperator.momentum(1, 0)
        - eps * eta * PolyOperator.position(1, 0)
    )
    for label, poly in (("q", q), ("qdq", q.dag() * q), ("v", v)):
        cases.append(pytest.param(poly, Rect([30]), id=f"gkp-{label}"))
    return cases


@st.composite
def _shapes_and_terms(draw):
    """A small Rect or WeightedTotal shape and up to four words of up to
    five letters with complex coefficients."""
    shape = draw(
        st.one_of(
            st.lists(st.integers(0, 4), min_size=1, max_size=2).map(Rect),
            st.builds(
                WeightedTotal,
                st.lists(st.sampled_from(["1/2", "1", "2/3", "3/2"]), min_size=1, max_size=2),
                st.integers(0, 4),
            ),
        )
    )
    letter = st.tuples(st.integers(0, shape.mode_count - 1), st.booleans())
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    word = st.lists(letter, max_size=5).map(tuple)
    terms = draw(st.lists(st.tuples(coeff, word), min_size=1, max_size=4))
    return shape, terms


class TestMaterializeMatchesLetterProduct:
    """Index arithmetic against dense letter products on a grown shape:
    the same bits, not only the same values."""

    @pytest.mark.parametrize("margins", [0, 1, 2])
    @pytest.mark.parametrize("poly, shape", _preset_polys())
    def test_preset_polynomials(self, poly, shape, margins):
        shape = _grow_by_margin(shape, [margins * d for d in poly.per_mode_degree()])
        got = materialize_poly(poly, shape).matrix
        assert np.array_equal(got, letter_product_poly(poly, shape))

    @settings(max_examples=60, deadline=None)
    @given(case=_shapes_and_terms())
    # a a^dag a^dag: from |0> the word passes |2>, outside Rect([1]), back to |1>
    @example(case=(Rect([1]), [(0.5 - 1j, ((0, False), (0, True), (0, True)))]))
    # b^dag b^dag b b on the vacuum: annihilated, then raised back into the shape
    @example(case=(WeightedTotal(["1/2", "1"], 2), [(2j, ((1, True), (1, True), (1, False), (1, False)))]))
    def test_random_words(self, case):
        shape, terms = case
        poly = PolyOperator(shape.mode_count, terms)
        got = materialize_poly(poly, shape).matrix
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, letter_product_poly(poly, shape))


class TestPolyBookkeeping:
    def test_degree(self):
        a = PolyOperator.annihilator(1, 0)
        ad = PolyOperator.creator(1, 0)
        assert (a * a - PolyOperator.identity(1)).degree == 2
        assert (ad * ad * a).degree == 3

    def test_per_mode_degree(self):
        two = PolyOperator.annihilator(2, 0) ** 1 if False else None
        poly = (
            PolyOperator.annihilator(2, 0)
            * PolyOperator.annihilator(2, 0)
            * PolyOperator.creator(2, 1)
        )
        assert poly.per_mode_degree() == (2, 1)

    def test_dag_involution(self):
        a = PolyOperator.annihilator(1, 0)
        q = (2 + 1j) * a * a - PolyOperator.identity(1, 0.5)
        assert q.dag().dag() == q

    def test_lowering_exactness_classifier(self):
        a = PolyOperator.annihilator(1, 0)
        b = PolyOperator.annihilator(2, 1)
        assert a.is_lowering_exact()
        assert b.is_lowering_exact()
        assert not (a * a - PolyOperator.identity(1)).is_lowering_exact()
        assert not PolyOperator.creator(1, 0).is_lowering_exact()


class TestDisplacement:
    def test_zero_argument_is_identity(self):
        u = displacement_q(Rect([6]), 0.0)
        assert np.array_equal(u.matrix, np.eye(7))

    def test_vacuum_element_closed_form(self):
        for eta in (0.3, 1.0, 2.0 * math.sqrt(math.pi)):
            u = displacement_q(Rect([30]), eta)
            assert np.isclose(u.matrix[0, 0], math.exp(-(eta**2) / 4.0), atol=1e-12)

    def test_against_series_oracle(self):
        shape = Rect([12])
        for eta in (0.5, 1.3, 2.0 * math.sqrt(math.pi)):
            u = displacement_q(shape, eta)
            oracle = series_displacement(shape, eta)
            assert np.max(np.abs(u.matrix - oracle)) < 1e-10

    def test_columns_are_subnormalized(self):
        u = displacement_q(Rect([25]), 2.0 * math.sqrt(math.pi))
        norms = np.linalg.norm(u.matrix, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)

    def test_inverse_pair_converges_with_truncation(self):
        # truncation converges strongly: measure on a fixed low-lying
        # column block, where the deviation must decay monotonically
        eta = 1.7
        devs = []
        for n in (8, 16, 32, 64):
            u = displacement_q(Rect([n]), eta)
            v = displacement_q(Rect([n]), -eta)
            devs.append(
                np.linalg.norm((u.matrix @ v.matrix - np.eye(n + 1))[:, :6])
            )
        assert all(b <= a * (1 + 1e-12) for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-8

    def test_block_is_symmetric_for_iq(self):
        blk = displacement_block(9, 9, 1j * 0.8 / math.sqrt(2))
        assert np.allclose(blk, blk.T)


class TestTraceNorm:
    def test_identity(self):
        assert np.isclose(trace_norm(DenseOperator.identity(Rect([2]))), 3.0)

    def test_rank_one(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        assert np.isclose(trace_norm(DenseOperator(Rect([1]), m)), 1.0)

    def test_jordan_block(self):
        # eigenvalues of M^dag M are (1 +/- sqrt(2))^2, so the norm is 2*sqrt(2)
        m = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert np.isclose(trace_norm(m), 2.0 * math.sqrt(2.0))

    def test_norm_axioms_on_random_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_matrix(rng, 6)
            b = random_matrix(rng, 6)
            s = complex(rng.standard_normal(), rng.standard_normal())
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
            assert np.isclose(trace_norm(s * a), abs(s) * trace_norm(a))

    def test_dominates_trace(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = random_matrix(rng, 5)
            assert trace_norm(a) >= abs(np.trace(a)) - 1e-10
        psd = random_matrix(rng, 5)
        psd = psd @ psd.conj().T
        assert np.isclose(hermitian_trace_norm(psd), np.trace(psd).real)

    def test_hermitian_guard(self):
        with pytest.raises(ValueError):
            hermitian_trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            trace_norm(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestHermPart:
    def test_fixes_hermitian(self):
        rng = np.random.default_rng(31)
        m = random_matrix(rng, 4)
        h = m + m.conj().T
        assert np.allclose(_hermitian_part(h), h)

    def test_kills_antihermitian(self):
        rng = np.random.default_rng(37)
        m = random_matrix(rng, 4)
        anti = m - m.conj().T
        assert np.allclose(_hermitian_part(anti), 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        once = _hermitian_part(random_matrix(rng, 4))
        assert np.array_equal(_hermitian_part(once), once)


class TestCosine:
    def test_zero_argument(self):
        zero = PolyOperator(1, [])
        c = cosine_of(zero, Rect([4]))
        assert np.allclose(c.matrix, np.eye(5))

    def test_hermitian_output(self):
        arg = 0.8 * PolyOperator.position(1, 0) + 0.3 * PolyOperator.momentum(1, 0)
        c = cosine_of(arg, Rect([10]))
        assert np.allclose(c.matrix, c.matrix.conj().T)

    def test_matches_series_oracle(self):
        shape = Rect([8])
        eta = 0.9
        arg = eta * PolyOperator.position(1, 0)
        got = cosine_of(arg, shape)
        big = Rect([4 * dimension(shape)])
        q = materialize_poly(PolyOperator.position(1, 0), big)
        cos_big = expm(1j * eta * q.matrix)
        cos_big = 0.5 * (cos_big + cos_big.conj().T)
        n = dimension(shape)
        assert np.max(np.abs(got.matrix - cos_big[:n, :n])) < 1e-10

    def test_unitary_pair_square_consistency(self):
        # U^2 truncation must match the displacement at doubled argument,
        # and both must agree with the series oracle
        shape = Rect([9])
        eta = 0.6
        arg = eta * PolyOperator.position(1, 0)
        _, u2 = cosine_unitary_pair(arg, shape)
        oracle = series_displacement(shape, 2 * eta)
        assert np.max(np.abs(u2.matrix - oracle)) < 1e-10

    def test_two_mode_argument(self):
        arg = 0.5 * PolyOperator.position(2, 0) + 0.25 * PolyOperator.momentum(2, 1)
        shape = Rect([5, 4])
        u, _ = cosine_unitary_pair(arg, shape)
        # oracle through the dense exponential on a larger rectangle
        big = Rect([15, 14])
        q0 = materialize_poly(PolyOperator.position(2, 0), big)
        p1 = materialize_poly(PolyOperator.momentum(2, 1), big)
        u_big = expm(1j * (0.5 * q0.matrix + 0.25 * p1.matrix))
        sub = [basis_map(big).index[s] for s in basis_map(shape).states]
        assert np.max(np.abs(u.matrix - u_big[np.ix_(sub, sub)])) < 1e-9

    def test_rejects_nonlinear_argument(self):
        a = PolyOperator.annihilator(1, 0)
        with pytest.raises(OperatorError):
            cosine_of(a * a, Rect([4]))
        with pytest.raises(OperatorError):
            cosine_of(1j * a, Rect([4]))


def test_fock_density():
    rho = fock_density(Rect([3]), [2])
    assert np.isclose(rho.trace(), 1.0)
    assert np.isclose(rho.matrix[2, 2], 1.0)
