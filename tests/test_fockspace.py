import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certilind.fockspace import (
    DenseOperator,
    _as_fraction,
    _embedding_indices,
    _grow_by_margin,
    Rect,
    Sector,
    ShapeError,
    WeightedTotal,
    base_shape,
    basis_map,
    charge_residues,
    contains,
    dimension,
    embed,
    grow,
    project,
    shrink,
)


def brute_weighted_count(weights, cap, kmax=200):
    weights = [Fraction(w) for w in weights]
    cap = Fraction(cap)
    count = 0
    if len(weights) == 1:
        return sum(1 for k in range(kmax) if weights[0] * k <= cap)
    if len(weights) == 2:
        for k1 in range(kmax):
            for k2 in range(kmax):
                if weights[0] * k1 + weights[1] * k2 <= cap:
                    count += 1
        return count
    for k1 in range(kmax):
        for k2 in range(kmax):
            for k3 in range(kmax):
                if weights[0] * k1 + weights[1] * k2 + weights[2] * k3 <= cap:
                    count += 1
    return count


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestDimension:
    def test_single_mode_rect(self):
        assert dimension(Rect([2])) == 3

    def test_two_mode_rect(self):
        assert dimension(Rect([1, 1])) == 4

    def test_weighted_total(self):
        # direct enumeration of {(k1,k2): k1/2 + k2 <= 2} gives 9 states
        shape = WeightedTotal(["1/2", "1"], 2)
        assert dimension(shape) == 9
        assert dimension(shape) == brute_weighted_count(["1/2", "1"], 2, kmax=10)

    @pytest.mark.parametrize(
        "weights,cap",
        [(["1/2", "1"], 6), (["1/3", "2"], 5), (["1", "1", "1"], 4), (["2/3"], 20)],
    )
    def test_weighted_matches_brute_force(self, weights, cap):
        assert dimension(WeightedTotal(weights, cap)) == brute_weighted_count(
            weights, cap, kmax=40
        )

    def test_zero_cap_keeps_vacuum(self):
        assert dimension(Rect([0])) == 1
        assert dimension(WeightedTotal(["1"], 0)) == 1

    def test_weighted_counts_up_to_cap_twenty(self):
        cases = {1: ["2/3"], 2: ["1/2", "1"], 3: ["1/2", "1", "3/2"]}
        for m, weights in cases.items():
            for cap in range(21):
                shape = WeightedTotal(weights, cap)
                kmax = int(cap / min(Fraction(w) for w in weights)) + 2
                assert dimension(shape) == brute_weighted_count(
                    weights, cap, kmax=kmax
                ), (weights, cap)


class TestBasisOrder:
    def test_graded_lexicographic(self):
        bm = basis_map(Rect([2, 1]))
        grades = [sum(s) for s in bm.states]
        assert grades == sorted(grades)
        # ties broken lexicographically
        assert bm.states[:3] == ((0, 0), (0, 1), (1, 0))

    def test_single_mode_prefix_stable_under_grow(self):
        small = basis_map(Rect([5])).states
        big = basis_map(Rect([9])).states
        assert big[: len(small)] == small

    def test_roundtrip_index(self):
        bm = basis_map(WeightedTotal(["1/2", "1"], 3))
        for i, s in enumerate(bm.states):
            assert bm.index[s] == i
            assert bm.states[i] == s


class TestContains:
    def test_rect_rect(self):
        assert contains(Rect([3]), Rect([5]))
        assert not contains(Rect([5]), Rect([3]))

    def test_weighted_in_rect(self):
        assert contains(WeightedTotal(["1/2", "1"], 2), Rect([4, 2]))
        assert not contains(WeightedTotal(["1/2", "1"], 2), Rect([3, 2]))

    def test_rect_in_weighted(self):
        assert contains(Rect([2, 1]), WeightedTotal(["1/2", "1"], 2))
        assert not contains(Rect([2, 2]), WeightedTotal(["1/2", "1"], 2))

    def test_mode_count_mismatch(self):
        with pytest.raises(ShapeError):
            contains(Rect([2]), Rect([2, 2]))

    def test_weighted_weighted_generic(self):
        a = WeightedTotal(["1/2", "1"], 2)
        b = WeightedTotal(["1/3", "1"], 2)
        assert contains(a, b)  # 1/3 k1 + k2 <= 1/2 k1 + k2
        assert not contains(b, a)


class TestEmbedProject:
    def test_identity_embedding(self):
        op = DenseOperator.identity(Rect([1]))
        out = embed(op, Rect([2]))
        assert np.allclose(out.matrix, np.diag([1.0, 1.0, 0.0]))

    def test_single_entry_preserved(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0  # |0><1|
        out = embed(DenseOperator(Rect([1]), m), Rect([3]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = 1.0
        assert np.array_equal(out.matrix, expected)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        op = DenseOperator(Rect([4]), random_density(rng, 5))
        out = embed(op, Rect([9]))
        assert np.isclose(out.trace(), op.trace())

    def test_embed_then_project_is_identity(self):
        rng = np.random.default_rng(11)
        op = DenseOperator(Rect([3, 2]), random_density(rng, 12))
        back, lost = project(embed(op, Rect([5, 4])), Rect([3, 2]))
        assert lost == 0.0
        assert np.array_equal(back.matrix, op.matrix)

    def test_nested_embedding_composes(self):
        rng = np.random.default_rng(13)
        a, b, c = Rect([2, 1]), Rect([4, 2]), Rect([6, 5])
        op = DenseOperator(a, random_density(rng, dimension(a)))
        assert np.array_equal(
            embed(embed(op, b), c).matrix, embed(op, c).matrix
        )

    def test_projection_of_supported_state_lossless(self):
        rng = np.random.default_rng(17)
        small, big = Rect([3]), Rect([8])
        op = embed(DenseOperator(small, random_density(rng, 4)), big)
        _, lost = project(op, small)
        assert lost == 0.0

    def test_rank_one_tail(self):
        big = Rect([5])
        m = np.zeros((6, 6), dtype=complex)
        m[5, 5] = 1.0  # |5><5|
        kept, lost = project(DenseOperator(big, m), Rect([4]))
        assert np.all(kept.matrix == 0)
        assert np.isclose(lost, 1.0)

    def test_discarded_norm_matches_svd_oracle(self):
        rng = np.random.default_rng(19)
        big, small = Rect([7]), Rect([4])
        rho = random_density(rng, 8)
        op = DenseOperator(big, rho)
        _, lost = project(op, small)
        p = np.zeros((8, 8))
        p[:5, :5] = np.eye(5)
        brute = np.linalg.svd(rho - p @ rho @ p, compute_uv=False).sum()
        assert np.isclose(lost, brute, rtol=0, atol=1e-12)

    def test_containment_violation(self):
        op = DenseOperator.identity(Rect([3]))
        with pytest.raises(ShapeError):
            embed(op, Rect([2]))
        with pytest.raises(ShapeError):
            project(op, Rect([4]))


class TestGrowShrink:
    def test_rect_grow(self):
        assert grow(Rect([15]), 4) == Rect([19])

    def test_weighted_grow(self):
        shape = WeightedTotal(["1/2", "1"], 6)
        assert grow(shape, 1) == WeightedTotal(["1/2", "1"], 7)

    def test_grow_contains_old(self):
        for shape, step in [
            (Rect([3, 2]), (2, 1)),
            (WeightedTotal(["1/2", "1"], 4), "3/2"),
        ]:
            assert contains(shape, grow(shape, step))

    def test_shrink_mirrors_grow(self):
        assert shrink(grow(Rect([7, 3]), (2, 1)), (2, 1)) == Rect([7, 3])

    def test_shrink_below_zero_errors(self):
        with pytest.raises(ShapeError):
            shrink(Rect([3]), 4)
        with pytest.raises(ShapeError):
            shrink(WeightedTotal(["1"], 2), 3)

    @pytest.mark.parametrize("resize", [grow, shrink])
    @pytest.mark.parametrize("step", [(1,), (1, 1, 1)])
    def test_per_mode_step_length_checked(self, resize, step):
        with pytest.raises(ShapeError, match="per-mode step length"):
            resize(Rect([4, 4]), step)

    @pytest.mark.parametrize("resize", [grow, shrink])
    @pytest.mark.parametrize("step", [0.5, 1.7, "7/2", Fraction(7, 2), (2, 0.5)])
    def test_rect_steps_are_whole(self, resize, step):
        with pytest.raises(ShapeError, match="whole steps"):
            resize(Rect([4, 4]), step)

    def test_whole_step_forms(self):
        for step in (2, 2.0, "2", Fraction(2), (2, 2), [2.0, 2]):
            assert grow(Rect([4, 4]), step) == Rect([6, 6])
            assert shrink(Rect([4, 4]), step) == Rect([2, 2])

    @pytest.mark.parametrize("step", [1e-12, "1/10", "49/100"])
    def test_weighted_small_step_reaches_the_next_grade(self, step):
        shape = WeightedTotal(["1/2", "1"], 4)
        grown = grow(shape, step)
        assert grown.cap == Fraction(9, 2)
        assert dimension(grown) > dimension(shape)
        off_grade = WeightedTotal(["2/3", "1"], "1/3")
        assert grow(off_grade, step).cap == max(off_grade.cap + Fraction(step), Fraction(2, 3))

    def test_weighted_step_of_a_weight_is_taken_as_is(self):
        assert grow(WeightedTotal(["1/2", "1"], 6), "7").cap == 13  # adaptive2d
        assert grow(WeightedTotal(["1/2", "1"], "6.3"), "1/2").cap == Fraction(68, 10)
        margin_grown = _grow_by_margin(WeightedTotal(["1/2", "1"], "6.3"), (1, 0))
        assert margin_grown.cap == Fraction(68, 10)
        assert _grow_by_margin(WeightedTotal(["1/2", "1"], 6), (4, 2)).cap == 10

    @pytest.mark.parametrize("resize", [grow, shrink])
    def test_weighted_takes_one_cap_step(self, resize):
        shape = WeightedTotal(["1/2", "1"], 4)
        with pytest.raises(ShapeError, match="per-mode steps"):
            resize(shape, (1, 1))
        with pytest.raises(ShapeError, match="per-mode steps"):
            resize(Sector(shape, (2, 0), (0, 0)), (1, 1))


@settings(max_examples=50, deadline=None)
@given(
    caps=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
    inc=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
)
def test_grow_always_contains(caps, inc):
    inc = (inc * 3)[: len(caps)]
    shape = Rect(caps)
    assert contains(shape, grow(shape, inc))


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=6),
        min_size=1,
        max_size=2,
    ),
    cap=st.fractions(min_value=0, max_value=5, max_denominator=6),
    step=st.fractions(min_value=Fraction(1, 10**6), max_value=2, max_denominator=10**6),
)
def test_weighted_grow_adds_a_state(weights, cap, step):
    shape = WeightedTotal(weights, cap)
    grown = grow(shape, step)
    # the smallest grade above the cap, by brute force over a box
    box = [range(int(cap / w) + 2) for w in shape.weights]
    grades = {sum(w * k for w, k in zip(shape.weights, ks)) for ks in itertools.product(*box)}
    next_grade = min(g for g in grades if g > shape.cap)
    assert grown.cap == max(shape.cap + step, next_grade)
    assert dimension(grown) > dimension(shape)


@settings(max_examples=30, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=4),
    den=st.integers(min_value=1, max_value=4),
    cap=st.integers(min_value=0, max_value=12),
)
def test_weighted_dimension_matches_enumeration(num, den, cap):
    w = Fraction(num, den)
    shape = WeightedTotal([w], cap)
    assert dimension(shape) == sum(1 for k in range(200) if w * k <= cap)


def test_decimal_float_becomes_its_decimal_fraction():
    # not the exact binary value 3602879701896397/36028797018963968
    assert _as_fraction(0.1) == Fraction(1, 10)
    assert WeightedTotal([0.5, 1], 6) == WeightedTotal(["1/2", "1"], 6)


class TestSector:
    BASES = [Rect([7]), Rect([6, 4]), WeightedTotal(["1/2", "1"], 5), Rect([3, 2, 3])]

    @staticmethod
    def sectors(base):
        """Every sector of the base for moduli 2 on mode 0, 0 on the last
        mode (the occupation itself) and 3 on a middle mode."""
        m = base.mode_count
        moduli = [2] + [3] * max(m - 2, 0) + ([0] if m > 1 else [])
        residues = {charge_residues(moduli, s) for s in basis_map(base).states}
        return [Sector(base, moduli, r) for r in sorted(residues)]

    @pytest.mark.parametrize("base", BASES)
    def test_basis_is_filtered_subsequence_of_base(self, base):
        full = basis_map(base).states
        seen = 0
        for sector in self.sectors(base):
            states = basis_map(sector).states
            assert states == tuple(s for s in full if sector.in_sector(s))
            assert all(sector.admits(s) for s in states)
            seen += len(states)
        assert seen == len(full)  # the sectors partition the base

    @pytest.mark.parametrize("base", BASES)
    def test_delegates_to_base(self, base):
        sector = self.sectors(base)[0]
        assert sector.mode_count == base.mode_count
        assert base_shape(sector) == base and base_shape(base) == base
        step = 2 if isinstance(base, WeightedTotal) else 1
        grown = Sector(grow(base, step), sector.moduli, sector.residues)
        assert grow(sector, step) == grown
        assert shrink(sector, step).base == shrink(base, step)
        margin = (1,) * base.mode_count
        assert _grow_by_margin(sector, margin).base == _grow_by_margin(base, margin)
        assert contains(sector, grow(sector, step))
        assert contains(sector, base)
        assert not contains(base, sector)
        other = self.sectors(base)[1]
        assert not contains(sector, other)

    def test_embed_and_project_follow_base_indices(self):
        rng = np.random.default_rng(5)
        small = Sector(Rect([5, 3]), [2, 1], [1, 0])
        big = grow(small, 2)
        d = dimension(small)
        rho = DenseOperator(small, random_density(rng, d))
        back, lost = project(embed(rho, big), small)
        assert np.array_equal(back.matrix, rho.matrix) and lost == 0.0
        # a sector state is its base state restricted to the sector's indices
        full = embed(rho, small.base).matrix
        idx = _embedding_indices(small, small.base)
        assert np.array_equal(full[np.ix_(idx, idx)], rho.matrix)
        assert np.count_nonzero(full) == np.count_nonzero(rho.matrix)

    def test_conserved_occupation(self):
        sector = Sector(Rect([6]), [0], [4])
        assert basis_map(sector).states == ((4,),)
        assert dimension(Sector(Rect([3]), [0], [4])) == 0

    @pytest.mark.parametrize(
        "args",
        [
            (Rect([3]), [2], [2]),  # residue not below its modulus
            (Rect([3]), [-2], [0]),
            (Rect([3, 3]), [2], [0]),  # one modulus per mode
            (Rect([3]), [2], [-1]),
        ],
    )
    def test_invalid_charges_rejected(self, args):
        with pytest.raises(ShapeError):
            Sector(*args)

    def test_nested_sector_rejected(self):
        inner = Sector(Rect([3]), [2], [0])
        with pytest.raises(ShapeError):
            Sector(inner, [2], [0])
