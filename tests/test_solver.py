import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from certilind import cli, estimators, lindblad, solver
from certilind.fockspace import (
    DenseOperator,
    Rect,
    Sector,
    WeightedTotal,
    basis_map,
    dimension,
    discarded_floor,
    project,
    trace_norm,
)
from certilind.lindblad import (
    CoefficientFn,
    LindbladModel,
    PolyExpr,
    conserved_charges,
    gauge_phases,
    gauged_model,
    real_gauge,
)
from models import (
    cat_buffer_model,
    cat_model,
    gkp_model,
    gkp_terms_model,
    linear_drive_model,
    number_drive_model,
    word_poly,
)
from certilind.operators import PolyOperator, fock_density
from certilind.modelfile import ModelFile
from certilind.presets import PRESETS, preset_model_file
from certilind.solver import (
    CertificationError,
    SolverConfig,
    SolverError,
    adaptive_solve_one_step,
    euler_stepper,
    rk4_stepper,
    run_adaptive,
    run_fixed,
    taylor_stepper,
    write_ledger_csv,
    write_trajectory_csv,
)
from oracles import complex_arithmetic_run, lindblad_superoperator, two_sided_generator


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def expm_evolve(model, rho, t):
    shape = rho.shape
    d = rho.dim
    sup = lindblad_superoperator(model, 0.0, shape)
    vec = expm(t * sup) @ rho.matrix.reshape(-1)
    return vec.reshape(d, d)


class TestAdaptiveStep:
    def test_flat_model_jumps_to_horizon(self):
        model = LindbladModel(1)  # L = 0
        shape = Rect([3])
        rho = fock_density(shape, [1])
        step = adaptive_solve_one_step(model, shape, rho, 0.0, 1e-10, horizon=2.5)
        assert np.array_equal(step.rho_next.matrix, rho.matrix)
        assert np.isclose(step.dt, 2.5)

    def test_single_step_matches_expm(self):
        rng = np.random.default_rng(200)
        model = number_drive_model(1.0)
        shape = Rect([5])
        rho = DenseOperator(shape, random_density(rng, 6))
        tol = 1e-10
        step = adaptive_solve_one_step(model, shape, rho, 0.0, tol, horizon=1.0)
        exact = expm_evolve(model, rho, step.dt)
        err = trace_norm(step.rho_next.matrix - exact)
        assert err <= 10 * tol * step.dt / 1.0 + 1e-14

    def test_tightening_tolerance_reduces_step_error(self):
        rng = np.random.default_rng(201)
        model = cat_model(1.0)
        shape = Rect([7])
        rho = DenseOperator(shape, random_density(rng, 8))
        errors = []
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            step = adaptive_solve_one_step(model, shape, rho, 0.0, tol, horizon=1.0)
            exact = expm_evolve(model, rho, step.dt)
            errors.append(
                trace_norm(step.rho_next.matrix - exact) / step.dt
            )
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errors, errors[1:]))

    def test_full_integration_matches_expm(self):
        rng = np.random.default_rng(202)
        model = number_drive_model(0.8)
        shape = Rect([4])
        rho0 = DenseOperator(shape, random_density(rng, 5))
        tol = 1e-11
        config = SolverConfig(final_time=1.0, scheme="adaptive_rk", time_tol=tol)
        result = run_fixed(model, rho0, shape, config)
        exact = expm_evolve(model, rho0, 1.0)
        assert trace_norm(result.final.rho.matrix - exact) <= 10 * tol


class TestFixedSteppers:
    def test_taylor1_equals_euler(self):
        rng = np.random.default_rng(203)
        model = cat_model(1.0)
        shape = Rect([6])
        rho = DenseOperator(shape, random_density(rng, 7))
        dt = 0.01
        a = taylor_stepper(model, rho, dt, 1)
        b = euler_stepper(model, 0.0, rho, dt)
        assert np.allclose(a.matrix, b.matrix)

    def test_flat_model_is_identity(self):
        model = LindbladModel(1)
        rho = fock_density(Rect([4]), [2])
        out = taylor_stepper(model, rho, 0.3, 3)
        assert np.array_equal(out.matrix, rho.matrix)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_taylor_order_of_convergence(self, k):
        rng = np.random.default_rng(204)
        model = number_drive_model(1.0)
        shape = Rect([5])
        rho0 = DenseOperator(shape, random_density(rng, 6))
        t_final = 0.5
        errs, dts = [], []
        for n in (8, 16, 32, 64):
            dt = t_final / n
            rho = rho0
            for _ in range(n):
                rho = taylor_stepper(model, rho, dt, k)
            exact = expm_evolve(model, rho0, t_final)
            errs.append(trace_norm(rho.matrix - exact))
            dts.append(dt)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - k) < 0.2

    def test_euler_time_dependent_drive(self):
        u = CoefficientFn(fn=math.sin, sup=1.0, dsup=1.0, label="sin(t)")
        model = linear_drive_model(u)
        shape = Rect([10])
        rho0 = fock_density(shape, [0])
        t_final = 0.4
        coarse = rho0
        n1 = 400
        for i in range(n1):
            coarse = euler_stepper(model, i * t_final / n1, coarse, t_final / n1)
        fine = rho0
        n2 = 6400
        for i in range(n2):
            fine = euler_stepper(model, i * t_final / n2, fine, t_final / n2)
        # first-order convergence toward the fine reference
        gap = trace_norm(coarse.matrix - fine.matrix)
        assert gap < 5.0 * (t_final / n1)

    def test_rk4_matches_expm(self):
        rng = np.random.default_rng(205)
        model = cat_model(1.0)
        shape = Rect([5])
        rho0 = DenseOperator(shape, random_density(rng, 6))
        rho = rho0
        n, t_final = 200, 0.5
        for i in range(n):
            rho = rk4_stepper(model, i * t_final / n, rho, t_final / n)
        exact = expm_evolve(model, rho0, t_final)
        assert trace_norm(rho.matrix - exact) < 1e-9
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)


class TestRunFixed:
    def test_defect_free_model_keeps_xi_at_zero(self):
        model = number_drive_model(1.0)
        shape = Rect([12])
        rho0 = fock_density(shape, [3])
        config = SolverConfig(final_time=1.0, time_tol=1e-10)
        result = run_fixed(model, rho0, shape, config)
        assert result.xi <= 1e-14

    def test_trace_conserved_without_shrink(self):
        rng = np.random.default_rng(206)
        model = cat_model(1.0)
        shape = Rect([14])
        rho0 = DenseOperator(shape, random_density(rng, 15))
        config = SolverConfig(final_time=0.5, time_tol=1e-10)
        result = run_fixed(model, rho0, shape, config)
        assert abs(result.final.rho.trace().real - 1.0) <= 1e-10
        for rec in result.trajectory:
            assert abs(rec.trace_re - 1.0) <= 1e-10

    def test_initial_projection_enters_ledger(self):
        rng = np.random.default_rng(207)
        big, small = Rect([9]), Rect([5])
        rho0 = DenseOperator(big, random_density(rng, 10))
        model = cat_model(1.0)
        config = SolverConfig(final_time=0.05, time_tol=1e-9)
        result = run_fixed(model, rho0, small, config)
        kinds = [e.kind for e in result.ledger.entries]
        assert kinds[0] == "init_projection"
        assert result.ledger.entries[0].value > 0

    def test_xi_monotone_along_run(self):
        rng = np.random.default_rng(208)
        model = cat_model(1.0)
        shape = Rect([8])
        rho0 = DenseOperator(shape, random_density(rng, 9))
        config = SolverConfig(final_time=0.3, time_tol=1e-9)
        result = run_fixed(model, rho0, shape, config)
        xis = [rec.xi for rec in result.trajectory]
        assert all(b >= a for a, b in zip(xis, xis[1:]))

    def test_time_certificate_taylor_bounds_true_error(self):
        # closed model on a small space: the certified bound must dominate
        # the gap to the dense exponential
        rng = np.random.default_rng(209)
        model = number_drive_model(1.0)
        shape = Rect([5])
        rho0 = DenseOperator(shape, random_density(rng, 6))
        t_final = 1.0
        for k in (1, 2):
            config = SolverConfig(
                final_time=t_final,
                scheme="taylor",
                taylor_order=k,
                dt=t_final / 64,
                enable_time_certificate=True,
            )
            result = run_fixed(model, rho0, shape, config)
            exact = expm_evolve(model, rho0, t_final)
            true_err = trace_norm(result.final.rho.matrix - exact)
            assert result.xi >= true_err
            kinds = {e.kind for e in result.ledger.entries}
            assert kinds == {"time_taylor"}

    @pytest.mark.parametrize(
        "scheme, certified",
        [
            ("rk4", False),
            ("euler", False),
            ("euler", True),
            ("taylor", False),
            ("taylor", True),
        ],
    )
    def test_fixed_step_grid_and_ledger(self, monkeypatch, scheme, certified):
        # n = round(T/dt) steps of T/n, the k-th ending at exactly
        # k * (T/n) (a running sum drifts on this grid); the defect prices
        # every step without the time certificate and none with it
        defect, defect_times = solver.model_space_defect, []

        def counting_defect(model, t, rho):
            defect_times.append(t)
            return defect(model, t, rho)

        monkeypatch.setattr(solver, "model_space_defect", counting_defect)
        t_final, n = 0.3, 43
        config = SolverConfig(
            final_time=t_final,
            scheme=scheme,
            dt=0.007,
            taylor_order=3,
            enable_time_certificate=certified,
        )
        shape = Rect([8])
        result = run_fixed(cat_model(1.0), fock_density(shape, [0]), shape, config)
        times = [k * (t_final / n) for k in range(1, n + 1)]
        assert [r.time for r in result.trajectory] == times
        assert result.final.time == times[-1]
        assert [e.time for e in result.ledger.entries] == times
        kinds = {e.kind for e in result.ledger.entries}
        if certified:
            assert defect_times == []
            assert kinds == {f"time_{scheme}"}
        else:
            assert defect_times == times
            assert kinds == {"space_defect"}
        # each row's rate is the one at which its step charged xi
        xi_before = [0.0] + [r.xi for r in result.trajectory[:-1]]
        for r, before in zip(result.trajectory, xi_before):
            assert r.xi - before == pytest.approx(r.defect_rate * (t_final / n), rel=1e-12)

    def test_certificate_requires_fixed_scheme(self):
        with pytest.raises(SolverError):
            SolverConfig(
                final_time=1.0, scheme="adaptive_rk", enable_time_certificate=True
            )


class TestRunAdaptive:
    def test_budget_respected_and_resizes_happen(self):
        model = cat_model(1.0)
        config = SolverConfig(
            final_time=1.0,
            time_tol=1e-12,
            space_tol=1e-9,
            downsize_factor=5.0,
            grow_step=4,
            shrink_step=4,
            max_dimension=256,
        )
        rho0 = fock_density(Rect([10]), [0])
        result = run_adaptive(model, rho0, config)
        t_final = config.final_time
        for rec in result.trajectory:
            if rec.accepted:
                assert rec.xi <= (rec.time / t_final) * config.space_tol * (
                    1 + 1e-9
                )
        assert result.final.time >= t_final * (1 - 1e-12)

    def test_small_start_grows(self):
        model = cat_model(1.0)
        config = SolverConfig(
            final_time=1.0,
            time_tol=1e-12,
            space_tol=1e-9,
            grow_step=4,
            shrink_step=4,
            max_dimension=256,
        )
        result = run_adaptive(model, rho0=fock_density(Rect([4]), [0]), config=config)
        assert any(not rec.accepted and rec.resize == "grow" for rec in result.trajectory)
        assert result.trajectory[-1].dim > 5
        final = result.final.rho.matrix
        assert np.array_equal(final, final.conj().T)

    def test_large_start_shrinks_with_certified_trace_loss(self):
        model = cat_model(1.0)
        config = SolverConfig(
            final_time=1.0,
            time_tol=1e-12,
            space_tol=1e-9,
            grow_step=4,
            shrink_step=4,
            max_dimension=512,
        )
        result = run_adaptive(model, rho0=fock_density(Rect([30]), [0]), config=config)
        assert any(rec.resize == "shrink" for rec in result.trajectory)
        # trace loss certified: 1 - tr(rho) <= xi at all accepted records
        for rec in result.trajectory:
            if rec.accepted:
                assert 1.0 - rec.trace_re <= rec.xi + 1e-12

    def test_max_dimension_bound_failure(self):
        model = cat_model(2.0)  # needs a large space
        config = SolverConfig(
            final_time=1.0,
            time_tol=1e-10,
            space_tol=1e-13,
            grow_step=4,
            shrink_step=4,
            max_dimension=12,
        )
        with pytest.raises(CertificationError):
            run_adaptive(model, rho0=fock_density(Rect([6]), [0]), config=config)

    def test_unbound_budget_on_a_fixed_shape_equals_run_fixed(self):
        # both drivers run one DP5 loop: with a budget that never binds and
        # a shape that cannot shrink (the parity sector of Rect([3]) in the
        # real gauge; shrinking by 4 leaves no state) nothing resizes, so
        # the adaptive run is the fixed one, bit for bit
        built = preset_model_file("exampleC", cap=3).build()
        config = SolverConfig(
            final_time=0.3, time_tol=1e-12, space_tol=1e300, shrink_step=4
        )
        fixed = run_fixed(built.model, built.initial, built.shape, config)
        adaptive = run_adaptive(built.model, built.initial, config)
        assert fixed.frame.moduli == (2,) and fixed.frame.gauge is not None
        assert len(fixed.trajectory) == 27
        assert adaptive.trajectory == fixed.trajectory
        assert adaptive.ledger.entries == fixed.ledger.entries
        assert adaptive.frame == fixed.frame
        assert adaptive.final.time == fixed.final.time
        assert adaptive.final.rho.matrix.tobytes() == fixed.final.rho.matrix.tobytes()

    def test_determinism(self):
        model = cat_model(1.0)
        config = SolverConfig(
            final_time=0.5,
            time_tol=1e-11,
            space_tol=1e-9,
            grow_step=4,
            shrink_step=4,
            max_dimension=256,
        )

        def one_run():
            return run_adaptive(model, fock_density(Rect([8]), [0]), config)

        a, b = one_run(), one_run()
        assert len(a.trajectory) == len(b.trajectory)
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert ra == rb
        assert np.array_equal(a.final.rho.matrix, b.final.rho.matrix)
        assert a.xi == b.xi


class TestFakeShrinks:
    """A shrink step that keeps every state of the working shape is no
    shrink: the run keeps its shape, records no resize and pays no tail."""

    @staticmethod
    def run_recording_projections(monkeypatch, model, rho0, config):
        projections = []
        project = solver.project

        def recording_project(op, shape):
            projections.append((dimension(op.shape), dimension(shape)))
            return project(op, shape)

        monkeypatch.setattr(solver, "project", recording_project)
        result = run_adaptive(model, rho0, config)
        assert all(small < big for big, small in projections)
        for prev, rec in zip(result.trajectory, result.trajectory[1:]):
            if rec.resize == "shrink":
                assert rec.dim < prev.dim
        tails = [e.value for e in result.ledger.entries if e.kind == "shrink_jump"]
        assert all(tail > 0 for tail in tails)
        return result

    def test_weighted_cap_between_grades(self, monkeypatch):
        # grades are multiples of 1/2, so caps 43/10 down to 4 keep all
        # 25 states; the model is defect-free, so xi never blocks a shrink
        model = LindbladModel(
            2,
            hamiltonian=(
                (CoefficientFn.constant(1.0), PolyExpr(word_poly((1, "Aa"), (1, "Bb"), modes=2))),
            ),
            dissipators=(
                PolyExpr(word_poly((1, "a"), modes=2)),
                PolyExpr(word_poly((1, "b"), modes=2)),
            ),
        )
        shape = WeightedTotal(["1/2", "1"], "43/10")
        assert dimension(shape) == dimension(WeightedTotal(["1/2", "1"], 4)) == 25
        config = SolverConfig(
            final_time=0.5, time_tol=1e-10, space_tol=1e-6, shrink_step="1/10"
        )
        result = self.run_recording_projections(
            monkeypatch, model, fock_density(shape, [2, 1]), config
        )
        assert result.xi == 0.0
        assert {rec.dim for rec in result.trajectory} == {25}

    def test_parity_sector_cap_between_sector_states(self, monkeypatch):
        # the even sector of Rect([5]) and of Rect([4]) both hold |0>, |2>, |4>
        model = cat_model(1.0)
        rho0 = fock_density(Rect([5]), [0])
        config = SolverConfig(
            final_time=0.2, time_tol=1e-10, space_tol=1e-2, shrink_step=1
        )
        result = self.run_recording_projections(monkeypatch, model, rho0, config)
        assert result.frame.moduli == (2,)
        assert all(rec.resize == "none" for rec in result.trajectory)


class TestShrinkFloor:
    """The solver projects onto a shrunk shape only when the discarded
    part's Frobenius floor leaves room for a shrink: a run takes every
    shrink it takes without the floor, with the same tail."""

    @staticmethod
    def pulse_run(monkeypatch, floor):
        # adaptive2d with its drive switched off at t = 0.2, to T = 1.5:
        # it grows, then shrinks once the buffer has emptied
        doc = PRESETS["adaptive2d"]()
        doc["hamiltonian"][1]["coeff"]["table"] = [[0.0, -2.25], [0.2, 0.0]]
        doc["solver"]["T"] = 1.5
        built = ModelFile.from_dict(doc).build()
        projections = []

        def recording_project(op, shape):
            projections.append(dimension(shape))
            return project(op, shape)

        monkeypatch.setattr(solver, "project", recording_project)
        monkeypatch.setattr(solver, "discarded_floor", floor)
        result = run_adaptive(built.model, built.initial, built.config)
        return result, projections

    def test_floor_skips_projections_and_changes_no_record(self, monkeypatch):
        floored, floored_projections = self.pulse_run(monkeypatch, discarded_floor)
        plain, plain_projections = self.pulse_run(monkeypatch, lambda op, shape: 0.0)
        assert floored.trajectory == plain.trajectory
        assert floored.ledger.entries == plain.ledger.entries
        assert float(floored.xi).hex() == float(plain.xi).hex()
        assert np.array_equal(floored.final.rho.matrix, plain.final.rho.matrix)
        assert [r.resize for r in plain.trajectory].count("shrink") >= 1
        assert len(floored_projections) < len(plain_projections) // 5


class TestEntryCheck:
    """run_fixed and run_adaptive check once, at entry, that the initial
    state is Hermitian: the generator's one-sided products need it."""

    @staticmethod
    def example_a():
        built = preset_model_file("exampleA").build()
        mat = built.initial.matrix.copy()
        mat[0, 1] = 0.3
        rho0 = DenseOperator(built.initial.shape, mat)
        return built, rho0, replace(built.config, final_time=0.1)

    def test_run_fixed_rejects_non_hermitian_start(self):
        built, rho0, config = self.example_a()
        with pytest.raises(SolverError, match="Hermitian"):
            run_fixed(built.model, rho0, built.shape, config)

    def test_run_adaptive_rejects_non_hermitian_start(self):
        built, rho0, config = self.example_a()
        with pytest.raises(SolverError, match="Hermitian"):
            run_adaptive(built.model, rho0, replace(config, scheme="adaptive_rk"))

    def test_rounded_density_runs(self):
        # A A^dag / tr from a BLAS product is Hermitian up to rounding only
        rng = np.random.default_rng(211)
        shape = Rect([24])
        rho0 = DenseOperator(shape, random_density(rng, 25))
        config = SolverConfig(final_time=0.05, time_tol=1e-10)
        result = run_fixed(cat_model(1.0), rho0, shape, config)
        assert result.final.time == pytest.approx(0.05)
        assert np.array_equal(result.final.rho.matrix, result.final.rho.matrix.conj().T)


class TestFirstSameAsLast:
    """One DP5 step reuses its last stage as the next step's first stage,
    and a defect applies no generator: it reads the grown generator's
    boundary rows.  Both models
    conserve a charge, so every application runs on the vacuum's charge
    sector."""

    @pytest.mark.parametrize(
        "model, shape, t_final",
        [
            (cat_model(1.0), Rect([10]), 0.3),
            (cat_buffer_model(1.0), Rect([10, 6]), 0.05),
        ],
    )
    def test_generator_applications(self, monkeypatch, model, shape, t_final):
        applies = []  # dimension of every generator application, in order
        attempts = []  # applications made inside each DP attempt
        steps = []  # (applications, attempts) of each accepted step
        defects = []  # (t, rho, rate, applications) of each defect

        apply = lindblad._ShapedGenerator.apply
        attempt = solver._dp_attempt
        one_step = solver.adaptive_solve_one_step
        defect = estimators.model_space_defect

        def counting_apply(gen, t, rho):
            applies.append(gen.dim)
            return apply(gen, t, rho)

        def counting_attempt(*args):
            before = len(applies)
            out = attempt(*args)
            attempts.append(applies[before:])
            return out

        def counting_step(*args, **kwargs):
            before, tries = len(applies), len(attempts)
            out = one_step(*args, **kwargs)
            steps.append((applies[before:], len(attempts) - tries))
            return out

        def counting_defect(model_, t, rho):
            before = len(applies)
            rate = defect(model_, t, rho)
            defects.append((t, rho, rate, applies[before:]))
            return rate

        monkeypatch.setattr(lindblad._ShapedGenerator, "apply", counting_apply)
        monkeypatch.setattr(solver, "_dp_attempt", counting_attempt)
        monkeypatch.setattr(solver, "adaptive_solve_one_step", counting_step)
        monkeypatch.setattr(solver, "model_space_defect", counting_defect)

        config = SolverConfig(final_time=t_final, time_tol=1e-10)
        rho0 = fock_density(shape, [0] * shape.mode_count)
        result = run_fixed(model, rho0, shape, config)
        # the vacuum lies in the sector of zero charges, where the run goes
        sector = Sector(shape, conserved_charges(model), [0] * shape.mode_count)
        d = dimension(sector)
        assert d < dimension(shape)
        assert len(steps) >= 3
        assert all(calls == [d] * 6 for calls in attempts)
        first_calls, first_tries = steps[0]
        assert first_calls == [d] * (2 + 6 * first_tries)  # f0 and the step-size probe
        for calls, tries in steps[1:]:
            assert calls == [d] * (6 * tries)
        assert len(defects) == len(steps)
        for t, rho, rate, calls in defects:
            assert calls == []
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)
            assert rate == defect(model, t, rho)
        final = result.final.rho.matrix
        assert np.array_equal(final, final.conj().T)


class TestInvalidConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("final_time", math.nan),
            ("final_time", math.inf),
            ("final_time", -math.inf),
            ("space_tol", math.nan),
            ("space_tol", math.inf),
            ("downsize_factor", math.nan),
            ("downsize_factor", math.inf),
            ("dt", math.nan),
            ("dt", math.inf),
            ("dt", -math.inf),
            ("time_tol", math.nan),
            ("time_tol", math.inf),
            ("max_dimension", 0),
            ("max_dimension", -4),
            ("grow_step", 0),
            ("grow_step", -4),
            ("grow_step", math.nan),
            ("grow_step", math.inf),
            ("grow_step", [0, 0]),
            ("grow_step", [4, -1]),
            ("grow_step", []),
            ("shrink_step", 0),
            ("shrink_step", -2),
            ("shrink_step", [0]),
            ("shrink_step", "-1/2"),
            # below 5e-13 a float step is 0 as the rational that grow takes
            ("grow_step", 1e-13),
            ("grow_step", [1e-13, 0]),
            ("shrink_step", 1e-13),
            ("grow_step", "abc"),
            ("grow_step", ["1/2", None]),
        ],
    )
    def test_rejected(self, field, value):
        kwargs = {"final_time": 1.0, field: value}
        if field == "dt":
            kwargs["scheme"] = "rk4"
        with pytest.raises(SolverError, match=field):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("value", [1, 0.5, "1/2", [0, 3], (2, 2), ["1/2", 1]])
    def test_resize_steps_accepted(self, value):
        config = SolverConfig(final_time=1.0, grow_step=value, shrink_step=value)
        assert config.grow_step == value

    @pytest.mark.parametrize(
        "field, value, shape, match",
        [
            ("grow_step", 0.5, Rect([6]), "whole steps"),
            ("grow_step", 1.7, Rect([6]), "whole steps"),
            ("grow_step", Fraction(7, 2), Rect([6]), "whole steps"),
            ("shrink_step", 0.5, Rect([6]), "whole steps"),
            ("grow_step", [2, 0.5], Rect([6, 3]), "whole steps"),
            ("grow_step", [2, 1, 1], Rect([6, 3]), "per-mode step length"),
            ("shrink_step", [2], Rect([6, 3]), "per-mode step length"),
            ("grow_step", [2, 1], WeightedTotal(["1/2", "1"], 4), "per-mode steps"),
            ("shrink_step", [1, 1], WeightedTotal(["1/2", "1"], 4), "per-mode steps"),
        ],
    )
    def test_resize_step_the_shape_does_not_take(
        self, monkeypatch, field, value, shape, match
    ):
        # rejected before the first step, and not as a certification failure
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(solver, "adaptive_solve_one_step", no_step)
        model = cat_model(2.0) if shape.mode_count == 1 else cat_buffer_model(1.0)
        config = SolverConfig(final_time=1.0, time_tol=1e-10, **{field: value})
        rho0 = fock_density(shape, [0] * shape.mode_count)
        with pytest.raises(SolverError, match=f"{field}: .*{match}") as info:
            run_adaptive(model, rho0, config)
        assert not isinstance(info.value, CertificationError)


def forced_full(monkeypatch, run):
    """``run()`` with the charge-sector path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "conserved_charges", lambda model: None)
        return run()


def assert_same_run(sector_run, full_run):
    final, full_final = sector_run.final.rho, full_run.final.rho
    assert final.shape == full_final.shape
    assert np.abs(final.matrix - full_final.matrix).max() <= 1e-13
    assert sector_run.xi == pytest.approx(full_run.xi, rel=1e-10, abs=1e-15)
    for column in ("dim", "resize"):
        assert [getattr(r, column) for r in sector_run.trajectory] == [
            getattr(r, column) for r in full_run.trajectory
        ]
    assert sector_run.final.time == full_run.final.time


class TestChargeSectorRuns:
    """A vacuum start of a parity-conserving model runs on the even sector
    and reproduces the run on the full shape."""

    @pytest.mark.parametrize(
        "model, shape, t_final",
        [
            (cat_model(1.0), Rect([16]), 0.5),
            (cat_buffer_model(1.0), Rect([12, 6]), 0.1),
        ],
    )
    def test_run_fixed_matches_full_shape(self, monkeypatch, model, shape, t_final):
        rho0 = fock_density(shape, [0] * shape.mode_count)
        frame, _, sector_state = solver._enter_frame(model, rho0)
        assert frame.moduli == conserved_charges(model)
        assert dimension(sector_state.shape) < dimension(shape)
        config = SolverConfig(final_time=t_final, time_tol=1e-11)
        run = lambda: run_fixed(model, rho0, shape, config)  # noqa: E731
        assert_same_run(run(), forced_full(monkeypatch, run))

    @pytest.mark.parametrize(
        "model, start, config",
        [
            (
                cat_model(1.0),
                Rect([6]),
                SolverConfig(
                    final_time=1.0, time_tol=1e-12, space_tol=1e-9, max_dimension=256
                ),
            ),
            (
                cat_model(1.0),
                Rect([30]),
                SolverConfig(
                    final_time=1.0, time_tol=1e-12, space_tol=1e-9, max_dimension=512
                ),
            ),
            (
                cat_buffer_model(1.0),
                WeightedTotal(["1/2", "1"], 3),
                SolverConfig(
                    final_time=0.4, time_tol=1e-11, space_tol=1e-7, grow_step=2,
                    shrink_step=2, max_dimension=2000,
                ),
            ),
        ],
    )
    def test_run_adaptive_matches_full_shape(self, monkeypatch, model, start, config):
        rho0 = fock_density(start, [0] * start.mode_count)
        run = lambda: run_adaptive(model, rho0, config)  # noqa: E731
        sector_run, full_run = run(), forced_full(monkeypatch, run)
        assert_same_run(sector_run, full_run)
        resizes = {r.resize for r in sector_run.trajectory}
        assert resizes & {"grow", "shrink"}

    def test_max_dimension_counts_base_states(self):
        # the even sector of Rect([10]) has 6 states, the base 11
        config = SolverConfig(
            final_time=1.0, time_tol=1e-10, space_tol=1e-13, max_dimension=12
        )
        with pytest.raises(CertificationError, match="growing past 11"):
            run_adaptive(cat_model(2.0), fock_density(Rect([6]), [0]), config)

    @pytest.mark.parametrize("case", ["two_sectors", "exampleA", "gkp"])
    def test_full_path_unchanged(self, monkeypatch, case):
        if case == "two_sectors":
            model, shape = cat_buffer_model(1.0), Rect([8, 4])
            psi = np.zeros(dimension(shape))
            psi[[0, basis_map(shape).index[(1, 0)]]] = 1 / math.sqrt(2)
            rho0 = DenseOperator(shape, np.outer(psi, psi))
            config = SolverConfig(final_time=0.05, time_tol=1e-10)
        else:
            built = preset_model_file(case).build()
            model, shape, rho0 = built.model, built.shape, built.initial
            config = replace(built.config, final_time=0.01)
            if case == "gkp":
                config = replace(config, dt=0.005)
        assert solver._enter_frame(model, rho0)[0].moduli is None
        dims = set()
        apply = lindblad._ShapedGenerator.apply

        def recording_apply(gen, t, rho):
            dims.add(gen.dim)
            return apply(gen, t, rho)

        monkeypatch.setattr(lindblad._ShapedGenerator, "apply", recording_apply)
        result = run_fixed(model, rho0, shape, config)
        assert min(dims) == dimension(shape)  # and the defect's grown shape
        full = forced_full(monkeypatch, lambda: run_fixed(model, rho0, shape, config))
        assert np.array_equal(result.final.rho.matrix, full.final.rho.matrix)
        assert result.xi == full.xi


def forced_four_sectors(monkeypatch, run):
    """``run()`` with the GKP rotation-orbit generator path and the shared
    per-sector defect values switched off."""
    lindblad.shaped_generator.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "_rotation_orbits", lambda *args: None)
            patch.setattr(
                estimators,
                "_off_class_mask",
                lambda shape: np.ones((dimension(shape),) * 2, dtype=bool),
            )
            return run()
    finally:
        lindblad.shaped_generator.cache_clear()


class TestRotationInvariantGkpRuns:
    """A vacuum start of the four-sector GKP preset stays rotation-invariant
    and reproduces the run that applies all four jumps and sums all four
    sector bounds."""

    @staticmethod
    def preset(scheme):
        built = preset_model_file("gkp", cap=12).build()
        config = built.config
        if scheme == "rk4":
            config = replace(config, final_time=config.final_time / 10)
        else:
            config = SolverConfig(final_time=0.5, time_tol=1e-10)
        return built.model, built.shape, config

    @pytest.mark.parametrize("scheme", ["rk4", "adaptive_rk"])
    def test_vacuum_run_matches_four_sectors(self, monkeypatch, scheme):
        model, shape, config = self.preset(scheme)
        rho0 = fock_density(shape, [0])
        run = lambda: run_fixed(model, rho0, shape, config)  # noqa: E731
        result, full = run(), forced_four_sectors(monkeypatch, run)
        occ = np.arange(dimension(shape))
        off_class = (occ[:, None] - occ[None, :]) % 4 != 0
        assert not result.final.rho.matrix[off_class].any()
        assert len(result.trajectory) == len(full.trajectory) > 10
        diff = result.final.rho.matrix - full.final.rho.matrix
        assert np.abs(diff).max() <= 1e-13
        assert result.xi == pytest.approx(full.xi, rel=1e-9)

    @pytest.mark.parametrize("scheme", ["rk4", "adaptive_rk"])
    def test_coherent_start_unchanged(self, monkeypatch, scheme):
        model, shape, config = self.preset(scheme)
        config = replace(config, final_time=config.final_time / 5)
        psi = np.zeros(dimension(shape), dtype=complex)
        psi[[0, 1]] = 1 / math.sqrt(2)
        rho0 = DenseOperator(shape, np.outer(psi, psi.conj()))
        run = lambda: run_fixed(model, rho0, shape, config)  # noqa: E731
        result, full = run(), forced_four_sectors(monkeypatch, run)
        assert np.array_equal(result.final.rho.matrix, full.final.rho.matrix)
        assert result.xi == full.xi


_I_POWERS = (1, 1j, -1, -1j)


@st.composite
def gauge_admissible_cases(draw):
    """(model, start shape, state real in the model's gauge): 1 or 2 modes,
    words of up to 3 letters with coefficients that the phase
    i^(f . net) of a random f makes imaginary in H and real or imaginary
    (one kind per jump) in the jumps; H is Hermitian, c w + conj(c) w^dag."""
    modes = draw(st.integers(1, 2))
    f = draw(st.lists(st.integers(0, 3), min_size=modes, max_size=modes))
    word = st.lists(
        st.tuples(st.integers(0, modes - 1), st.booleans()), min_size=1, max_size=3
    ).map(tuple)
    size = st.floats(0.25, 1.5) | st.floats(-1.5, -0.25)

    def unphase(w):
        """i^(-f . net) of a word, so that the phase takes it to 1."""
        net = sum(f[m] * (1 if d else -1) for m, d in w)
        return _I_POWERS[-net % 4]

    h_terms = []
    for w, r in draw(st.lists(st.tuples(word, size), max_size=2)):
        c = 1j * r * unphase(w)
        h_terms += [(c, w), (c.conjugate(), tuple((m, not d) for m, d in reversed(w)))]
    hamiltonian = []
    if PolyOperator(modes, h_terms).terms:
        hamiltonian = [(CoefficientFn.constant(1.0), PolyExpr(PolyOperator(modes, h_terms)))]
    jumps = []
    for terms in draw(st.lists(st.lists(st.tuples(word, size), min_size=1, max_size=2), min_size=1, max_size=2)):
        glob = draw(st.sampled_from([1, 1j, -1j]))
        jumps.append(PolyExpr(PolyOperator(modes, [(glob * r * unphase(w), w) for w, r in terms])))
    model = LindbladModel(modes, hamiltonian=hamiltonian, dissipators=jumps)
    if modes == 1:
        shape = draw(st.sampled_from([Rect([3]), Rect([5]), WeightedTotal(["1/2"], 2)]))
    else:
        shape = draw(st.sampled_from([Rect([3, 2]), WeightedTotal(["1/2", "1"], 2)]))
    d = dimension(shape)
    if draw(st.booleans()):  # a Fock state: one sector, real in every gauge
        sigma = np.zeros((d, d))
        k = draw(st.integers(0, d - 1))
        sigma[k, k] = 1.0
    else:  # a real density in the gauge, spread over every sector
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = rng.standard_normal((d, d))
        sigma = a @ a.T / np.trace(a @ a.T)
    phases = gauge_phases(shape, real_gauge(model))
    rho = DenseOperator(shape, phases.conj()[:, None] * sigma * phases[None, :])
    return model, shape, rho


def assert_same_numbers(result, oracle, state_tol=1e-13, xi_rtol=1e-12):
    assert result.frame.gauge is not None
    assert result.frame.moduli == oracle.frame.moduli
    final = result.final.rho
    assert final.shape == oracle.final.rho.shape
    assert final.matrix.dtype == np.complex128
    assert trace_norm(final.matrix - oracle.final.rho.matrix) <= state_tol
    assert result.xi == pytest.approx(oracle.xi, rel=xi_rtol, abs=1e-300)
    assert [r.dim for r in result.trajectory] == [r.dim for r in oracle.trajectory]


def ungauged_run(run, *args):
    """``run(*args)`` with the real gauge switched off: the model as given,
    on a complex state in the base basis."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "real_gauge", lambda model: None)
        return run(*args)


class TestRealGaugeRuns:
    """A model with a real gauge and a state real in it run in float64.

    The numbers equal those of the same run in complex arithmetic up to
    rounding.  Past about 30 states a dense complex product rounds
    differently from the real one, which moves the DP5 step sizes by
    about 1e-14 and xi by up to 6.4e-12 relative (in 500 adaptive
    examples).  The ungauged run multiplies phased complex matrices, and
    its xi moved by up to 1.2e-9 relative (in 700 examples), inside the
    rounding floor of the step controller (3.7e-10 to 6.6e-8 on stiff
    runs)."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=gauge_admissible_cases())
    def test_generator_maps_real_to_real(self, case):
        model, shape, rho = case
        exponents = real_gauge(model)
        assert exponents is not None
        phases = gauge_phases(shape, exponents)
        sigma = (phases[:, None] * rho.matrix * phases.conj()[None, :]).real
        gen = lindblad.shaped_generator(gauged_model(model, exponents), shape)
        assert gen.dtype == np.float64
        out = gen.apply(0.0, sigma)
        assert out.dtype == np.float64
        want = two_sided_generator(model, 0.0, shape, rho.matrix)
        want = phases[:, None] * want * phases.conj()[None, :]
        assert np.abs(out - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=gauge_admissible_cases())
    def test_run_fixed_matches_complex_run(self, case):
        model, shape, rho = case
        config = SolverConfig(final_time=0.05, time_tol=1e-9)
        result = run_fixed(model, rho, shape, config)
        oracle = complex_arithmetic_run(run_fixed, model, rho, shape, config)
        assert oracle.frame == result.frame
        assert_same_numbers(result, oracle)
        ungauged = ungauged_run(run_fixed, model, rho, shape, config)
        assert ungauged.frame.gauge is None
        assert_same_numbers(result, ungauged, xi_rtol=1e-7)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=gauge_admissible_cases())
    def test_run_adaptive_matches_complex_run(self, case):
        model, shape, rho = case
        config = SolverConfig(
            final_time=0.05, time_tol=1e-9, space_tol=1e-3, grow_step=1,
            shrink_step=1, max_dimension=120,
        )
        try:
            result = run_adaptive(model, rho, config)
        except CertificationError:
            with pytest.raises(CertificationError):
                complex_arithmetic_run(run_adaptive, model, rho, config)
            return
        oracle = complex_arithmetic_run(run_adaptive, model, rho, config)
        assert_same_numbers(result, oracle, xi_rtol=1e-10)


GKP_ETA = 2.0 * math.sqrt(math.pi)


class TestComplexFallback:
    """Runs that must stay complex: no real gauge, a state that is not
    real in it, or a GKP run off the real orbit form (a state that is not
    rotation-invariant, or dissipators that do not form full rotation
    orbits).  Their generators see complex states only."""

    @staticmethod
    def run_recording_dtypes(monkeypatch, model, rho, config):
        dtypes = set()
        apply = lindblad._ShapedGenerator.apply

        def recording_apply(gen, t, state):
            dtypes.add(state.dtype)
            return apply(gen, t, state)

        monkeypatch.setattr(lindblad._ShapedGenerator, "apply", recording_apply)
        result = run_fixed(model, rho, rho.shape, config)
        assert dtypes == {np.dtype(np.complex128)}
        assert result.frame.gauge is None
        return result

    def superposition(self, shape, amplitudes):
        psi = np.zeros(dimension(shape), dtype=complex)
        psi[: len(amplitudes)] = amplitudes
        psi /= np.linalg.norm(psi)
        return DenseOperator(shape, np.outer(psi, psi.conj()))

    def test_example_a(self, monkeypatch):
        built = preset_model_file("exampleA").build()
        config = replace(built.config, final_time=0.05)
        assert real_gauge(built.model) is None
        self.run_recording_dtypes(monkeypatch, built.model, built.initial, config)

    @pytest.mark.parametrize(
        "model",
        [
            # a diagonal Hamiltonian word next to a drive
            LindbladModel(
                1,
                hamiltonian=[
                    (CoefficientFn.constant(1.0), PolyExpr(word_poly((1, "a"), (1, "A"), (0.5, "Aa"))))
                ],
                dissipators=[PolyExpr(word_poly((1, "a")))],
            ),
            # a jump that mixes real and imaginary words under every phase
            LindbladModel(1, dissipators=[PolyExpr(word_poly((1, "a"), (1j, "aaa")))]),
        ],
    )
    def test_no_gauge(self, monkeypatch, model):
        assert real_gauge(model) is None
        rho = fock_density(Rect([5]), [2])
        self.run_recording_dtypes(monkeypatch, model, rho, SolverConfig(final_time=0.05))

    def test_state_imaginary_in_the_gauge(self, monkeypatch):
        # the cat model is real with f = 0, the coherence between |0> and
        # |2> is imaginary
        model = cat_model(1.0)
        rho = self.superposition(Rect([8]), [1, 0, 1j])
        assert real_gauge(model) == (0,)
        result = self.run_recording_dtypes(monkeypatch, model, rho, SolverConfig(final_time=0.1))
        assert result.frame.moduli == (2,) and result.frame.residues == (0,)

    def test_gkp(self, monkeypatch):
        # a real state with coherences between classes: not invariant
        rho = self.superposition(Rect([12]), [1, 1])
        config = SolverConfig(final_time=0.01, scheme="rk4", dt=0.005)
        result = self.run_recording_dtypes(monkeypatch, gkp_model(), rho, config)
        assert result.frame == solver.WorkingFrame()

    def test_gkp_partial_orbits(self, monkeypatch):
        # sectors 0, 1 and 3 of one (A, eta, eps) and sector 2 of another
        model = gkp_terms_model(
            *[(1.0, GKP_ETA, 0.15, k) for k in (0, 1, 3)], (0.8, GKP_ETA, 0.3, 2)
        )
        rho = fock_density(Rect([12]), [0])
        config = SolverConfig(final_time=0.01, scheme="rk4", dt=0.005)
        result = self.run_recording_dtypes(monkeypatch, model, rho, config)
        assert result.frame == solver.WorkingFrame()


class TestRealGkpRuns:
    """A real rotation-invariant state of a GKP model with full rotation
    orbits runs in float64, in the gauge (1,) that R = diag(i^n) gives."""

    def test_applies_float64_states_only(self, monkeypatch):
        built = preset_model_file("gkp", cap=12).build()
        config = replace(built.config, final_time=built.config.final_time / 20)
        dtypes = set()
        apply = lindblad._ShapedGenerator.apply

        def recording_apply(gen, t, state):
            dtypes.add(state.dtype)
            return apply(gen, t, state)

        monkeypatch.setattr(lindblad._ShapedGenerator, "apply", recording_apply)
        result = run_fixed(built.model, built.initial, built.shape, config)
        monkeypatch.undo()
        assert dtypes == {np.dtype(np.float64)}
        assert result.frame == solver.WorkingFrame(gauge=(1,))
        # the same RK4 steps on the complex copy of the initial state
        rho = DenseOperator(built.shape, built.initial.matrix.astype(complex))
        steps = len(result.trajectory)
        dt = config.final_time / steps
        for n in range(steps):
            rho = solver.rk4_stepper(built.model, n * dt, rho, dt)
        assert rho.matrix.dtype == np.complex128
        diff = result.final.rho.matrix - rho.matrix
        assert np.abs(diff).max() <= 1e-14

    def test_preset_xi(self):
        # xi of a tenth of the preset's horizon, bit for bit
        built = preset_model_file("gkp").build()
        config = replace(built.config, final_time=built.config.final_time / 10)
        result = run_fixed(built.model, built.initial, built.shape, config)
        assert result.frame == solver.WorkingFrame(gauge=(1,))
        assert len(result.trajectory) == 200
        assert result.xi == 0.353738891930637


class TestWorkingFrame:
    @pytest.mark.parametrize(
        "preset, frame",
        [
            ("exampleA", solver.WorkingFrame()),
            ("exampleB", solver.WorkingFrame(gauge=(1,))),
            ("exampleE", solver.WorkingFrame((2, 1), (0, 0), (0, 1))),
        ],
    )
    def test_run_result_and_summary(self, tmp_path, preset, frame):
        built = preset_model_file(preset).build()
        config = replace(built.config, final_time=0.01)
        result = run_fixed(built.model, built.initial, built.shape, config)
        assert result.frame == frame
        out = tmp_path / "out"
        cli._write_outputs(str(out), built, result, 0.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["frame"] == {
            "moduli": None if frame.moduli is None else list(frame.moduli),
            "residues": None if frame.residues is None else list(frame.residues),
            "gauge": None if frame.gauge is None else list(frame.gauge),
        }

    def test_leave_undoes_the_frame(self):
        model = cat_buffer_model(1.0)
        shape = Rect([6, 3])
        rng = np.random.default_rng(5)
        sigma = rng.standard_normal((dimension(shape),) * 2)
        phases = gauge_phases(shape, (0, 1))
        rho = DenseOperator(shape, phases.conj()[:, None] * (sigma + sigma.T) * phases)
        frame, gauged, state = solver._enter_frame(model, rho)
        assert frame == solver.WorkingFrame(gauge=(0, 1))  # every sector
        assert gauged is gauged_model(model, (0, 1))
        assert state.matrix.dtype == np.float64
        assert np.array_equal(frame.leave(state).matrix, rho.matrix)


class TestCsvWriters:
    def test_trajectory_roundtrip(self, tmp_path):
        model = cat_model(1.0)
        shape = Rect([8])
        config = SolverConfig(final_time=0.1, time_tol=1e-9)
        result = run_fixed(model, fock_density(shape, [0]), shape, config)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result.trajectory, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,dim,trace_re,xi,defect_rate,accepted,resize"
        assert len(lines) == len(result.trajectory) + 1

    def test_ledger_columns(self, tmp_path):
        model = cat_model(1.0)
        shape = Rect([8])
        config = SolverConfig(final_time=0.1, time_tol=1e-9)
        result = run_fixed(model, fock_density(shape, [0]), shape, config)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(result.ledger, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,kind,value"
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert np.isclose(total, result.xi, rtol=1e-12)
