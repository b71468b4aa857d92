import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from certilind import estimators, lindblad, solver
from certilind.fockspace import (
    DenseOperator,
    Rect,
    Sector,
    WeightedTotal,
    basis_map,
    dimension,
)
from certilind.lindblad import (
    CoefficientFn,
    LindbladModel,
    conserved_charges,
    grown_shape,
)
from models import (
    cat_buffer_model,
    cat_model,
    linear_drive_model,
    number_drive_model,
)
from certilind.operators import fock_density, trace_norm
from certilind.presets import preset_model_file
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
from oracles import lindblad_superoperator


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


class TestFirstSameAsLast:
    """One DP5 step reuses its last stage as the next step's first stage
    and as L_N(rho) inside the defect.  Both models conserve a charge, so
    every application runs on the vacuum's charge sector."""

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
        defects = []  # (t, rho, applied, rate, applications) of each defect

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

        def counting_defect(model_, t, rho, applied=None):
            before = len(applies)
            rate = defect(model_, t, rho, applied)
            defects.append((t, rho, applied, rate, applies[before:]))
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
        d_big = dimension(grown_shape(model, sector))
        assert d < dimension(shape)
        assert len(steps) >= 3
        assert all(calls == [d] * 6 for calls in attempts)
        first_calls, first_tries = steps[0]
        assert first_calls == [d] * (2 + 6 * first_tries)  # f0 and the step-size probe
        for calls, tries in steps[1:]:
            assert calls == [d] * (6 * tries)
        assert len(defects) == len(steps)
        for t, rho, applied, rate, calls in defects:
            assert calls == [d_big]
            assert applied is not None
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
        ],
    )
    def test_rejected(self, field, value):
        kwargs = {"final_time": 1.0, field: value}
        if field == "dt":
            kwargs["scheme"] = "rk4"
        with pytest.raises(SolverError, match=field):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("value", [1, 0.5, "1/2", [0, 3], (2, 2)])
    def test_resize_steps_accepted(self, value):
        config = SolverConfig(final_time=1.0, grow_step=value, shrink_step=value)
        assert config.grow_step == value

    def test_grow_without_growth_fails_certification(self):
        # a fractional step grows a Rect by int(0.5) = 0 modes
        config = SolverConfig(
            final_time=1.0, time_tol=1e-10, space_tol=1e-13, grow_step=0.5
        )
        with pytest.raises(CertificationError, match="does not enlarge"):
            run_adaptive(cat_model(2.0), fock_density(Rect([6]), [0]), config)

    def test_shrink_without_shrinking_is_skipped(self):
        config = SolverConfig(
            final_time=0.2, time_tol=1e-10, space_tol=1e-2, shrink_step=0.5
        )
        result = run_adaptive(cat_model(1.0), fock_density(Rect([20]), [0]), config)
        assert all(r.resize == "none" for r in result.trajectory)
        assert not any(e.kind == "shrink_jump" for e in result.ledger.entries)


def forced_full(monkeypatch, run):
    """``run()`` with the charge-sector path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_sector_state", lambda model, rho: None)
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
        sector_state = solver._sector_state(model, rho0)
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
        assert solver._sector_state(model, rho0) is None
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
