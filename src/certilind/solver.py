"""Time steppers and the space-adaptive driver.

``run_fixed`` integrates on one truncation shape and accumulates the
certified estimator xi via the rectangle rule at accepted endpoints (or
per-step time-discretization bounds when the time certificate is on).
``run_adaptive`` implements the estimator-gated grow/shrink driver: a
step is accepted only while xi stays under the linear-in-time budget
(t/T) * space_tol, the shape grows on rejection, and it shrinks when the
budget divided by the downsize factor tolerates the discarded tail.

Both integrate in a working frame (``WorkingFrame``).  A polynomial
model runs on the charge sector of its initial state when the model
conserves a charge (``conserved_charges``) and the state lies in one
sector: the state stays there exactly, and the other entries are exact
zeros.  It runs in real arithmetic when the model has a real gauge
(``real_gauge``) and the initial state is real in it: the gauged state
stays real exactly.  Sizes, error norms and the final state still refer
to the base shape and the base basis.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .estimators import (
    EstimatorLedger,
    euler_timedep_step_bound,
    model_space_defect,
    taylor_step_bound,
    xi_step,
)
from .fockspace import (
    DenseOperator,
    Sector,
    ShapeError,
    TruncationShape,
    _embedding_indices,
    _resize_increment,
    base_shape,
    basis_map,
    charge_residues,
    contains,
    dimension,
    embed,
    grow,
    project,
    resize_step_fractions,
    shrink,
)
from .lindblad import (
    DensityState,
    LindbladModel,
    ModelError,
    conserved_charges,
    gauge_phases,
    gauged_model,
    real_gauge,
    shaped_generator,
)
from .operators import _hermitian_part

__all__ = [
    "SolverConfig",
    "TrajectoryRecord",
    "RunResult",
    "WorkingFrame",
    "StepResult",
    "SolverError",
    "CertificationError",
    "adaptive_solve_one_step",
    "taylor_stepper",
    "euler_stepper",
    "rk4_stepper",
    "run_fixed",
    "run_adaptive",
    "write_trajectory_csv",
    "write_ledger_csv",
]

STEP_UNDERFLOW_FACTOR = 1e-14
MAX_STEP_GROWTH = 5.0
MIN_STEP_SHRINK = 0.2
SAFETY = 0.9


class SolverError(RuntimeError):
    """Integration failure (step underflow, invalid configuration)."""


class CertificationError(SolverError):
    """The requested error budget cannot be met within max_dimension."""


@dataclass(frozen=True)
class SolverConfig:
    final_time: float
    scheme: str = "adaptive_rk"  # adaptive_rk | rk4 | taylor | euler
    taylor_order: int = 2
    time_tol: float = 1e-10
    dt: float | None = None  # fixed-step schemes
    space_tol: float = 1e-9
    downsize_factor: float = 5.0
    grow_step: object = 4
    shrink_step: object = 4
    max_dimension: int = 4096
    enable_time_certificate: bool = False

    def __post_init__(self):
        for name in ("final_time", "time_tol", "space_tol", "downsize_factor", "dt"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SolverError(f"{name} must be finite, got {value}")
        if self.final_time <= 0:
            raise SolverError("final_time must be positive")
        if self.scheme not in ("adaptive_rk", "rk4", "taylor", "euler"):
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.scheme in ("rk4", "taylor", "euler") and not self.dt:
            raise SolverError(f"scheme {self.scheme!r} requires dt")
        if self.dt is not None and not self.dt > 0:
            raise SolverError(f"dt must be positive, got {self.dt}")
        if not self.time_tol > 0:
            raise SolverError(f"time_tol must be positive, got {self.time_tol}")
        if self.space_tol <= 0:
            raise SolverError("space_tol must be positive")
        if self.downsize_factor <= 1:
            raise SolverError("downsize_factor must exceed 1")
        for name in ("grow_step", "shrink_step"):
            if not _valid_resize_step(getattr(self, name)):
                raise SolverError(
                    f"{name} must be a positive number, or per-mode steps that "
                    f"are all >= 0 with one > 0, got {getattr(self, name)!r}"
                )
        if self.max_dimension < 1:
            raise SolverError(
                f"max_dimension must be at least 1, got {self.max_dimension}"
            )
        if self.enable_time_certificate and self.scheme not in ("taylor", "euler"):
            raise SolverError(
                "the time certificate is available for the taylor and euler "
                "schemes only"
            )


def _valid_resize_step(step) -> bool:
    """A finite grow or shrink step that, as the exact rational that grow
    and shrink take, moves at least one mode and none backwards: a
    number, a rational string, or one entry per mode.  Whether the shape
    takes it is checked by run_adaptive."""
    try:
        value = resize_step_fractions(step)
    except (TypeError, ValueError, OverflowError):  # not a finite number
        return False
    entries = value if isinstance(value, tuple) else (value,)
    return all(e >= 0 for e in entries) and any(e > 0 for e in entries)


@dataclass(frozen=True)
class TrajectoryRecord:
    time: float
    dim: int
    trace_re: float
    xi: float
    defect_rate: float
    accepted: bool
    resize: str = "none"  # none | grow | shrink


@dataclass(frozen=True)
class WorkingFrame:
    """The basis a run integrates in: the charge sector of the initial
    state (``moduli`` and ``residues``, see ``fockspace.Sector``) and the
    exponents f of the real gauge Phi = diag(i^(f . n)) in which the
    state is real (``gauge``); each is None when not used."""

    moduli: tuple[int, ...] | None = None
    residues: tuple[int, ...] | None = None
    gauge: tuple[int, ...] | None = None

    def leave(self, rho: DenseOperator) -> DenseOperator:
        """A state of the frame as a complex state on the base shape, in
        the base basis: the phase undone exactly, then embedded."""
        mat = rho.matrix.astype(np.complex128)
        if self.gauge is not None:
            phases = gauge_phases(rho.shape, self.gauge)
            mat *= phases.conj()[:, None]
            mat *= phases[None, :]
        return embed(DenseOperator(rho.shape, mat), base_shape(rho.shape))


@dataclass(frozen=True, eq=False)
class RunResult:
    final: DensityState
    ledger: EstimatorLedger
    trajectory: tuple[TrajectoryRecord, ...]
    frame: WorkingFrame = WorkingFrame()

    @property
    def xi(self) -> float:
        return self.ledger.xi


class StepResult(NamedTuple):
    rho_next: DenseOperator  # the accepted state
    dt: float
    h_next: float
    last_stage: np.ndarray  # L_N(t + dt, rho_next)


# ---------------------------------------------------------------------------
# embedded Dormand-Prince 5(4) pair
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


_DP_ROWS = tuple(np.array(row) for row in _DP_A)
_DP_ERR_ROW = np.array(_DP_ERR)


def _scaled_rms(x: np.ndarray, scale: np.ndarray, count: int) -> float:
    """Root mean square of |x| / scale over ``count`` entries, in real
    arithmetic; entries beyond x.size count as zeros."""
    r = np.abs(x)
    r /= scale
    r = r.ravel()
    return math.sqrt(float(np.dot(r, r)) / count)


def _dp_attempt(f, t, y, k0, h):
    """One trial step from the first stage k0 = f(t, y).

    Returns the 5th-order solution, the error vector and the last stage
    f(t + h, y1), which is the next step's first stage.  y1 is made
    exactly Hermitian before that stage is evaluated, so the stage is
    L_N at the state the caller carries.  The stages share one
    (7, d, d) array; each stage sum is one real matrix-vector product
    over its float64 view.  The stages are real when y and k0 are.
    """
    dtype = np.result_type(y, k0)
    stack = np.empty((7,) + y.shape, dtype=dtype)
    flat = stack.reshape(7, -1).view(np.float64)
    stack[0] = k0
    for i in range(1, 7):
        yi = ((h * _DP_ROWS[i]) @ flat[:i]).view(dtype).reshape(y.shape)
        yi += y
        if i == 6:
            yi = _hermitian_part(yi)
        k = f(t + _DP_C[i] * h, yi)
        stack[i] = k
    err = ((h * _DP_ERR_ROW) @ flat).view(dtype).reshape(y.shape)
    return yi, err, k


def _error_measure(err, y0, y1, tol, count):
    scale = np.maximum(np.abs(y0), np.abs(y1))
    scale *= tol
    scale += tol
    return _scaled_rms(err, scale, count)


def _initial_step(f, t, y, f0, tol, remaining, count):
    scale = tol + tol * np.abs(y)
    d0 = _scaled_rms(y, scale, count)
    d1 = _scaled_rms(f0, scale, count)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, remaining)
    f1 = f(t + h0, y + h0 * f0)
    d2 = _scaled_rms(f1 - f0, scale, count) / h0
    if max(d1, d2) <= 1e-15:
        return remaining  # flat vector field: jump to the horizon cap
    h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, remaining)


def adaptive_solve_one_step(
    model: LindbladModel,
    shape: TruncationShape,
    rho: DenseOperator,
    t: float,
    time_tol: float,
    horizon: float | None = None,
    h_start: float | None = None,
    first_stage: np.ndarray | None = None,
) -> StepResult:
    """One accepted embedded RK 5(4) step of d rho/dt = L_shape(rho).

    Returns the accepted (exactly Hermitian) state, the step the
    controller chose, the suggested next step size and the state's stage
    L_shape(t + dt, rho_next).  Passing that stage back as
    ``first_stage`` of the next step on the same shape saves one
    generator application (first same as last).  On a charge sector the
    error norms average over the base shape's entries, as if the state
    carried its zeros outside the sector.
    """
    if rho.shape != shape:
        raise SolverError("state does not live on the integration shape")
    f = shaped_generator(model, shape).apply
    y = np.asarray(rho.matrix)
    count = dimension(base_shape(shape)) ** 2
    horizon = horizon if horizon is not None else max(abs(t), 1.0)
    remaining = horizon - t if horizon > t else horizon
    f0 = first_stage if first_stage is not None else f(t, y)
    if h_start and h_start > 0:
        h = h_start
    else:
        h = _initial_step(f, t, y, f0, time_tol, remaining, count)
    h = min(h, remaining)
    while True:
        if h < STEP_UNDERFLOW_FACTOR * horizon:
            raise SolverError(
                f"step size underflow at t={t!r} (h={h!r}); the model may be "
                "too stiff for the requested tolerance"
            )
        y1, err, stage = _dp_attempt(f, t, y, f0, h)
        measure = _error_measure(err, y, y1, time_tol, count)
        if measure <= 1.0:
            if measure == 0.0:
                factor = MAX_STEP_GROWTH
            else:
                factor = min(
                    MAX_STEP_GROWTH, max(MIN_STEP_SHRINK, SAFETY * measure**-0.2)
                )
            return StepResult(
                DenseOperator(shape, y1), h, min(h * factor, horizon), stage
            )
        h *= max(MIN_STEP_SHRINK, SAFETY * measure**-0.2)


# ---------------------------------------------------------------------------
# fixed-step maps
# ---------------------------------------------------------------------------


def euler_stepper(
    model: LindbladModel, t: float, rho: DenseOperator, dt: float
) -> DenseOperator:
    """rho + dt * L_N(t, rho)."""
    gen = shaped_generator(model, rho.shape)
    y = np.asarray(rho.matrix)
    return DenseOperator(rho.shape, _hermitian_part(y + dt * gen.apply(t, y)))


def taylor_stepper(
    model: LindbladModel, rho: DenseOperator, dt: float, k: int
) -> DenseOperator:
    """Degree-k truncation of exp(dt L_N) applied to rho (time-invariant)."""
    if k < 1:
        raise SolverError("Taylor order must be at least 1")
    if not model.is_time_invariant:
        raise ModelError("the Taylor scheme requires a time-invariant model")
    gen = shaped_generator(model, rho.shape)
    y = np.asarray(rho.matrix)
    out = y.copy()
    term = y
    fact = 1.0
    for j in range(1, k + 1):
        term = gen.apply(0.0, term)
        fact *= j
        out = out + (dt**j / fact) * term
    return DenseOperator(rho.shape, _hermitian_part(out))


def rk4_stepper(
    model: LindbladModel, t: float, rho: DenseOperator, dt: float
) -> DenseOperator:
    """Classical four-stage Runge-Kutta step."""
    gen = shaped_generator(model, rho.shape)
    y = np.asarray(rho.matrix)
    k1 = gen.apply(t, y)
    k2 = gen.apply(t + dt / 2, y + dt / 2 * k1)
    k3 = gen.apply(t + dt / 2, y + dt / 2 * k2)
    k4 = gen.apply(t + dt, y + dt * k3)
    y1 = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return DenseOperator(rho.shape, _hermitian_part(y1))


# ---------------------------------------------------------------------------
# fixed-shape runs
# ---------------------------------------------------------------------------


def _prepare_initial(
    rho0: DenseOperator, shape: TruncationShape, ledger: EstimatorLedger
):
    """Bring the initial state onto the working shape; projection losses
    enter xi(0)."""
    if rho0.shape == shape:
        return rho0, ledger
    if contains(shape, rho0.shape):
        projected, lost = project(rho0, shape)
        if lost:
            ledger = ledger.record(0.0, "init_projection", lost)
        return projected, ledger
    if contains(rho0.shape, shape):
        return embed(rho0, shape), ledger
    raise SolverError("initial state shape is incompatible with the run shape")


def _enter_frame(model: LindbladModel, rho: DenseOperator):
    """The working frame of a run from ``rho``, the model in it and
    ``rho`` in it; ``WorkingFrame.leave`` undoes both steps.

    ``rho`` is restricted to the charge sector of its shape that holds
    all its nonzero entries, when the model conserves a charge and there
    is one such sector.  It is then put in the model's real gauge when
    there is one and the gauged state's imaginary part is exactly zero;
    otherwise the run is complex.  Both steps are exact: the restriction
    drops only exact zeros, and the phases are powers of i.

    A ``rho`` whose relative Frobenius defect ||rho - rho^dag|| / ||rho||
    exceeds 1e-10 raises SolverError: the generator's one-sided products
    need a Hermitian state, and every step keeps it exactly Hermitian.
    """
    frame = WorkingFrame()
    mat = np.asarray(rho.matrix)
    scale = max(float(np.linalg.norm(mat)), 1e-30)
    defect = float(np.linalg.norm(mat - mat.conj().T)) / scale
    if defect > 1e-10:
        raise SolverError(
            f"the initial state is not Hermitian (relative defect {defect:.2e})"
        )
    moduli = conserved_charges(model)
    if moduli is not None and not isinstance(rho.shape, Sector):
        nonzero = mat != 0
        support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        states = basis_map(rho.shape).states
        residues = {charge_residues(moduli, states[i]) for i in support}
        if len(residues) == 1:
            frame = WorkingFrame(moduli, residues.pop())
            sector = Sector(rho.shape, moduli, frame.residues)
            idx = _embedding_indices(sector, rho.shape)
            rho = DenseOperator(sector, mat[np.ix_(idx, idx)])
            mat = rho.matrix
    exponents = real_gauge(model)
    if exponents is not None:
        phases = gauge_phases(rho.shape, exponents)
        gauged = (phases[:, None] * mat) * phases.conj()[None, :]
        if not gauged.imag.any():
            return (
                replace(frame, gauge=exponents),
                gauged_model(model, exponents),
                DenseOperator(rho.shape, gauged.real),
            )
    return frame, model, DenseOperator(rho.shape, mat.astype(np.complex128))


def run_fixed(
    model: LindbladModel,
    rho0: DenseOperator,
    shape: TruncationShape,
    config: SolverConfig,
) -> RunResult:
    """Integrate to final_time on a fixed shape, accumulating xi at every
    accepted step (or the per-step time bounds when the certificate is on)."""
    ledger = EstimatorLedger.empty()
    state, ledger = _prepare_initial(rho0, shape, ledger)
    frame, model, state = _enter_frame(model, state)
    base = base_shape(shape)
    shape = state.shape
    t_final = config.final_time
    records: list[TrajectoryRecord] = []

    def log(t, rho_mat, defect_rate, xi):
        records.append(
            TrajectoryRecord(
                time=t,
                dim=dimension(base),
                trace_re=float(np.trace(rho_mat).real),
                xi=xi,
                defect_rate=defect_rate,
                accepted=True,
            )
        )

    if config.scheme == "adaptive_rk":
        t = 0.0
        h_next = None
        stage = None
        rho = state
        while t < t_final * (1 - 1e-15):
            step = adaptive_solve_one_step(
                model, shape, rho, t, config.time_tol, horizon=t_final,
                h_start=h_next, first_stage=stage,
            )
            rho = step.rho_next
            t += step.dt
            h_next = step.h_next
            stage = step.last_stage
            rate = model_space_defect(model, t, rho)
            ledger = xi_step(ledger, t, rate, step.dt)
            log(t, rho.matrix, rate, ledger.xi)
        return RunResult(
            DensityState(frame.leave(rho), t), ledger, tuple(records), frame
        )

    # fixed-step schemes on a uniform grid
    n_steps = max(1, int(round(t_final / config.dt)))
    dt = t_final / n_steps
    rho = state
    t = 0.0
    for n in range(n_steps):
        if config.enable_time_certificate:
            if config.scheme == "taylor":
                bound = taylor_step_bound(model, rho, dt, config.taylor_order)
                kind = "time_taylor"
            else:
                bound = euler_timedep_step_bound(model, rho, t, dt)
                kind = "time_euler"
        if config.scheme == "euler":
            rho_new = euler_stepper(model, t, rho, dt)
        elif config.scheme == "taylor":
            rho_new = taylor_stepper(model, rho, dt, config.taylor_order)
        else:
            rho_new = rk4_stepper(model, t, rho, dt)
        t = (n + 1) * dt
        if config.enable_time_certificate:
            ledger = ledger.record(t, kind, bound)
            rate = 0.0
        else:
            rate = model_space_defect(model, t, rho_new)
            ledger = xi_step(ledger, t, rate, dt)
        rho = rho_new
        log(t, rho.matrix, rate, ledger.xi)
    return RunResult(
        DensityState(frame.leave(rho), t), ledger, tuple(records), frame
    )


# ---------------------------------------------------------------------------
# space-adaptive driver
# ---------------------------------------------------------------------------


def run_adaptive(
    model: LindbladModel, rho0: DenseOperator, config: SolverConfig
) -> RunResult:
    """Estimator-gated space-adaptive integration.

    Propose a time step, price its certified cost d_xi = dt * defect at
    the proposed endpoint, and accept only while xi + d_xi stays below
    the linear budget ((t+dt)/T) * space_tol.  Rejections grow the shape
    by grow_step and recompute the step from scratch; after an ordinary
    acceptance the state shrinks by shrink_step when the discarded tail
    fits under the budget divided by downsize_factor, the tail norm
    being added to xi.  ``max_dimension`` and the recorded dimensions
    refer to the base shape when the run is on a charge sector.  A
    resize step the shape does not take (not whole on a Rect, per-mode
    of the wrong length or on a WeightedTotal) raises SolverError before
    the first step.
    """
    if config.scheme != "adaptive_rk":
        raise SolverError("run_adaptive drives the adaptive_rk scheme")
    frame, model, rho = _enter_frame(model, rho0)
    shape = rho.shape
    for name in ("grow_step", "shrink_step"):
        try:
            _resize_increment(shape, getattr(config, name))
        except ShapeError as exc:
            raise SolverError(f"{name}: {exc}") from exc
    t = 0.0
    t_final = config.final_time
    ledger = EstimatorLedger.empty()
    records: list[TrajectoryRecord] = []
    h_next = None

    def budget(time):
        return (time / t_final) * config.space_tol

    stage = None  # L_N at the current state; dropped whenever the shape changes
    while t < t_final * (1 - 1e-15):
        step = adaptive_solve_one_step(
            model, shape, rho, t, config.time_tol, horizon=t_final,
            h_start=h_next, first_stage=stage,
        )
        rate = model_space_defect(model, t + step.dt, step.rho_next)
        d_xi = step.dt * rate
        while ledger.xi + d_xi >= budget(t + step.dt):
            # rejected: grow and recompute until the budget admits the step
            records.append(
                TrajectoryRecord(
                    time=t + step.dt,
                    dim=dimension(base_shape(shape)),
                    trace_re=float(np.trace(step.rho_next.matrix).real),
                    xi=ledger.xi,
                    defect_rate=rate,
                    accepted=False,
                    resize="grow",
                )
            )
            new_shape = grow(shape, config.grow_step)
            if dimension(base_shape(new_shape)) > config.max_dimension:
                raise CertificationError(
                    f"space budget unreachable: growing past "
                    f"{dimension(base_shape(shape))} exceeds max_dimension="
                    f"{config.max_dimension}"
                )
            shape = new_shape
            rho = embed(rho, shape)
            h_next = step.h_next
            step = adaptive_solve_one_step(
                model, shape, rho, t, config.time_tol, horizon=t_final, h_start=h_next
            )
            rate = model_space_defect(model, t + step.dt, step.rho_next)
            d_xi = step.dt * rate
        # accepted
        rho = step.rho_next
        stage = step.last_stage
        t += step.dt
        h_next = step.h_next
        ledger = xi_step(ledger, t, rate, step.dt)
        resize = "none"
        threshold = budget(t) / config.downsize_factor
        # the discarded tail is a trace norm (>= 0): no shrink can pass
        # once xi alone reaches the threshold, so skip the projection
        shrunk = _try_shrink(shape, config) if ledger.xi < threshold else None
        if shrunk is not None:
            restricted, tail = project(rho, shrunk)
            if ledger.xi + tail < threshold:
                ledger = ledger.record(t, "shrink_jump", tail)
                shape = shrunk
                rho = restricted
                stage = None
                resize = "shrink"
        records.append(
            TrajectoryRecord(
                time=t,
                dim=dimension(base_shape(shape)),
                trace_re=float(np.trace(rho.matrix).real),
                xi=ledger.xi,
                defect_rate=rate,
                accepted=True,
                resize=resize,
            )
        )
    return RunResult(
        DensityState(frame.leave(rho), t), ledger, tuple(records), frame
    )


def _try_shrink(shape: TruncationShape, config: SolverConfig):
    """The shape shrunk by shrink_step, or None when it cannot shrink or
    would keep every state (a cap that moves between two grades)."""
    try:
        shrunk = shrink(shape, config.shrink_step)
    except ShapeError:
        return None
    return shrunk if dimension(shrunk) < dimension(shape) else None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_trajectory_csv(records, path) -> None:
    """Columns t, dim, trace_re, xi, defect_rate, accepted, resize; one
    row per attempted step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "dim", "trace_re", "xi", "defect_rate", "accepted", "resize"])
        for r in records:
            writer.writerow(
                [
                    repr(r.time),
                    r.dim,
                    repr(r.trace_re),
                    repr(r.xi),
                    repr(r.defect_rate),
                    int(r.accepted),
                    r.resize,
                ]
            )


def write_ledger_csv(ledger: EstimatorLedger, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "kind", "value"])
        for e in ledger.entries:
            writer.writerow([repr(e.time), e.kind, repr(e.value)])
