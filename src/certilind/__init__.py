"""Certified simulation of Lindblad dynamics on truncated bosonic spaces.

The package simulates open quantum systems on finite Fock-basis
truncations while accumulating a rigorous a posteriori upper bound xi on
the truncation (and optionally time-discretization) error in trace norm,
and can adaptively grow/shrink the truncated space against a user error
budget.
"""

from .estimators import (
    EstimatorError,
    EstimatorLedger,
    LedgerEntry,
    cosine_defect,
    euler_timedep_step_bound,
    model_space_defect,
    taylor_step_bound,
    unitary_offblock_norm,
    xi_step,
)
from .fockspace import (
    BasisMap,
    DenseOperator,
    Rect,
    ShapeError,
    TruncationShape,
    WeightedTotal,
    basis_map,
    contains,
    dimension,
    embed,
    grow,
    project,
    shrink,
    trace_norm,
)
from .lindblad import (
    CoefficientFn,
    CosineExpr,
    DensityState,
    GkpDissipator,
    LindbladModel,
    ModelError,
    PolyExpr,
    growth_margin,
    truncated_expr,
)
from .modelfile import ModelFile, ModelFileError, load_state_json, dump_state_json
from .operators import (
    OperatorError,
    PolyOperator,
    cosine_of,
    displacement_q,
    fock_density,
    materialize_poly,
)
from .solver import (
    CertificationError,
    RunResult,
    SolverConfig,
    SolverError,
    TrajectoryRecord,
    adaptive_solve_one_step,
    euler_stepper,
    rk4_stepper,
    run_adaptive,
    run_fixed,
    taylor_stepper,
)

__version__ = "0.1.0"
