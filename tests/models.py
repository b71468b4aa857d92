"""Python constructors of the standard models, for the tests.

The program describes its models as JSON model files (see
``certilind.presets``); ``test_presets_match_python_models`` holds each
preset to its constructor here.
"""

from __future__ import annotations

import math

import numpy as np

from certilind.fockspace import DenseOperator, dimension
from certilind.lindblad import (
    CoefficientFn,
    CosineExpr,
    GkpDissipator,
    LindbladModel,
    PolyExpr,
)
from certilind.operators import PolyOperator

__all__ = [
    "number_drive_model",
    "linear_drive_model",
    "cat_model",
    "squeezed_cat_model",
    "cat_buffer_model",
    "gkp_model",
    "gkp_terms_model",
    "cosine_hamiltonian_model",
    "word_poly",
    "annihilator",
    "creator",
    "dense_identity",
]


def annihilator(mode_count: int = 1, mode: int = 0) -> PolyOperator:
    """The ladder letter a of ``mode``."""
    return PolyOperator(mode_count, [(1.0, ((mode, False),))])


def creator(mode_count: int = 1, mode: int = 0) -> PolyOperator:
    """The ladder letter a^dag of ``mode``."""
    return PolyOperator(mode_count, [(1.0, ((mode, True),))])


def dense_identity(shape) -> DenseOperator:
    """The complex identity over the basis of a shape."""
    return DenseOperator(shape, np.eye(dimension(shape), dtype=np.complex128))


def _id(m=1, c=1.0):
    return PolyOperator.identity(m, c)


def word_poly(*terms, modes=1) -> PolyOperator:
    """A polynomial from (coefficient, word) pairs, each word a string of
    the letters 'a', 'A' (a^dag) on mode 0 and 'b', 'B' on mode 1, in
    multiplication order."""
    letters = {"a": (0, False), "A": (0, True), "b": (1, False), "B": (1, True)}
    return PolyOperator(modes, [(c, tuple(letters[x] for x in w)) for c, w in terms])


def number_drive_model(coeff: CoefficientFn | float = 1.0) -> LindbladModel:
    """H = u(t) a^dag a with single-photon loss; defect-free at any cut."""
    if not isinstance(coeff, CoefficientFn):
        coeff = CoefficientFn.constant(coeff)
    return LindbladModel(
        1,
        hamiltonian=((coeff, PolyExpr(creator() * annihilator())),),
        dissipators=(PolyExpr(annihilator()),),
    )


def linear_drive_model(coeff: CoefficientFn | float = 1.0) -> LindbladModel:
    """H = u(t) (a + a^dag), no dissipation."""
    if not isinstance(coeff, CoefficientFn):
        coeff = CoefficientFn.constant(coeff)
    return LindbladModel(1, hamiltonian=((coeff, PolyExpr(annihilator() + creator())),))


def cat_model(alpha: float = 1.0) -> LindbladModel:
    """Two-photon pumping toward coherent superpositions: Gamma = a^2 - alpha^2."""
    gamma = annihilator() * annihilator() - _id(c=alpha**2)
    return LindbladModel(1, dissipators=(PolyExpr(gamma),))


def squeezed_cat_model(alpha: float = 1.0, r: float = 1.25) -> LindbladModel:
    """Gamma = (ch(r) a + sh(r) a^dag)^2 - alpha^2."""
    s = math.cosh(r) * annihilator() + math.sinh(r) * creator()
    gamma = s * s - _id(c=alpha**2)
    return LindbladModel(1, dissipators=(PolyExpr(gamma),))


def cat_buffer_model(
    alpha: float | None = 1.0,
    drive: CoefficientFn | None = None,
) -> LindbladModel:
    """Two-photon exchange with a lossy buffer mode.

    H = (a^2 - alpha^2) b^dag + (a^dag^2 - alpha^2) b and a plain loss on
    the buffer.  Passing ``drive`` instead of a constant alpha splits H
    into the exchange part plus a time-dependent -alpha(t)^2 (b + b^dag)
    drive, with ``drive`` supplying alpha(t)^2 and its bounds.
    """
    a, ad = annihilator(2, 0), creator(2, 0)
    b, bd = annihilator(2, 1), creator(2, 1)
    exchange = a * a * bd + ad * ad * b
    ham = []
    if drive is None:
        if alpha is None:
            raise ValueError("need alpha or drive")
        full = exchange - alpha**2 * (b + bd)
        ham.append((CoefficientFn.constant(1.0), PolyExpr(full)))
    else:
        ham.append((CoefficientFn.constant(1.0), PolyExpr(exchange)))
        ham.append((drive, PolyExpr(-1.0 * (b + bd))))
    return LindbladModel(2, hamiltonian=tuple(ham), dissipators=(PolyExpr(b),))


def gkp_model(amplitude: float = 1.0, eta: float | None = None, eps: float = 0.15) -> LindbladModel:
    """Four rotated GKP stabilizer dissipators."""
    if eta is None:
        eta = 2.0 * math.sqrt(math.pi)
    diss = tuple(GkpDissipator(amplitude, eta, eps, sector=k) for k in range(4))
    return LindbladModel(1, dissipators=diss)


def gkp_terms_model(*terms) -> LindbladModel:
    """GKP dissipators from (A, eta, eps, sector) tuples, in that order."""
    return LindbladModel(1, dissipators=tuple(GkpDissipator(*t) for t in terms))


def cosine_hamiltonian_model(
    q_coeffs, p_coeffs=None, coeff: CoefficientFn | float = 1.0
) -> LindbladModel:
    """H = u(t) cos(sum_j c_j q_j + d_j p_j)."""
    q_coeffs = list(q_coeffs)
    p_coeffs = list(p_coeffs) if p_coeffs is not None else [0.0] * len(q_coeffs)
    m = len(q_coeffs)
    arg = PolyOperator(m, [])
    for j, (c, d) in enumerate(zip(q_coeffs, p_coeffs)):
        if c:
            arg = arg + c * PolyOperator.position(m, j)
        if d:
            arg = arg + d * PolyOperator.momentum(m, j)
    if not isinstance(coeff, CoefficientFn):
        coeff = CoefficientFn.constant(coeff)
    return LindbladModel(m, hamiltonian=((coeff, CosineExpr(arg)),))
