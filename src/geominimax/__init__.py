"""Extragradient solvers and benchmarks for saddle problems on Riemannian manifolds.

The package provides:

- manifold primitives (exp, log, parallel transport, distance) for
  Euclidean space, the sphere, SPD matrices, and products of these;
- curvature distortion constants and the step-size rule they induce;
- the Riemannian corrected extragradient method (RCEG) with geodesic
  averaging, plus gradient descent-ascent and duality-gap estimation;
- benchmark saddle problems and a reproducible experiment harness with
  a command line front end (``geominimax run`` / ``geominimax check``).
"""

from .curvature import rceg_step_size, tau, xi, zeta
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    GeominimaxError,
    NoUniqueGeodesicError,
    NumericalError,
    ParameterError,
    StepTooLongError,
)
from .manifolds import Euclidean, Manifold, Point, Product, Spd, Sphere, Tangent
from .problems import (
    MinimaxProblem,
    augmented_lagrangian,
    estimate_smoothness,
    euclidean_quadratic,
    numeric_riemannian_grad,
    robust_pca,
    spd_bilinear,
)
from .solvers import (
    GapEstimate,
    IterationRecord,
    RunResult,
    SolverState,
    certified_gap,
    estimate_duality_gap,
    geodesic_average_update,
    make_state,
    rceg_step,
    resolve_step_size,
    rgda_step,
    riemannian_bb,
    riemannian_gd,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "zeta",
    "xi",
    "tau",
    "rceg_step_size",
    "Manifold",
    "Point",
    "Tangent",
    "Euclidean",
    "Sphere",
    "Spd",
    "Product",
    "GeominimaxError",
    "ParameterError",
    "ContractError",
    "DomainError",
    "NumericalError",
    "StepTooLongError",
    "NoUniqueGeodesicError",
    "ConfigError",
    "MinimaxProblem",
    "euclidean_quadratic",
    "spd_bilinear",
    "robust_pca",
    "augmented_lagrangian",
    "numeric_riemannian_grad",
    "estimate_smoothness",
    "SolverState",
    "IterationRecord",
    "RunResult",
    "GapEstimate",
    "make_state",
    "resolve_step_size",
    "rceg_step",
    "rgda_step",
    "geodesic_average_update",
    "riemannian_gd",
    "riemannian_bb",
    "certified_gap",
    "estimate_duality_gap",
    "run",
    "__version__",
]
