"""Limit-cycle counting for a piecewise-smooth cubic center.

The package computes the first-order averaged function of the piecewise
planar system

    (x', y') = (-y (x+a)^2 + eps f(x,y),  x (x+a)^2 + eps g(x,y))   x >= 0
    (x', y') = (-y (x+b)^2 + eps f(x,y),  x (x+b)^2 + eps g(x,y))   x <  0

for polynomial perturbations, counts and places simple zeros of that
function on the period annulus (each simple zero spawns a limit cycle for
small eps), and verifies the prediction by direct Poincare return-map
integration of the perturbed system.
"""

# numpy loads numpy.random on first use; the surveys and the CLI draw from
# it, so it is loaded here, with the package, and not inside the first run.
import numpy.random  # noqa: F401

from .kernels import (
    SystemParams,
    FamilyIndex,
    DomainError,
    SingularityError,
    OracleConvergenceError,
    wallis_half,
    eval_A00,
    eval_B00,
    eval_family,
    quad_oracle,
)
from .averaging import (
    PerturbationSpec,
    BasisExpansion,
    AveragedFunction,
    assemble,
    basis_values,
    eval_F,
    oracle_F,
)
from .smooth import (
    smooth_perturbation,
    eval_V_family,
    assemble_smooth,
    oracle_smooth_F,
    smooth_generators,
    place_smooth_zeros,
    smooth_generating_rank,
)
from .zeros import (
    ZeroReport,
    hn_formula,
    reachable_zero_capacity,
    count_simple_zeros,
    place_zeros,
    independence_check,
    coefficient_surjectivity_check,
)
from .poincare import (
    PolarField,
    ReturnMapResult,
    FixedPoint,
    return_map,
    find_fixed_points,
    cartesian_crosscheck,
)

__version__ = "0.1.0"
