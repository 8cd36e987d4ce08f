"""The smooth system: the piecewise system at b = a with equal tables.

When both half-planes carry the same constant a and the same perturbation
polynomials, the system is smooth and the averaged function reduces to

    F(r) = sum alpha_i r^(2i) V[0,0](r) + sum beta_(2i) r^(2i),

with V[0,0] = A[0,0] + B[0,0] at b = a, the full-circle kernel.  The two
half-circles carry the same kernel coefficients alpha_i; their odd
monomials and their first-power seed terms cancel, so only even monomials
up to 2*floor((n-1)/2) survive — two structural differences from the
piecewise case that halve the attainable zero count.

This module adds no reduction, evaluator or zero finder of its own.  A
smooth perturbation is `PerturbationSpec(n, f, g, f, g)`, assembled by
`assemble` at `SystemParams(a, a)`, zeros are counted by
`count_simple_zeros`, and placement
and the ceiling survey run the piecewise code over `smooth_generators`
and `assembly_matrix` at b = a.  The exact smooth checks run once per
(a, n) and process, on the smooth unit directions as read from the
cached piecewise unit reductions at b = a; the checks are linear, so
they then hold for every draw.  `smooth_generating_rank` takes the rank
over Q of those directions (`exact.rank`) against the length of
`smooth_generators`.
Two independent paths stay separate on purpose: the full-circle
quadrature oracle `oracle_smooth_F`, and the V families through

    V[i,j](r) = A[i,j](r; a) + (-1)^(i+j) A[i,j](-r; a),

the split of the circle into its two half-turns; both are validated
against full-circle quadrature in tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import exact
from .averaging import BasisExpansion, PerturbationSpec, _random_rows, _unit_parts
from .kernels import (
    FULL_CIRCLE,
    AssemblyError,
    DomainError,
    FamilyIndex,
    SystemParams,
    eval_family,
    quad_oracle,
)
from .zeros import _basis_element, _check_survey, _place, _survey


@lru_cache(maxsize=None)
def _check_smooth_units(a: float, n: int) -> Tuple[tuple, ...]:
    """The exact smooth unit directions of degree n, checked, once per (a, n).

    Direction k is the plus unit k plus the minus unit k + half of the
    cached piecewise unit reductions at b = a: its kernel coefficients,
    which both half-circles must give alike, then its merged monomials,
    which must be even and at most r^(2*floor((n-1)/2)).  The checks are
    linear, so they then hold for every smooth perturbation of degree n."""
    units = _unit_parts(SystemParams(a, a), n)
    half = len(units) // 2
    cap = 2 * ((n - 1) // 2)
    directions = []
    for (coef_A, poly_plus, _, _), (_, _, coef_B, poly_minus) in zip(units[:half], units[half:]):
        if coef_A != coef_B:
            raise AssemblyError("the two half-circles gave different kernel coefficients")
        merged = tuple(p + q for p, q in zip(poly_plus, poly_minus))
        for k, x in enumerate(merged):
            if (k % 2 == 1 or k > cap) and x != 0:
                raise AssemblyError(f"monomial r^{k} outside the smooth range (even, at most r^{cap})")
        directions.append(coef_A + merged)
    return tuple(directions)


def eval_V_family(i: int, j: int, r: float, a: float) -> float:
    """V[i,j](r) for |r| < |a| via the two half-turn contributions."""
    if abs(r) >= abs(a):
        raise DomainError(f"V family defined for |r| < {abs(a)}")
    params = SystemParams(a, a)
    plus = eval_family(FamilyIndex("A", i, j), r, params)
    minus = eval_family(FamilyIndex("A", i, j), -r, params)
    return plus + (-1) ** (i + j) * minus


def oracle_smooth_F(a: float, pert: PerturbationSpec, r: float) -> float:
    """F(r) by full-circle quadrature of f = plus_f, g = plus_g,
    independent of the reduction."""
    if not (0 < r < abs(a)):
        raise DomainError(f"need 0 < r < {abs(a)}")

    def integrand(t: float) -> float:
        ct, st = math.cos(t), math.sin(t)
        x, y = r * ct, r * st
        f = float(npoly.polyval2d(x, y, pert.plus_f))
        g = float(npoly.polyval2d(x, y, pert.plus_g))
        return (f * ct + g * st) / (r * ct + a) ** 2

    return r * quad_oracle(integrand, FULL_CIRCLE)


# ---------------------------------------------------------------------------
# Generating set, placement, ceiling search
# ---------------------------------------------------------------------------


def smooth_generators(a: float, n: int) -> List[BasisExpansion]:
    """Basis of the smooth reachable span for degree n (n + 1 functions).

    V-shift = V[0,0] - 2 pi/a^2 (the constant tie that makes F(0) = 0),
    r^(2i) V for i = 1..floor(n/2)+1, and the even monomials r^(2i) for
    i = 1..floor((n-1)/2), as expansions at b = a with V = A + B.
    """
    gens = [_basis_element(n, coeff_A={0: 1.0}, coeff_B={0: 1.0}, coeff_poly={0: -2 * math.pi / a**2})]
    gens += [_basis_element(n, coeff_A={i: 1.0}, coeff_B={i: 1.0}) for i in range(1, n // 2 + 2)]
    gens += [_basis_element(n, coeff_poly={2 * i: 1.0}) for i in range(1, (n - 1) // 2 + 1)]
    return gens


def place_smooth_zeros(a: float, n: int, targets: Sequence[float]) -> BasisExpansion:
    """Null-space placement in the smooth reachable span (n+1 generators,
    so capacity n); the result is an expansion at `SystemParams(a, a)`."""
    return _place(SystemParams(a, a), smooth_generators(a, n), targets)


def smooth_generating_rank(a: float, n: int) -> Dict[str, int]:
    """Resolve the even-degree generating-set question by exact rank.

    The listed generating set for degrees 2k and 2k+1 is identical
    ({r^(2i)}_(1..k), V-shift, {r^(2i) V}_(1..k+1)), the reachable set of
    degree 2k+1; as plain functions those are independent for either
    parity.  The reachable span of assembled expansions, however, has
    dimension n+1 for both parities — the even monomial range is capped
    at 2*floor((n-1)/2), so for n = 2k the listed r^(2k) is unreachable
    and the set overcounts by one.

    `reachable_rank` is `exact.rank` of the smooth unit directions, which
    span the reachable set (its dimension, if {r^(2i) V, r^(2i)} are
    independent functions).  The sizes are list lengths:
    `smooth_generators(a, 2k+1)` listed, `smooth_generators(a, n)` expected.
    """
    return {
        "listed_set_size": len(smooth_generators(a, 2 * (n // 2) + 1)),
        "reachable_rank": exact.rank(_check_smooth_units(a, n)),
        "expected_reachable": len(smooth_generators(a, n)),
    }


def random_search_max_smooth_zeros(
    a: float, n: int, draws: int, seed: int, r_max: float, grid: int = 1500
) -> Tuple[int, Dict[int, int]]:
    """Max zero count over random smooth perturbations: uniform (-1, 1) f,
    then g, on the triangle i + j <= n, the same tables on both half-planes."""
    _check_survey(draws, grid)
    _check_smooth_units(a, n)
    rows = np.tile(_random_rows(n, np.random.default_rng(seed), draws, 2), 2)
    return _survey(SystemParams(a, a), n, r_max, grid, rows)
