"""The first-order averaged function of the perturbed piecewise center.

For a degree-n perturbation the scaled averaged function

    F(r) = r * f0(r)

is a finite combination of monomials r^i and of r^(2i) * A[0,0](r),
r^(2i) * B[0,0](r).  Two independent routes compute it:

* `assemble` reduces the coefficients symbolically (exact Fractions,
  pi set by index parity): it combines the perturbation's nonzero
  coefficients with the exact unit columns of `_unit_parts` and rounds
  the sum to a `BasisExpansion` once.  A unit column is the reduction of
  one polar numerator entry (the sigma/tau sums): zero for an odd sine
  power, else the checked reduction of that entry, `kernels._unit_half`
  (the same reduction `kernels.eval_family` evaluates).

* `oracle_F` integrates the polar right-hand side directly with adaptive
  quadrature and knows nothing about the reduction.

Their agreement is the central correctness property of the package.

The reduction is one exact linear map of `PerturbationSpec.vector`, and
`_unit_parts` holds its columns.  Each entry's reduction runs and is
checked once per half-circle constant and is shared by every unit,
degree and system, so its checks cover every input.  `_exact_parts`
combines the columns exactly for `assemble`; the surjectivity rank and
the smooth checks read them as they are, and `assembly_matrix` holds
them in double for the realization and the surveys.

`basis_values` is the package's one expansion evaluator: it samples the
basis functions once, in long double, and any coefficient vector
(`BasisExpansion.vector`) times that matrix gives the expansion's values
(`eval_F` rounds that product to double once); on request it also gives
the basis's derivative rows, so the same vector gives F' (zero
refinement and placement scoring read them).  Its powers r^k are running
products r^(k-1) * r, within (k-1)u/(1-(k-1)u) of the exact power
(u = 2^-64).  A grid of at least `_GRID_MIN` points keeps its powers
(extended along the same chain as the degree grows) and its kernel rows
A[0,0](+-r) per constant, for the `_GRIDS_KEPT` most recent grids, so a
later degree or system on the same grid only multiplies and stacks them;
the values are bit for bit those of sampling afresh.  The smooth system
is the special case b = a with equal tables (see `pwcycles.smooth`); it
has no reduction or evaluator of its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .exact import as_fraction, pi_parity_float
from .kernels import (
    BACK_HALF_CIRCLE,
    HALF_CIRCLE,
    DomainError,
    SystemParams,
    _unit_half,
    a00,
    a00_prime,
    quad_oracle,
)

log = logging.getLogger("pwcycles")
LONG = np.longdouble  # the precision of every basis row and every product with one


@lru_cache(maxsize=None)
def _triangle(degree: int) -> np.ndarray:
    """Read-only mask of the triangle i + j <= degree in a (degree+1)^2 table."""
    i, j = np.indices((degree + 1, degree + 1))
    mask = i + j <= degree
    mask.flags.writeable = False
    return mask


def _random_rows(degree: int, rng: np.random.Generator, count: int, tables: int) -> np.ndarray:
    """`count` rows of `tables` uniform (-1, 1) tables over the triangle
    i + j <= degree, in the order of `PerturbationSpec.vector`.

    One draw of full (degree+1)^2 tables, masked: the same numbers as
    drawing the tables one by one and keeping their triangles.
    """
    mask = _triangle(degree)
    t = rng.uniform(-1.0, 1.0, (count, tables, *mask.shape))[:, :, mask]
    return t.reshape(count, t.shape[1] * t.shape[2])


def _dense_table(degree: int, entries, name: str) -> np.ndarray:
    """Dense (degree+1)^2 coefficient array from an array-like or dict.

    Zero entries (either sign) are stored as +0.0; any other entry, NaN
    included, must lie on the triangle i + j <= degree.
    """
    if entries is None or isinstance(entries, dict):
        out = np.zeros((degree + 1, degree + 1))
        for (i, j), v in (entries or {}).items():
            if v == 0.0:
                continue
            if i < 0 or j < 0 or i + j > degree:
                raise ValueError(f"{name}: index ({i},{j}) outside triangle of degree {degree}")
            out[i, j] = v
        return out
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (degree + 1, degree + 1):
        raise ValueError(f"{name}: expected shape {(degree + 1, degree + 1)}, got {arr.shape}")
    nonzero = arr != 0.0
    outside = nonzero & ~_triangle(degree)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ValueError(f"{name}: index ({i},{j}) outside triangle of degree {degree}")
    return np.where(nonzero, arr, 0.0)


@dataclass(frozen=True)
class PerturbationSpec:
    """Triangular coefficient tables of the four perturbation polynomials.

    `plus_f[i, j]` multiplies x^i y^j in f on x >= 0, and so on; entries
    with i + j > degree must be zero (the constructor enforces it).
    """

    degree: int
    plus_f: np.ndarray
    plus_g: np.ndarray
    minus_f: np.ndarray
    minus_g: np.ndarray

    def __init__(self, degree, plus_f=None, plus_g=None, minus_f=None, minus_g=None):
        if degree < 1:
            raise ValueError("perturbation degree must be >= 1")
        object.__setattr__(self, "degree", int(degree))
        for name, entries in (
            ("plus_f", plus_f),
            ("plus_g", plus_g),
            ("minus_f", minus_f),
            ("minus_g", minus_g),
        ):
            object.__setattr__(self, name, _dense_table(self.degree, entries, name))

    @staticmethod
    def random(degree: int, rng: np.random.Generator) -> "PerturbationSpec":
        """Uniform (-1, 1) coefficients on the four triangles."""
        return PerturbationSpec.from_vector(degree, _random_rows(degree, rng, 1, 4)[0])

    def vector(self) -> np.ndarray:
        """The coefficients in one vector: plus_f, plus_g, minus_f, minus_g,
        each over the triangle i + j <= degree in row-major order."""
        mask = _triangle(self.degree)
        return np.concatenate([t[mask] for t in (self.plus_f, self.plus_g, self.minus_f, self.minus_g)])

    @staticmethod
    def from_vector(degree: int, v) -> "PerturbationSpec":
        """Inverse of `vector`."""
        tables = np.zeros((4, degree + 1, degree + 1))
        tables[:, _triangle(degree)] = np.reshape(v, (4, -1))
        return PerturbationSpec(degree, *tables)

    def scaled_add(self, alpha: float, other: "PerturbationSpec", beta: float) -> "PerturbationSpec":
        if other.degree != self.degree:
            raise ValueError("degrees differ")
        return PerturbationSpec.from_vector(self.degree, alpha * self.vector() + beta * other.vector())

    @property
    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.vector())))

    def normalized(self) -> "PerturbationSpec":
        """Unit max coefficient: same averaged-function zeros, smaller
        second-order term relative to the first-order signal."""
        s = self.max_abs_coeff
        if s == 0:
            return self
        return self.scaled_add(1.0 / s, self, 0.0)


@dataclass(frozen=True)
class BasisExpansion:
    """Coefficients of F(r) over {r^i} U {r^(2i) A[0,0]} U {r^(2i) B[0,0]}.

    `coeff_A[i]` multiplies r^(2i) A[0,0](r), `coeff_B[i]` multiplies
    r^(2i) B[0,0](r), and `coeff_poly[i]` multiplies r^i (the two halves'
    monomial parts already merged).
    """

    degree: int
    coeff_A: np.ndarray
    coeff_B: np.ndarray
    coeff_poly: np.ndarray

    @staticmethod
    def zeros(degree: int) -> "BasisExpansion":
        h = (degree + 1) // 2
        return BasisExpansion(
            degree,
            np.zeros(h + 2),
            np.zeros(h + 2),
            np.zeros(2 * h + 2),
        )

    def vector(self, dtype=None) -> np.ndarray:
        """coeff_A, coeff_B and coeff_poly in one vector, the row order of
        `basis_values`; dtype None keeps the coefficients' own precision."""
        return np.asarray(np.concatenate([self.coeff_A, self.coeff_B, self.coeff_poly]), dtype=dtype)

    @staticmethod
    def from_vector(degree: int, v: np.ndarray) -> "BasisExpansion":
        """Inverse of `vector`."""
        k = (degree + 1) // 2 + 2
        return BasisExpansion(degree, v[:k], v[k : 2 * k], v[2 * k :])


@dataclass(frozen=True)
class AveragedFunction:
    params: SystemParams
    expansion: BasisExpansion


# Grids of at least _GRID_MIN points keep the rows of `basis_values` that
# do not depend on the degree, for the _GRIDS_KEPT most recently sampled
# grids: a ceiling pass samples three grids 24 times.
_GRID_MIN = 256
_GRIDS_KEPT = 4


class _GridRows:
    """The powers r^k and the kernel rows of one sampled long-double grid."""

    def __init__(self, rr: np.ndarray):
        self.rr = rr
        self.powers = np.empty((0, rr.size), dtype=LONG)
        self.kernels: Dict[Tuple[int, float], np.ndarray] = {}
        self.slopes: Dict[Tuple[int, float], np.ndarray] = {}

    def power_rows(self, count: int) -> np.ndarray:
        """r^k for k = 0..count-1; rows past those held are appended.

        The rows are running products, row k = row[k-1] * r from row 0 = 1:
        libm `powl` costs some 45 long-double multiplies per entry, and k - 1
        roundings of an exact r leave row k within (k-1)u/(1-(k-1)u) of
        r^k (u = 2^-64; Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., section 3.1), well inside the 64 eps noise
        factor of the zero scans.  Appended rows extend the same chain, so
        a kept grid's rows equal those of a freshly sampled one bit for bit.
        """
        have = len(self.powers)
        if have < count:
            rows = np.empty((count, self.rr.size), dtype=LONG)
            rows[:have] = self.powers
            rows[0] = 1
            for k in range(max(have, 1), count):
                np.multiply(rows[k - 1], self.rr, out=rows[k])
            self.powers = rows
        return self.powers[:count]

    def kernel(self, side: int, c: float) -> np.ndarray:
        """a00(side * r, c).  a00(-x, -c) is how a00(x, c) evaluates for
        c < 0, so the row is stored once under c > 0, bit for bit."""
        key = (side if c > 0 else -side, abs(c))
        if key not in self.kernels:
            self.kernels[key] = a00(self.rr if key[0] > 0 else -self.rr, key[1])
        return self.kernels[key]

    def kernel_slope(self, side: int, c: float) -> np.ndarray:
        """d/dr of the row `kernel(side, c)`: side * A[0,0]'(side * r; c),
        from that row through `a00_prime`, kept under the same key."""
        key = (side if c > 0 else -side, abs(c))
        if key not in self.slopes:
            row = self.kernel(side, c)
            self.slopes[key] = key[0] * a00_prime(key[0] * self.rr, key[1], row)
        return self.slopes[key]


@lru_cache(maxsize=_GRIDS_KEPT)
def _kept_grid(grid: bytes) -> _GridRows:
    """The long-double rows of the float64 grid with these bytes."""
    return _GridRows(np.frombuffer(grid).astype(LONG))


def basis_values(params: SystemParams, n: int, r, *, derivative: bool = False):
    """The degree-n basis at the points r, one long-double row per basis function.

    Rows follow `BasisExpansion.vector`: r^(2i) A[0,0] for i = 0..h+1,
    r^(2i) B[0,0] for i = 0..h+1, then r^k for k = 0..2h+1, with
    h = floor((n+1)/2).  A coefficient vector times this matrix is the
    expansion's value; since every entry is nonnegative for r >= 0 (the
    kernels are positive), |vector| times it, times machine epsilon,
    bounds the roundoff of that sum.  No domain checks: points outside
    the analyticity domain give NaN columns.

    The powers are running products (`_GridRows.power_rows`).  They and
    the kernel rows of a large grid are computed once (`_kept_grid`, for
    float64 grids of at least _GRID_MIN points, keyed on their bytes) and
    shared by every degree and system that samples it; the values are
    those of sampling afresh, bit for bit.

    With `derivative`, returns (values, slopes): slopes holds d/dr of each
    row in the same order, from the same power and kernel rows: k r^(k-1)
    for a monomial and 2i r^(2i-1) K + r^(2i) K' for a kernel row, K' from
    `a00_prime` (`_GridRows.kernel_slope`).  The values are those returned
    without it, bit for bit.
    """
    h = (n + 1) // 2
    r64 = np.asarray(r)
    if r64.dtype == np.float64 and r64.ndim == 1 and r64.size >= _GRID_MIN:
        grid = _kept_grid(r64.tobytes())
    else:
        grid = _GridRows(np.atleast_1d(np.asarray(r, dtype=LONG)))
    powers = grid.power_rows(2 * h + 3)
    even = powers[::2]
    ka, kb = grid.kernel(1, params.a), grid.kernel(-1, params.b)
    values = np.concatenate([even * ka, even * kb, powers[:-1]])
    if not derivative:
        return values
    # d/dr r^k = k r^(k-1): the even rows' slopes 2i r^(2i-1) and the
    # monomials' k r^(k-1), each the kept power row times an integer.
    slopes = np.zeros((2 * h + 3, powers.shape[1]), dtype=LONG)
    slopes[1:] = np.arange(1, 2 * h + 3)[:, None] * powers[:-1]
    d_even = slopes[::2]
    da, db = grid.kernel_slope(1, params.a), grid.kernel_slope(-1, params.b)
    return values, np.concatenate([d_even * ka + even * da, d_even * kb + even * db, slopes[:-1]])


def eval_F(fn: AveragedFunction, r):
    """F(r) on [0, r0), the long-double product with `basis_values` rounded
    to double once; rejects points outside the period annulus, NaN too."""
    rr = np.asarray(r, dtype=float)
    if not np.all((rr >= 0) & (rr < fn.params.r0)):
        raise DomainError(f"evaluation point outside [0, {fn.params.r0})")
    out = np.dot(fn.expansion.vector(LONG), basis_values(fn.params, fn.expansion.degree, rr)).astype(float)
    return float(out[0]) if np.ndim(r) == 0 else out


@lru_cache(maxsize=None)
def _unit_parts(params: SystemParams, n: int) -> Tuple[tuple, ...]:
    """The exact parts (coef_A, poly_plus, coef_B, poly_minus) of each unit
    perturbation of degree n, in the order of `PerturbationSpec.vector`:
    the columns of the assembly map.

    A unit puts 1 on one sigma entry: the polar numerator f cos + g sin
    sends f x^i y^j to sigma[i+1, j] and g x^i y^j to sigma[i, j+1] on the
    front half (plus tables), and to tau likewise on the back half
    (`alternate`, minus tables).  An odd sine power is odd in the angle
    about the middle of its half circle and gives zero parts; an even one
    reads `_unit_half`, zero-padded to degree n, and the other half is zero.
    """
    h = (n + 1) // 2
    zero = (Fraction(0),) * (h + 2), (Fraction(0),) * (2 * h + 2)
    consts = (as_fraction(params.a), as_fraction(params.b))
    before = _unit_half.cache_info()
    units, zero_columns = [], 0
    for alternate in (False, True):
        for di, dj in ((1, 0), (0, 1)):
            for i, j in np.argwhere(_triangle(n)).tolist():
                p, q = i + di, j + dj
                zero_columns += q % 2
                coef, poly = ((), ()) if q % 2 else _unit_half(consts[alternate], alternate, p, q)
                half = (coef + zero[0][len(coef) :], poly + zero[1][len(poly) :])
                units.append((*zero, *half) if alternate else (*half, *zero))
    after = _unit_half.cache_info()
    log.debug(
        "unit columns: degree %d, (a, b) = (%r, %r), %d columns, %d half reductions run, %d reused, %d zero columns",
        n, params.a, params.b, len(units), after.misses - before.misses, after.hits - before.hits, zero_columns,
    )
    return tuple(units)


def _exact_parts(params: SystemParams, pert: PerturbationSpec) -> Tuple[list, list, list, list]:
    """The exact parts (coef_A, poly_plus, coef_B, poly_minus) of a
    perturbation: its nonzero coefficients times the columns of
    `_unit_parts`, summed exactly.  Every nonzero coefficient converts
    exactly first, so a non-finite one raises ValueError wherever it sits."""
    units = _unit_parts(params, pert.degree)
    v = pert.vector()
    sums = [[0 * u for u in part] for part in units[0]]
    for k in np.flatnonzero(v).tolist():
        x = as_fraction(float(v[k]))
        for total, part in zip(sums, units[k]):
            for i, u in enumerate(part):
                if u:
                    total[i] += u * x
    return tuple(sums)


def _rounded(parts) -> np.ndarray:
    """The expansion vector of exact parts (coef_A, poly_plus, coef_B,
    poly_minus): the kernel coefficients, then the two halves' monomials
    merged, each rounded to double once (`pi_parity_float`).  Zeros, most
    of a unit column, are neither added nor converted: exact sums and
    conversions cost the most."""
    coef_A, poly_plus, coef_B, poly_minus = parts
    merged = (p + q if p and q else p or q for p, q in zip(poly_plus, poly_minus))
    kernels = [float(x) if x else 0.0 for x in (*coef_A, *coef_B)]
    return np.array(kernels + [pi_parity_float(x, k) if x else 0.0 for k, x in enumerate(merged)])


def assemble(params: SystemParams, pert: PerturbationSpec) -> AveragedFunction:
    """The perturbation's BasisExpansion: `_exact_parts`, the exact
    combination of the checked unit columns, rounded once."""
    return AveragedFunction(params, BasisExpansion.from_vector(pert.degree, _rounded(_exact_parts(params, pert))))


@lru_cache(maxsize=None)
def assembly_matrix(params: SystemParams, n: int) -> np.ndarray:
    """The degree-n assembly as a read-only float64 matrix.

    Column k is the rounded k-th unit column of `_unit_parts`, so
    `assembly_matrix(params, n) @ pert.vector()` is `assemble(params,
    pert).expansion.vector()` up to double rounding of the sum.
    """
    M = np.array([_rounded(unit) for unit in _unit_parts(params, n)]).T
    M.flags.writeable = False
    return M


def null_perturbation(degree: int) -> PerturbationSpec:
    """A perturbation with identically zero averaged function.

    f = y, g = -x on both half-planes cancels inside the polar numerator
    combination (the two contributions to the same power pair annul), so
    the assembly is exactly zero.  Useful for breaking the time-reversal
    symmetry of minimal-norm realizations without touching f0: reversible
    fields have no even-order terms in their displacement expansion, which
    makes first-order convergence studies degenerate.
    """
    quads = {"plus_f": {(0, 1): 1.0}, "plus_g": {(1, 0): -1.0},
             "minus_f": {(0, 1): 1.0}, "minus_g": {(1, 0): -1.0}}
    return PerturbationSpec(degree, **quads)


def perturbation_for_expansion(params: SystemParams, expansion: BasisExpansion) -> PerturbationSpec:
    """A perturbation whose assembly reproduces the given expansion.

    Inverts the (linear, underdetermined) `assembly_matrix` by least
    squares.  Raises if the expansion is not in the reachable span — e.g.
    hand-built coefficients ignoring the structural ties.
    """
    n = expansion.degree
    Phi = assembly_matrix(params, n)
    y = expansion.vector(np.float64)
    x, *_ = np.linalg.lstsq(Phi, y, rcond=1e-12)
    resid = np.linalg.norm(Phi @ x - y)
    if resid > 1e-8 * max(1.0, np.linalg.norm(y)):
        raise ValueError(
            f"expansion is not reachable by a degree-{n} perturbation "
            f"(inversion residual {resid:.2e})"
        )
    return PerturbationSpec.from_vector(n, x)


# ---------------------------------------------------------------------------
# Direct-quadrature oracle
# ---------------------------------------------------------------------------


def _poly_eval(table: np.ndarray, x: float, y: float) -> float:
    return float(npoly.polyval2d(x, y, table))


def oracle_F(params: SystemParams, pert: PerturbationSpec, r: float) -> float:
    """F(r) = r * f0(r) by adaptive quadrature of the polar numerators.

    f0(r) is the integral of [f cos + g sin] / (r cos t + a)^2 over the
    front half circle plus the same with (b, minus tables) over the back
    half circle, every factor evaluated pointwise; this path shares no
    code with the symbolic reduction.
    """
    if not (0 < r < params.r0):
        raise DomainError(f"oracle needs 0 < r < {params.r0}")

    def x_plus(t: float) -> float:
        ct, st = math.cos(t), math.sin(t)
        x, y = r * ct, r * st
        return (_poly_eval(pert.plus_f, x, y) * ct + _poly_eval(pert.plus_g, x, y) * st) / (
            r * ct + params.a
        ) ** 2

    def x_minus(t: float) -> float:
        ct, st = math.cos(t), math.sin(t)
        x, y = r * ct, r * st
        return (_poly_eval(pert.minus_f, x, y) * ct + _poly_eval(pert.minus_g, x, y) * st) / (
            r * ct + params.b
        ) ** 2

    return r * (quad_oracle(x_plus, HALF_CIRCLE) + quad_oracle(x_minus, BACK_HALF_CIRCLE))
