"""Trigonometric kernel integrals of the unperturbed center.

The building blocks are the half-period cosine moments

    m(k) = integral of cos^k(t) over (-pi/2, pi/2)

(exact in `wallis_half_exact`, as m(k)/pi for even k) and four families
of parameter-dependent integrals over half circles,

    A[i,j](r) = int cos^i t sin^j t / (r cos t + a)^2 dt   on (-pi/2, pi/2)
    I[i,j](r) = int cos^i t sin^j t / (r cos t + a)   dt   on (-pi/2, pi/2)
    B[i,j](r), J[i,j](r): the same integrands with parameter b on
                          (pi/2, 3*pi/2).

Everything reduces to A[0,0]: odd powers of sin integrate to zero, even
powers reduce binomially to j = 0, and the j = 0 ladders collapse to the
seeds plus polynomial terms.  `_unit_half` holds that reduction, exact
and checked, per entry; `pwcycles.averaging` assembles it and
`eval_family` evaluates it, for every family and index, A[0,0] and
B[0,0] included.  A[0,0] itself has elementary closed forms (arctan
inside the critical radius, log outside), a removable 0/0 seam at r = a
handled by a local series, and the parity identity A[0,0](r; a) =
A[0,0](-r; -a).  Its derivative comes from the first-order ODE it
satisfies, and from the seam series on the seam (`a00_prime`).

An adaptive-quadrature oracle (`quad_oracle`) provides an independent
evaluation path for every family; neither closed forms nor reduction feed it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .exact import as_fraction, pi_parity_float

Table = Dict[Tuple[int, int], Fraction]

HALF_CIRCLE = (-math.pi / 2, math.pi / 2)
BACK_HALF_CIRCLE = (math.pi / 2, 3 * math.pi / 2)
FULL_CIRCLE = (0.0, 2 * math.pi)

# Relative half-width of the band around r = a where A[0,0] is the seam
# series, since both closed forms cancel toward r = a.  In long double, for
# 0.3 <= |a| <= 2: 2.6e-19 relative inside, 1.7e-18 just outside (7.9e-15
# just outside a band of 1e-3).
SEAM_BAND = 0.1
_SEAM_TERMS = 16

# Hard cap on family orders i + j.  Over A and I at every (i, j), 0.05 <=
# |c| <= 10 and r/c = +-0.5000001, +-0.6 and +-0.7500001, the worst scaled
# error against `oracle_family` is 1.9e-11 at order 20 and 5.9e-11 at 23,
# both at |c| = 0.05, the smallest constant, so verify's 1e-9 holds with
# room at every constant from 0.05 up.
MAX_FAMILY_ORDER = 20

# Tolerances and subdivision budget of the quadrature oracle.
_QUAD_ABS_TOL = 1e-14
_QUAD_REL_TOL = 1e-12
_QUAD_MAX_SUBDIVISIONS = 2000

# Fraction of |a| below which `eval_family` uses the defining power series
# in r instead of the reduction (which divides by r^(i+j)).  At 0.5 the
# reduction just outside lost up to 3.6e-9 at order 20 for |c| = 0.05;
# at 0.75, 1.9e-11.
_SERIES_RADIUS = 0.75


class DomainError(ValueError):
    """Evaluation point outside the analyticity domain."""


class SingularityError(ValueError):
    """Evaluation at the singular endpoint of the domain."""


class FamilyIndexError(ValueError):
    """Family index outside the supported recursion range."""


class OracleConvergenceError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""


@dataclass(frozen=True)
class SystemParams:
    """Constants of the unperturbed piecewise center.

    `a` rules the half-plane x >= 0, `b` the half-plane x < 0.  The period
    annulus is 0 < r < r0 where r0 is the distance from the origin to the
    nearest invariant double line (infinite when both lines are outside
    their half-planes).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"system constant {name} must be finite, got {value!r}")
        if self.a == 0 or self.b == 0:
            raise ValueError("both system constants must be nonzero")

    @property
    def r0(self) -> float:
        return min(-self.a if self.a < 0 else math.inf, self.b if self.b > 0 else math.inf)

    @property
    def resonant(self) -> bool:
        # Exact equality on purpose: near-resonant studies must opt in.
        return self.a == -self.b


@dataclass(frozen=True)
class FamilyIndex:
    family: str  # one of 'A', 'B', 'I', 'J'
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "B", "I", "J"):
            raise FamilyIndexError(f"unknown family {self.family!r}")
        if self.i < 0 or self.j < 0:
            raise FamilyIndexError("family indices must be nonnegative")
        if self.i + self.j > MAX_FAMILY_ORDER:
            raise FamilyIndexError(
                f"order i+j={self.i + self.j} exceeds supported bound {MAX_FAMILY_ORDER}"
            )


# ---------------------------------------------------------------------------
# Wallis moments
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def wallis_half_exact(k: int) -> Fraction:
    """m(k)/pi for even k, m(k) for odd k, exactly (see `pwcycles.exact`).

    m(0) = pi, m(1) = 2, and m(k) = m(k-2) * (k-1)/k.
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k < 2:
        return Fraction(k + 1)  # m(0)/pi = 1, m(1) = 2
    return wallis_half_exact(k - 2) * Fraction(k - 1, k)


def wallis_half(k: int) -> float:
    return pi_parity_float(wallis_half_exact(k), k)


# ---------------------------------------------------------------------------
# A[0,0]: closed forms, seam series, parity reduction
# ---------------------------------------------------------------------------


def _a00_seam_series(s: np.ndarray, a: float, derivative: bool = False) -> np.ndarray:
    """Series solution of the first-order ODE about the regular point r = a.

    a*(a^2-r^2)*A' = 3*a*r*A - 4 with anchor A(a) = 4/(3 a^2) gives
    c0 = 4/(3 a^2), c_k = -(k+2) / (a*(2k+3)) * c_{k-1}, a ratio that tends
    to 1/(2a): the nearest singularity is at distance 2a.  So at |s| <=
    SEAM_BAND*a the first _SEAM_TERMS terms leave (SEAM_BAND/2)^_SEAM_TERMS
    = 1.5e-21 relative.  With `derivative`, the series of A' from the same
    coefficients, sum of k c_k s^(k-1) for k = 1.._SEAM_TERMS.
    """
    coefs = [4.0 / (3.0 * a * a)]
    for k in range(_SEAM_TERMS):
        coefs.append(coefs[-1] * (-(k + 3) / (a * (2 * k + 5))))
    terms = [k * c for k, c in enumerate(coefs)][1:] if derivative else coefs[:-1]
    return np.dot(np.vander(s, _SEAM_TERMS, increasing=True), np.array(terms))


def a00(r, a: float):
    """Vectorized A[0,0](r; a); NaN outside the analyticity domain.

    For a > 0 the domain is (-a, +inf) with a (r+a)^(-3/2) blow-up at the
    left end; a < 0 reduces through A[0,0](r; a) = A[0,0](-r; -a).
    A scalar r gives a float.
    """
    scalar = np.isscalar(r)
    rr = np.atleast_1d(np.asarray(r, dtype=np.longdouble))
    if a < 0:
        rr, a = -rr, -a
    a = np.longdouble(a)

    out = np.full(rr.shape, np.nan, dtype=np.longdouble)
    valid = rr > -a
    seam = valid & (np.abs(rr - a) <= SEAM_BAND * a)
    inner = valid & ~seam & (rr < a)
    outer = valid & ~seam & (rr > a)

    if seam.any():
        out[seam] = _a00_seam_series(rr[seam] - a, a)
    if inner.any():
        x = rr[inner]
        d = a * a - x * x
        t = np.sqrt((a - x) / (a + x))
        out[inner] = -2.0 * x / (a * d) + 4.0 * a * np.arctan(t) / (d * np.sqrt(d))
    if outer.any():
        x = rr[outer]
        d = x * x - a * a
        s = np.sqrt(d)
        out[outer] = 2.0 * x / (a * d) - 2.0 * a * np.log((x + s) / a) / (d * s)

    return float(out[0]) if scalar else out


def a00_prime(r: np.ndarray, a: float, value: np.ndarray) -> np.ndarray:
    """d/dr A[0,0](r; a) at the points r, given value = A[0,0](r; a) there.

    Off the seam, the ODE a*(a^2-r^2)*A' = 3*a*r*A - 4, which holds for
    either sign of a; within SEAM_BAND of r = a, where it divides by 0,
    the derivative of the seam series.  Just outside the band the closed
    forms of A still cancel and the ODE divides their error by a^2 - r^2:
    there A' holds about 4e-17 relative, against a few ulps elsewhere.
    A NaN value gives NaN; B[0,0]'(r) = -A'(-r; b) by the half-turn rule.
    """
    r, a = np.asarray(r, dtype=np.longdouble), np.longdouble(a)
    x = r if a > 0 else -r  # the seam series is stated for a > 0
    seam = np.abs(x - abs(a)) <= SEAM_BAND * abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at r = a, overwritten below
        out = (3.0 * a * r * value - 4.0) / (a * (a * a - r * r))
    if seam.any():
        out[seam] = np.sign(a) * _a00_seam_series(x[seam] - abs(a), abs(a), derivative=True)
    return out


def _check_a_domain(r: float, a: float) -> None:
    sing = -a  # the singular endpoint for either sign of a
    if r == sing:
        raise SingularityError(f"A[0,0] has a branch-point blow-up at r = {sing}")
    if (r < sing) if a > 0 else (r > sing):
        domain = f"({sing}, +inf)" if a > 0 else f"(-inf, {sing})"
        raise DomainError(f"r = {r} is outside the analyticity domain {domain}")


# ---------------------------------------------------------------------------
# The exact reduction
# ---------------------------------------------------------------------------


class AssemblyError(RuntimeError):
    """An exact structural identity of the reduction failed."""


def _reduce_half(
    S: Table, c: Fraction, degree: int, alternate: bool
) -> Tuple[List[Fraction], List[Fraction]]:
    """Collapse one half-circle family to {r^(2i) K[0,0]} + monomials.

    The ladder for the squared-denominator family reads

        r^i K[i,0] = (-c)^i K[0,0] + i (-c)^(i-1) L[0,0] + poly terms,

    with poly ladder weights (-c)^k (front half) or (-1)^i c^k (back
    half, `alternate=True`).  The first-power seed then dissolves via
    L[0,0] = linear_seed * r + c*K[0,0] - (r^2/c)*K[0,0], where
    linear_seed is +2/c^2 (front) or -2/c^2 (back).
    """
    linear_seed = Fraction(-2 if alternate else 2) / c**2
    h = (degree + 1) // 2
    coef_K = [Fraction(0)] * (h + 2)
    coef_L = [Fraction(0)] * (h + 1)
    poly = [Fraction(0)] * (2 * h + 2)

    for (i, j), s in S.items():
        if s == 0:
            continue
        coef_K[j] += s * (-c) ** i
        if i >= 1:
            coef_L[j] += s * i * (-c) ** (i - 1)
        for k in range(i - 1):  # k = 0 .. i-2
            lad = ((-1) ** i) * c**k if alternate else (-c) ** k
            poly[2 * j + i - k - 2] += wallis_half_exact(i - k - 2) * (s * (k + 1) * lad)

    for j in range(h + 1):
        cl = coef_L[j]
        if cl == 0:
            continue
        poly[2 * j + 1] += cl * linear_seed
        coef_K[j] += cl * c
        coef_K[j + 1] -= cl / c

    return coef_K, poly


@lru_cache(maxsize=None)
def _unit_half(
    c: Fraction, alternate: bool, p: int, q: int
) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """The reduction of the single entry sigma[p, q] = 1, q even, at the
    smallest degree that holds it, max(1, p + q - 1): the only place a
    reduction runs.  sin^2 = 1 - cos^2 lowers the entry binomially onto
    S[p + 2k, l - k] = (-1)^k C(l, k), k = 0..l, l = q/2.  On the front
    half the result is r^(p+q) A[p,q](r; c) over {r^(2i) A[0,0]} (coef)
    and {r^i} (poly, pi set by index parity).

    Then the half's exact structural identities are checked; a failure
    means the reduction itself is broken, not the input.  A larger degree
    only appends zeros to both parts, and its check at index
    2*floor((n+1)/2) then reads one of them; the checks are linear, so
    they hold for every degree and every combination `assemble` makes.
    """
    l = q // 2
    S: Table = {(p + 2 * k, l - k): Fraction((-1) ** k * math.comb(l, k)) for k in range(l + 1)}
    degree = max(1, p + q - 1)
    coef, poly = _reduce_half(S, c, degree, alternate)
    if poly[2 * ((degree + 1) // 2)] != 0:
        raise AssemblyError("monomial coefficient at index 2*floor((n+1)/2) must vanish")
    if coef[0] != -(c * c) * poly[0]:
        raise AssemblyError("constant-term tie between the kernel and monomial parts failed")
    return tuple(coef), tuple(poly)


# ---------------------------------------------------------------------------
# Family evaluation
# ---------------------------------------------------------------------------


def _series_j0(i: int, r: float, c: float) -> float:
    """Defining power series of A[i,0](r; c), c^-2 * sum_p (p+1) (-r/c)^p
    m(i+p).  Converges geometrically for |r| < |c|; used for |r| <=
    _SERIES_RADIUS*|c|, where the reduction would divide by a high power of r.
    """
    q = -r / c
    acc = 0.0
    term = 1.0
    for p in range(0, 400):
        contrib = (p + 1) * term * wallis_half(i + p)
        acc += contrib
        term *= q
        if p > 4 and abs(contrib) <= 1e-17 * abs(acc):
            break
    return acc / (c * c)


def _long(q: Fraction) -> np.longdouble:
    return np.longdouble(q.numerator) / np.longdouble(q.denominator)


_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def _a_family(i: int, j: int, r: float, c: float) -> float:
    """A[i,j](r; c), j even: at small |r| the series of each A[i+2k,0] of the
    lowering sin^2 = 1 - cos^2, else the unit half of sigma[i, j], which is
    r^(i+j) A[i,j], evaluated in long double and divided by r^(i+j)."""
    if i + j == 0:
        return a00(r, c)
    if abs(r) <= _SERIES_RADIUS * abs(c):
        l = j // 2
        return sum((-1) ** k * math.comb(l, k) * _series_j0(i + 2 * k, r, c) for k in range(l + 1))
    coef, poly = _unit_half(as_fraction(c), False, i, j)
    x = np.longdouble(r)
    kernel = npoly.polyval(x * x, [_long(u) for u in coef]) * a00(np.array([x]), c)[0]
    monomials = npoly.polyval(x, [_long(u) * (_PI_LONG if k % 2 == 0 else 1) for k, u in enumerate(poly)])
    return float((kernel + monomials) / x ** (i + j))


def eval_family(idx: FamilyIndex, r: float, params: SystemParams) -> float:
    """Evaluate any of A, B, I, J at arbitrary (i, j).

    An r outside the domain raises for every index.  Odd j annihilates all
    four families (odd integrand on a symmetric window).  For even j, A is `_a_family`; I[i,j] = r A[i+1,j] + c A[i,j]
    exactly (the integrand times (r cos t + c)/(r cos t + c)).  B and J
    are A and I by the half-turn substitution t -> t + pi:
    B[i,j](r; b) = (-1)^i A[i,j](-r; b), and J from I the same way.
    """
    fam, i, j = idx.family, idx.i, idx.j
    c, s = (params.a, 1) if fam in ("A", "I") else (params.b, -1)
    x = s * r
    _check_a_domain(x, c)
    if j % 2 == 1:
        return 0.0
    value = _a_family(i, j, x, c)
    if fam in ("I", "J"):
        value = x * _a_family(i + 1, j, x, c) + c * value
    return s**i * value


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def trig_rational(i: int, j: int, r: float, c: float, power: int = 2) -> Callable[[float], float]:
    """Integrand cos^i(t) sin^j(t) / (r cos t + c)^power."""

    def f(t: float) -> float:
        return math.cos(t) ** i * math.sin(t) ** j / (r * math.cos(t) + c) ** power

    return f


def quad_oracle(integrand: Callable[[float], float], interval: Tuple[float, float]) -> float:
    """Adaptive Gauss-Kronrod estimate with enforced error control.

    The quadrature is scipy's ``integrate.quad``, imported on first use.

    Raises OracleConvergenceError when the subdivision budget is exhausted
    or the reported error exceeds the requested tolerance by more than two
    orders (the tolerances sit near machine precision, so QUADPACK
    may flag roundoff while still delivering ~1e-12 relative error; only a
    genuinely unmet budget — the signature of a near-singular parameter
    set — is escalated).
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        result = integrate.quad(
            integrand,
            interval[0],
            interval[1],
            epsabs=_QUAD_ABS_TOL,
            epsrel=_QUAD_REL_TOL,
            limit=_QUAD_MAX_SUBDIVISIONS,
            full_output=1,
        )
    value, err, info = result[0], result[1], result[2]
    if len(result) > 3 and "number of subdivisions" in result[3]:
        raise OracleConvergenceError(
            f"subdivision budget {_QUAD_MAX_SUBDIVISIONS} exhausted: {result[3]}"
        )
    # Judge the reported error against the natural scale of the integral,
    # not only its value: integrals that vanish by symmetry carry roundoff
    # proportional to the integrand's magnitude.
    ts = np.linspace(interval[0], interval[1], 33)
    scale = (interval[1] - interval[0]) * max(abs(integrand(float(t))) for t in ts)
    if err > 100.0 * max(_QUAD_ABS_TOL, _QUAD_REL_TOL * max(abs(value), scale)):
        raise OracleConvergenceError(
            f"reported error {err:g} exceeds tolerance for value {value:g} "
            f"({info['last']} subintervals)"
        )
    return value


def oracle_family(idx: FamilyIndex, r: float, params: SystemParams) -> float:
    """Direct quadrature of the defining integral (independent of the reduction)."""
    power = 2 if idx.family in ("A", "B") else 1
    if idx.family in ("A", "I"):
        return quad_oracle(trig_rational(idx.i, idx.j, r, params.a, power), HALF_CIRCLE)
    return quad_oracle(trig_rational(idx.i, idx.j, r, params.b, power), BACK_HALF_CIRCLE)
