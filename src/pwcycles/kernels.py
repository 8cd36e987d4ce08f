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
(i = 0) seeds plus polynomial terms.  A[0,0] itself has elementary closed
forms (arctan inside the critical radius, log outside), a removable
0/0 seam at r = a handled by a local series, and the parity identity
A[0,0](r; a) = A[0,0](-r; -a), which also gives B[0,0](r; b) =
A[0,0](-r; b) via the half-turn substitution.  Its derivative comes from
the first-order ODE it satisfies, and from the seam series on the seam
(`a00_prime`).

An adaptive-quadrature oracle (`quad_oracle`) provides an independent
evaluation path for every family; the closed forms never feed it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .exact import pi_parity_float

HALF_CIRCLE = (-math.pi / 2, math.pi / 2)
BACK_HALF_CIRCLE = (math.pi / 2, 3 * math.pi / 2)
FULL_CIRCLE = (0.0, 2 * math.pi)

# Relative half-width of the seam around r = a where both closed forms
# of A[0,0] lose all digits to 0/0 cancellation.
SEAM_BAND = 1e-3
_SEAM_TERMS = 6

# Hard cap on family orders; assembly never needs more than degree + 1.
MAX_FAMILY_ORDER = 32

# Tolerances and subdivision budget of the quadrature oracle.
_QUAD_ABS_TOL = 1e-14
_QUAD_REL_TOL = 1e-12
_QUAD_MAX_SUBDIVISIONS = 2000

# Fraction of |a| below which the defining power series in r is used for
# the j = 0 ladders instead of the closed ladder (which divides by r^i).
_SERIES_RADIUS = 0.5


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
        if self.a == 0 or self.b == 0:
            raise ValueError("both system constants must be nonzero")

    @property
    def r1(self) -> float:
        return -self.a if self.a < 0 else math.inf

    @property
    def r2(self) -> float:
        return self.b if self.b > 0 else math.inf

    @property
    def r0(self) -> float:
        return min(self.r1, self.r2)

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
    c0 = 4/(3 a^2), c_k = -(k+2) / (a*(2k+3)) * c_{k-1}; the nearest
    singularity is at distance 2a, so six terms at |s| <= 1e-3*a are
    accurate to ~1e-20 relative.  With `derivative`, the series of A'
    from the same coefficients, sum of k c_k s^(k-1) for k = 1..6.
    """
    acc = np.zeros_like(s)
    coef = 4.0 / (3.0 * a * a)
    p = np.ones_like(s)
    for k in range(_SEAM_TERMS):
        if not derivative:
            acc = acc + coef * p
        coef *= -(k + 3) / (a * (2 * k + 5))
        if derivative:
            acc = acc + (k + 1) * coef * p
        p = p * s
    return acc


def a00(r, a: float):
    """Vectorized A[0,0](r; a); NaN outside the analyticity domain.

    For a > 0 the domain is (-a, +inf) with a (r+a)^(-3/2) blow-up at the
    left end; a < 0 reduces through A[0,0](r; a) = A[0,0](-r; -a).
    Floating input dtype is preserved, so callers may evaluate in
    longdouble when combining nearly-cancelling expansion terms.
    """
    scalar = np.isscalar(r)
    arr = np.asarray(r)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64, np.longdouble) else np.float64
    rr = np.atleast_1d(arr.astype(dtype, copy=False))
    if a < 0:
        rr, a = -rr, -a

    out = np.full(rr.shape, np.nan, dtype=dtype)
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
    forms of A cancel and the ODE divides their error by a^2 - r^2: at
    twice the band width A' holds about 2e-9 relative in double (1e-12 in
    long double for a = 1), against a few ulps elsewhere.  The dtype is
    that of r, and a NaN value gives NaN; B[0,0]'(r) = -A'(-r; b) by the
    half-turn rule.
    """
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


def eval_A00(r: float, params: SystemParams) -> float:
    """A[0,0](r) = int dt / (r cos t + a)^2 over the front half circle."""
    _check_a_domain(r, params.a)
    return a00(r, params.a)


def eval_B00(r: float, params: SystemParams) -> float:
    """B[0,0](r) = int dt / (r cos t + b)^2 over the back half circle.

    The half-turn substitution t -> t + pi turns this into A[0,0](-r; b);
    the identity is cross-checked against the quadrature oracle in tests.
    """
    _check_a_domain(-r, params.b)
    return a00(-r, params.b)


def _i00(r: float, a: float, A: float) -> float:
    """I[0,0](r; a) from A = A[0,0](r; a); J[0,0](r) is _i00(-r, b, B[0,0](r))."""
    return 2.0 * r / (a * a) + (a - r * r / a) * A


def eval_I00_J00(r: float, params: SystemParams) -> Tuple[float, float]:
    """First-power seeds expressed through A[0,0] and B[0,0]."""
    return _i00(r, params.a, eval_A00(r, params)), _i00(-r, params.b, eval_B00(r, params))


# ---------------------------------------------------------------------------
# j = 0 ladders
# ---------------------------------------------------------------------------


def _series_j0(i: int, r: float, c: float, power: int) -> float:
    """Defining power series of A[i,0] (power=2) or I[i,0] (power=1).

    A[i,0](r) = c^-2 * sum_p (p+1) (-r/c)^p m(i+p); drop the (p+1) factor
    and one power of c for I.  Converges geometrically for |r| < |c|; used
    for |r| <= _SERIES_RADIUS*|c| where the closed ladder would divide by
    a high power of r.
    """
    q = -r / c
    acc = 0.0
    term = 1.0
    for p in range(0, 400):
        w = wallis_half(i + p)
        factor = (p + 1) if power == 2 else 1
        contrib = factor * term * w
        acc += contrib
        term *= q
        if p > 4 and abs(contrib) <= 1e-17 * abs(acc):
            break
    return acc / (c * c if power == 2 else c)


def _a_i0(i: int, r: float, a: float) -> float:
    """A[i,0](r; a) by series (small r) or the collapsed ladder."""
    if i == 0:
        return a00(r, a)
    if r == 0.0:
        return wallis_half(i) / (a * a)
    if abs(r) <= _SERIES_RADIUS * abs(a):
        return _series_j0(i, r, a, power=2)
    A = a00(r, a)
    acc = (-a) ** i * A + i * (-a) ** (i - 1) * _i00(r, a, A)
    for k in range(i - 1):  # k = 0 .. i-2
        acc += (k + 1) * (-a) ** k * wallis_half(i - k - 2) * r ** (i - k - 2)
    return acc / r**i


def _i_i0(i: int, r: float, a: float) -> float:
    """I[i,0](r; a) by series or the collapsed ladder."""
    if r == 0.0:
        return wallis_half(i) / a
    if abs(r) <= _SERIES_RADIUS * abs(a):
        return _series_j0(i, r, a, power=1)
    I = _i00(r, a, a00(r, a))
    if i == 0:
        return I
    acc = (-a) ** i * I
    for k in range(i):  # k = 0 .. i-1
        acc += (-a) ** (i - k - 1) * wallis_half(k) * r**k
    return acc / r**i


def eval_family(idx: FamilyIndex, r: float, params: SystemParams) -> float:
    """Evaluate any of A, B, I, J at arbitrary (i, j).

    Odd j annihilates all four families (odd integrand on a symmetric
    window).  Even j = 2l reduces binomially through sin^2 = 1 - cos^2 to
    a signed sum of j = 0 members, which the ladders evaluate.  B and J
    are A and I by the half-turn substitution t -> t + pi:
    B[i,0](r; b) = (-1)^i A[i,0](-r; b), and J from I the same way.
    """
    fam, i, j = idx.family, idx.i, idx.j
    if j % 2 == 1:
        return 0.0
    c, s = (params.a, 1) if fam in ("A", "I") else (params.b, -1)
    _check_a_domain(s * r, c)
    ladder = _a_i0 if fam in ("A", "B") else _i_i0
    l = j // 2
    acc = 0.0
    for k in range(l + 1):
        ii = i + 2 * k
        acc += (-1) ** k * math.comb(l, k) * (s**ii * ladder(ii, s * r, c))
    return acc


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
    """Direct quadrature of the defining integral (independent of ladders)."""
    power = 2 if idx.family in ("A", "B") else 1
    if idx.family in ("A", "I"):
        return quad_oracle(trig_rational(idx.i, idx.j, r, params.a, power), HALF_CIRCLE)
    return quad_oracle(trig_rational(idx.i, idx.j, r, params.b, power), BACK_HALF_CIRCLE)
