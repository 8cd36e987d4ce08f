"""Return-map integration of the perturbed piecewise system.

In polar coordinates the perturbed system becomes the scalar equation

    dr/dtheta = eps * (f c + g s) / (h + (eps/r)(g c - f s)),

with c = cos(theta), s = sin(theta), h = (r c + const)^2, and the (f, g,
const) triple switching between the two half-planes at cos(theta) = 0.
The right-hand side above is algebraically identical to the two-term form
eps*X + eps^2*Y used for averaging, but evaluates without the explicit
split.  Because the switching manifold is fixed in the independent
variable (theta = pi/2, 3pi/2), integrating leg by leg handles the
discontinuity exactly — no event detection is needed in polar form.

Every start radius meets the leg boundaries at the same theta, so
`return_map` integrates many rows at once, each carrying its own (radius,
eps, perturbation): a lockstep DOP853 engine steps each row under its own
step-size control, exactly as scipy's scalar DOP853 would step it alone,
and shares only the right-hand-side evaluations, which read each row's eps
and perturbation from one array of all the fields' tables, zero-padded to
the largest degree.  A row's result is bit for bit
independent of the batch it is in, so an experiment integrates the
displacement grids at all its eps and the fixed-point grid in one call.
Each step takes the cosines and sines of all its stage angles in one
call each and adds each stage's slope to all later stage sums in one
update (`_dop853`), in an order that keeps every bit of the row-by-row
sums.
Since a call costs about the same whatever its width, `find_fixed_points`
takes each fixed point, and its slope, from its bracket's interpolant
through eight interior Chebyshev points (`_interpolated_roots`).  Where
the averaged function predicts a fixed point, the experiment maps those
rows (`interpolation_rows`) in its one call beside the grids; the search
maps the rows of the other brackets in one call of its own.  The root of
each interpolant comes from the zero counting's bracketed root finder,
`zeros._newton_roots`, on the interpolant and its derivative, with no
further map call.  At the README example's displacement slopes, about
1e-7, refining against the map itself moves a point off the interpolant's
root by at most 3e-8, while the map's integration error alone puts its
fixed points up to 5e-6 from an independent reference: a further call
gains nothing.

The Poincare section is {y = 0, x > 0} (theta = 0).  A first-order
expansion of the return map gives P(r) - r = eps * f0(r) + O(eps^2), so
scaled displacements converge to the averaged function and fixed points
converge to its simple zeros — the correspondence the package verifies.

A Cartesian integration path with event location at the switching line
x = 0 cross-checks the polar pipeline; at eps = 0 it must conserve
x^2 + y^2 to integrator precision.  It keeps scipy's ``solve_ivp`` as an
independent integrator, imported on its first call: the lockstep engine
holds its DOP853 constants as literals equal to scipy's, so importing this
module loads no scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial import polynomial as npoly

from .averaging import PerturbationSpec
from .kernels import SystemParams
from .zeros import _newton_roots, _sign_flips

log = logging.getLogger("pwcycles")

_H_FLOOR = 1e-10  # squared-denominator guard
_INTEGRATOR_TOL = 1e-12
_SECTION_MARGIN_FACTOR = 1e-3
_ROOT_XTOL = 1e-11
_INTERP_NODES = 8  # interior Chebyshev points sampled in each fixed-point bracket
_INTERP_T = -np.cos(np.pi * np.arange(_INTERP_NODES + 2) / (_INTERP_NODES + 1))  # -1 to 1, increasing


class NearSingularityError(RuntimeError):
    """Denominator of the polar equation too close to zero."""


class EpsilonValidityError(ValueError):
    """dtheta/dt loses its sign somewhere on the sampled annulus."""


class BlowUpError(RuntimeError):
    """Trajectory left the period annulus mid-integration."""


class SlidingDetectedError(RuntimeError):
    """Transversality at the switching line failed (grazing contact)."""


# ---------------------------------------------------------------------------
# The polar right-hand side, with each row's eps and perturbation
# ---------------------------------------------------------------------------


def _triangle(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The indices (i, j) of the triangle i + j <= size - 1 of a table, per
    power j of y and then per power i of x, both from the highest: the
    order in which `_polyval2d` reads the coefficients."""
    i, j = zip(*((i, j) for j in range(size)[::-1] for i in range(size - j)[::-1]))
    return np.array(i), np.array(j)


def _polyval2d(c, x: np.ndarray, y: np.ndarray):
    """``numpy.polynomial.polynomial.polyval2d(x, y, table)`` in its order of
    operations — Horner in x for each power of y, then Horner in y — so the
    values are bit-equal, elementwise over arrays.  `c` lists the triangle
    i + j <= size - 1 of the table in the order of `_triangle`: the one
    coefficient of x for y^(size-1), then the two for y^(size-2), and so on."""
    v, k, width = None, 0, 1
    while k < len(c):
        col = c[k]
        for coeff in c[k + 1 : k + width]:
            col = coeff + col * x
        v = col if v is None else col + v * y
        k, width = k + width, width + 1
    return v


def _leg_terms(fields: Sequence["PolarField"], plus: bool) -> Callable:
    """The polar equation on one half-plane for rows that each carry their
    own field, all of the same `params`.

    The `f` and `g` tables of every field, zero-padded to the largest
    degree, form one array; the padding only ever adds exact zeros, so it
    changes no bit of a value.  Returns `at(rows)`: for a field index or an
    index array `rows` it gathers those fields' eps and the triangles of
    their tables and returns the function of arrays (cos theta, sin theta,
    r), which broadcast against `rows`, giving (h, eps * numerator,
    dtheta/dt).
    """
    const = fields[0].params.a if plus else fields[0].params.b
    tables = [(p.plus_f, p.plus_g) if plus else (p.minus_f, p.minus_g) for p in (fl.pert for fl in fields)]
    size = max(len(f) for f, _ in tables)
    coef = np.zeros((2, size, size, len(fields)))
    for k, (f, g) in enumerate(tables):
        coef[:, : len(f), : len(f), k] = f, g
    i, j = _triangle(size)
    coef = coef[:, i, j]
    eps = np.array([fl.epsilon for fl in fields], dtype=float)

    def at(rows):
        f_c, g_c = (list(c) for c in coef[:, :, rows])
        e = eps[rows]

        def terms(cos, sin, r):
            x, y = r * cos, r * sin
            h = (x + const) ** 2
            fv = _polyval2d(f_c, x, y)
            gv = _polyval2d(g_c, x, y)
            return h, e * (fv * cos + gv * sin), h + (e / r) * (gv * cos - fv * sin)

        return terms

    return at


def _leg_rhs(fields: Sequence["PolarField"], group: np.ndarray, plus: bool) -> Callable:
    """dr/dtheta on one half-plane for rows whose fields are `fields[group]`.

    `_dop853` calls the result once per step with the indices of its live
    rows, which gathers their coefficients once for all stages; the
    function it returns evaluates dr/dtheta on arrays (cos theta, sin
    theta, r), the engine taking the cosines and sines of a step's stage
    angles in one call each.
    """
    const = fields[0].params.a if plus else fields[0].params.b
    terms_at = _leg_terms(fields, plus)

    def at(live):
        terms = terms_at(group[live])

        def rhs(cos, sin, r):
            h, num, den = terms(cos, sin, r)
            # fmin skips NaN rows and an empty batch, so each row is judged alone
            h_min = np.fmin.reduce(h, axis=None, initial=np.inf)
            if h_min < _H_FLOOR:
                raise NearSingularityError(f"(r cos t + {const})^2 = {h_min:.2e} below guard")
            return num / den

        return rhs

    return at


@dataclass(frozen=True)
class PolarField:
    """The perturbed system in polar form, with a validity check at build.

    `r_range` is the radial window the field is intended for; at
    construction dtheta/dt is sampled on a grid over it and must keep one
    sign, since the polar reduction divides by it.
    """

    params: SystemParams
    pert: PerturbationSpec
    epsilon: float
    r_range: Tuple[float, float]

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        lo, hi = self.r_range
        if not (0 < lo < hi):
            raise ValueError("invalid r_range")
        if hi >= self.params.r0:
            raise ValueError(f"r_range must stay inside the annulus (r0 = {self.params.r0})")
        self._validate_theta_speed()

    def _theta_speed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dtheta/dt on 33 radii over `r_range` (rows) by 181 angles over one
        turn (columns), with the radii and the angles.  Each half-plane's
        terms are evaluated on its own angles only, cos theta >= 0 on the
        plus side, with the radii broadcast against them."""
        thetas = np.linspace(0.0, 2 * math.pi, 181)
        radii = np.linspace(self.r_range[0], self.r_range[1], 33)
        c, s = np.cos(thetas), np.sin(thetas)
        front = c >= 0
        speed = np.empty((radii.size, thetas.size))
        for plus, on in ((True, front), (False, ~front)):
            speed[:, on] = _leg_terms((self,), plus)(0)(c[on], s[on], radii[:, None])[2]
        return radii, thetas, speed

    def _validate_theta_speed(self) -> None:
        radii, thetas, speed = self._theta_speed()
        bad = ~(speed > 0)  # NaN included
        if bad.any():
            i, k = np.unravel_index(np.argmax(bad), bad.shape)
            raise EpsilonValidityError(
                f"dtheta/dt = {speed[i, k]:.3g} at (r={radii[i]:.3g}, theta={thetas[k]:.3g}); "
                "epsilon too large for this annulus"
            )


@dataclass(frozen=True)
class FixedPoint:
    location: float
    stability: str  # attracting | repelling | neutral
    displacement_slope: float


@dataclass(frozen=True)
class ReturnMapResult:
    samples: Tuple[Tuple[float, float], ...]  # (r_in, r_out)
    fixed_points: Tuple[FixedPoint, ...]


# ---------------------------------------------------------------------------
# Lockstep DOP853
# ---------------------------------------------------------------------------

# DOP853 (Hairer, Norsett and Wanner, Solving Ordinary Differential
# Equations I, II.5): the tableau, the step-size factors and the error
# exponent are literals equal to scipy's, bit for bit (a test compares them
# with scipy.integrate's DOP853), so that each radius takes scipy's steps.
# Each tableau row lists its nonzero (stage, weight) pairs; `_W` lays them
# out densely for the engine's running stage sums.
_STAGES = 12
_STEP_EXPONENT = 0.125  # 1 / (error estimator order 7 + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    (
        (0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
        (5, -0.015319437748624402), (6, 0.008273789163814023),
    ),
    (
        (0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
        (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996),
    ),
    (
        (0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
        (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
        (8, -0.020331201708508627),
    ),
    (
        (0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
        (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
        (8, 2.4936055526796523), (9, -3.0467644718982196),
    ),
    (
        (0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
        (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
        (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636),
    ),
)
_B = (
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
)
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0,
)
_E3 = (
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.02265179219836082),
)
_E5 = (
    (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
    (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
)


# The running stage-sum block: one row per sum a step forms, the
# arguments of stages 1 to 11 (A[1:]), then y_new (B) and the two error
# estimates (E5, E3); one column per stage.  The slope at the step's end
# point (t + h, y_new), the next step's first, has weight zero in every
# row and no column.
_W = np.array([[dict(pairs).get(j, 0.0) for j in range(_STAGES)] for pairs in (*_A[1:], _B, _E5, _E3)])
_W_COLUMNS = tuple(_W[s:, s, None].copy() for s in range(_STAGES))  # stage s adds to rows s and on
_C_STAGES = np.array(_C[1:])[:, None]


def _dop853(rhs_at, t0: float, t1: float, r_start: np.ndarray) -> Tuple[np.ndarray, int, int, int]:
    """Integrate dr/dtheta = rhs(cos theta, sin theta, r) from t0 to t1 for every start radius.

    `rhs_at(rows)` returns the right-hand side of the rows with those
    indices.  Each radius keeps its own angle, step size and accept/reject
    state and takes the steps of scipy's ``solve_ivp(method="DOP853")``
    with rtol = atol = 1e-12 on that radius alone: the same initial-step
    selection, error norm, step-size factors, minimum step and clipping at
    t1.  Only the right-hand side is evaluated for all unfinished radii
    together.  Returns the radii at t1, the number of right-hand-side
    evaluations summed over radii, the number of rejected steps and the
    number of lockstep steps.

    A step costs numpy calls more than arithmetic, so it makes few: the
    cosines and sines of its stage angles t + C[s] h in one call each (the
    last, C = 1, is also the step's end), and its sums in one running
    block `acc` with the rows of `_W`.  Once stage s has its slope k,
    ``acc[s:] += _W[s:, s, None] * k`` adds its term to every later sum.
    Each sum gets its terms in stage order, and a zero weight adds an exact
    zero to a finite sum, so every stage argument, y_new and both error
    sums equal those of summing each tableau row's nonzero weights alone,
    bit for bit.  No BLAS product, whose blocking depends on the number of
    radii, touches a radius's result, so it does not depend on the batch.
    """
    tol = _INTEGRATOR_TOL
    r = r_start.copy()
    theta = np.full_like(r, t0)
    rhs = rhs_at(np.arange(r.size))
    f = rhs(np.cos(theta), np.sin(theta), r)
    span = t1 - t0
    # scipy.integrate._ivp.common.select_initial_step, radius by radius
    scale = tol + np.abs(r) * tol
    d0, d1 = np.abs(r / scale), np.abs(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
        t_h0 = theta + h0
        d2 = np.abs((rhs(np.cos(t_h0), np.sin(t_h0), r + h0 * f) - f) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** _STEP_EXPONENT,
        )
    step = np.minimum(np.minimum(100 * h0, h1), span)
    nfev, rejected, steps = 2 * r.size, 0, 0
    retry = np.zeros(r.shape, dtype=bool)
    live = np.arange(r.size)
    while live.size:
        rhs = rhs_at(live)
        t, y = theta[live], r[live]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~retry[live] & (step[live] < min_step), min_step, step[live])
        # a NaN step is neither accepted nor rejected: refuse it here
        stuck = ~(h_abs >= min_step)
        if stuck.any():
            i = np.argmax(stuck)
            raise BlowUpError(
                f"integration failed on leg ({t0:.3g},{t1:.3g}) at theta = {t[i]:.6g}, "
                f"r = {float(y[i])!r}: required step size is less than spacing between numbers"
            )
        t_new = np.minimum(t + h_abs, t1)
        h = t_new - t
        angle = t + _C_STAGES * h
        cos, sin = np.cos(angle), np.sin(angle)
        acc = _W_COLUMNS[0] * f[live]
        for s in range(1, _STAGES):
            k = rhs(cos[s - 1], sin[s - 1], y + acc[s - 1] * h)
            acc[s:] += _W_COLUMNS[s] * k
        b, e5, e3 = acc[_STAGES - 1 :]
        y_new = y + h * b
        f_new = rhs(cos[-1], sin[-1], y_new)
        nfev += _STAGES * live.size
        steps += 1
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        e5 = (e5 / scale) ** 2
        e3 = (e3 / scale) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0, np.abs(h) * e5 / np.sqrt(e5 + 0.01 * e3))
            factor = SAFETY * err**-_STEP_EXPONENT
        accept = err < 1
        factor = np.where(
            accept,
            np.where(err == 0, MAX_FACTOR, np.minimum(MAX_FACTOR, factor)),
            np.fmax(MIN_FACTOR, factor),
        )
        factor = np.where(accept & retry[live], np.minimum(1.0, factor), factor)
        step[live] = np.abs(h) * factor
        retry[live] = ~accept
        rejected += live.size - int(np.count_nonzero(accept))
        moved = live[accept]
        theta[moved], r[moved], f[moved] = t_new[accept], y_new[accept], f_new[accept]
        live = live[~accept | (t_new < t1)]
    return r, nfev, rejected, steps


_LEGS = ((0.0, math.pi / 2, True), (math.pi / 2, 3 * math.pi / 2, False), (3 * math.pi / 2, 2 * math.pi, True))


def return_map(field, r_start=None):
    """One full turn of the section map starting at theta = 0.

    `return_map(field, r_start)` maps one radius (the result is a float)
    or a 1-D array of radii (the result is an array).  `return_map(groups)`
    maps a sequence of (field, radii) groups whose fields share `params`
    and returns one array per group.  Every row carries its own radius, eps
    and perturbation, and all rows go through the three legs (plus, minus,
    plus) together in the lockstep DOP853 engine at tolerance 1e-12;
    switching happens exactly at the leg boundaries.  Each row gets the
    value it gets on its own, bit for bit.
    """
    one = isinstance(field, PolarField)
    fields, radii = zip(*([(field, r_start)] if one else field))
    radii = [np.atleast_1d(np.asarray(rr, dtype=float)) for rr in radii]
    params = fields[0].params
    for fl, rr in zip(fields, radii):
        if rr.ndim != 1:
            raise ValueError("r_start must be a number or a 1-D array of radii")
        if fl.params != params:
            raise ValueError(f"batched fields must share params: {fl.params} differs from {params}")
        lo, hi = fl.r_range
        margin = _SECTION_MARGIN_FACTOR * hi
        outside = ~((lo - margin <= rr) & (rr <= hi + margin))
        if outside.any():
            raise ValueError(
                f"r_start {float(rr[np.argmax(outside)])} outside the validated range {fl.r_range} "
                f"of the field at epsilon {fl.epsilon}"
            )
    group = np.repeat(np.arange(len(fields)), [rr.size for rr in radii])
    r = np.concatenate(radii)
    nfev = rejected = 0
    steps = []
    for t0, t1, plus in _LEGS:
        r, leg_nfev, leg_rejected, leg_steps = _dop853(_leg_rhs(fields, group, plus), t0, t1, r)
        nfev, rejected = nfev + leg_nfev, rejected + leg_rejected
        steps.append(str(leg_steps))
        left = ~((0 < r) & (r < params.r0))
        if left.any():
            raise BlowUpError(f"trajectory left the annulus: r = {float(r[np.argmax(left)])}")
    log.debug(
        "return_map: %d radii in %d fields, %d RHS evaluations, %d rejected steps, %s lockstep steps per leg",
        r.size, len(fields), nfev, rejected, "/".join(steps),
    )
    if not one:
        return np.split(r, np.cumsum([rr.size for rr in radii])[:-1])
    return float(r[0]) if np.ndim(r_start) == 0 else r


def _interpolation_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The `_INTERP_NODES` interior Chebyshev points of each bracket [lo[k], hi[k]], one row per
    bracket, increasing.  Each point is computed from its own bracket alone, so a caller that maps
    the rows of some brackets gets the very radii `find_fixed_points` looks up."""
    return lo[:, None] + np.outer(hi - lo, 0.5 * (1 + _INTERP_T[1:-1]))


def interpolation_rows(rr: np.ndarray, predicted: Sequence[float]) -> np.ndarray:
    """The interior interpolation rows of the intervals [rr[k - 1], rr[k]] of the increasing grid
    `rr` that hold a `predicted` zero, interval by interval: the rows `find_fixed_points` reads for
    a fixed point there, which a caller maps beside the grid and passes back as `mapped`."""
    k = np.array(sorted({int(m) for m in np.searchsorted(rr, predicted) if 0 < m < rr.size}), dtype=int)
    return _interpolation_rows(rr[k - 1], rr[k]).ravel()


def _interpolated_roots(xs: np.ndarray, ds: np.ndarray) -> Tuple[np.ndarray, ...]:
    """A root of each bracket's Chebyshev interpolant, its slope there and the slope's error bound.

    Row k of `xs` holds the ends of bracket k with its `_INTERP_NODES`
    interior Chebyshev points between them, in increasing order, and the
    rows are disjoint and increasing; `ds` holds the displacement there.
    The interpolant p of degree N = `_INTERP_NODES` + 1 through a row
    (Trefethen, Approximation Theory and Approximation Practice, 2013)
    changes sign where the samples do, so the first sampled sign change
    [a, b] holds a root z of it.  `zeros._newton_roots` finds z on the jet
    (p, p', 0) from the regula falsi point of [a, b], finding each point's
    bracket by `np.searchsorted`.  The slope is p'(z); its error bound is
    Markov's inequality on p's two highest Chebyshev coefficients,
    N^2 (|c_N| + |c_(N-1)|) over the bracket's half-width.  Returns z, the
    slopes, the bounds and `_newton_roots`' step counts.
    """
    lo, hi = xs[:, 0], xs[:, -1]
    k = np.arange(lo.size)
    sgn = np.sign(ds)
    m = np.argmax(sgn[:, 1:] != sgn[:, :1], axis=1)
    a, b, fa, fb = xs[k, m], xs[k, m + 1], ds[k, m], ds[k, m + 1]
    c = chebyshev.chebfit(_INTERP_T, ds.T, _INTERP_NODES + 1)
    dc = chebyshev.chebder(c)
    half = 0.5 * (hi - lo)

    def p(at, r):
        t = (r - lo[at]) / half[at] - 1
        return chebyshev.chebval(t, c[:, at], tensor=False), chebyshev.chebval(t, dc[:, at], tensor=False) / half[at]

    falsi = a + (b - a) * (fa / (fa - fb))
    z, _, _, work = _newton_roots(lambda r: (*p(np.searchsorted(hi, r), r), 0), falsi, a, b, fa, fb, _ROOT_XTOL)
    bound = (_INTERP_NODES + 1) ** 2 * (np.abs(c[-1]) + np.abs(c[-2])) / half
    return z, p(k, z)[1], bound, work


def find_fixed_points(field: PolarField, radii: np.ndarray, images: np.ndarray, mapped=((), ())) -> ReturnMapResult:
    """Locate fixed points of the return map from its images on a grid.

    `images` = `return_map(field, radii)` on increasing `radii`; the caller
    evaluates them, typically in one call with other rows.  The sign
    changes of the displacement (`zeros._sign_flips`) bracket the fixed
    points, one per bracket.  Each bracket's fixed point and its slope come
    from the interpolant through the bracket's ends and its
    `_INTERP_NODES` interior Chebyshev points (`_interpolated_roots`).
    `mapped` = (radii, images) are rows the caller has already mapped,
    looked up by exact radius (`interpolation_rows` gives those of the
    intervals that hold predicted fixed points): a bracket whose rows are
    all among them costs no call, and the others are mapped here in one
    call.  With every bracket's rows given, or no sign change, no call is
    made.  A row's image does not depend on the call it is mapped in, so
    the result is the same bit for bit with or without `mapped`.
    Stability follows the sign of the slope p'(z): negative means the
    forward (theta-increasing) flow contracts onto the cycle.  A slope
    within the interpolant's own derivative error bound is "neutral".
    """
    rr, images = np.asarray(radii, dtype=float), np.asarray(images, dtype=float)
    disp = images - rr
    samples = tuple((float(r), float(p)) for r, p in zip(rr, images))

    keep, flips = _sign_flips(disp, 0.0)
    i, j = keep[flips], keep[flips + 1]
    lo, hi = rr[i], rr[j]
    known = dict(zip(*(np.asarray(v, dtype=float).tolist() for v in mapped)))
    inner = _interpolation_rows(lo, hi)
    p_inner = np.array([[known.get(r, np.nan) for r in row] for row in inner.tolist()]).reshape(inner.shape)
    here = np.isnan(p_inner).any(axis=1)  # return_map never gives NaN
    if here.any():
        p_inner[here] = return_map(field, inner[here].ravel()).reshape(-1, _INTERP_NODES)
    xs, ds = np.column_stack([lo, inner, hi]), np.column_stack([disp[i], p_inner - inner, disp[j]])
    z, slopes, bound, work = _interpolated_roots(xs, ds)
    log.debug(
        "find_fixed_points: %d brackets (%d with interpolation rows from the caller's call, %d mapped here), "
        "%d interpolation rows, %d Newton, %d regula falsi and %d bisection steps on the interpolants, "
        "smallest |slope| over its error bound %.3g",
        lo.size, lo.size - here.sum(), here.sum(), lo.size * _INTERP_NODES, *work[:3],
        np.min(np.abs(slopes) / bound, initial=np.inf),
    )
    kinds = np.where(np.abs(slopes) <= bound, "neutral", np.where(slopes < 0, "attracting", "repelling"))
    fixed = (FixedPoint(float(loc), str(kind), float(slope)) for loc, kind, slope in zip(z, kinds, slopes))
    return ReturnMapResult(samples, tuple(fixed))


# ---------------------------------------------------------------------------
# Cartesian cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartesianSummary:
    section_radii: Tuple[float, ...]
    max_invariant_drift: float


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first use."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _cartesian_rhs(field: PolarField, plus: bool):
    const = field.params.a if plus else field.params.b
    f_t = field.pert.plus_f if plus else field.pert.minus_f
    g_t = field.pert.plus_g if plus else field.pert.minus_g
    eps = field.epsilon

    def rhs(t, xy):
        x, y = xy
        w = (x + const) ** 2
        return [
            -y * w + eps * float(npoly.polyval2d(x, y, f_t)),
            x * w + eps * float(npoly.polyval2d(x, y, g_t)),
        ]

    return rhs


def _leg_time_bound(field: PolarField, r: float) -> float:
    thetas = np.linspace(0, 2 * math.pi, 128)
    consts = np.where(np.cos(thetas) >= 0, field.params.a, field.params.b)
    h = (r * np.cos(thetas) + consts) ** 2
    return 40.0 * math.pi / float(np.min(h))


def cartesian_crosscheck(
    field: PolarField, start: Tuple[float, float], n_crossings: int = 1
) -> CartesianSummary:
    """Integrate the Cartesian piecewise field through section crossings.

    Events locate the switching line x = 0 (crossing transversality is
    checked; grazing raises SlidingDetectedError) and the Poincare
    section {y = 0, x > 0}.  The resulting section radii must agree with
    the polar return map at matched starts.
    """
    x0, y0 = float(start[0]), float(start[1])
    if x0 == 0.0:
        raise ValueError("start must be off the switching line x = 0")
    if x0 < 0:
        raise ValueError("cross-check starts in the plus half-plane (x > 0)")
    r_start = math.hypot(x0, y0)
    lo, hi = field.r_range
    if not (lo * 0.5 <= r_start <= hi):
        raise ValueError(f"start radius {r_start:.3g} outside the validated range")

    state = np.array([x0, y0])
    t_now = 0.0
    radii: List[float] = []
    drift = 0.0
    r2_ref = x0 * x0 + y0 * y0
    t_bound = _leg_time_bound(field, r_start)

    def switching(t, xy):
        return xy[0]

    def section(t, xy):
        return xy[1]

    section.direction = 1.0

    for _ in range(n_crossings):
        # leg 1: plus half-plane until x = 0 falling
        for plus, event, direction in ((True, switching, -1.0), (False, switching, 1.0), (True, section, 1.0)):
            event.direction = direction
            event.terminal = True
            rhs = _cartesian_rhs(field, plus)
            sol = solve_ivp(
                rhs,
                (t_now, t_now + t_bound),
                state,
                method="DOP853",
                rtol=_INTEGRATOR_TOL,
                atol=_INTEGRATOR_TOL,
                events=event,
                dense_output=False,
            )
            if not sol.success or sol.status != 1:
                raise BlowUpError(
                    f"no {'section' if event is section else 'switching'} event within "
                    f"time bound {t_bound:.3g}: {sol.message}"
                )
            t_now = float(sol.t_events[0][0])
            state = sol.y_events[0][0].copy()
            if field.epsilon == 0.0:
                r2 = state[0] ** 2 + state[1] ** 2
                drift = max(drift, abs(r2 - r2_ref) / r2_ref)
            if event is switching:
                xdot = rhs(t_now, state)[0]
                if abs(xdot) < 1e-9 * max(1.0, abs(state[1])):
                    raise SlidingDetectedError(
                        f"grazing contact at switching line: x' = {xdot:.2e} at y = {state[1]:.3g}"
                    )
        radii.append(float(math.hypot(state[0], state[1])))
    return CartesianSummary(tuple(radii), float(drift))
