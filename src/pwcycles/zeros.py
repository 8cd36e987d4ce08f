"""Simple zeros of the averaged function: counting, placement, diagnostics.

Each simple zero of the averaged function on the period annulus spawns one
limit cycle of the perturbed system at small eps, so the package's central
questions — how many cycles, and where — reduce to zero analysis of a
finite-dimensional function space.

The space reachable by degree-n perturbations is spanned by

    odd n:   {r^k}_{k=1..2h-1},  A-shift, {r^(2i) A}_{i=1..h},
             B-shift, {r^(2i) B}_{i=1..h}                  (4h+1 functions)
    even n:  the same plus one *combined* generator per half,
             r^(2h+2) A - (2/a) r^(2h+1)  and
             r^(2h+2) B + (2/b) r^(2h+1)                   (4h+3 functions)

with h = floor((n+1)/2), A-shift = A[0,0] - pi/a^2 (the constant tie that
makes F(0) = 0), and the B block dropped when b = -a (then B = A
identically).  The even-degree combined generators encode an exact
rational tie between the top kernel coefficient and the top monomial
coefficient: the two are never independently reachable.  The tie is
proved exactly by the symbolic reduction and confirmed by quadrature-only
rank measurements; it lowers the reachable dimension for even n by one
relative to treating the top monomial as free.  The list's length is the
reachable dimension; a test checks it against the exact rank over Q of
the assembly's unit columns.  High-precision collocation surveys show the
span behaves as a Chebyshev system, so `reachable_zero_capacity`, the
most simple zeros, is that length minus one.

Placement follows the classical device: fix p targets, p <= dim - 1,
evaluate the generators there, and pick a null vector of the resulting
underdetermined system; the combination vanishes at every target.  A
request for p >= dim targets is refused before any sampling: the span
places at most dim - 1 simple zeros.  The candidates are fixed Gaussian
draws with their component in the row space of the equilibrated
collocation matrix removed, all in long double: the row space's
orthonormal basis comes from classical Gram–Schmidt and every projection
is applied twice.  At capacity (p = dim - 1) the null space is a line
and draw 0 alone is taken, unscored; otherwise 5(dim - p) draws are
scored by their extra sign changes on the scan window and then by the
smallest |F'| at the targets, read from the analytic derivative rows.
No basis of the null space is formed and no seed is read, so a placement
depends on its parameters, generators and targets alone.  All zero
*verification* evaluates in long double with a running roundoff
envelope, because high-degree placements are legitimately
ill-conditioned in the raw generator basis.  Each placement logs its
condition number and how close its values at the targets come to their
roundoff envelope at DEBUG, and a WARNING when its scan window resolves
fewer sign changes than there are targets.

Counting refines all sign-change brackets of a grid together by
safeguarded Newton (`_newton_roots`, with Illinois regula falsi and
bisection as the safeguards) on F and its analytic derivative:
`basis_values` gives the derivative rows from the same kept rows, with
A[0,0]' from `kernels.a00_prime`.  The scan and every Newton evaluation
take F and its envelope from one product of [c; |c|] with the basis,
which is nonnegative on (0, r0), so |c| times it is `_envelope`'s sum.
A bracket closes at a step of 5e-13 or of its roundoff envelope over
|F'|, whichever is larger, since no location is known more closely than
that.  The flag of a non-simple
zero (near-vanishing derivative), which leaves it out of `simple_count`,
reads the same analytic F'.  `_newton_roots` is the package's one
bracketed root finder: `poincare.find_fixed_points` takes its fixed
points with it too, on the Chebyshev interpolant of the displacement.
The placement scan, the count grid and the survey grid of a ceiling run
are the same few grids for every degree and system, so `basis_values`
samples their powers and kernel rows once.

The surjectivity rank and the random ceiling survey never re-run the
reduction: the rank is `exact.rank` of the unit columns of `_unit_parts`,
and the survey reads them in double from `assembly_matrix`.  The survey
decides each sample's sign in double, in blocks of draws, where the
dot-product roundoff bound certifies that `_sign_flips` would keep it
with that sign (`_block_signs`); a draw with a sample left undecided is
evaluated in long double over its whole row and counted by `_sign_flips`.
So counting, placement, the survey and the fixed-point search share one
counting rule, and the survey's histograms are those of the long-double
evaluation.

Long-double products use `np.dot`: numpy has no BLAS for long double, and
its dot loop sums each entry in index order, as `@`'s does, in about half
the time, so a product, or one over a column subset, equals `@`'s entries.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .averaging import (
    LONG,
    AveragedFunction,
    BasisExpansion,
    _random_rows,
    _unit_parts,
    assembly_matrix,
    basis_values,
)
from . import exact
from .kernels import SystemParams

log = logging.getLogger("pwcycles")

_EPS = float(np.finfo(LONG).eps)

# Multiple of the roundoff envelope below which a value is treated as
# numerically indistinguishable from zero.
_NOISE_FACTOR = 64.0

# Double-precision constants of the survey's sign decisions (see `_block_signs`)
# and of the Newton refinement's width test.
_EPS64 = float(np.finfo(float).eps)
_U64 = _EPS64 / 2
_TINY64 = float(np.finfo(float).tiny)
_FLOOR = 2 * _TINY64 / _U64

# Samples per block of the survey's double-precision products.
_BLOCK_SAMPLES = 1 << 15

# Normalized singular value above which `sample_rank` counts a direction.
RANK_THRESHOLD = 1e-10

# Derivative threshold separating simple zeros from tangencies, relative to
# max|F| / r_max on the scan grid: a flag that does not depend on F's scale.
SIMPLE_ZERO_RTOL = 1e-8


class PlacementError(RuntimeError):
    """Requested zero configuration is not achievable."""


class RankDeficiencyError(PlacementError):
    """Interpolation matrix numerically singular (cond > 1e12 or not finite)."""


class UnresolvedClusterError(RuntimeError):
    """Grid doubling failed to separate adjacent sign changes."""


def hn_formula(n: int, resonant: bool) -> int:
    """The claimed maximum cycle count for degree n >= 1.

    4*floor((n+1)/2) + (3/2)(1+(-1)^n) in general; 3*floor((n+1)/2) +
    (-1)^n when b = -a (the A and B families coincide and the count
    drops).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    h = (n + 1) // 2
    if resonant:
        return 3 * h + (1 if n % 2 == 0 else -1)
    return 4 * h + (3 if n % 2 == 0 else 0)


# ---------------------------------------------------------------------------
# Generator sets
# ---------------------------------------------------------------------------


def _basis_element(degree: int, coeff_A=None, coeff_B=None, coeff_poly=None) -> BasisExpansion:
    e = BasisExpansion.zeros(degree)
    for arr, updates in ((e.coeff_A, coeff_A), (e.coeff_B, coeff_B), (e.coeff_poly, coeff_poly)):
        for idx, v in (updates or {}).items():
            arr[idx] = v
    return e


def _kernel_halves(params: SystemParams) -> List[Tuple[str, float, float]]:
    """(coefficient name, constant, top tie) of each kernel half K: A with
    -2/a, and B with +2/b unless b = -a (then B = A identically).  Each
    half starts with the shifted kernel K[0,0] - pi/c^2, the constant tie
    that makes F(0) = 0; for even n its r^(2h+1) coefficient is the top
    tie times that of r^(2h+2) K[0,0]."""
    halves = [("coeff_A", params.a, -2.0 / params.a)]
    return halves if params.resonant else halves + [("coeff_B", params.b, 2.0 / params.b)]


def reachable_generators(params: SystemParams, n: int) -> List[BasisExpansion]:
    """Basis of the span of assembled expansions for degree n."""
    h = (n + 1) // 2
    gens: List[BasisExpansion] = []
    for side, c, tie in _kernel_halves(params):
        gens.append(_basis_element(n, coeff_poly={0: -math.pi / c**2}, **{side: {0: 1.0}}))
        gens += [_basis_element(n, **{side: {i: 1.0}}) for i in range(1, h + 1)]
        if n % 2 == 0:
            gens.append(_basis_element(n, coeff_poly={2 * h + 1: tie}, **{side: {h + 1: 1.0}}))
    return gens + [_basis_element(n, coeff_poly={k: 1.0}) for k in range(1, 2 * h)]


def reachable_zero_capacity(params: SystemParams, n: int) -> int:
    """Ceiling on simple zeros: the length of `reachable_generators`, the
    reachable dimension, minus one.  Equals hn_formula for odd n and
    hn_formula - 1 for even n, where the exact reduction ties the top
    monomial coefficient to the top kernel one (see module docstring)."""
    return len(reachable_generators(params, n)) - 1


def independence_generators(params: SystemParams, n: int) -> List[BasisExpansion]:
    """The candidate generating functions, every coefficient treated free.

    Monomials r^1..r^(2h+1), the shifted kernels, and r^(2i) A (resp. B)
    up to i = h+1.  These are linearly independent as functions even
    though for even n the top pair is not jointly reachable; resonance
    (b = -a) drops the B block since B = A identically.
    """
    h = (n + 1) // 2
    gens = [_basis_element(n, coeff_poly={k: 1.0}) for k in range(1, 2 * h + 2)]
    for side, c, _ in _kernel_halves(params):
        gens.append(_basis_element(n, coeff_poly={0: -math.pi / c**2}, **{side: {0: 1.0}}))
        gens += [_basis_element(n, **{side: {i: 1.0}}) for i in range(1, h + 2)]
    return gens


def _generator_matrix(gens: Sequence[BasisExpansion]) -> np.ndarray:
    """Generator coefficient vectors as rows; times `basis_values` it gives
    the generator values, shape (len(gens), len(r))."""
    return np.array([g.vector(LONG) for g in gens])


def _generator_rows(G: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`np.dot(G, rows)` for a generator matrix G, from the kept rows alone.

    Each generator has one to three nonzero coefficients; their products
    with the selected rows are added to a zero start in index order, as
    np.dot adds every term, and a product with 1 is the row itself.  The
    terms skipped are exact zeros on finite rows, and adding a zero
    changes no sum, so the two agree bit for bit.
    """
    out = np.zeros((len(G), rows.shape[1]), dtype=LONG)
    for i, k in zip(*np.nonzero(G)):  # row-major: each generator's terms in index order
        out[i] += rows[k] if G[i, k] == 1 else G[i, k] * rows[k]
    return out


def _envelope(coeffs: np.ndarray, abs_values: np.ndarray) -> np.ndarray:
    """Roundoff envelope of the product of coeffs with values, given |values|.

    Sums the absolute contribution of every term scaled by long-double
    epsilon; values inside a small multiple of it are numerically zero.
    """
    return np.dot(np.abs(coeffs), abs_values) * _EPS


def _sign_flips(vals: np.ndarray, env: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the noise-significant samples (|value| above
    `_NOISE_FACTOR` times the envelope), and the positions among them
    after which the sign flips."""
    keep = np.flatnonzero(np.abs(vals) > _NOISE_FACTOR * env)
    sgn = np.sign(vals[keep])
    return keep, np.flatnonzero(sgn[:-1] * sgn[1:] < 0)


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroReport:
    zeros: Tuple[Tuple[float, float], ...]  # (location, derivative)
    grid_resolution: int
    degenerate: bool = False
    non_simple: Tuple[float, ...] = ()

    @property
    def locations(self) -> Tuple[float, ...]:
        return tuple(z for z, _ in self.zeros)

    @property
    def count(self) -> int:
        return len(self.zeros)

    @property
    def simple_count(self) -> int:  # the zeros not flagged in `non_simple`
        return len(self.zeros) - len(self.non_simple)


def _newton_roots(jet, x, lo, hi, f_lo, f_hi, xtol: float):
    """A zero of F in each sign-change bracket [lo[k], hi[k]], all refined together.

    `jet(x)` gives F, F' and F's roundoff envelope at the points x, in one
    evaluation.  Safeguarded Newton from the first points `x` (one not
    strictly inside its bracket is replaced by the midpoint): every
    evaluation narrows its bracket to the side where F changes sign, and
    the next point is the Newton step when that stays inside the open
    bracket.  When it leaves the bracket (F' = 0 among the causes), the
    next point is the bracket's Illinois regula falsi point, on ends whose
    value is halved each time a step keeps them twice in a row: a zero
    within Newton's overshoot of a bracket end would otherwise take a
    bisection per halving of that overshoot.  The midpoint is taken when
    the regula falsi point is not strictly inside, or when the bracket has
    not halved over its last three steps.  A jet whose F' is NaN has no
    Newton step inside any bracket, so every step is then regula falsi or
    bisection.  A bracket closes when F vanishes at the point, when the
    Newton step is at most max(xtol, envelope/|F'|), the noise over the
    slope (its zero is then the Newton point, kept in the bracket), or when
    it is at most 2*xtol + 4*eps*(|lo| + |hi|) wide (its zero is the
    midpoint, within xtol and a few ulps of a sign change); a bracket that
    narrow from the start is not evaluated.  Returns the zeros, F' and
    noise/|F'| at the last point of each bracket, and the counts of
    Newton, regula falsi and bisection steps and of calls of `jet`.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = np.array(f_lo), np.array(f_hi)
    roots, slopes, noise = 0.5 * (lo + hi), np.zeros_like(lo), np.zeros_like(lo)
    x = np.where((lo < x) & (x < hi), x, roots)
    history = np.full((3, lo.size), np.inf)  # bracket widths one, two and three steps back
    history[0] = hi - lo
    kept = np.zeros(lo.size, dtype=int)  # end kept by the last step: -1 lo, +1 hi
    work = np.zeros(4, dtype=int)  # Newton, regula falsi and bisection steps; calls

    def wide(a, b):
        return b - a > 2 * xtol + 4 * _EPS64 * (np.abs(a) + np.abs(b))

    open_ = np.flatnonzero(wide(lo, hi))
    with np.errstate(divide="ignore", invalid="ignore"):  # F' = 0 gives a step that is not finite
        while open_.size:
            work[3] += 1
            xo = x[open_]
            f, d, env = jet(xo)
            moves_lo = np.sign(f) == np.sign(f_lo[open_])
            side = np.where(moves_lo, 1, -1)
            scale = np.where(kept[open_] == side, 0.5, 1.0)
            kept[open_] = side
            a = lo[open_] = np.where(moves_lo, xo, lo[open_])
            b = hi[open_] = np.where(moves_lo, hi[open_], xo)
            fa = f_lo[open_] = np.where(moves_lo, f, scale * f_lo[open_])
            fb = f_hi[open_] = np.where(moves_lo, scale * f_hi[open_], f)
            step = (-f / d).astype(float)
            slopes[open_], noise[open_] = d, env / np.abs(d)
            nxt, mid, width = xo + step, 0.5 * (a + b), b - a
            small = (d != 0) & (np.abs(step) <= np.maximum(xtol, noise[open_]))
            roots[open_] = np.where(f == 0, xo, np.where(small, np.clip(nxt, a, b), mid))
            falsi = a + width * (fa / (fa - fb)).astype(float)
            kind = np.where(  # 0 Newton, 1 regula falsi, 2 bisection
                width > 0.5 * history[2, open_], 2,
                np.where((a < nxt) & (nxt < b), 0, np.where((a < falsi) & (falsi < b), 1, 2)),
            )
            history[1:, open_] = history[:-1, open_]
            history[0, open_] = width
            x[open_] = np.choose(kind, [nxt, falsi, mid])
            go = (f != 0) & ~small & wide(a, b)
            work[:3] += np.bincount(kind[go], minlength=3)
            open_ = open_[go]
    return roots, slopes, noise, work


def count_simple_zeros(fn: AveragedFunction, r_max: float, grid: int = 400) -> ZeroReport:
    """Locate the simple zeros of F on (0, r_max) by sign scan + safeguarded Newton.

    `_newton_roots` refines the grid's brackets together, on F and its
    analytic derivative from `basis_values`, to 5e-13 or the noise over
    |F'|, whichever is larger.  The scan and each Newton evaluation take F
    and its roundoff envelope from one product of [c; |c|] with the basis
    rows.  The scan doubles the grid (up to four times) whenever two
    detected zeros sit closer than twice the grid spacing; zeros whose analytic derivative falls below SIMPLE_ZERO_RTOL *
    max|F| / r_max are flagged and logged as a warning on the `pwcycles`
    logger.  One DEBUG line per count gives the brackets, the Newton,
    regula falsi and bisection steps, the evaluations, the doublings and
    the largest noise/|F'| at the zeros.
    """
    params = fn.params
    if not (0 < r_max < params.r0):
        raise ValueError(f"need 0 < r_max < r0 = {params.r0}")
    if grid < 8:
        raise ValueError("grid too coarse")

    # Long double because the raw basis is badly scaled at high degree and
    # cancellation in double precision can bury genuine zeros in noise.
    c = fn.expansion.vector(LONG)
    c_and_abs = np.stack([c, np.abs(c)])
    n = fn.expansion.degree

    def jet(r):
        values, slopes = basis_values(params, n, r, derivative=True)
        f, env = np.dot(c_and_abs, values)
        return f, np.dot(c, slopes), env * _EPS

    doublings, work = 0, np.zeros(4, dtype=int)
    while True:
        rr = np.linspace(r_max / grid, r_max, grid)
        vals, env = np.dot(c_and_abs, basis_values(params, n, rr))
        keep, flips = _sign_flips(vals, env * _EPS)
        if keep.size == 0:
            return ZeroReport((), grid, degenerate=True)
        i, j = keep[flips], keep[flips + 1]
        zeros, derivs, noise, steps = _newton_roots(jet, 0.5 * (rr[i] + rr[j]), rr[i], rr[j], vals[i], vals[j], 5e-13)
        work += steps
        if not np.any(np.diff(zeros) < 2 * r_max / grid):
            break
        if doublings >= 4:
            raise UnresolvedClusterError(
                f"zeros closer than twice the grid spacing after {doublings} doublings"
            )
        grid *= 2
        doublings += 1

    log.debug(
        "count: %d brackets, %d Newton, %d regula falsi and %d bisection steps in %d evaluations, %d doublings, "
        "largest noise/|F'| at the zeros %.3g",
        zeros.size, *work, doublings, noise.max(initial=0.0),
    )
    pairs = tuple(zip(zeros.tolist(), derivs.tolist()))
    threshold = SIMPLE_ZERO_RTOL * float(np.max(np.abs(vals))) / r_max
    flagged = []
    for z, d in pairs:
        if abs(d) < threshold:
            flagged.append(z)
            log.warning("zero at r=%.6g has near-vanishing derivative %.3g", z, d)
    return ZeroReport(pairs, grid, non_simple=tuple(flagged))


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def _orthonormal_transform(stack_window: np.ndarray) -> np.ndarray:
    """Column transform turning the raw generators into an orthonormal set.

    The SVD of the window-sampled generator matrix W gives combinations
    that are orthonormal in the discrete window measure; interpolating in
    that basis makes the collocation condition number reflect the target
    geometry instead of the (badly scaled) raw basis.  It is taken as the
    SVD of the m x m R factor of W = QR, so the samples x m U factor is
    never formed; the singular values and right vectors agree with W's to
    roundoff, which moves only the condition number's last digits.  It is
    NaN for samples that overflow double, infinite for ones singular there.
    """
    R = np.linalg.qr(stack_window.T.astype(float), mode="r")  # W: samples x generators
    if not np.isfinite(R).all():
        return np.full(R.shape, np.nan)
    _, S, Vt = np.linalg.svd(R)
    return Vt.T / S  # generators x orthonormal directions


def _null_draws(M: np.ndarray, count: int) -> np.ndarray:
    """The first `count` of fixed Gaussian draws of length m, rows of
    `np.random.default_rng(0).standard_normal`, in long double, with their
    component in the row space of M (p x m) removed; row k does not depend
    on `count`.

    The row space's orthonormal basis comes from classical Gram–Schmidt in
    long double, and every projection, the draws' too, is applied twice,
    which keeps the basis orthogonal to working precision (Giraud, Langou
    and Rozložník, Comput. Math. Appl. 50, 2005).  LAPACK has no
    extended-precision path, and double-precision null vectors of the
    badly conditioned collocation matrices stall far above the long-double
    floor.
    """
    Q = np.empty((M.shape[1], len(M)), dtype=LONG)  # column i: row i of M, orthonormalized
    for i, row in enumerate(M):
        for _ in range(2):
            row = row - np.dot(Q[:, :i], np.dot(Q[:, :i].T, row))
        Q[:, i] = row / np.sqrt(np.sum(row * row))
    draws = np.random.default_rng(0).standard_normal((count, M.shape[1])).astype(LONG)
    for _ in range(2):
        draws -= np.dot(np.dot(draws, Q), Q.T)
    return draws


def place_zeros(params: SystemParams, n: int, targets: Sequence[float]) -> BasisExpansion:
    """Construct an expansion whose zero set includes the given targets.

    With p targets and m reachable generators, p <= m - 1 leaves a null
    space; among fixed Gaussian draws projected onto it (draw 0 alone when
    it is one-dimensional) the combination is chosen to avoid spurious extra zeros on the scan window first and to
    maximize the minimum |F'| over the targets second, and signed so that
    F rises through the first target.  The result depends on the
    parameters, the degree and the targets alone.  p >= m raises
    PlacementError naming the capacity m - 1.
    """
    return _place(params, reachable_generators(params, n), targets)


def _place(params: SystemParams, gens: List[BasisExpansion], targets: Sequence[float]) -> BasisExpansion:
    """The null-space placement of `place_zeros` over a given generator list.

    The generators' scan, target and slope rows are `_generator_rows` of
    the kept basis rows.  The collocation rows are the generators at the
    targets, each scaled by its largest |value| on a 2048-point scan of
    (0, min(0.999 r0, 2 t_p)].  The candidates are `_null_draws` of those
    rows, 5(m - p) of them, or draw 0 alone when m - p = 1, where every
    draw projects onto the same null direction; that lone candidate is
    taken unscored.  Otherwise a candidate scores (extra sign changes on
    the scan, -min |F'(t)| / max |F|), the first lowest winning, with F'
    at the targets from the derivative rows of `basis_values`; values,
    envelopes and slopes are one long-double product over all candidates.
    The winner is normalized to max |F| = 1 on the scan and signed so that
    F'(t_1) >= 0.  A condition that is not finite or exceeds 1e12 raises
    RankDeficiencyError.  The DEBUG line's |F(t)|/envelope ratio is
    computed only when the logger is enabled for DEBUG.
    """
    targets = [float(t) for t in targets]
    if sorted(set(targets)) != targets:
        raise ValueError("targets must be strictly increasing and distinct")
    if targets and not (0 < targets[0] and targets[-1] < params.r0):
        raise ValueError(f"targets must lie in (0, {params.r0})")

    m = len(gens)
    p = len(targets)
    n = gens[0].degree
    if p >= m:
        raise PlacementError(
            f"cannot place {p} zeros: the reachable span for degree {n} has capacity "
            f"{m - 1} simple zeros"
        )
    if p == 0:
        return gens[0]

    G = _generator_matrix(gens)
    r_hi = min(params.r0 * 0.999, 2.0 * targets[-1])
    scan = basis_values(params, n, np.linspace(r_hi / 2048, r_hi, 2048))
    Gs = _generator_rows(G, scan)
    colscale = np.maximum(Gs.max(axis=1), -Gs.min(axis=1))  # per-generator window scale

    # The generators and their slopes at the targets.
    near, near_slopes = basis_values(params, n, np.asarray(targets), derivative=True)
    tstack, tslope = _generator_rows(G, near), _generator_rows(G, near_slopes)
    M_long = (tstack / colscale[:, None]).T  # p x m, diagonally equilibrated

    # Condition diagnostic in an orthonormalized basis: it reflects the
    # geometry of the targets, not the raw basis skew; NaN on window
    # samples that are singular or overflow in double.
    with np.errstate(all="ignore"):
        geo = tstack.T.astype(float) @ _orthonormal_transform(Gs)
        sv_geo = np.linalg.svd(geo, compute_uv=False) if np.isfinite(geo).all() else np.full(p, np.nan)
        condition = sv_geo[0] / sv_geo[p - 1]
    if not condition <= 1e12:
        raise RankDeficiencyError(
            f"interpolation matrix condition {condition:.2e} is not finite or exceeds 1e12; "
            "targets too close together or too near the annulus boundary"
        )

    # The candidates in raw generator coordinates; a null space that is a
    # line has one direction, which draw 0 gives.
    dg = _null_draws(M_long, 1 if m - p == 1 else 5 * (m - p)) / colscale
    vals, slopes = np.dot(dg, Gs), np.dot(dg, tslope)
    scale_f = np.maximum(vals.max(axis=1), -vals.min(axis=1)).astype(float)
    k = 0
    if len(dg) > 1:
        env = _envelope(dg, np.abs(Gs))
        extra = [max(0, len(_sign_flips(v, e)[1]) - p) for v, e in zip(vals, env)]
        low = np.abs(slopes).min(axis=1).astype(float) / scale_f
        k = min(range(len(dg)), key=lambda i: (extra[i], -low[i]))
    winner = dg[k] / scale_f[k] if slopes[k, 0] >= 0 else -dg[k] / scale_f[k]
    # Combined in long double: high-degree placements carry delicately
    # cancelling coefficients whose rounding to double would visibly
    # shift the outer zeros.
    coeffs = np.dot(winner, G)
    # The sign changes `count_simple_zeros` would see on the scan; the basis
    # is nonnegative there, so |coeffs| times it is the envelope's sum.
    vals, env = np.dot(np.stack([coeffs, np.abs(coeffs)]), scan)
    resolved = len(_sign_flips(vals, env * _EPS)[1])
    if resolved < p:
        log.warning("placement: the scan resolves %d of %d targets; the placed function is below "
                    "long-double resolution between them", resolved, p)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "placement: %d targets, %d generators, condition %.3g, largest |F(t)|/envelope at the targets %.3g",
            p, m, condition, np.max(np.abs(np.dot(coeffs, near)) / _envelope(coeffs, np.abs(near))),
        )
    return BasisExpansion.from_vector(n, coeffs)


# ---------------------------------------------------------------------------
# Rank diagnostics
# ---------------------------------------------------------------------------


def sample_rank(matrix: np.ndarray) -> Tuple[int, float]:
    """Numerical rank of a column-normalized sample matrix: its singular
    values above `RANK_THRESHOLD`, and the smallest singular value."""
    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0] = 1.0
    sv = np.linalg.svd(matrix / norms, compute_uv=False)
    rank = int(np.sum(sv > RANK_THRESHOLD))
    return rank, float(sv[-1])


def chebyshev_points(lo: float, hi: float, count: int) -> np.ndarray:
    k = np.arange(count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k + 1) * np.pi / (2 * count))


def independence_check(params: SystemParams, n: int, r_max: float) -> Tuple[int, float]:
    """Numerical linear independence of the candidate generating set.

    Samples every generator at 4x(set size) Chebyshev points in
    (r_max/100, r_max); full rank (all column-normalized singular values
    above `RANK_THRESHOLD`) confirms independence at working precision.
    """
    if not (0 < r_max < params.r0):
        raise ValueError("need 0 < r_max < r0")
    gens = independence_generators(params, n)
    pts = chebyshev_points(r_max / 100.0, r_max, 4 * len(gens))
    M = _generator_rows(_generator_matrix(gens), basis_values(params, n, pts))
    return sample_rank(M.T.astype(float))


def claimed_coefficient_indices(n: int) -> List[Tuple[str, int]]:
    """The coefficient coordinates claimed jointly arbitrary per half.

    Odd n: kernel indices 0..h and monomial indices 1..2h-1.  Even n
    additionally claims kernel index h+1 and monomial index 2h+1 — the
    pair the exact reduction shows to be tied, so the even-degree claim
    overcounts by one per half.
    """
    h = (n + 1) // 2
    out: List[Tuple[str, int]] = [("kernel", i) for i in range(h + 1)]
    out += [("poly", k) for k in range(1, 2 * h)]
    if n % 2 == 0:
        out.append(("kernel", h + 1))
        out.append(("poly", 2 * h + 1))
    return out


def coefficient_surjectivity_check(params: SystemParams, n: int) -> Tuple[int, int]:
    """Rank of the map from perturbation coefficients to claimed coordinates.

    Reads the assembly's unit columns (exact reduction, pre-merge
    coefficients) restricted to the claimed-arbitrary coordinate list for
    both halves; returns (`exact.rank`, claimed count).  rank == claimed
    certifies the joint-arbitrariness claim (for the functions, if the
    kernel terms and monomials are independent); a deficiency measures how
    far the claim overcounts.
    """
    claimed = claimed_coefficient_indices(n)

    def coords(kernel, poly) -> list:
        return [kernel[i] if kind == "kernel" else poly[i] for kind, i in claimed]

    cols = [coords(coef_A, poly_plus) + coords(coef_B, poly_minus)
            for coef_A, poly_plus, coef_B, poly_minus in _unit_parts(params, n)]
    return exact.rank(cols), 2 * len(claimed)


# ---------------------------------------------------------------------------
# Randomized ceiling survey
# ---------------------------------------------------------------------------


def _check_survey(draws: int, grid: int) -> None:
    """The survey entry points' argument checks, made before any draw."""
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}: a sign change needs two samples")


def random_search_max_zeros(
    params: SystemParams,
    n: int,
    draws: int,
    seed: int,
    r_max: float,
    grid: int = 600,
) -> Tuple[int, Dict[int, int]]:
    """Max simple-zero count over random perturbations (survey mode).

    Counts envelope-significant sign changes on a fixed fine grid; used to
    stress the claimed ceiling, not to certify individual zero lists.
    """
    _check_survey(draws, grid)
    rows = _random_rows(n, np.random.default_rng(seed), draws, 4)
    return _survey(params, n, r_max, grid, rows)


def _survey(
    params: SystemParams, n: int, r_max: float, grid: int, rows: np.ndarray
) -> Tuple[int, Dict[int, int]]:
    """(max, histogram) of grid zero counts over degree-n perturbations.

    `rows` holds one perturbation coefficient vector
    (`PerturbationSpec.vector`) per row.  One product with
    `assembly_matrix` turns them into expansion coefficients, combining
    the exactly reduced unit columns in double; the basis is sampled once
    on the grid in long double, and `_flip_counts` counts every draw's
    sign changes on it.
    """
    if not (0 < r_max < params.r0):
        raise ValueError(f"need 0 < r_max < r0 = {params.r0}")
    coeffs = rows @ assembly_matrix(params, n).T
    basis = basis_values(params, n, np.linspace(r_max / grid, r_max, grid))
    hist = dict(Counter(_flip_counts(coeffs, basis).tolist()))
    return max(hist, default=0), hist


def _flip_counts(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Each draw's sign changes on the grid (one row of `coeffs` per draw),
    as `_sign_flips` counts them on its long-double values and envelope.

    A block of draws that `_block_signs` decides in full is counted from
    its double signs; each draw with an undecided sample is evaluated in
    long double over its whole row and counted by `_sign_flips`.  One
    DEBUG line gives the draws, the grid, the draws per block, the samples
    left undecided in double and the draws evaluated in long double.
    """
    grid = basis.shape[1]
    per_block = max(1, _BLOCK_SAMPLES // grid)
    counts = np.empty(len(coeffs), dtype=int)
    undecided = long_draws = 0
    for block, neg, decided in _block_signs(coeffs, basis, per_block):
        counts[block] = np.bincount(np.flatnonzero(neg[:, 1:] != neg[:, :-1]) // (grid - 1), minlength=len(neg))
        if decided.all():
            continue
        rows = block.start + np.flatnonzero(~decided.all(axis=1))
        c = coeffs[rows].astype(LONG)
        for i, vals, env in zip(rows, np.dot(c, basis), _envelope(c, np.abs(basis))):
            counts[i] = len(_sign_flips(vals, env)[1])
        undecided += decided.size - np.count_nonzero(decided)
        long_draws += rows.size
    log.debug(
        "survey: %d draws, grid %d, %d draws per block, %d samples undecided in double, "
        "%d draws evaluated in long double",
        len(coeffs), grid, per_block, undecided, long_draws,
    )
    return counts


def _block_signs(coeffs: np.ndarray, basis: np.ndarray, per_block: int):
    """The survey's sign decider: yields (block, neg, decided) per slice
    `block` of `per_block` rows c of `coeffs` on `basis` (m x grid).

    It takes two double BLAS products, v = c @ b64 with b64 the basis
    rounded to double, and t = [|c|, 1] @ [s64; _FLOOR] with s64 = slack
    |b64| rounded, so the slack and the floor ride in the product.  `neg` is
    v < 0; `decided`, |v| > t, certifies that the long-double value has v's
    sign and clears `_NOISE_FACTOR` envelopes (proof below), so
    `_sign_flips` keeps the sample with v's sign.
    """
    # Why |v| > t decides a sample.  Let m be the basis length, u the double
    # unit roundoff, x = c @ basis exactly and T = |c| @ |basis|.  The
    # dot-product bounds (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1; any summation order) give, with
    # gamma_k = k u / (1 - k u) and gamma^L_m its long-double analogue from
    # u_L = _EPS/2, while nothing underflows or overflows:
    #   |b64 - basis| <= u |basis|,  s64 >= (1 - u) slack |b64|      (casts)
    #   |v - x| <= (gamma_m (1 + u) + u) T
    #   t >= (1 - gamma_(m+1)) ((1 - u)^2 slack T + _FLOOR)      (m + 1 terms)
    #   |vals - x| <= gamma^L_m T,  env <= (1 + gamma^L_m) _EPS T (long double)
    # So |v| > t gives |x| > (gamma^L_m + _NOISE_FACTOR (1 + gamma^L_m) _EPS) T:
    # the long-double value clears `_NOISE_FACTOR` times its envelope, and
    # vals, x and v share one sign.  slack's (m + 4) u exceeds the (m + 1) u
    # of the bound on v, and its factor 1.01 covers the second-order terms
    # and the 1/((1 - gamma_(m+1)) (1 - u)^2) that rounding the folded slack
    # and the threshold's extra term adds.  The casts' bounds need b64 and
    # slack |b64| in double's normal range: a column with a nonzero entry
    # whose s64 is below 2 _TINY64 has its s64 set to inf.  Underflow in the
    # products of v and t adds at most m 2^-1075 to each error, and the
    # floor's (1 - gamma_(m+1)) _FLOOR > 2^-969 covers both for any m <
    # 2^100.  No sum in v or t overflows for a draw with |c| @ max|b64|
    # below 2^1020, taking each basis row's largest entry; every other draw
    # has its weights set to inf.  Such columns and draws get t = inf or
    # NaN, and a NaN in v or t fails the comparison, so none of their
    # samples is decided.
    m, grid = basis.shape
    slack = 1.01 * ((m + 4) * _U64 + m * _EPS / 2 + _NOISE_FACTOR * _EPS)
    b64 = basis.astype(float)
    s64 = np.empty((m + 1, grid))
    np.abs(b64, out=s64[:m])
    weights = np.hstack([np.abs(coeffs), np.ones((len(coeffs), 1))])
    weights[~(weights[:, :m] @ s64[:m].max(axis=1, initial=0.0) < 2.0**1020)] = np.inf
    s64[:m] *= slack
    s64[m] = _FLOOR
    low = s64[:m] < 2 * _TINY64
    if low.any():
        s64[:m, np.any(low & (basis != 0), axis=0)] = np.inf
    for start in range(0, len(coeffs), per_block):
        block = slice(start, start + per_block)
        v = coeffs[block] @ b64
        neg = v < 0
        yield block, neg, np.abs(v, out=v) > weights[block] @ s64
