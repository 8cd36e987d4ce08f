"""Return-map integration: polar and Cartesian routes."""

import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp

from pwcycles import poincare
from pwcycles.averaging import (
    BasisExpansion,
    PerturbationSpec,
    assemble,
    eval_F,
    perturbation_for_expansion,
)
from pwcycles.kernels import SystemParams
from pwcycles.poincare import (
    _LEGS,
    _ROOT_XTOL,
    BlowUpError,
    EpsilonValidityError,
    NearSingularityError,
    PolarField,
    _leg_rhs,
    cartesian_crosscheck,
    find_fixed_points,
    return_map,
)
from pwcycles.zeros import _newton_roots, _sign_flips, count_simple_zeros, place_zeros


def _one_field_rhs(field, plus):
    """The right-hand side `return_map` integrates, for rows of one field, as
    a function of (theta, r)."""
    rhs = _leg_rhs([field], np.zeros(1, dtype=int), plus)(np.zeros(1, dtype=int))
    return lambda theta, r: rhs(np.cos(theta), np.sin(theta), r)


def polar_rhs(field, theta, r):
    """dr/dtheta at one point, on the plus side when cos(theta) >= 0 (the
    legs split exactly at cos(theta) = 0, so the choice never influences
    an integration)."""
    rhs = _one_field_rhs(field, math.cos(theta) >= 0)
    return float(rhs(np.array([theta]), np.array([r]))[0])


def polar_XY(field, theta, r, plus):
    """The averaging decomposition (X, Y) with dr/dtheta = eps X + eps^2 Y:
    the two-term form, an independent oracle for the closed rational
    right-hand side."""
    c, s = math.cos(theta), math.sin(theta)
    const = field.params.a if plus else field.params.b
    f_t = field.pert.plus_f if plus else field.pert.minus_f
    g_t = field.pert.plus_g if plus else field.pert.minus_g
    x, y = r * c, r * s
    h = (r * c + const) ** 2
    fv = float(npoly.polyval2d(x, y, f_t))
    gv = float(npoly.polyval2d(x, y, g_t))
    X = (fv * c + gv * s) / h
    w = gv * c - fv * s
    Y = -(fv * c + gv * s) * w / (h * (r * h + field.epsilon * w))
    return X, Y


def _combine(weights, K):
    """sum_j w_j K[j] over a tableau row's nonzero (stage, weight) pairs, added left to right."""
    (j, w), *rest = weights
    acc = K[j] * w
    for j, w in rest:
        acc += K[j] * w
    return acc


def _reference_dop853(rhs_at, t0, t1, r_start):
    """The lockstep engine as it was before the running stage-sum block:
    sparse stage sums (`_combine`) and each evaluation's cosine and sine
    taken on its own angle.  `poincare._dop853` must equal it bit for bit."""
    P = poincare
    tol = P._INTEGRATOR_TOL
    r = r_start.copy()
    theta = np.full_like(r, t0)

    def at(rows):
        rhs = rhs_at(rows)
        return lambda t, y: rhs(np.cos(t), np.sin(t), y)

    rhs = at(np.arange(r.size))
    f = rhs(theta, r)
    span = t1 - t0
    scale = tol + np.abs(r) * tol
    d0, d1 = np.abs(r / scale), np.abs(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
        d2 = np.abs((rhs(theta + h0, r + h0 * f) - f) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** P._STEP_EXPONENT,
        )
    step = np.minimum(np.minimum(100 * h0, h1), span)
    nfev, rejected, steps = 2 * r.size, 0, 0
    retry = np.zeros(r.shape, dtype=bool)
    live = np.arange(r.size)
    while live.size:
        rhs = at(live)
        t, y = theta[live], r[live]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~retry[live] & (step[live] < min_step), min_step, step[live])
        stuck = ~(h_abs >= min_step)
        if stuck.any():
            i = np.argmax(stuck)
            raise BlowUpError(
                f"integration failed on leg ({t0:.3g},{t1:.3g}) at theta = {t[i]:.6g}, "
                f"r = {float(y[i])!r}: required step size is less than spacing between numbers"
            )
        t_new = np.minimum(t + h_abs, t1)
        h = t_new - t
        K = [f[live]]
        for s in range(1, P._STAGES):
            K.append(rhs(t + P._C[s] * h, y + _combine(P._A[s], K) * h))
        y_new = y + h * _combine(P._B, K)
        K.append(rhs(t + h, y_new))
        nfev += P._STAGES * live.size
        steps += 1
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        e5 = (_combine(P._E5, K) / scale) ** 2
        e3 = (_combine(P._E3, K) / scale) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where((e5 == 0) & (e3 == 0), 0.0, np.abs(h) * e5 / np.sqrt(e5 + 0.01 * e3))
            factor = P.SAFETY * err**-P._STEP_EXPONENT
        accept = err < 1
        factor = np.where(
            accept,
            np.where(err == 0, P.MAX_FACTOR, np.minimum(P.MAX_FACTOR, factor)),
            np.fmax(P.MIN_FACTOR, factor),
        )
        factor = np.where(accept & retry[live], np.minimum(1.0, factor), factor)
        step[live] = np.abs(h) * factor
        retry[live] = ~accept
        rejected += live.size - int(np.count_nonzero(accept))
        moved = live[accept]
        theta[moved], r[moved], f[moved] = t_new[accept], y_new[accept], K[-1][accept]
        live = live[~accept | (t_new < t1)]
    return r, nfev, rejected, steps


def _legs(engine, groups):
    """The three legs of `return_map(groups)` through `engine`: the images
    of all rows in one array, and per leg the engine's (RHS evaluations,
    rejected steps, lockstep steps)."""
    fields, radii = zip(*((fld, np.asarray(rr, dtype=float)) for fld, rr in groups))
    group = np.repeat(np.arange(len(fields)), [rr.size for rr in radii])
    r, work = np.concatenate(radii), []
    for t0, t1, plus in _LEGS:
        r, *counts = engine(_leg_rhs(fields, group, plus), t0, t1, r)
        work.append(tuple(counts))
    return r, work


def _meshgrid_speed(field):
    """dtheta/dt on the validation grid in its whole-grid form: both
    half-planes' terms on the full 33 x 181 meshgrid, each point keeping
    its own side's value.  `field` needs only the attributes `_leg_terms`
    and the grid read, so one that fails validation can be given."""
    thetas = np.linspace(0.0, 2 * math.pi, 181)
    radii = np.linspace(field.r_range[0], field.r_range[1], 33)
    r, t = np.meshgrid(radii, thetas, indexing="ij")
    c, s = np.cos(t), np.sin(t)
    plus, minus = (poincare._leg_terms((field,), side)(0)(c, s, r)[2] for side in (True, False))
    return np.where(c >= 0, plus, minus)


@pytest.fixture
def field(params, rng):
    pert = PerturbationSpec.random(2, rng)
    return PolarField(params, pert, 1e-3, r_range=(0.2, 4.0))


class TestPolarField:
    def test_negative_epsilon_rejected(self, params):
        with pytest.raises(ValueError):
            PolarField(params, PerturbationSpec(1), -1e-3, r_range=(0.2, 3.0))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, params, eps):
        # NaN passed the old epsilon < 0 test and hung the integrator
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            PolarField(params, PerturbationSpec(1), eps, r_range=(0.2, 3.0))

    def test_nan_table_entry_rejected(self, params):
        # a NaN angular speed is refused like a nonpositive one
        pert = PerturbationSpec(1, plus_f={(0, 0): math.nan})
        with pytest.raises(EpsilonValidityError, match="dtheta/dt = nan"):
            PolarField(params, pert, 1e-3, r_range=(0.2, 3.0))

    def test_epsilon_validity_guard(self, params):
        # a huge epsilon flips the angular speed somewhere on the annulus
        pert = PerturbationSpec(1, plus_g={(0, 0): -1.0})
        with pytest.raises(EpsilonValidityError):
            PolarField(params, pert, 50.0, r_range=(0.05, 3.0))

    def test_r_range_inside_annulus(self):
        p = SystemParams(-1.5, 2.0)  # r0 = 1.5
        with pytest.raises(ValueError):
            PolarField(p, PerturbationSpec(1), 1e-3, r_range=(0.1, 2.0))

    @pytest.mark.parametrize("r_range", [(0.0, 1.0), (1.0, 0.5), (0.5, 0.5), (math.nan, 1.0)])
    def test_invalid_r_range_refused(self, params, r_range):
        with pytest.raises(ValueError, match="^invalid r_range$"):
            PolarField(params, PerturbationSpec(1), 1e-3, r_range=r_range)

    def test_validation_grid_matches_pointwise_loop(self, params, rng):
        # the validation grid is evaluated in one pass; the reference is the
        # per-point loop it replaced, which names the first offending
        # (r, theta) in r-major order
        def first_slow_point(pert, eps, r_range):
            for r in np.linspace(r_range[0], r_range[1], 33):
                for t in np.linspace(0.0, 2 * math.pi, 181):
                    c, s = math.cos(t), math.sin(t)
                    plus = c >= 0
                    const = params.a if plus else params.b
                    f_t = pert.plus_f if plus else pert.minus_f
                    g_t = pert.plus_g if plus else pert.minus_g
                    fv = float(npoly.polyval2d(r * c, r * s, f_t))
                    gv = float(npoly.polyval2d(r * c, r * s, g_t))
                    if (r * c + const) ** 2 + (eps / r) * (gv * c - fv * s) <= 0:
                        return r, t
            return None

        verdicts = set()
        for n in (1, 2, 3):
            pert = PerturbationSpec.random(n, rng)
            for eps in (1e-3, 0.3, 3.0, 30.0):
                want = first_slow_point(pert, eps, (0.2, 3.0))
                verdicts.add(want is None)
                if want is None:
                    PolarField(params, pert, eps, r_range=(0.2, 3.0))
                    continue
                with pytest.raises(EpsilonValidityError) as exc:
                    PolarField(params, pert, eps, r_range=(0.2, 3.0))
                assert f"(r={want[0]:.3g}, theta={want[1]:.3g})" in str(exc.value)
        assert verdicts == {True, False}

    def test_per_half_speed_equals_the_meshgrid_form_bitwise(self, params, rng):
        # each half-plane's terms on its own angles, against the radii
        # broadcast, give the whole-grid values bit for bit; the columns at
        # theta = pi/2 (cos = 6e-17, plus side) and 3 pi/2 (minus side) lie
        # on the switching line.  Fields that fail validation are compared too
        for n in (1, 2, 3):
            pert = PerturbationSpec.random(n, rng)
            for eps in (1e-3, 0.3, 30.0):
                fld = SimpleNamespace(params=params, pert=pert, epsilon=eps, r_range=(0.2, 3.0))
                radii, thetas, speed = PolarField._theta_speed(fld)
                assert speed.tobytes() == _meshgrid_speed(fld).tobytes(), (n, eps)
        assert thetas[[45, 135]].tolist() == [math.pi / 2, 3 * math.pi / 2]
        assert np.cos(thetas[45]) > 0 > np.cos(thetas[135])

    def test_back_half_failure_keeps_its_message(self, params):
        # a constant minus-side g slows the angle only where cos theta < 0;
        # the error names the first failing point in r-major order, as the
        # whole-grid form finds it
        pert = PerturbationSpec(1, minus_g={(0, 0): 1.0})
        fld = SimpleNamespace(params=params, pert=pert, epsilon=1.0, r_range=(0.05, 3.0))
        speed = _meshgrid_speed(fld)
        radii, thetas = np.linspace(0.05, 3.0, 33), np.linspace(0.0, 2 * math.pi, 181)
        front = np.cos(thetas) >= 0
        assert (speed[:, front] > 0).all() and not (speed[:, ~front] > 0).all()
        i, k = np.unravel_index(np.argmax(~(speed > 0)), speed.shape)
        with pytest.raises(EpsilonValidityError) as exc:
            PolarField(params, pert, 1.0, r_range=(0.05, 3.0))
        assert str(exc.value) == (
            f"dtheta/dt = {speed[i, k]:.3g} at (r={radii[i]:.3g}, theta={thetas[k]:.3g}); "
            "epsilon too large for this annulus"
        )


class TestPolarRhs:
    def test_zero_epsilon(self, params):
        fld = PolarField(params, PerturbationSpec(1, plus_f={(0, 0): 1.0}), 0.0,
                         r_range=(0.2, 3.0))
        assert polar_rhs(fld, 0.7, 1.1) == 0.0

    def test_plus_side_formula(self, params):
        eps = 1e-3
        fld = PolarField(params, PerturbationSpec(1, plus_f={(0, 0): 1.0}), eps,
                         r_range=(0.2, 3.0))
        r = 1.3
        # theta = 0: cos = 1, sin = 0, g = 0 -> eps * 1 / (r + a)^2 exactly
        assert polar_rhs(fld, 0.0, r) == pytest.approx(eps / (r + params.a) ** 2, rel=1e-15)

    def test_minus_side_mirror(self, params):
        eps = 1e-3
        pert = PerturbationSpec(1, minus_f={(0, 0): 2.0, (1, 0): 0.5})
        fld = PolarField(params, pert, eps, r_range=(0.2, 3.0))
        r = 0.9
        # theta = pi: x = -r, y = 0; X- = -f(-r, 0)/(b - r)^2 and the
        # eps^2 correction vanishes with g = 0, sin = 0
        f_val = 2.0 + 0.5 * (-r)
        want = -eps * f_val / (params.b - r) ** 2
        assert polar_rhs(fld, math.pi, r) == pytest.approx(want, rel=1e-12)

    def test_matches_two_term_decomposition(self, field, rng):
        # the closed rational form equals eps*X + eps^2*Y identically
        for _ in range(20):
            theta = float(rng.uniform(0, 2 * math.pi))
            r = float(rng.uniform(0.3, 3.5))
            plus = math.cos(theta) >= 0
            X, Y = polar_XY(field, theta, r, plus)
            want = field.epsilon * X + field.epsilon**2 * Y
            assert polar_rhs(field, theta, r) == pytest.approx(want, rel=1e-12)


class TestLegTerms:
    def test_zero_padded_tables_match_polyval2d_bitwise(self, params, rng):
        # rows of degrees 1-4 and a degree-3 perturbation whose top
        # coefficients are zero share one array padded to degree 4; each
        # row's terms equal those built from numpy's polyval2d on its own
        # tables, bit for bit
        base = PerturbationSpec.random(3, rng)
        tables = [t.copy() for t in (base.plus_f, base.plus_g, base.minus_f, base.minus_g)]
        for t in tables:
            t[np.add.outer(np.arange(4), np.arange(4)) == 3] = 0.0
        perts = [PerturbationSpec.random(n, rng) for n in (1, 2, 3, 4)] + [PerturbationSpec(3, *tables)]
        fields = [PolarField(params, p, eps, r_range=(0.2, 1.5)) for p in perts for eps in (1e-3, 1e-2)]
        m = 7
        theta = rng.uniform(0.0, 2 * math.pi, (len(fields), m))
        r = rng.uniform(0.2, 1.5, (len(fields), m))
        cos, sin = np.cos(theta), np.sin(theta)
        rows = np.repeat(np.arange(len(fields)), m)
        for plus in (True, False):
            got = poincare._leg_terms(fields, plus)(rows)(cos.ravel(), sin.ravel(), r.ravel())
            const = params.a if plus else params.b
            for k, fld in enumerate(fields):
                pert = fld.pert
                f_t, g_t = (pert.plus_f, pert.plus_g) if plus else (pert.minus_f, pert.minus_g)
                c, s, rk, eps = cos[k], sin[k], r[k], fld.epsilon
                x, y = rk * c, rk * s
                h = (x + const) ** 2
                fv, gv = npoly.polyval2d(x, y, f_t), npoly.polyval2d(x, y, g_t)
                want = (h, eps * (fv * c + gv * s), h + (eps / rk) * (gv * c - fv * s))
                for g, w in zip(got, want):
                    assert g[k * m : (k + 1) * m].tolist() == w.tolist(), (plus, k)


class TestReturnMap:
    def test_identity_at_zero_epsilon(self, params):
        fld = PolarField(params, PerturbationSpec(1, plus_f={(0, 0): 1.0}), 0.0,
                         r_range=(0.2, 4.0))
        for r in (0.4, 1.3, 3.2):
            assert return_map(fld, r) == pytest.approx(r, abs=1e-12)

    def test_richardson_second_order(self, params, rng):
        # |P(r) - r - eps*f0(r)| = O(eps^2): halving eps quarters the defect
        pert = PerturbationSpec.random(2, rng)
        fn = assemble(params, pert)
        r = 1.1
        f0 = eval_F(fn, r) / r
        defects = []
        for eps in (2e-3, 1e-3):
            fld = PolarField(params, pert, eps, r_range=(0.2, 4.0))
            defects.append(abs(return_map(fld, r) - r - eps * f0))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.25)

    def test_fixed_point_near_placed_zero(self, params):
        exp = place_zeros(params, 1, [0.8])
        pert = perturbation_for_expansion(params, exp).normalized()
        eps = 1e-3
        fld = PolarField(params, pert, eps, r_range=(0.2, 3.0))
        rr = np.linspace(0.5, 1.2, 30)
        res = find_fixed_points(fld, rr, return_map(fld, rr))
        assert len(res.fixed_points) == 1
        assert abs(res.fixed_points[0].location - 0.8) < 10 * eps

    def test_grid_without_sign_change_has_no_fixed_point(self, params):
        # the placed zero at 0.8 lies below the grid, so the displacement
        # keeps one sign and the search makes no return-map call
        exp = place_zeros(params, 1, [0.8])
        pert = perturbation_for_expansion(params, exp).normalized()
        fld = PolarField(params, pert, 1e-3, r_range=(0.2, 3.0))
        rr = np.linspace(1.5, 2.5, 12)
        images = return_map(fld, rr)
        assert len(set(np.sign(images - rr))) == 1
        assert find_fixed_points(fld, rr, images).fixed_points == ()

    def test_empty_batch_maps_to_empty_array(self, field):
        assert return_map(field, np.array([])).shape == (0,)

    def test_out_of_range_start_rejected(self, field):
        with pytest.raises(ValueError):
            return_map(field, 9.0)


def _fixed_point_grid(ab, degree, targets, r_max, sign=1.0):
    """The fixed-point field at eps = 1.25e-3 of a placement, times `sign`,
    its 60-radius grid and the zeros of its averaged function, built as
    `manifest._run_place_and_simulate` builds them."""
    params = SystemParams(*ab)
    exp = place_zeros(params, degree, targets)
    exp = BasisExpansion.from_vector(degree, sign * exp.vector())
    pert = perturbation_for_expansion(params, exp).normalized()
    predicted = count_simple_zeros(assemble(params, pert), r_max=r_max, grid=800).locations
    lo, hi = max(0.5 * min(predicted), 0.05), min(1.2 * max(predicted), 0.95 * r_max)
    fld = PolarField(params, pert, 1.25e-3, r_range=(0.5 * lo, r_max))
    return fld, np.linspace(lo, hi, 60), predicted


def _xtol_only_roots(fld, rr, images):
    """The fixed points of the grid's brackets refined with no roundoff floor, from their regula
    falsi points, until each bracket is at most 2*_ROOT_XTOL (and a few ulps) wide."""
    disp = images - rr
    keep, flips = _sign_flips(disp, 0.0)
    lo, hi, f_lo, f_hi = rr[keep[flips]], rr[keep[flips + 1]], disp[keep[flips]], disp[keep[flips + 1]]
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    return _newton_roots(lambda r: (return_map(fld, r) - r, np.nan, 0), x, lo, hi, f_lo, f_hi, _ROOT_XTOL)[0]


@pytest.fixture(scope="module")
def readme_fields():
    """The fixed-point searches of the README simulate example and of its
    negation, the two fields that the sign of a null vector can give: each
    field, its grid and the grid's images."""
    grids = (_fixed_point_grid((1.0, -2.0), 1, [0.5, 1.0, 1.5, 2.0], 5.0, sign) for sign in (1.0, -1.0))
    return [(fld, rr, return_map(fld, rr)) for fld, rr, _ in grids]


@pytest.fixture(scope="module")
def readme_fp(readme_fields):
    """The fixed-point search of the README simulate example."""
    return readme_fields[0]


# The fixed-point tolerance of the benchmark's pinned outputs.
FLOAT_TOL = 1e-7


class TestFixedPointRefinement:
    """Each fixed point and its slope come from its bracket's interpolant."""

    @pytest.fixture
    def run(self, readme_fp, monkeypatch):
        """find_fixed_points on the README field, with every radius the
        return map is called on."""
        fld, rr, images = readme_fp
        calls = []

        def counted(field, r_start=None):
            calls.append(np.array(r_start, dtype=float))
            return return_map(field, r_start)

        with monkeypatch.context() as m:
            m.setattr(poincare, "return_map", counted)
            return find_fixed_points(fld, rr, images), calls

    def test_search_maps_only_the_interpolation_rows(self, run):
        result, calls = run
        assert len(result.fixed_points) == 4
        # one call for the interior Chebyshev points, none after it
        assert [c.size for c in calls] == [4 * poincare._INTERP_NODES]

    def test_displacement_changes_sign_within_float_tol_of_each_point(self, readme_fields):
        # the map's own displacement brackets every point within the
        # benchmark's pin tolerance, on both fields
        for fld, rr, images in readme_fields:
            z = np.array([f.location for f in find_fixed_points(fld, rr, images).fixed_points])
            assert z.size == 4
            ends = np.concatenate([z - FLOAT_TOL, z + FLOAT_TOL])
            d = return_map(fld, ends) - ends
            assert np.all(np.sign(d[: z.size]) == -np.sign(d[z.size :])), z

    def test_newton_leaving_the_sign_change_falls_back_to_regula_falsi(self, readme_fp, monkeypatch):
        # On the grid bracket [1, 2] the displacement is -1 + 2u^7 (times
        # 1e-3), u running from 0 to 1 over the fifth sampled sub-interval
        # [a, b].  It changes sign there only, and its interpolant is
        # itself; Newton from the regula falsi point u = 1/2 would jump to
        # u = 5, past b, so the root finder steps inside [a, b] on the
        # interpolant and maps nothing after the interpolation rows.
        fld = readme_fp[0]
        nodes = 1 + 0.5 * (1 + poincare._INTERP_T)
        a, b = nodes[4], nodes[5]

        def disp(r):
            return 1e-3 * (-1 + 2 * ((r - a) / (b - a)) ** 7)

        assert 0.5 - (-1 + 2 * 0.5**7) / (14 * 0.5**6) == 5.0
        calls = []

        def fake(field, r):
            calls.append(np.array(r, dtype=float))
            return r + disp(r)

        monkeypatch.setattr(poincare, "return_map", fake)
        rr = np.array([1.0, 2.0])
        (fp,) = find_fixed_points(fld, rr, rr + disp(rr)).fixed_points
        assert [c.size for c in calls] == [poincare._INTERP_NODES]
        root = a + (b - a) * 0.5 ** (1 / 7)
        assert abs(fp.location - root) <= 2 * _ROOT_XTOL
        assert fp.stability == "repelling"

    def test_no_sign_change_makes_no_call(self, readme_fp, monkeypatch):
        fld, rr, images = readme_fp

        def refuse(field, r_start=None):
            raise AssertionError("return_map called")

        monkeypatch.setattr(poincare, "return_map", refuse)
        assert find_fixed_points(fld, rr, rr + np.abs(images - rr) + 1e-9).fixed_points == ()

    def test_seeds_match_the_xtol_only_refinement(self, readme_fields):
        # on both fields the stability classes are the signs of the +-h
        # slopes at the refinement that closes by width alone, and each
        # slope p'(z) agrees with those slopes to 1 %
        for fld, rr, images in readme_fields:
            ref = _xtol_only_roots(fld, rr, images)
            h = (rr[-1] - rr[0]) / (8 * rr.size)
            ends = np.concatenate([ref + h, ref - h])
            d = return_map(fld, ends) - ends
            ref_slopes = (d[: ref.size] - d[ref.size :]) / (2 * h)
            got = find_fixed_points(fld, rr, images).fixed_points
            assert [f.stability for f in got] == [("repelling" if s > 0 else "attracting") for s in ref_slopes]
            assert np.allclose([f.displacement_slope for f in got], ref_slopes, rtol=1e-2, atol=0)

    @pytest.mark.parametrize("noise,kind", [(1e-8, "neutral"), (1e-10, "repelling")])
    def test_slope_within_the_interpolants_error_is_neutral(self, readme_fp, monkeypatch, noise, kind):
        # displacement 1e-6 (r - 1.5) plus noise * T_9 over the bracket
        # [1, 2]: the interpolant's top coefficient is the noise, so its
        # derivative error bound is 9^2 * noise / 0.5, 1.6e-6 against the
        # slope 1e-6 (neutral) or 1.6e-8 (repelling), and the noise moves
        # the slope by no more than that
        def disp(r):
            return 1e-6 * (r - 1.5) + noise * np.cos(9 * np.arccos(np.clip(2 * r - 3, -1, 1)))

        monkeypatch.setattr(poincare, "return_map", lambda field, r: r + disp(r))
        rr = np.array([1.0, 2.0])
        (fp,) = find_fixed_points(readme_fp[0], rr, rr + disp(rr)).fixed_points
        assert fp.stability == kind
        assert abs(fp.displacement_slope - 1e-6) <= 9**2 * noise / 0.5

    def test_debug_line_counts_the_refinement(self, readme_fp, run, caplog):
        fld, rr, images = readme_fp
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            find_fixed_points(fld, rr, images)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_fixed_points")]
        assert len(lines) == 1
        brackets, given, here, rows, newton, falsi, bisection = map(
            int, re.match(r"find_fixed_points: (\d+) brackets \((\d+) with interpolation rows from the caller's "
                          r"call, (\d+) mapped here\), (\d+) interpolation rows, (\d+) Newton, (\d+) regula falsi "
                          r"and (\d+) bisection steps on the interpolants", lines[0]).groups()
        )
        assert (brackets, given, here, rows) == (4, 0, 4, run[1][0].size)
        assert newton >= 4 and falsi + bisection == 0
        # every slope clears its error bound: no point is neutral
        assert float(lines[0].rsplit("error bound ", 1)[1]) > 1


class TestCallerMappedRows:
    """Interpolation rows the caller maps in its own call, as `place_and_simulate` maps
    those of the grid intervals that hold a zero of the averaged function."""

    @staticmethod
    def _search(fld, rr, images, monkeypatch, mapped=((), ())):
        """find_fixed_points with the radii of every return-map call it makes."""
        calls = []

        def counted(field, r_start=None):
            calls.append(np.array(r_start, dtype=float))
            return return_map(field, r_start)

        with monkeypatch.context() as m:
            m.setattr(poincare, "return_map", counted)
            return find_fixed_points(fld, rr, images, mapped=mapped), calls

    @staticmethod
    def _mapped_with_grid(fld, rr, predicted):
        """The grid's images and the interpolation rows of the intervals that hold `predicted`, in one call."""
        inner = poincare.interpolation_rows(rr, predicted)
        images, images_inner = return_map([(fld, rr), (fld, inner)])
        return images, (inner, images_inner)

    @pytest.mark.parametrize(
        "ab,degree,targets,r_max",
        [((1.0, -2.0), 1, [0.5, 1.0, 1.5, 2.0], 5.0), ((1.0, -2.0), 2, [0.5, 1.0, 1.5, 2.0], 5.0),
         ((1.0, -1.0), 2, [0.5, 1.0, 1.5], 1.9)],
        ids=["readme", "degree_2", "resonant_degree_2"],
    )
    def test_predicted_rows_give_the_same_fixed_points_bitwise(self, monkeypatch, ab, degree, targets, r_max):
        fld, rr, predicted = _fixed_point_grid(ab, degree, targets, r_max)
        images, mapped = self._mapped_with_grid(fld, rr, predicted)
        want, want_calls = self._search(fld, rr, images, monkeypatch)
        got, calls = self._search(fld, rr, images, monkeypatch, mapped)
        assert len(got.fixed_points) == len(targets)
        assert repr(got) == repr(want)
        # every bracket's rows came with the grid: the search makes no call
        assert [c.size for c in want_calls] == [len(targets) * poincare._INTERP_NODES]
        assert calls == []

    @pytest.mark.parametrize("case", ["shifted", "some"])
    def test_rows_that_miss_map_only_the_uncovered_brackets(self, readme_fp, monkeypatch, caplog, case):
        fld, rr, images = readme_fp
        disp = images - rr
        keep, flips = _sign_flips(disp, 0.0)
        k = keep[flips + 1]
        # rows one interval off cover no bracket; rows of two brackets cover those two
        covered = {"shifted": 0, "some": 2}[case]
        m = k + 1 if case == "shifted" else k[[0, 2]]
        _, mapped = self._mapped_with_grid(fld, rr, 0.5 * (rr[m - 1] + rr[m]))
        want, want_calls = self._search(fld, rr, images, monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            got, calls = self._search(fld, rr, images, monkeypatch, mapped)
        assert repr(got) == repr(want)
        assert [c.size for c in calls] == [(k.size - covered) * poincare._INTERP_NODES]
        counts = f"{k.size} brackets ({covered} with interpolation rows from the caller's call, {k.size - covered}"
        assert counts in caplog.text


class TestLockstepEngine:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0)])
    def test_matches_scalar_scipy_dop853(self, ab, n, rng):
        # each radius takes the steps scipy's scalar DOP853 takes on it alone
        fld = PolarField(SystemParams(*ab), PerturbationSpec.random(n, rng), 1e-3, r_range=(0.2, 3.5))
        self._assert_matches_scipy(fld, np.linspace(0.3, 3.2, 7))

    def test_matches_scalar_scipy_dop853_through_rejected_steps(self, readme_fp):
        # the README field at eps = 0.3 rejects steps, and the step accepted
        # after a rejection may not grow (`retry`), as in scipy
        fld = readme_fp[0]
        fld = PolarField(fld.params, fld.pert, 0.3, r_range=fld.r_range)
        rr = np.linspace(0.3, 2.4, 7)
        _, work = _legs(poincare._dop853, [(fld, rr)])
        assert sum(rejected for _, rejected, _ in work) > 0
        self._assert_matches_scipy(fld, rr)

    @staticmethod
    def _assert_matches_scipy(fld, rr):
        got = return_map(fld, rr)
        for r, g in zip(rr, got):
            want = float(r)
            for t0, t1, plus in _LEGS:
                rhs = _one_field_rhs(fld, plus)
                sol = solve_ivp(
                    lambda t, y: rhs(np.array([t]), y),
                    (t0, t1),
                    [want],
                    method="DOP853",
                    rtol=1e-12,
                    atol=1e-12,
                )
                want = float(sol.y[0, -1])
            assert abs(g - want) <= 1e-14, (r, g, want)

    def test_tableau_literals_equal_scipys_bitwise(self):
        from scipy.integrate._ivp import rk

        def dense(pairs, width):
            row = np.zeros(width)
            for j, w in pairs:
                row[j] = w
            return row

        s = poincare._STAGES
        assert s == rk.DOP853.n_stages
        assert np.array([dense(row, s) for row in poincare._A]).tobytes() == rk.DOP853.A.tobytes()
        assert dense(poincare._B, s).tobytes() == rk.DOP853.B.tobytes()
        assert np.array(poincare._C).tobytes() == rk.DOP853.C.tobytes()
        assert dense(poincare._E3, s + 1).tobytes() == rk.DOP853.E3.tobytes()
        assert dense(poincare._E5, s + 1).tobytes() == rk.DOP853.E5.tobytes()
        # only the nonzero weights are listed, each stage once, in order
        for pairs in (*poincare._A, poincare._B, poincare._E3, poincare._E5):
            stages = [j for j, _ in pairs]
            assert stages == sorted(set(stages)) and all(w != 0.0 for _, w in pairs)
        for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
            ours, theirs = getattr(poincare, name), getattr(rk, name)
            assert type(ours) is float and ours == theirs, name
        assert poincare._STEP_EXPONENT == 1.0 / (rk.DOP853.error_estimator_order + 1)

    def test_batch_invariance_is_bitwise(self, field):
        rr = np.linspace(0.25, 3.9, 37)
        batch = return_map(field, rr)
        assert [return_map(field, float(r)) for r in rr] == batch.tolist()
        assert return_map(field, rr[::-3]).tolist() == batch[::-3].tolist()

    def test_scalar_in_scalar_out(self, field):
        assert isinstance(return_map(field, 1.0), float)
        assert return_map(field, [1.0]).shape == (1,)

    def test_debug_log_counts_work(self, field, caplog):
        rr = np.array([0.5, 1.0, 2.0])
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            return_map(field, rr)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("return_map")]
        _, work = _legs(poincare._dop853, [(field, rr)])
        nfev, rejected, steps = zip(*work)
        assert lines == [
            f"return_map: 3 radii in 1 fields, {sum(nfev)} RHS evaluations, {sum(rejected)} rejected steps, "
            f"{steps[0]}/{steps[1]}/{steps[2]} lockstep steps per leg"
        ]
        assert min(steps) > 0


class TestStageSums:
    """The running stage-sum block against the sparse sums it replaced."""

    @staticmethod
    def _groups(case, rng):
        if case == "bounded_degree_1":
            # up to r = 1.35, near the plus-side singular line x = 1.5
            pert = PerturbationSpec.random(1, rng)
            return [(PolarField(SystemParams(-1.5, 2.0), pert, 1e-3, r_range=(0.1, 1.35)), np.linspace(0.1, 1.35, 30))]
        if case == "resonant_degree_2":
            fld, rr, _ = _fixed_point_grid((1.0, -1.0), 2, [0.5, 1.0, 1.5], 1.9)
            return [(fld, rr)]
        fld, rr, _ = _fixed_point_grid((1.0, -2.0), 1, [0.5, 1.0, 1.5, 2.0], 5.0)
        eps = {"readme": fld.epsilon, "readme_eps_0.3": 0.3}[case]
        return [(PolarField(fld.params, fld.pert, eps, r_range=fld.r_range), rr)]

    @pytest.mark.parametrize("case", ["readme", "readme_eps_0.3", "resonant_degree_2", "bounded_degree_1"])
    def test_images_and_work_equal_the_sparse_sums_bitwise(self, case, rng):
        groups = self._groups(case, rng)
        got, work = _legs(poincare._dop853, groups)
        want, want_work = _legs(_reference_dop853, groups)
        assert got.tobytes() == want.tobytes()
        assert work == want_work  # RHS evaluations, rejected and lockstep steps, per leg
        assert sum(rejected for _, rejected, _ in work) > 0
        assert np.concatenate(return_map(groups)).tobytes() == got.tobytes()

    @pytest.mark.parametrize("stage,value", [(2, np.inf), (5, np.nan), (9, -np.inf)])
    @pytest.mark.parametrize("every", [True, False], ids=["every_step", "third_step"])
    def test_non_finite_stage_as_the_sparse_sums(self, stage, value, every):
        # a right-hand side that gives `value` on the first live row at one
        # stage, of every step or of the third only.  Stage 2 has zero weight
        # in y_new and the error sums, so the block adds 0 * inf = NaN there,
        # where the sparse sums meet the non-finite value through the stages
        # after it; either way the step is rejected.  Every step's: both
        # engines fail with one message.  The third step's: both finish alike,
        # with more rejected steps than without the fault.
        def rhs_at_factory(value):
            calls = []

            def rhs_at(rows):
                def rhs(cos, sin, r):
                    calls.append(None)
                    k = 0.5 * r * cos
                    n = len(calls) - 3  # after the two calls of the initial step
                    if value is not None and n >= 0 and n % poincare._STAGES == stage - 1 and (
                        every or n // poincare._STAGES == 2
                    ):
                        k[0] = value
                    return k

                return rhs

            return rhs_at

        outcomes = []
        for engine in (poincare._dop853, _reference_dop853):
            try:
                with np.errstate(invalid="ignore"):
                    r, *work = engine(rhs_at_factory(value), 0.0, 1.0, np.array([0.5, 1.0]))
                outcomes.append((r.tobytes(), work))
            except BlowUpError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if every:
            assert outcomes[0].startswith("integration failed on leg (0,1) at theta = 0, r = 0.5")
        else:
            clean = poincare._dop853(rhs_at_factory(None), 0.0, 1.0, np.array([0.5, 1.0]))
            assert outcomes[0][1][1] > clean[2]


class TestErrorPaths:
    """Every radius of a batch is checked; one bad radius fails the call."""

    def test_one_out_of_range_radius_in_batch(self, field):
        with pytest.raises(ValueError, match="r_start 9.0 outside"):
            return_map(field, np.array([0.5, 9.0, 1.0]))

    def test_two_dimensional_radii_refused(self, field):
        with pytest.raises(ValueError, match="r_start must be a number or a 1-D array of radii"):
            return_map(field, np.array([[0.5, 1.0], [1.5, 2.0]]))
        with pytest.raises(ValueError, match="r_start must be a number or a 1-D array of radii"):
            return_map([(field, 0.5), (field, np.array([[0.5]]))])

    def test_near_singularity_in_batch(self, bounded_params):
        # a radial push on the plus side carries r cos(theta) onto the
        # singular line x = 1.5 just after the section
        pert = PerturbationSpec(1, plus_f={(1, 0): 1.0}, plus_g={(0, 1): 1.0})
        fld = PolarField(bounded_params, pert, 0.01, r_range=(0.2, 1.45))
        assert return_map(fld, 0.5) > 0.5
        with pytest.raises(NearSingularityError):
            return_map(fld, np.array([0.5, 1.45]))

    def test_nan_row_does_not_hide_a_singular_row(self, bounded_params):
        # the guard judges each row alone: a NaN row beside the singular
        # line x = 1.5 does not mask it
        fld = PolarField(bounded_params, PerturbationSpec(1), 0.01, r_range=(0.2, 1.45))
        rhs = _leg_rhs([fld], np.zeros(2, dtype=int), True)(np.arange(2))
        with pytest.raises(NearSingularityError):
            rhs(np.ones(2), np.zeros(2), np.array([np.nan, 1.5]))  # theta = 0

    def test_blow_up_in_batch(self, bounded_params):
        # a radial push on the minus side carries the orbit past r0 = 1.5
        pert = PerturbationSpec(1, minus_f={(1, 0): 1.0}, minus_g={(0, 1): 1.0})
        rr = np.array([0.5, 1.45])
        with pytest.raises(BlowUpError, match="left the annulus"):
            return_map(PolarField(bounded_params, pert, 0.01, r_range=(0.2, 1.45)), rr)
        # stronger, the orbit runs onto the minus-side singular line x = -2
        # and the step size collapses
        with pytest.raises(BlowUpError, match="integration failed"):
            return_map(PolarField(bounded_params, pert, 0.1, r_range=(0.2, 1.45)), rr)


    def test_nan_right_hand_side_raises(self):
        # a NaN step is neither accepted nor rejected; it used to leave the
        # radius live forever
        def rhs_at(rows):
            return lambda cos, sin, r: np.full(r.shape, np.nan)

        with pytest.raises(BlowUpError, match="integration failed"):
            poincare._dop853(rhs_at, 0.0, 1.0, np.array([0.5, 1.0]))


class TestDisplacementProfile:
    """Scaled displacements (P(r) - r)/eps converge to f0 as eps -> 0."""

    def test_zero_perturbation(self, params):
        fld = PolarField(params, PerturbationSpec(1), 1e-3, r_range=(0.2, 3.0))
        rr = np.array([0.5, 1.0, 2.0])
        assert np.all(np.abs(return_map(fld, rr) - rr) / fld.epsilon < 1e-8)

    def test_first_order_convergence(self, params, rng):
        pert = PerturbationSpec.random(1, rng)
        fn = assemble(params, pert)
        grid = np.linspace(0.4, 2.0, 5)
        pred = eval_F(fn, grid) / grid
        errs = []
        for eps in (2e-3, 1e-3):
            fld = PolarField(params, pert, eps, r_range=(0.2, 3.0))
            scaled = (return_map(fld, grid) - grid) / eps
            errs.append(float(np.max(np.abs(scaled - pred))))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)

    def test_sign_agreement(self, params, rng):
        pert = PerturbationSpec.random(2, rng)
        fn = assemble(params, pert)
        eps = 1e-3
        fld = PolarField(params, pert, eps, r_range=(0.2, 3.5))
        grid = np.linspace(0.4, 3.0, 9)
        f0 = eval_F(fn, grid) / grid
        norm = float(np.max(np.abs(f0)))
        scaled = (return_map(fld, grid) - grid) / eps
        for r, d, p in zip(grid, scaled, f0):
            if abs(p) > 10 * eps * norm:
                assert np.sign(d) == np.sign(p), r


class TestMixedBatch:
    """Rows that carry their own (radius, eps, perturbation) in one call."""

    @staticmethod
    def _groups(params, rng):
        # degrees 1 and 3, so the shorter coefficient columns are padded
        perts = [PerturbationSpec.random(1, rng), PerturbationSpec.random(3, rng)]
        fields = [PolarField(params, p, eps, r_range=(0.2, 3.5)) for p in perts for eps in (4e-3, 2e-3, 1e-3)]
        groups = [(fld, np.linspace(0.3, 3.2, 4 + k)) for k, fld in enumerate(fields)]
        return groups + [(fields[4], np.array([0.7, 2.9]))]  # one field twice

    def test_rows_equal_their_solo_calls_bitwise(self, params, rng):
        groups = self._groups(params, rng)
        got = return_map(groups)
        assert [g.shape for g in got] == [rr.shape for _, rr in groups]
        for (fld, rr), images in zip(groups, got):
            assert images.tolist() == [return_map(fld, float(r)) for r in rr]

    def test_group_order_does_not_change_a_value(self, params, rng):
        groups = self._groups(params, rng)
        got = return_map(groups)
        order = rng.permutation(len(groups))
        permuted = return_map([groups[k] for k in order])
        assert [permuted[i].tolist() for i in np.argsort(order)] == [g.tolist() for g in got]

    def test_groups_must_share_params(self, params, resonant_params):
        pert = PerturbationSpec(1, plus_f={(0, 0): 1.0})
        groups = [(PolarField(p, pert, 1e-3, r_range=(0.2, 0.9)), [0.5]) for p in (params, resonant_params)]
        with pytest.raises(ValueError, match="share params"):
            return_map(groups)

    def test_row_outside_its_own_fields_range(self, params):
        pert = PerturbationSpec(1, plus_f={(0, 0): 1.0})
        wide = PolarField(params, pert, 1e-3, r_range=(0.2, 4.0))
        narrow = PolarField(params, pert, 2e-3, r_range=(0.2, 2.0))
        return_map([(wide, [3.0]), (narrow, [1.0])])
        with pytest.raises(ValueError) as exc:
            return_map([(wide, [3.0]), (narrow, [1.0, 3.0])])
        assert "r_start 3.0 outside the validated range (0.2, 2.0) of the field at epsilon 0.002" in str(exc.value)

    @staticmethod
    def _calm_and_pushed(bounded_params, **tables):
        calm = PolarField(bounded_params, PerturbationSpec(1), 0.01, r_range=(0.2, 1.45))
        pushed = PolarField(bounded_params, PerturbationSpec(1, **tables), 0.01, r_range=(0.2, 1.45))
        assert return_map([(calm, [0.5, 1.0]), (pushed, [0.5])])[1][0] != 0.5
        return [(calm, [0.5, 1.0]), (pushed, [1.45])]

    def test_near_singularity_in_one_group_fails_the_call(self, bounded_params):
        # the plus-side push of TestErrorPaths meets the singular line x = 1.5
        groups = self._calm_and_pushed(bounded_params, plus_f={(1, 0): 1.0}, plus_g={(0, 1): 1.0})
        with pytest.raises(NearSingularityError):
            return_map(groups)

    def test_blow_up_in_one_group_fails_the_call(self, bounded_params):
        # the minus-side push carries the orbit past r0 = 1.5
        groups = self._calm_and_pushed(bounded_params, minus_f={(1, 0): 1.0}, minus_g={(0, 1): 1.0})
        with pytest.raises(BlowUpError, match="left the annulus"):
            return_map(groups)


class TestCartesianCrosscheck:
    def test_unperturbed_circle(self, params):
        fld = PolarField(params, PerturbationSpec(1), 0.0, r_range=(0.2, 3.0))
        summary = cartesian_crosscheck(fld, (0.5, 0.0), n_crossings=1)
        assert summary.section_radii[0] == pytest.approx(0.5, abs=1e-10)
        assert summary.max_invariant_drift < 1e-10

    def test_matches_polar_map(self, params, rng):
        pert = PerturbationSpec.random(2, rng)
        fld = PolarField(params, pert, 1e-3, r_range=(0.2, 4.0))
        for r in (0.6, 1.7):
            polar = return_map(fld, r)
            cart = cartesian_crosscheck(fld, (r, 0.0), n_crossings=1).section_radii[0]
            assert abs(polar - cart) < 1e-8

    def test_multiple_crossings(self, params):
        fld = PolarField(params, PerturbationSpec(1), 0.0, r_range=(0.2, 3.0))
        summary = cartesian_crosscheck(fld, (1.0, 0.0), n_crossings=3)
        assert len(summary.section_radii) == 3
        assert np.allclose(summary.section_radii, 1.0, atol=1e-9)

    def test_section_preconditions(self, params):
        fld = PolarField(params, PerturbationSpec(1), 0.0, r_range=(0.2, 3.0))
        with pytest.raises(ValueError):
            cartesian_crosscheck(fld, (-0.5, 0.0))
        with pytest.raises(ValueError):
            cartesian_crosscheck(fld, (0.0, 0.5))

    @pytest.mark.parametrize("start", [(3.5, 0.0), (0.09, 0.0), (2.4, 2.4)])
    def test_start_radius_outside_the_validated_range(self, params, start):
        # the range is [lo / 2, hi] of the field's r_range (0.2, 3.0)
        fld = PolarField(params, PerturbationSpec(1), 0.0, r_range=(0.2, 3.0))
        with pytest.raises(ValueError, match="outside the validated range"):
            cartesian_crosscheck(fld, start)
