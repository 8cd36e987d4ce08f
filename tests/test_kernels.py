"""Kernel integrals: closed forms, recursions, and the quadrature oracle.

Expected values marked as frozen were computed with the adaptive
quadrature oracle (the independent path) and pasted as literals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from pwcycles import kernels
from pwcycles.kernels import (
    BACK_HALF_CIRCLE,
    HALF_CIRCLE,
    SEAM_BAND,
    DomainError,
    FamilyIndex,
    FamilyIndexError,
    OracleConvergenceError,
    SingularityError,
    SystemParams,
    a00,
    a00_prime,
    eval_family,
    oracle_family,
    quad_oracle,
    trig_rational,
    wallis_half,
    wallis_half_exact,
)


A00, B00 = FamilyIndex("A", 0, 0), FamilyIndex("B", 0, 0)


class TestSystemParams:
    def test_radii_cases(self):
        # negative a bounds the annulus on the plus side, positive b on the minus side
        assert SystemParams(-1.5, -2.0).r0 == 1.5
        assert SystemParams(1.0, 2.0).r0 == 2.0
        assert SystemParams(-1.5, 2.0).r0 == 1.5
        assert SystemParams(1.0, -2.0).r0 == math.inf
        assert SystemParams(1.0, 0.5).r0 == 0.5

    def test_nonzero_constants_required(self):
        with pytest.raises(ValueError, match="^both system constants must be nonzero$"):
            SystemParams(0.0, 1.0)
        with pytest.raises(ValueError, match="^both system constants must be nonzero$"):
            SystemParams(1.0, 0.0)

    @pytest.mark.parametrize("a,b,name", [(math.nan, -2.0, "a"), (1.0, math.inf, "b"), (-math.inf, math.nan, "a")])
    def test_finite_constants_required(self, a, b, name):
        # a NaN constant used to build with r0 = inf, and a placement on it
        # then failed inside numpy's SVD
        with pytest.raises(ValueError, match=f"^system constant {name} must be finite, got "):
            SystemParams(a, b)

    def test_resonance_is_exact(self):
        assert SystemParams(1.0, -1.0).resonant
        assert not SystemParams(1.0, -1.0 + 1e-15).resonant


class TestWallis:
    def test_half_circle_values(self):
        assert wallis_half(0) == pytest.approx(math.pi, rel=1e-15)
        assert wallis_half(1) == 2.0
        # frozen quadrature value of cos^3 over the half circle: 4/3
        assert wallis_half(3) == pytest.approx(1.3333333333333333, rel=1e-12)
        # the parity rule (m(k)/pi held for even k, m(k) for odd k) against
        # the independent quadrature of cos^k
        for k in range(21):
            want = quad_oracle(trig_rational(k, 0, 0.0, 1.0), HALF_CIRCLE)
            assert wallis_half(k) == pytest.approx(want, rel=1e-13)

    def test_recurrence_exact_mode(self):
        for k in range(2, 20):
            assert k * wallis_half_exact(k) == (k - 1) * wallis_half_exact(k - 2)

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            wallis_half_exact(-1)

    def test_recurrence_float_mode(self):
        for k in range(2, 20):
            assert k * wallis_half(k) == pytest.approx((k - 1) * wallis_half(k - 2), rel=1e-14)


class TestA00:
    def test_anchor_value(self):
        # removable 0/0 point of the closed form; exact value 4/(3a^2)
        for a in (1.0, 2.0, 0.3):
            p = SystemParams(a, 1.0)
            assert eval_family(A00, a, p) == pytest.approx(4 / (3 * a * a), rel=1e-12)

    def test_origin_value(self):
        for a in (1.0, -2.0, 0.7):
            p = SystemParams(a, 1.0)
            assert eval_family(A00, 0.0, p) == pytest.approx(math.pi / a**2, rel=1e-14)

    def test_frozen_oracle_value(self):
        p = SystemParams(2.0, 1.0)
        assert eval_family(A00, 1.0, p) == pytest.approx(0.4727997174374301, rel=1e-10)

    def test_domain_errors(self):
        p = SystemParams(1.0, 1.0)
        with pytest.raises(SingularityError):
            eval_family(A00, -1.0, p)
        with pytest.raises(DomainError):
            eval_family(A00, -1.5, p)
        pn = SystemParams(-1.0, 1.0)  # domain is (-inf, 1)
        with pytest.raises(SingularityError):
            eval_family(A00, 1.0, pn)
        with pytest.raises(DomainError):
            eval_family(A00, 1.5, pn)

    def test_ode_residual_first_order(self):
        # a (a^2 - r^2) A' = 3 a r A - 4, residual below 1e-8 off the seams.
        # The grid keeps 0.2|a| clear of the blow-up end: A''' grows like
        # d^(-9/2) there and the fixed 1e-6 step cannot hold the tolerance
        # closer in.  The removable seam at +|a| needs only the 1e-3 gap.
        for a in (1.0, 2.0, -1.5):
            p = SystemParams(a, 1.0)
            if a > 0:
                grid = np.linspace(-0.8 * a, 4.0 * a, 200)
            else:
                grid = np.linspace(4.0 * a, 0.8 * abs(a), 200)
            grid = grid[np.abs(np.abs(grid) - abs(a)) > 1e-3]
            for r in grid:
                h = 1e-6 * max(1.0, abs(r))
                d = (eval_family(A00, r + h, p) - eval_family(A00, r - h, p)) / (2 * h)
                res = a * (a * a - r * r) * d - 3 * a * r * eval_family(A00, r, p) + 4
                assert abs(res) < 1e-8, (a, r, res)

    def test_ode_residual_second_order(self):
        # (a^2 - r^2) A'' - 5 r A' - 3 A = 0.  Five-point stencils with a
        # 1e-3 step keep both truncation and roundoff inside the 1e-6
        # budget; the grid starts half a radius clear of the blow-up,
        # where the sixth derivative is already ~1e6.
        a = 1.0
        p = SystemParams(a, 1.0)
        grid = np.linspace(-0.5, 3.0, 120)
        grid = grid[np.abs(np.abs(grid) - a) > 1e-3]
        for r in grid:
            h = 1e-3 * max(1.0, abs(r))
            f = [eval_family(A00, r + k * h, p) for k in (-2, -1, 0, 1, 2)]
            d1 = (8 * (f[3] - f[1]) - (f[4] - f[0])) / (12 * h)
            d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
            res = (a * a - r * r) * d2 - 5 * r * d1 - 3 * f[2]
            assert abs(res) < 1e-6, (r, res)

    def test_blowup_asymptotics(self):
        # A00(r) * (r+a)^(3/2) -> pi / sqrt(2 a) as r -> -a from the right
        for a in (1.0, 2.0):
            p = SystemParams(a, 1.0)
            limit = math.pi / math.sqrt(2 * a)
            errs = []
            for k in range(2, 6):
                r = -a + 10.0 ** (-k)
                ratio = eval_family(A00, r, p) * (r + a) ** 1.5
                err = abs(ratio - limit) / limit
                assert err <= 0.5 * 10.0 ** (-k / 2), (a, k, err)
                errs.append(err)
            assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_far_field_asymptotics(self):
        # r * A00(r) -> 2/a as r -> +inf
        for a in (1.0, 2.0):
            p = SystemParams(a, 1.0)
            for k in (2, 3, 4):
                r = 10.0**k
                assert r * eval_family(A00, r, p) == pytest.approx(2 / a, rel=5e-2 / 10 ** (k - 2))


class TestB00:
    def test_origin_value(self):
        for b in (1.0, -2.0, 0.5):
            p = SystemParams(1.0, b)
            assert eval_family(B00, 0.0, p) == pytest.approx(math.pi / b**2, rel=1e-14)

    def test_half_turn_identity_frozen(self):
        # B00(0.5; b=1) computed by quadrature on the back half circle
        p = SystemParams(1.0, 1.0)
        assert eval_family(B00, 0.5, p) == pytest.approx(7.782397739499441, rel=1e-10)
        assert eval_family(B00, 0.5, p) == pytest.approx(eval_family(A00, -0.5, p), rel=1e-14)

    def test_frozen_oracle_value(self):
        p = SystemParams(1.0, 3.0)
        assert eval_family(B00, -1.0, p) == pytest.approx(0.24307407342933038, rel=1e-10)

    def test_symmetry_property(self, rng):
        # B00(r; b) = A00(-r; b) wherever both sides are defined
        for _ in range(40):
            b = float(rng.uniform(0.3, 3.0) * rng.choice([-1, 1]))
            p = SystemParams(1.0, b)
            r = float(rng.uniform(-3 * abs(b), 0.9 * b)) if b > 0 else float(
                rng.uniform(0.9 * b, 3 * abs(b))
            )
            pa = SystemParams(b, 1.0)
            assert eval_family(B00, r, p) == pytest.approx(eval_family(A00, -r, pa), rel=1e-10)

    def test_domain_errors(self):
        p = SystemParams(1.0, 2.0)  # domain r < 2
        with pytest.raises(SingularityError):
            eval_family(B00, 2.0, p)
        with pytest.raises(DomainError):
            eval_family(B00, 2.5, p)


class TestKernelSlopes:
    """A[0,0]' and B[0,0]' against the quadrature of the differentiated
    integrand, -2 cos t / (r cos t + c)^3 over the half circle."""

    # Relative distances from the seam: inside the series band, and
    # outside it, where the ODE's closed form divides by r^2 - a^2.
    INSIDE = (-0.5 * SEAM_BAND, 0.5 * SEAM_BAND)
    OUTSIDE = (-2 * SEAM_BAND, 2 * SEAM_BAND)

    @staticmethod
    def _oracle(r, c, interval):
        return quad_oracle(lambda t: -2.0 * math.cos(t) / (r * math.cos(t) + c) ** 3, interval)

    @staticmethod
    def _slope(r, c):
        x = np.array([r])
        return float(a00_prime(x, c, a00(x, c))[0])

    def _check(self, slope, seam, c, interval):
        # The closed forms of A cancel toward the seam and the ODE divides
        # that error by r^2 - a^2, but A' is evaluated in long double, where
        # it keeps about 4e-17 relative at twice the band width: inside the
        # band, just outside it and away from the seam, a double result is
        # good to a few ulps.
        for r in [seam * (1 + d) for d in self.INSIDE + self.OUTSIDE] + [0.5 * seam, -0.4 * seam, 2.5 * seam]:
            assert slope(r) == pytest.approx(self._oracle(r, c, interval), rel=1e-13), (c, r)

    @pytest.mark.parametrize("a", [1.0, -1.5, 0.7])
    def test_a_slope(self, a):
        # the seam of A[0,0](r; a) is r = a, for either sign of a
        self._check(lambda r: self._slope(r, a), a, a, HALF_CIRCLE)

    @pytest.mark.parametrize("b", [-2.0, 2.0])
    def test_b_slope_by_the_half_turn(self, b):
        # B[0,0](r) = A[0,0](-r; b), so B' (r) = -A'(-r; b), seam at r = -b
        self._check(lambda r: -self._slope(-r, b), -b, b, BACK_HALF_CIRCLE)

    def test_dtype_and_domain(self):
        r = np.linspace(-3.0, 3.0, 61).astype(np.longdouble)  # the seam r = 1 included
        got = a00_prime(r, 1.0, a00(r, 1.0))
        assert got.dtype == np.longdouble
        assert np.array_equal(np.isnan(got), r <= -1.0)  # the domain is r > -a
        # every input evaluates in long double: float64 and float32 points
        # give the values and slopes of the same points cast to long double,
        # bit for bit, and a scalar gives the float of the long-double value
        for a in (1.0, -1.5, 0.7):
            for dtype in (np.float64, np.float32):
                x = np.linspace(-3.0, 3.0, 61).astype(dtype)
                wide = x.astype(np.longdouble)
                value, want = a00(x, a), a00(wide, a)
                assert value.dtype == np.longdouble and np.array_equal(value, want, equal_nan=True)
                slope = a00_prime(x, a, value)
                assert slope.dtype == np.longdouble
                assert np.array_equal(slope, a00_prime(wide, a, want), equal_nan=True)
            for r in (0.5 * a, a, 2.5 * a, -0.4 * a):  # inner, seam, outer, negative side
                got = a00(r, a)
                assert type(got) is float and got == float(a00(np.longdouble(r), a))
                assert a00(np.float64(r), a) == got

    @pytest.mark.parametrize(
        "r,a", [(1.0005, 1.0), (0.63, 0.7), (1.0011, 1.0), (0.7007, 0.7), (1.0015, 1.0), (0.9985, 1.0)]
    )
    def test_long_double_against_mpmath(self, r, a):
        # on the seam, and off it at a constant that is not dyadic, long-double
        # A[0,0] and A[0,0]' hold long-double accuracy against 40-digit
        # quadrature (5.5e-17 and 1.2e-16 for the value with a in double),
        # also within 1.5e-3 of the seam, where the closed forms cancel
        import mpmath

        x = np.array([r], dtype=np.longdouble)
        got = a00(x, a)
        with mpmath.workdps(40):
            R, A = mpmath.mpf(r), mpmath.mpf(a)
            half = [-mpmath.pi / 2, 0, mpmath.pi / 2]
            value = mpmath.quad(lambda t: 1 / (R * mpmath.cos(t) + A) ** 2, half)
            slope = mpmath.quad(lambda t: -2 * mpmath.cos(t) / (R * mpmath.cos(t) + A) ** 3, half)
            assert abs(mpmath.mpf(str(got[0])) / value - 1) < 1e-18
            assert abs(mpmath.mpf(str(a00_prime(x, a, got)[0])) / slope - 1) < 1e-17


def _seeds(r, p):
    """I[0,0](r) and J[0,0](r)."""
    return tuple(eval_family(FamilyIndex(fam, 0, 0), r, p) for fam in "IJ")


class TestSeeds:
    def test_origin_values(self):
        p = SystemParams(1.5, -0.7)
        i00, j00 = _seeds(0.0, p)
        assert i00 == pytest.approx(math.pi / 1.5, rel=1e-14)
        assert j00 == pytest.approx(math.pi / -0.7, rel=1e-14)

    def test_frozen_oracle_values(self):
        p = SystemParams(1.0, 2.0)
        i00, j00 = _seeds(0.3, p)
        assert i00 == pytest.approx(2.6544745637853566, rel=1e-10)
        assert j00 == pytest.approx(1.7410629920716156, rel=1e-10)

    def test_negative_parameter(self):
        p = SystemParams(-2.0, 1.0)  # r0 = min(2, 1) = 1, r=0.5 valid
        assert eval_family(FamilyIndex("I", 0, 0), 0.5, p) == pytest.approx(-1.883278515744301, rel=1e-10)


class TestFamilies:
    def test_odd_sine_power_annihilates(self, params):
        for fam in "ABIJ":
            assert eval_family(FamilyIndex(fam, 3, 1), 0.4, params) == 0.0
            assert eval_family(FamilyIndex(fam, 0, 5), 1.3, params) == 0.0

    def test_ladder_matches_seed_combination(self, params):
        # r A[1,0] = I[0,0] - a A[0,0]
        r = 0.4
        i00 = eval_family(FamilyIndex("I", 0, 0), r, params)
        a00v = eval_family(A00, r, params)
        expected = (i00 - params.a * a00v) / r
        got = eval_family(FamilyIndex("A", 1, 0), r, params)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.1763070358180387, rel=1e-10)  # frozen oracle

    def test_frozen_back_half_value(self):
        p = SystemParams(1.0, 1.5)
        got = eval_family(FamilyIndex("B", 2, 2), 0.3, p)
        assert got == pytest.approx(0.23512381127143112, rel=1e-9)

    def test_randomized_oracle_consistency(self, rng):
        # all families, 0 <= i+j <= 8, random radii in the analyticity domain
        checked = 0
        while checked < 50:
            fam = str(rng.choice(["A", "B", "I", "J"]))
            i = int(rng.integers(0, 9))
            j = int(rng.integers(0, 9 - i))
            a = float(rng.uniform(0.4, 2.5) * rng.choice([-1, 1]))
            b = float(rng.uniform(0.4, 2.5) * rng.choice([-1, 1]))
            p = SystemParams(a, b)
            c = a if fam in ("A", "I") else b
            if fam in ("A", "I"):
                lo, hi = (-0.9 * c, 3 * c) if c > 0 else (3 * c, 0.9 * c)
            else:
                lo, hi = (-3 * c, 0.9 * c) if c > 0 else (0.9 * c, -3 * c)
            r = float(rng.uniform(lo, hi))
            idx = FamilyIndex(fam, i, j)
            got = eval_family(idx, r, p)
            want = oracle_family(idx, r, p)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (fam, i, j, r, a, b)
            checked += 1

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (-1.0, -2.0)])
    def test_back_half_families_are_the_half_turn_of_the_front(self, a, b):
        # B[i,j](r; b) = (-1)^i A[i,j](-r; b) and J from I, bit for bit; past
        # and at r = b both raise B[0,0]'s error, for odd j too
        p, front = SystemParams(a, b), SystemParams(b, a)
        for r in (t * b for t in (-2.0, -0.3, 0.0, 0.3, 0.49, 0.7, 0.999)):
            for back, fwd in (("B", "A"), ("J", "I")):
                for i in range(9):
                    for j in range(9 - i):
                        got = eval_family(FamilyIndex(back, i, j), r, p)
                        assert got == (-1) ** i * eval_family(FamilyIndex(fwd, i, j), -r, front)
        for r in (b, 1.5 * b):
            with pytest.raises((DomainError, SingularityError)) as want:
                eval_family(B00, r, p)
            for fam in "BJ":
                for i, j in ((2, 2), (1, 3)):
                    with pytest.raises(want.type) as got:
                        eval_family(FamilyIndex(fam, i, j), r, p)
                    assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("c", [1.0, -1.5, 0.7])
    def test_reduction_outside_the_series_radius(self, c, monkeypatch):
        # past |r| = _SERIES_RADIUS |c| every A and I value reads the exact
        # unit half of the reduction; at and inside it, none does
        radius = kernels._SERIES_RADIUS
        p = SystemParams(c, c)
        reads = []
        original = kernels._unit_half

        def spy(*args):
            reads.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "_unit_half", spy)
        for t in (0.25, radius, -radius):
            for fam in "AI":
                eval_family(FamilyIndex(fam, 2, 2), t * c, p)
        assert reads == []
        for t in (-radius - 0.05, radius + 0.01, 1.3):
            for fam in "AI":
                reads.clear()
                eval_family(FamilyIndex(fam, 2, 2), t * c, p)
                assert (Fraction(c), False, 2, 2) in reads

    @pytest.mark.parametrize("c", [1.0, -1.5, 0.7])
    def test_both_sides_of_the_series_radius(self, c):
        # the series just inside |r| = _SERIES_RADIUS |c| and the reduction
        # just outside agree with quadrature, for every family and i + j <= 8
        p = SystemParams(c, -c)
        for t in (kernels._SERIES_RADIUS, kernels._SERIES_RADIUS + 1e-9):
            for fam in "ABIJ":
                x = t * c if fam in "AI" else -t * c
                for i in range(9):
                    for j in range(0, 9 - i, 2):
                        idx = FamilyIndex(fam, i, j)
                        got, want = eval_family(idx, x, p), oracle_family(idx, x, p)
                        assert abs(got - want) <= 1e-9 * (1 + abs(want)), (fam, i, j, x)

    def test_accuracy_at_the_order_cap(self):
        # every family entry of order MAX_FAMILY_ORDER at |c| = 0.3, just
        # past the series radius, where the reduction loses the most, and
        # at the points just past 0.5|c| where a radius of 0.5 lost the
        # most, meets the 1e-9 of verify; one order more is refused
        p = SystemParams(0.3, -0.3)
        n = kernels.MAX_FAMILY_ORDER
        for fam in "ABIJ":
            for r in (0.3 * t for t in (-0.50156, -0.500074, 0.5000001, -0.7500001, 0.7500001)):
                for i in range(n % 2, n + 1, 2):
                    idx = FamilyIndex(fam, i, n - i)
                    got, want = eval_family(idx, r, p), oracle_family(idx, r, p)
                    assert abs(got - want) < 1e-9 * (1 + abs(want)), (fam, i, r)
        with pytest.raises(FamilyIndexError):
            FamilyIndex("A", n + 1, 0)

    @pytest.mark.parametrize("c", [0.1, -0.1, 0.05, -0.05])
    def test_small_constants_meet_verify_at_the_order_cap(self, c):
        # at |c| = 0.1 and 0.05 the reduction over r^20 loses more than at
        # larger constants (2.2e-9 and 3.6e-9 against quadrature at r/c =
        # 0.5000001 with the series radius at 0.5); with the series out to
        # 0.75|c| every entry of order MAX_FAMILY_ORDER, inside the radius
        # and just past it, meets verify's 1e-9
        p = SystemParams(c, -c)
        n = kernels.MAX_FAMILY_ORDER
        for fam in "ABIJ":
            for t in (0.5000001, -0.5000001, 0.6, -0.6, 0.7500001, -0.7500001):
                r = t * c if fam in "AI" else -t * c
                for i in range(n % 2, n + 1, 2):
                    idx = FamilyIndex(fam, i, n - i)
                    got, want = eval_family(idx, r, p), oracle_family(idx, r, p)
                    assert abs(got - want) < 1e-9 * (1 + abs(want)), (fam, i, t)

    def test_r_zero_uses_direct_values(self, params):
        # even orders at r = 0 come straight from the moments
        got = eval_family(FamilyIndex("A", 4, 2), 0.0, params)
        want = (wallis_half(4) - wallis_half(6)) / params.a**2
        assert got == pytest.approx(want, rel=1e-14)

    def test_index_validation(self):
        with pytest.raises(FamilyIndexError):
            FamilyIndex("Q", 0, 0)
        with pytest.raises(FamilyIndexError):
            FamilyIndex("A", -1, 0)
        with pytest.raises(FamilyIndexError):
            FamilyIndex("A", 30, 30)


class TestQuadOracle:
    def test_constant_integrand(self):
        assert quad_oracle(lambda t: 1.0, HALF_CIRCLE) == pytest.approx(math.pi, rel=1e-13)

    def test_odd_integrand_vanishes(self):
        f = trig_rational(0, 1, 0.4, 1.2, 2)
        assert abs(quad_oracle(f, HALF_CIRCLE)) < 1e-12

    def test_matches_family_path(self, params):
        f = trig_rational(1, 0, 0.5, 1.0, 2)
        got = quad_oracle(f, HALF_CIRCLE)
        assert got == pytest.approx(1.0544005651251398, rel=1e-12)  # frozen
        assert got == pytest.approx(
            eval_family(FamilyIndex("A", 1, 0), 0.5, params), rel=1e-10
        )

    def test_near_singular_parameters_raise(self):
        # denominator root inside the interval: QUADPACK cannot converge
        f = trig_rational(0, 0, 1.0, -0.5, 2)
        with pytest.raises(OracleConvergenceError):
            quad_oracle(f, HALF_CIRCLE)

