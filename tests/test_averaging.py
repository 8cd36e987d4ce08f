"""Averaged-function assembly against the direct-quadrature route."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from pwcycles import averaging, kernels, smooth
from pwcycles.averaging import (
    AveragedFunction,
    BasisExpansion,
    PerturbationSpec,
    _exact_parts,
    _random_rows,
    _triangle,
    _unit_parts,
    assemble,
    assembly_matrix,
    basis_values,
    eval_F,
    null_perturbation,
    oracle_F,
    perturbation_for_expansion,
)
from pwcycles.exact import as_fraction, pi_parity_float
from pwcycles.kernels import AssemblyError, DomainError, SystemParams, a00
from pwcycles.smooth import oracle_smooth_F, random_search_max_smooth_zeros
from pwcycles.zeros import _survey, place_zeros, random_search_max_zeros, reachable_zero_capacity

LONG = np.longdouble


class TestPerturbationSpec:
    def test_triangle_enforced(self):
        with pytest.raises(ValueError):
            PerturbationSpec(1, plus_f={(1, 1): 2.0})
        with pytest.raises(ValueError):
            PerturbationSpec(0)

    def test_outside_triangle_message(self):
        # the first offending entry in row-major order is named, for
        # arrays as for dicts; NaN counts as nonzero, zeros of either sign
        # anywhere are accepted and stored as +0.0
        bad = np.zeros((3, 3))
        bad[1, 2], bad[2, 2], bad[2, 1] = 1.0, 2.0, 3.0
        with pytest.raises(ValueError, match=r"^minus_f: index \(1,2\) outside triangle of degree 2$"):
            PerturbationSpec(2, minus_f=bad)
        with pytest.raises(ValueError, match=r"^plus_g: index \(0,3\) outside triangle of degree 2$"):
            PerturbationSpec(2, plus_g={(0, 3): 1.0})
        nan = np.zeros((3, 3))
        nan[2, 2] = np.nan
        with pytest.raises(ValueError, match=r"^plus_f: index \(2,2\) outside triangle of degree 2$"):
            PerturbationSpec(2, plus_f=nan)
        with pytest.raises(ValueError, match=r"^plus_f: index \(2,2\) outside triangle of degree 2$"):
            PerturbationSpec(2, plus_f={(2, 2): np.nan})
        edge = np.array([[-0.0, 1.0, np.nan], [2.0, -3.0, -0.0], [4.0, 0.0, -0.0]])
        got = PerturbationSpec(2, plus_f=edge).plus_f
        assert got.tobytes() == np.array([[0.0, 1.0, np.nan], [2.0, -3.0, 0.0], [4.0, 0.0, 0.0]]).tobytes()

    def test_dense_round_trip(self):
        p = PerturbationSpec(2, plus_f={(0, 2): 3.0}, minus_g={(1, 0): -1.0})
        assert p.plus_f[0, 2] == 3.0
        assert p.minus_g[1, 0] == -1.0
        assert p.plus_g.sum() == 0.0

    def test_table_shape_checked(self):
        with pytest.raises(ValueError, match=r"^minus_g: expected shape \(3, 3\), got \(2, 2\)$"):
            PerturbationSpec(2, minus_g=np.zeros((2, 2)))

    def test_scaled_add_needs_equal_degrees(self, rng):
        with pytest.raises(ValueError, match="degrees differ"):
            PerturbationSpec.random(2, rng).scaled_add(1.0, PerturbationSpec.random(3, rng), 1.0)


def _random_table(degree, rng, scale):
    """The per-table draw that `_random_rows` replaced, kept as the
    reference: uniform entries on the triangle, zeros above it."""
    t = rng.uniform(-scale, scale, size=(degree + 1, degree + 1))
    return np.where(_triangle(degree), t, 0.0)


def _smooth_tables(degree, rng, count):
    """`count` smooth (f, g) table pairs, f then g drawn per table."""
    return [(_random_table(degree, rng, 1.0), _random_table(degree, rng, 1.0)) for _ in range(count)]


class TestRandomRows:
    # the one-call rows are the numbers of the per-table draws, bit for
    # bit, and leave the generator in the same state; the smooth survey's
    # rows are the per-table f, g draws repeated on both half-planes
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_rows_equal_per_table_draws_bitwise(self, n, monkeypatch):
        old, new = np.random.default_rng(3), np.random.default_rng(3)
        want = [PerturbationSpec(n, *[_random_table(n, old, 1.0) for _ in range(4)]).vector()
                for _ in range(40)]
        assert _random_rows(n, new, 40, 4).tobytes() == np.array(want).tobytes()
        want = PerturbationSpec(n, *[_random_table(n, old, 1.0) for _ in range(4)])
        got = PerturbationSpec.random(n, new)
        assert all(getattr(got, t).tobytes() == getattr(want, t).tobytes() for t in TABLES)
        assert old.random() == new.random()
        surveyed = []
        monkeypatch.setattr(smooth, "_survey", lambda params, n, r_max, grid, rows: surveyed.append(rows) or (0, {}))
        random_search_max_smooth_zeros(1.0, n, 40, 3, 0.95)
        tables = _smooth_tables(n, np.random.default_rng(3), 40)
        want = [PerturbationSpec(n, f, g, f, g).vector() for f, g in tables]
        assert surveyed[0].tobytes() == np.array(want).tobytes()
        got = PerturbationSpec.from_vector(n, surveyed[0][0])
        assert all(getattr(got, t).tobytes() == tables[0][k % 2].tobytes() for k, t in enumerate(TABLES))

    def test_surveys_draw_the_reference_rows(self):
        params = SystemParams(1.0, -2.0)
        rng = np.random.default_rng(5)
        rows = [PerturbationSpec(2, *[_random_table(2, rng, 1.0) for _ in range(4)]).vector()
                for _ in range(30)]
        assert random_search_max_zeros(params, 2, 30, 5, 4.0) == _survey(params, 2, 4.0, 600, np.array(rows))
        rows = [PerturbationSpec(3, f, g, f, g).vector() for f, g in _smooth_tables(3, np.random.default_rng(6), 30)]
        want = _survey(SystemParams(1.0, 1.0), 3, 0.95, 1500, np.array(rows))
        assert random_search_max_smooth_zeros(1.0, 3, 30, 6, 0.95) == want


def _st_reference(pert):
    """The dense sigma/tau sums and their binomial compression, kept as the
    reference: (S, T) over every table entry, zeros included."""
    n = pert.degree

    def sigma_tau(ft, gt):
        out = {}
        for i in range(n + 2):
            for j in range(n + 2 - i):
                if i + j < 1:
                    continue
                v = Fraction(0)
                if i >= 1 and (i - 1) + j <= n:
                    v += as_fraction(float(ft[i - 1, j]))
                if j >= 1 and i + (j - 1) <= n:
                    v += as_fraction(float(gt[i, j - 1]))
                out[(i, j)] = v
        return out

    def st_coeffs(src):
        out = {}
        for i in range(n + 2):
            for j in range((n + 1 - i) // 2 + 1):
                acc = Fraction(0)
                for k in range(i // 2 + 1):
                    acc += (-1) ** k * math.comb(j + k, k) * src.get((i - 2 * k, 2 * j + 2 * k), Fraction(0))
                out[(i, j)] = acc
        return out

    return (
        st_coeffs(sigma_tau(pert.plus_f, pert.plus_g)),
        st_coeffs(sigma_tau(pert.minus_f, pert.minus_g)),
    )


def _reference_parts(params, pert, tables=None):
    """`_reduce_half` of whole S and T tables, the dense reference ones or
    the given ones: the exact parts (coef_A, poly_plus, coef_B,
    poly_minus) that `_exact_parts` must give."""
    S, T = _st_reference(pert) if tables is None else tables
    n = pert.degree
    return (
        *kernels._reduce_half(S, as_fraction(params.a), n, False),
        *kernels._reduce_half(T, as_fraction(params.b), n, True),
    )


def _reference_vector(parts):
    """The expansion vector of exact parts: the kernel coefficients, then
    the two halves' monomials merged, each rounded by index parity."""
    coef_A, poly_plus, coef_B, poly_minus = parts
    merged = [pi_parity_float(p + q, k) for k, (p, q) in enumerate(zip(poly_plus, poly_minus))]
    return np.array([float(x) for x in (*coef_A, *coef_B)] + merged)


def _assert_reduces_to(params, pert, tables=None):
    """`assemble` gives the reference reduction, exactly and bit for bit."""
    want = _reference_parts(params, pert, tables)
    assert repr(_exact_parts(params, pert)) == repr(want)
    assert assemble(params, pert).expansion.vector().tobytes() == _reference_vector(want).tobytes()


# the systems of the bitwise tests: unbounded, resonant, bounded (r0 = 1.5),
# smooth, and a small bounded annulus (r0 = 0.3)
SYSTEMS = [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (1.0, 1.0), (0.7, -0.3)]


class TestSigmaTau:
    """How table entries feed the sigma/tau sums that `assemble` reduces."""

    def test_zero_input(self, params):
        # explicit zero coefficients are skipped, not accumulated
        pert = PerturbationSpec(2, plus_f={(0, 0): 0.0}, minus_g={(1, 0): 0.0})
        _assert_reduces_to(params, pert, ({}, {}))
        assert not assemble(params, pert).expansion.vector().any()

    def test_single_f_constant(self, params):
        # plus_f[0,0] feeds sigma[1,0] through the cosine factor only
        _assert_reduces_to(params, PerturbationSpec(1, plus_f={(0, 0): 1.0}), ({(1, 0): Fraction(1)}, {}))


class TestSTCoeffs:
    """The binomial lowering of sigma[p, 2l] onto S inside `_unit_half`."""

    def test_single_entry_passthrough(self, params):
        # x^2 in f feeds sigma[3,0]; with no sine power it lands on S[3,0] unchanged
        _assert_reduces_to(params, PerturbationSpec(2, plus_f={(2, 0): 1.5}), ({(3, 0): Fraction(3, 2)}, {}))

    def test_zero_maps_to_zero(self, params):
        _assert_reduces_to(params, PerturbationSpec(3), ({}, {}))


class TestSTTables:
    def test_binomial_cancellation(self, params):
        # x in f and y in g give sigma[2,0] = sigma[0,2] = 1, which cancel in S[2,0]
        pert = PerturbationSpec(2, plus_f={(1, 0): 1.0}, plus_g={(0, 1): 1.0})
        _assert_reduces_to(params, pert, ({(0, 1): Fraction(1)}, {}))

    def test_f_and_g_combine_in_one_T_slot(self, params):
        # y^2 in f and xy in g both feed tau[1,2] = 5, lowered to T[1,1] and T[3,0]
        pert = PerturbationSpec(2, minus_f={(0, 2): 2.0}, minus_g={(1, 1): 3.0})
        _assert_reduces_to(params, pert, ({}, {(1, 1): Fraction(5), (3, 0): Fraction(-5)}))

    def test_odd_sine_power_drops_out(self, params):
        # y in f and x in g feed tau[1,1], an odd sine power
        pert = PerturbationSpec(1, minus_f={(0, 1): 2.0}, minus_g={(1, 0): 3.0})
        _assert_reduces_to(params, pert, ({}, {}))
        assert not assemble(params, pert).expansion.vector().any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_dense_reference_exactly(self, n, rng):
        # assemble combines the cached unit reductions; the reduction of the
        # dense reference tables gives the same exact parts and floats, on
        # random, 20 %-sparse and unit perturbations of every system
        m = 2 * (n + 1) * (n + 2)
        perts = [PerturbationSpec.random(n, rng) for _ in range(3)]
        perts += [PerturbationSpec.from_vector(n, np.where(rng.random(m) < 0.2, rng.uniform(-1, 1, m), 0.0))
                  for _ in range(3)]
        perts += [PerturbationSpec.from_vector(n, e) for e in np.eye(m)]
        for pert in perts:
            tables = _st_reference(pert)
            for ab in SYSTEMS:
                _assert_reduces_to(SystemParams(*ab), pert, tables)


class TestAssemble:
    @pytest.mark.parametrize("entry", [{"minus_f": {(0, 1): np.nan}}, {"plus_g": {(0, 0): np.inf}}])
    def test_non_finite_coefficient_refused(self, params, entry):
        # every nonzero coefficient converts exactly, so a non-finite one is
        # refused wherever it sits: y in minus_f feeds tau[1, 1], an odd sine
        # power whose column is zero, and g = 1 feeds sigma[0, 1], odd as well
        with pytest.raises(ValueError, match="cannot represent"):
            assemble(params, PerturbationSpec(1, **entry))

    def test_zero_perturbation(self, params):
        fn = assemble(params, PerturbationSpec(2))
        assert not fn.expansion.vector().any()
        assert eval_F(fn, 1.3) == 0.0

    def test_against_oracle_frozen(self):
        # n=1, a=1, b=-1, only f_plus = 1; frozen quadrature values of F
        p = SystemParams(1.0, -1.0)
        fn = assemble(p, PerturbationSpec(1, plus_f={(0, 0): 1.0}))
        for r, want in [
            (0.1, 0.1721608553055601),
            (0.5, 0.5272002825625699),
            (0.9, 0.6512795695719131),
        ]:
            assert eval_F(fn, r) == pytest.approx(want, rel=1e-9)

    def test_value_at_zero_vanishes(self, params, rng):
        for n in (1, 2, 3):
            fn = assemble(params, PerturbationSpec.random(n, rng))
            assert eval_F(fn, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_constant_tie_exact(self, params, rng):
        # a0 = -(a^2/pi) b0 and c0 = -(b^2/pi) d0, exactly, pre-merge; the
        # constant monomials b0, d0 are held as their multiples of pi
        fa, fb = Fraction(1), Fraction(-2)
        for n in (1, 2, 3, 4):
            coef_A, poly_plus, coef_B, poly_minus = _exact_parts(params, PerturbationSpec.random(n, rng))
            assert coef_A[0] == -(fa * fa) * poly_plus[0]
            assert coef_B[0] == -(fb * fb) * poly_minus[0]

    def test_structural_parity_exact(self, params, rng):
        # the monomial coefficient at index 2*floor((n+1)/2) vanishes exactly
        for n in (1, 2, 3, 4, 5):
            h = (n + 1) // 2
            _, poly_plus, _, poly_minus = _exact_parts(params, PerturbationSpec.random(n, rng))
            assert poly_plus[2 * h] == 0
            assert poly_minus[2 * h] == 0

    def test_even_degree_top_tie_exact(self, params, rng):
        # for even n the top monomial is rationally tied to the top kernel
        # coefficient on each half: b_top = -(2/a) a_top, d_top = (2/b) c_top
        # (an odd index, so both sides are rational)
        fa, fb = Fraction(1), Fraction(-2)
        for n in (2, 4):
            h = (n + 1) // 2
            coef_A, poly_plus, coef_B, poly_minus = _exact_parts(params, PerturbationSpec.random(n, rng))
            assert poly_plus[2 * h + 1] == -(Fraction(2) / fa) * coef_A[h + 1]
            assert poly_minus[2 * h + 1] == (Fraction(2) / fb) * coef_B[h + 1]

    def test_linearity(self, params, rng):
        p1 = PerturbationSpec.random(2, rng)
        p2 = PerturbationSpec.random(2, rng)
        combo = p1.scaled_add(0.7, p2, -1.3)
        rr = np.linspace(0.1, 3.0, 11)
        lhs = eval_F(assemble(params, combo), rr)
        rhs = 0.7 * eval_F(assemble(params, p1), rr) - 1.3 * eval_F(assemble(params, p2), rr)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


class TestEvalF:
    def test_unit_kernel_term(self):
        p = SystemParams(2.0, 1.0)
        e = BasisExpansion.zeros(1)
        e.coeff_A[1] = 1.0
        fn = AveragedFunction(p, e)
        assert eval_F(fn, 0.5) == pytest.approx(0.25 * a00(0.5, 2.0), rel=1e-14)

    def test_independent_resummation(self, params, rng):
        # term-by-term summation with scalar kernel calls
        fn = assemble(params, PerturbationSpec.random(3, rng))
        e = fn.expansion
        for r in (0.2, 0.9, 1.7):
            acc = sum(c * r**k for k, c in enumerate(e.coeff_poly))
            acc += sum(c * r ** (2 * i) for i, c in enumerate(e.coeff_A)) * a00(r, params.a)
            acc += sum(c * r ** (2 * i) for i, c in enumerate(e.coeff_B)) * a00(-r, params.b)
            assert eval_F(fn, r) == pytest.approx(acc, rel=1e-13)

    def test_domain_guard(self):
        p = SystemParams(1.0, 0.8)  # r0 = 0.8
        fn = assemble(p, PerturbationSpec(1, plus_f={(0, 0): 1.0}))
        with pytest.raises(DomainError):
            eval_F(fn, 0.8)

    @pytest.mark.parametrize("r", [math.nan, [0.2, math.nan], -1e-300])
    def test_points_outside_the_annulus_refused(self, params, r):
        # NaN used to give NaN; it is outside [0, r0) like any other point
        fn = assemble(params, PerturbationSpec(1, plus_f={(0, 0): 1.0}))
        with pytest.raises(DomainError, match=r"outside \[0, inf\)"):
            eval_F(fn, r)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_long_double_sum_rounded_once(self, params, rng, n):
        # the long-double product with the basis, rounded to double: within
        # half an ulp of the long-double Horner reference and a few of its
        # envelopes, the cancelling placed expansions included
        rr = np.linspace(0.05, 4.0, 80)
        capacity = reachable_zero_capacity(params, n)
        for expansion in (assemble(params, PerturbationSpec.random(n, rng)).expansion,
                          place_zeros(params, n, np.linspace(0.3, 3.5, capacity))):
            got = eval_F(AveragedFunction(params, expansion), rr)
            want, env = _horner_values_precise(expansion, params, rr)
            assert got.dtype == np.float64
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want.astype(float))) / 2 + 16 * env)


class TestOracleF:
    def test_zero_perturbation(self, params):
        assert oracle_F(params, PerturbationSpec(2), 0.7) == 0.0

    @pytest.mark.parametrize("ab,r", [((1.0, -2.0), 0.0), ((1.0, -2.0), -0.5), ((1.0, 0.8), 0.8)])
    def test_domain_refused(self, ab, r):
        with pytest.raises(DomainError, match="oracle needs 0 < r < "):
            oracle_F(SystemParams(*ab), PerturbationSpec(1, plus_f={(0, 0): 1.0}), r)

    def test_odd_symmetry_case(self):
        # g_plus = const integrates sin(t)/(r cos t + a)^2 over the half circle: 0
        p = SystemParams(1.0, 1.0)
        pert = PerturbationSpec(1, plus_g={(0, 0): 1.0})
        assert abs(oracle_F(p, pert, 0.5)) < 1e-12

    def test_pipeline_equivalence_spot(self, rng):
        p = SystemParams(1.0, 2.0)
        pert = PerturbationSpec.random(2, rng)
        got = eval_F(assemble(p, pert), 0.7)
        want = oracle_F(p, pert, 0.7)
        assert got == pytest.approx(want, rel=1e-8)

    def test_pipeline_equivalence_randomized(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            b = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            p = SystemParams(a, b)
            pert = PerturbationSpec.random(n, rng)
            r = float(rng.uniform(0.05, min(3.5, 0.9 * p.r0)))
            got = eval_F(assemble(p, pert), r)
            want = oracle_F(p, pert, r)
            assert abs(got - want) <= 1e-8 * (1 + abs(want))


class TestSmoothRestriction:
    def test_smooth_consistency(self, rng):
        # a = b with equal tables: the smooth assembly, which is the
        # piecewise reduction at b = a, must agree with the independent
        # full-circle quadrature
        for a in (1.3, -1.7):
            for n in (1, 2, 3, 4):
                pert = PerturbationSpec.from_vector(n, np.tile(_random_rows(n, rng, 1, 2), 2)[0])
                fn = assemble(SystemParams(a, a), pert)
                rr = np.linspace(0.05, 0.9 * abs(a), 9)
                want = np.array([oracle_smooth_F(a, pert, float(r)) for r in rr])
                assert np.max(np.abs(eval_F(fn, rr) - want)) < 1e-9


def _horner_values_precise(expansion, params, r):
    """The Horner-form evaluator that `basis_values` replaced, kept as the
    reference: long-double values plus the roundoff envelope."""
    rr = np.asarray(r, dtype=LONG)
    r2 = rr * rr
    A = a00(rr, params.a)
    B = a00(-rr, params.b)
    pa = expansion.coeff_A.astype(LONG)
    pb = expansion.coeff_B.astype(LONG)
    pp = expansion.coeff_poly.astype(LONG)
    vals = npoly.polyval(rr, pp) + npoly.polyval(r2, pa) * A + npoly.polyval(r2, pb) * B
    env = (
        npoly.polyval(np.abs(rr), np.abs(pp))
        + npoly.polyval(r2, np.abs(pa)) * A
        + npoly.polyval(r2, np.abs(pb)) * B
    ) * float(np.finfo(LONG).eps)
    return vals, env


class TestBasisValues:
    # Tolerance fixed before the first run: both routes sum the same
    # terms in a different order, so values may differ by a few roundoffs
    # of the summed absolute terms (16 eps * sum = 16 envelopes) and
    # envelopes, sums of nonnegative terms, by a few ulps (16 eps * env).
    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_horner_reference(self, ab, n, rng):
        params = SystemParams(*ab)
        eps = np.finfo(LONG).eps
        rr = np.linspace(0.01, 4.0, 200)
        assembled = assemble(params, PerturbationSpec.random(n, rng)).expansion
        capacity = reachable_zero_capacity(params, n)
        placed = place_zeros(params, n, [0.5, 1.2, 2.0][:capacity])
        assert placed.coeff_A.dtype == LONG
        basis = basis_values(params, n, rr)
        for expansion in (assembled, placed):
            want, want_env = _horner_values_precise(expansion, params, rr)
            c = expansion.vector(LONG)
            got, got_env = c @ basis, np.abs(c) @ np.abs(basis) * eps
            assert np.all(np.abs(got - want) <= 16 * want_env)
            assert np.all(np.abs(got_env - want_env) <= 16 * eps * want_env)

    # dtype is that of the points: a double grid is kept, a long-double one
    # is sampled afresh on every call
    @pytest.mark.parametrize("dtype", [np.float64, LONG], ids=["double", "long_double"])
    @pytest.mark.parametrize("ab,hi", [((1.0, -2.0), 8.0), ((1.0, -1.0), 8.0), ((-1.5, 2.0), 2.0)])
    def test_kept_grid_rows_give_the_fresh_values(self, ab, hi, dtype):
        # degrees out of order, so that the kept powers grow and are reread;
        # at (-1.5, 2) the grid runs past r0 = 1.5 into NaN columns
        averaging._kept_grid.cache_clear()
        params = SystemParams(*ab)
        rr = np.linspace(hi / 600, hi, 600).astype(dtype)
        for n in (3, 1, 4, 2, 6):
            got = basis_values(params, n, rr)
            assert got.dtype == LONG
            assert np.array_equal(got, _fresh_basis(params, n, rr), equal_nan=True)
        assert averaging._kept_grid.cache_info().currsize == (dtype == np.float64)

    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (0.7, -0.3)])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_derivative_rows_match_central_differences(self, ab, n):
        # long-double central differences with step 1e-6 r: truncation about
        # 1e-13 r^2 times the third derivative and roundoff about 1e-13 |f| / r,
        # both inside the budget on (0.2, 0.9 r0) once 1e-2 clear of the seams
        params = SystemParams(*ab)
        hi = 0.9 * min(params.r0, 6.0)
        rr = np.linspace(0.2, hi, 61)
        rr = rr[(np.abs(rr - abs(params.a)) > 1e-2) & (np.abs(rr - abs(params.b)) > 1e-2)]
        values, slopes = basis_values(params, n, rr, derivative=True)
        assert np.array_equal(values, basis_values(params, n, rr))
        r, h = rr.astype(LONG), LONG(1e-6) * rr.astype(LONG)
        diff = (basis_values(params, n, r + h) - basis_values(params, n, r - h)) / (2 * h)
        assert np.all(np.abs(diff - slopes) <= 1e-8 * np.abs(slopes) + 1e-14 * np.abs(values) / r)

    @pytest.mark.parametrize("dtype", [np.float64, LONG], ids=["double", "long_double"])
    def test_derivative_rows_of_a_kept_grid(self, dtype):
        # the value rows and the derivative rows of a grid of double points,
        # which is kept, or of long-double points, which is not, equal those
        # of sampling the same points afresh, in pieces below _GRID_MIN
        averaging._kept_grid.cache_clear()
        params = SystemParams(1.0, -2.0)
        rr = np.linspace(0.01, 8.0, 600).astype(dtype)
        for n in (3, 1, 4):
            values, slopes = basis_values(params, n, rr, derivative=True)
            pieces = [basis_values(params, n, part, derivative=True) for part in np.split(rr, 3)]
            assert np.array_equal(values, np.hstack([v for v, _ in pieces]))
            assert np.array_equal(slopes, np.hstack([d for _, d in pieces]))
        assert averaging._kept_grid.cache_info().currsize == (dtype == np.float64)

    def test_kernel_rows_are_sampled_once_per_grid_and_constant(self, monkeypatch):
        averaging._kept_grid.cache_clear()
        calls = []

        def counting(r, a):
            calls.append(a)
            return a00(r, a)

        monkeypatch.setattr(averaging, "a00", counting)
        grids = [np.linspace(0.01, 8.0, 600), np.linspace(0.01, 7.0, 800)]
        for rr in grids:
            for n in (1, 2, 3, 4):
                basis_values(SystemParams(1.0, -2.0), n, rr)
        assert calls == [1.0, 2.0, 1.0, 2.0]
        # at (1, -1) the A row is that of a = 1 again, and B[0,0](r; -1) is
        # A[0,0](r; 1), the same row
        for rr in grids:
            for n in (1, 2, 3, 4):
                basis_values(SystemParams(1.0, -1.0), n, rr)
        assert len(calls) == 4

    def test_kept_grids_are_few_and_private(self):
        averaging._kept_grid.cache_clear()
        params = SystemParams(1.0, -2.0)
        basis_values(params, 2, np.linspace(0.1, 1.0, averaging._GRID_MIN - 1))
        assert averaging._kept_grid.cache_info().currsize == 0
        for k in range(averaging._GRIDS_KEPT + 2):
            basis_values(params, 2, np.linspace(0.1, 1.0 + k, 400))
        assert averaging._kept_grid.cache_info().currsize == averaging._GRIDS_KEPT
        # neither the caller's grid nor the returned matrix is kept
        rr = np.linspace(0.1, 5.0, 400)
        basis_values(params, 2, rr)[:] = 0.0
        want = _fresh_basis(params, 2, rr)
        assert np.array_equal(basis_values(params, 2, rr), want)
        rr *= 0.5
        assert np.array_equal(basis_values(params, 2, rr), _fresh_basis(params, 2, rr))


# The scan, count and survey grids that the benchmark's ceiling workload
# (reproduce_hn at (1, -2) and (1, -1)) and smooth workload (a = 1) sample,
# as (r_max, points) of linspace(r_max / points, r_max, points).
_WORKLOAD_GRIDS = [(10.0, 2048), (7.5, 800), (8.0, 600), (0.999, 2048), (0.95, 2000), (0.95, 1500)]


@pytest.mark.parametrize("r_max,points", _WORKLOAD_GRIDS)
def test_power_rows_against_exact_rationals(r_max, points):
    # the running product r^k of an exact r is within (k-1)u/(1-(k-1)u)
    # of the rational r^k, u = 2^-64
    averaging._kept_grid.cache_clear()
    params = SystemParams(1.0, -2.0)
    rr = np.linspace(r_max / points, r_max, points)
    powers = basis_values(params, 13, rr)[-16:-1]  # r^k, k = 0..14
    ratios = [r.as_integer_ratio() for r in rr.tolist()]
    for k, row in enumerate(powers):
        slack = max(k - 1, 0)
        for x, (p, q) in zip(row, ratios):
            # |x - (p/q)^k| <= slack u / (1 - slack u) (p/q)^k with x = s/t,
            # cross-multiplied into integers
            s, t = x.as_integer_ratio()
            assert abs(s * q**k - p**k * t) * (2**64 - slack) <= slack * p**k * t


def _fresh_basis(params, n, r):
    """`basis_values` with every row sampled afresh: the reference for the
    kept grid rows, with the powers the long-double running products 1, r,
    r*r, (r*r)*r, ..."""
    h = (n + 1) // 2
    rr = np.atleast_1d(np.asarray(r, dtype=LONG))
    powers = [np.ones_like(rr)]
    for _ in range(2 * h + 2):
        powers.append(powers[-1] * rr)
    powers = np.array(powers)
    even = powers[::2]
    return np.concatenate([even * a00(rr, params.a), even * a00(-rr, params.b), powers[:-1]])


TABLES = ("plus_f", "plus_g", "minus_f", "minus_g")


def _enumeration(n):
    return [(name, i, j) for name in TABLES for i in range(n + 1) for j in range(n + 1 - i)]


class TestAssemblyMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vector_order_and_round_trip(self, n, rng):
        pert = PerturbationSpec.random(n, rng)
        keys = _enumeration(n)
        v = pert.vector()
        assert v.tolist() == [getattr(pert, name)[i, j] for name, i, j in keys]
        back = PerturbationSpec.from_vector(n, v)
        assert all(np.array_equal(getattr(back, name), getattr(pert, name)) for name in TABLES)
        for k, (name, i, j) in enumerate(keys):
            unit = PerturbationSpec.from_vector(n, np.eye(len(keys))[k])
            assert getattr(unit, name)[i, j] == 1.0 and unit.vector().sum() == 1.0

    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (1.0, 1.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_columns_are_unit_assemblies_bitwise(self, ab, n):
        # the reduction of each unit's dense reference tables at degree n:
        # the oracle of the cached, zero-padded unit halves, exact parts
        # included
        params = SystemParams(*ab)
        M = assembly_matrix(params, n)
        keys = _enumeration(n)
        assert M.dtype == np.float64 and M.shape[1] == len(keys) == 2 * (n + 1) * (n + 2)
        for k, (name, i, j) in enumerate(keys):
            want = _reference_parts(params, PerturbationSpec(n, **{name: {(i, j): 1.0}}))
            assert M[:, k].tobytes() == _reference_vector(want).tobytes()
            assert repr(_unit_parts(params, n)[k]) == repr(tuple(map(tuple, want)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_assemble_is_the_exact_unit_combination(self, n, rng):
        # the exact counterpart of the matrix product: the perturbation's
        # coefficients times the unit parts, summed exactly
        params = SystemParams(0.7, -0.3)
        pert = PerturbationSpec.random(n, rng)
        want = [[0 * u for u in part] for part in _unit_parts(params, n)[0]]
        for x, unit in zip(pert.vector().tolist(), _unit_parts(params, n)):
            for total, part in zip(want, unit):
                total[:] = [t + u * as_fraction(x) for t, u in zip(total, part)]
        assert _exact_parts(params, pert) == tuple(want)

    def test_unit_reductions_are_shared_across_degrees_and_systems(self, reduce_calls):
        # degree 4 reaches 11 even-sine entries sigma[p, q], p + q <= 5, per
        # half; the smaller degrees pad them, and (1, -1) shares the front
        # half of (1, -2)
        assembly_matrix(SystemParams(1.0, -2.0), 4)
        assert sorted(reduce_calls) == [(-2, True)] * 11 + [(1, False)] * 11
        reduce_calls.clear()
        for n in (1, 2, 3):
            assembly_matrix(SystemParams(1.0, -2.0), n)
        assert reduce_calls == []
        assembly_matrix(SystemParams(1.0, -1.0), 4)
        assert reduce_calls == [(-1, True)] * 11

    def test_unit_columns_log_their_reductions(self, reduce_calls, caplog):
        # degree 2, per half: 6 even-sine units on 5 entries, 6 zero columns
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            assembly_matrix(SystemParams(1.0, -2.0), 2)
            assembly_matrix(SystemParams(1.0, -2.0), 2)
        assert caplog.messages == [
            "unit columns: degree 2, (a, b) = (1.0, -2.0), 24 columns, "
            "10 half reductions run, 2 reused, 12 zero columns"
        ]

    def test_broken_reduction_is_refused(self, reduce_calls, monkeypatch):
        # a reduction that breaks the constant-term tie fails the checks of
        # the cached unit halves, which assemble reads too
        reduce = kernels._reduce_half

        def broken(S, c, degree, alternate):
            coef, poly = reduce(S, c, degree, alternate)
            return [coef[0] + 1, *coef[1:]], poly

        monkeypatch.setattr(kernels, "_reduce_half", broken)
        with pytest.raises(AssemblyError, match="constant-term tie"):
            assembly_matrix(SystemParams(1.0, -2.0), 2)
        with pytest.raises(AssemblyError, match="constant-term tie"):
            assemble(SystemParams(1.0, -2.0), PerturbationSpec(2, minus_g={(1, 1): 1.0}))

    def test_matrix_product_is_assembly(self, params, rng):
        for n in (1, 2, 3, 4):
            pert = PerturbationSpec.random(n, rng)
            want = assemble(params, pert).expansion.vector()
            got = assembly_matrix(params, n) @ pert.vector()
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_scaled_add_is_tablewise(self, rng):
        p1 = PerturbationSpec.random(3, rng)
        p2 = PerturbationSpec.random(3, rng)
        combo = p1.scaled_add(0.7, p2, -1.3)
        for name in TABLES:
            want = 0.7 * getattr(p1, name) + -1.3 * getattr(p2, name)
            assert getattr(combo, name).tobytes() == want.tobytes()


class TestRealization:
    def test_round_trip(self, params, rng):
        pert = PerturbationSpec.random(2, rng)
        fn = assemble(params, pert)
        back = perturbation_for_expansion(params, fn.expansion)
        rr = np.linspace(0.1, 3.0, 9)
        assert np.max(np.abs(eval_F(assemble(params, back), rr) - eval_F(fn, rr))) < 1e-9

    def test_unreachable_expansion_rejected(self, params):
        # break the even-degree tie by hand: not reachable
        e = BasisExpansion.zeros(2)
        e.coeff_A[2] = 1.0  # top kernel term without its tied monomial
        with pytest.raises(ValueError):
            perturbation_for_expansion(params, e)

    def test_null_perturbation_assembles_to_zero(self, params):
        fn = assemble(params, null_perturbation(3))
        assert not fn.expansion.vector().any()
