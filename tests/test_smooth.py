"""Smooth case (b = a, equal tables): V families, assembly, zero capacity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pwcycles import exact, kernels
from pwcycles.averaging import (
    AveragedFunction,
    PerturbationSpec,
    _exact_parts,
    _random_rows,
    assemble,
    basis_values,
    eval_F,
)
from pwcycles.kernels import AssemblyError, DomainError, SystemParams, quad_oracle, trig_rational, FULL_CIRCLE
from pwcycles.smooth import (
    _check_smooth_units,
    eval_V_family,
    oracle_smooth_F,
    place_smooth_zeros,
    random_search_max_smooth_zeros,
    smooth_generating_rank,
    smooth_generators,
)
from pwcycles.zeros import PlacementError, _generator_matrix, chebyshev_points, count_simple_zeros, sample_rank


def _random_smooth(n, rng):
    """Uniform random f, then g, on the triangle i + j <= n, the same
    tables on both half-planes."""
    return PerturbationSpec.from_vector(n, np.tile(_random_rows(n, rng, 1, 2), 2)[0])


F1 = {(0, 0): 1.0}


def _smooth_direction(n, kernel, monomials):
    """A row in the coordinates of the smooth unit directions of degree n:
    kernel coefficients, then merged monomials (an even index q is q*pi)."""
    h = (n + 1) // 2
    row = [Fraction(0)] * (3 * h + 4)
    for idx, q in kernel.items():
        row[idx] = Fraction(q)
    for idx, q in monomials.items():
        row[h + 2 + idx] = Fraction(q)
    return row


def _smooth_zeros(a, expansion, r_max):
    fn = AveragedFunction(SystemParams(a, a), expansion)
    return list(count_simple_zeros(fn, r_max, grid=2000).locations)


class TestVFamily:
    def test_odd_sine_power(self):
        assert eval_V_family(0, 3, 0.4, 1.0) == 0.0

    def test_origin(self):
        for a in (1.0, -1.7):
            assert eval_V_family(0, 0, 0.0, a) == pytest.approx(2 * math.pi / a**2, rel=1e-13)

    def test_frozen_oracle(self):
        got = eval_V_family(2, 0, 0.3, 1.0)
        assert got == pytest.approx(3.8670691671864517, rel=1e-9)

    def test_randomized_oracle(self, rng):
        for _ in range(25):
            a = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            i = int(rng.integers(0, 7))
            j = int(rng.integers(0, 7 - i))
            r = float(rng.uniform(-0.85, 0.85)) * abs(a)
            got = eval_V_family(i, j, r, a)
            want = quad_oracle(trig_rational(i, j, r, a, 2), FULL_CIRCLE)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            eval_V_family(0, 0, 1.0, 1.0)


class TestAssembleSmooth:
    def test_zero_perturbation(self):
        fn = assemble(SystemParams(1.0, 1.0), PerturbationSpec(2))
        assert not fn.expansion.vector().any()

    @pytest.mark.parametrize("a,r", [(1.0, 0.0), (1.0, 1.0), (-1.5, 1.6)])
    def test_oracle_domain_refused(self, a, r):
        with pytest.raises(DomainError, match="need 0 < r < "):
            oracle_smooth_F(a, PerturbationSpec(1, F1, None, F1, None), r)

    def test_frozen_linear_case(self):
        # n=1, f = 1: F(0.4) = 0.4 * integral of cos/(0.4 cos + 1)^2
        fn = assemble(SystemParams(1.0, 1.0), PerturbationSpec(1, F1, None, F1, None))
        assert eval_F(fn, 0.4) == pytest.approx(-1.3058128016138242, rel=1e-9)

    def test_oracle_equivalence(self, rng):
        a = 1.0
        pert = _random_smooth(3, rng)
        fn = assemble(SystemParams(a, a), pert)
        for r in np.linspace(0.05, 0.9, 20):
            want = oracle_smooth_F(a, pert, float(r))
            assert eval_F(fn, float(r)) == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_evenness_exact(self, rng):
        # the two halves' merged monomials: only even ones, none beyond
        # the structural cap, exactly; the kernel parts coincide
        for n in (1, 2, 3, 4):
            pert = _random_smooth(n, rng)
            coef_A, poly_plus, coef_B, poly_minus = _exact_parts(SystemParams(1.5, 1.5), pert)
            assert coef_A == coef_B
            for idx, (p, q) in enumerate(zip(poly_plus, poly_minus)):
                if idx % 2 == 1 or idx > 2 * ((n - 1) // 2):
                    assert p + q == 0

    def test_broken_reduction_is_refused(self, reduce_calls, monkeypatch):
        # an odd monomial that both halves keep passes the piecewise checks
        # of the unit halves, so `assemble` at b = a takes it, and fails the
        # smooth ones, which the rank and the survey read once per (a, n)
        reduce = kernels._reduce_half

        def broken(S, c, degree, alternate):
            coef, poly = reduce(S, c, degree, alternate)
            return coef, [poly[0], poly[1] + 1, *poly[2:]]

        monkeypatch.setattr(kernels, "_reduce_half", broken)
        assemble(SystemParams(1.5, 1.5), PerturbationSpec(2, F1, None, F1, None))
        with pytest.raises(AssemblyError, match=r"monomial r\^1 outside the smooth range"):
            smooth_generating_rank(1.5, 2)
        with pytest.raises(AssemblyError, match=r"monomial r\^1 outside the smooth range"):
            random_search_max_smooth_zeros(1.5, 2, 5, 0, 1.4)

    def test_generating_set_membership(self, rng):
        # assembled F lies in span{r^(2i)} U {V - 2pi/a^2} U {r^(2i) V}
        a = 1.0
        n = 3
        k = (n - 1) // 2
        rr = np.linspace(0.03, 0.9, 60)
        from pwcycles.kernels import a00

        v00 = (a00(rr, a) + a00(-rr, a)).astype(float)  # lstsq has no long double
        cols = [v00 - 2 * math.pi / a**2]
        cols += [rr ** (2 * i) * v00 for i in range(1, n // 2 + 2)]
        cols += [rr ** (2 * i) for i in range(1, k + 1)]
        G = np.array(cols).T
        for _ in range(6):
            fn = assemble(SystemParams(a, a), _random_smooth(n, rng))
            y = eval_F(fn, rr)
            coef, *_ = np.linalg.lstsq(G, y, rcond=None)
            assert np.linalg.norm(y - G @ coef) < 1e-10 * max(1.0, np.linalg.norm(y))


class TestSmoothZeros:
    def test_placement_round_trip(self):
        targets = [0.2, 0.45, 0.7]
        zeros = _smooth_zeros(1.0, place_smooth_zeros(1.0, 3, targets), 0.95)
        assert len(zeros) == 3
        assert np.allclose(zeros, targets, atol=1e-9)

    def test_placement_capacity(self):
        with pytest.raises(PlacementError, match="capacity 3 simple zeros"):
            place_smooth_zeros(1.0, 3, [0.2, 0.4, 0.6, 0.8])

    def test_empty_targets_signs_definite(self):
        assert _smooth_zeros(1.0, place_smooth_zeros(1.0, 2, []), 0.9) == []

    def test_ceiling_survey(self):
        for n in (2, 3):
            best, _ = random_search_max_smooth_zeros(1.0, n, 60, seed=5, r_max=0.95)
            assert best <= n

    # Histograms of the per-draw exact reduction that the matrix survey
    # replaced, recorded before the change.
    @pytest.mark.parametrize(
        "n, seed, hist", [(2, 15, {0: 46, 1: 14}), (3, 16, {0: 42, 1: 18}), (4, 17, {0: 47, 1: 12, 2: 1})]
    )
    def test_pinned_histograms(self, n, seed, hist):
        best, got = random_search_max_smooth_zeros(1.0, n, 60, seed, 0.95, grid=600)
        assert got == hist and best == max(hist)

    def test_rank_reads_the_cached_unit_reductions(self, reduce_calls):
        # the reachable rank reads the smooth unit directions of the exact
        # smooth checks, from the cached unit reductions: 8 even-sine
        # entries sigma[p, q], p + q <= 4, on each half
        counts = []
        for _ in range(2):
            reduce_calls.clear()
            ranks = smooth_generating_rank(1.0, 3)
            counts.append(len(reduce_calls))
            assert ranks["reachable_rank"] == 4
        assert counts == [16, 0]

    @pytest.mark.parametrize("a", [1.0, -1.3, 0.5, 2.0])
    def test_reachable_rank_is_n_plus_one(self, a):
        # `smooth_generators` written exactly in the coordinates of the
        # smooth unit directions (kernel coefficients, then merged monomials,
        # an even-index q standing for q*pi) spans exactly their span
        for n in range(1, 7):
            assert smooth_generating_rank(a, n)["reachable_rank"] == n + 1
            dirs = list(_check_smooth_units(a, n))
            k = (n + 1) // 2 + 2
            gens = [_smooth_direction(n, {0: 1}, {0: -2 / exact.as_fraction(a) ** 2})]
            gens += [_smooth_direction(n, {i: 1}, {}) for i in range(1, n // 2 + 2)]
            gens += [_smooth_direction(n, {}, {2 * i: 1}) for i in range(1, (n - 1) // 2 + 1)]
            floats = smooth_generators(a, n)
            assert len(gens) == len(floats)
            for want, g in zip(gens, floats):
                # V = A + B: both kernel halves carry the kernel coefficients
                assert g.coeff_A.tobytes() == g.coeff_B.tobytes()
                got = np.concatenate([g.coeff_A, g.coeff_poly])
                image = np.array(
                    [float(q) for q in want[:k]] + [exact.pi_parity_float(q, i) for i, q in enumerate(want[k:])]
                )
                np.testing.assert_allclose(
                    got / got[np.argmax(np.abs(got))], image / image[np.argmax(np.abs(image))], rtol=1e-14, atol=0
                )
            assert exact.rank(dirs) == exact.rank(gens) == exact.rank(dirs + gens) == n + 1

    def test_even_degree_rank_resolution(self):
        # the printed generating set for n = 2k lists one function more
        # than the reachable span contains; n = 2k+1 matches exactly.  The
        # listed functions are independent: full sampled rank at 4x the
        # set's size Chebyshev points in (0.009, 0.9)
        r2 = smooth_generating_rank(1.0, 2)
        values = basis_values(SystemParams(1.0, 1.0), 3, chebyshev_points(0.009, 0.9, 16))
        listed = np.dot(_generator_matrix(smooth_generators(1.0, 3)), values)
        assert sample_rank(listed.T.astype(float))[0] == r2["listed_set_size"] == 4
        assert r2["reachable_rank"] == r2["expected_reachable"] == 3
        r3 = smooth_generating_rank(1.0, 3)
        assert r3["reachable_rank"] == r3["expected_reachable"] == 4
        assert r3["listed_set_size"] == 4
