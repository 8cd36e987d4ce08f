"""Zero counting, placement round trips, and rank diagnostics."""

import logging
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pwcycles import averaging, exact, smooth, zeros
from pwcycles.averaging import (
    AveragedFunction,
    BasisExpansion,
    assembly_matrix,
    basis_values,
    perturbation_for_expansion,
)
from pwcycles.kernels import SystemParams
from pwcycles.zeros import (
    PlacementError,
    RankDeficiencyError,
    UnresolvedClusterError,
    _newton_roots,
    chebyshev_points,
    claimed_coefficient_indices,
    coefficient_surjectivity_check,
    count_simple_zeros,
    hn_formula,
    independence_check,
    independence_generators,
    place_zeros,
    random_search_max_zeros,
    reachable_zero_capacity,
    sample_rank,
)


class TestCountFormula:
    @pytest.mark.parametrize("n,want", [(1, 4), (2, 7), (3, 8), (4, 11), (5, 12)])
    def test_generic(self, n, want):
        assert hn_formula(n, False) == want

    @pytest.mark.parametrize("n,want", [(1, 2), (2, 4), (3, 5), (4, 7), (5, 8)])
    def test_resonant(self, n, want):
        assert hn_formula(n, True) == want

    def test_degree_validated(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            hn_formula(0, False)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_capacity_matches_claim_odd(self, n):
        assert reachable_zero_capacity(SystemParams(1.0, -2.0), n) == hn_formula(n, False)
        assert reachable_zero_capacity(SystemParams(1.0, -1.0), n) == hn_formula(n, True)

    @pytest.mark.parametrize("n", [2, 4])
    def test_capacity_one_short_even(self, n):
        # the measured reachable span loses one dimension to the exact
        # top-coefficient tie, so the ceiling sits one below the claim
        assert reachable_zero_capacity(SystemParams(1.0, -2.0), n) == hn_formula(n, False) - 1
        assert reachable_zero_capacity(SystemParams(1.0, -1.0), n) == hn_formula(n, True) - 1


class TestCountSimpleZeros:
    def test_degenerate_flag(self, params):
        fn = AveragedFunction(params, BasisExpansion.zeros(2))
        report = count_simple_zeros(fn, 3.0)
        assert report.degenerate
        assert report.count == 0

    def test_sign_definite_kernel_term(self, params):
        e = BasisExpansion.zeros(1)
        e.coeff_A[1] = 1.0  # r^2 A[0,0] > 0 on the annulus
        report = count_simple_zeros(AveragedFunction(params, e), 4.0)
        assert report.count == 0

    def test_round_trip_small(self, params):
        targets = [0.2, 0.5, 0.8]
        exp = place_zeros(params, 1, targets)
        report = count_simple_zeros(AveragedFunction(params, exp), 1.2, grid=400)
        assert report.count == 3
        assert np.allclose(report.locations, targets, atol=1e-9)
        assert not report.non_simple

    def test_near_vanishing_derivative_goes_to_the_logger(self, params, caplog):
        # F = (r - 1)^3: one zero at r = 1 with a vanishing derivative
        e = BasisExpansion.zeros(1)
        e.coeff_poly[:] = [-1.0, 3.0, -3.0, 1.0]
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="pwcycles"):
            warnings.simplefilter("error")
            report = count_simple_zeros(AveragedFunction(params, e), 2.0)
        assert report.non_simple == pytest.approx((1.0,), abs=1e-9)
        assert report.locations == report.non_simple
        assert [(r.name, r.levelname) for r in caplog.records] == [("pwcycles", "WARNING")]
        assert "near-vanishing derivative" in caplog.records[0].getMessage()

    def test_simple_count_skips_flagged_zeros(self, caplog, triple_zero_expansion):
        # F = (r - 1)^3 (r - 2) has a triple zero at r = 1, which the count
        # finds and flags, and a simple one at r = 2
        with caplog.at_level(logging.WARNING, logger="pwcycles"):
            report = count_simple_zeros(AveragedFunction(SystemParams(1.0, -2.0), triple_zero_expansion), 3.0)
        assert report.non_simple == pytest.approx((1.0,), abs=1e-5)
        assert (report.count, report.simple_count) == (2, 1)
        assert sum("near-vanishing derivative" in m for m in caplog.messages) == 1

    def test_simple_zero_flag_ignores_the_scale_of_f(self):
        # capacity placements at (-1.5, 2) on (0.3, 0.9) have max|F| ~ 1e-9
        # on (0, 1) and |F'| of 1e-12 to 1e-8 at clean, well-separated
        # zeros: none is flagged, at either scale of F
        p = SystemParams(-1.5, 2.0)
        for n in (2, 3):
            targets = list(np.linspace(0.3, 0.9, reachable_zero_capacity(p, n)))
            exp = place_zeros(p, n, targets)
            for scale in (1.0, 1e9):
                scaled = BasisExpansion.from_vector(n, scale * exp.vector())
                report = count_simple_zeros(AveragedFunction(p, scaled), 1.0)
                assert report.count == len(targets)
                assert report.non_simple == ()

    def test_unresolved_cluster_raises(self, params):
        # F = (r - 1)^2 - 1e-8: zeros at 1 -+ 1e-4, 2e-4 apart around r = 1,
        # which is a point of the 400-point grid on (0, 2] and of every
        # doubling of it, so no doubling separates them
        e = BasisExpansion.zeros(1)
        e.coeff_poly[:] = [1 - 1e-8, -2.0, 1.0, 0.0]
        with pytest.raises(UnresolvedClusterError, match="after 4 doublings"):
            count_simple_zeros(AveragedFunction(params, e), 2.0)

    def test_vanishing_slope_at_a_newton_point_bisects(self, params):
        # F = (r - 1)^3 + 1e-3 on the 8-point grid 2j/7: its one bracket
        # (6/7, 8/7) has midpoint 1, where F' = 0 exactly, so the first step
        # is a bisection, not a step to the end of the bracket
        e = BasisExpansion.zeros(1)
        e.coeff_poly[:] = [1e-3 - 1.0, 3.0, -3.0, 1.0]
        report = count_simple_zeros(AveragedFunction(params, e), 16 / 7, grid=8)
        assert report.locations == pytest.approx((0.9,), abs=1e-12)
        assert report.zeros[0][1] == pytest.approx(0.03, rel=1e-12)
        assert report.non_simple == ()

    def test_zero_at_a_bracket_end_takes_the_regula_falsi_point(self, params, monkeypatch):
        # F = (r - z)(r - 3.3) with z = 0.5 + 1e-13, next to the grid point
        # 0.5 of the 800-point grid on (0, 5]: Newton from the bracket's
        # midpoint overshoots z by some 4e-6, out of the bracket, and the
        # regula falsi point of the bracket lands on z; midpoints would
        # take a dozen evaluations to get within Newton's reach
        z = 0.5 + 1e-13
        e = BasisExpansion.zeros(1)
        e.coeff_poly[:3] = [3.3 * z, -(3.3 + z), 1.0]
        seen = self._spy_on_basis_values(monkeypatch)
        report = count_simple_zeros(AveragedFunction(params, e), 5.0, grid=800)
        assert report.locations == pytest.approx((z, 3.3), abs=1e-15)
        assert len(seen) - 1 <= 4

    def test_close_zeros_double_the_grid(self, params):
        # F = (r - 0.5)(r - 0.85) on the 10-point grid 0.2, 0.4, ..., 2.0: the
        # zeros fall in different cells but sit 0.35 apart, under twice the
        # spacing 0.2, so the scan doubles the grid once
        e = BasisExpansion.zeros(1)
        e.coeff_poly[:] = [0.425, -1.35, 1.0, 0.0]
        report = count_simple_zeros(AveragedFunction(params, e), 2.0, grid=10)
        assert report.locations == pytest.approx((0.5, 0.85), abs=1e-12)
        assert report.grid_resolution == 20

    def test_monotone_refinement(self, params):
        exp = place_zeros(params, 3, list(np.linspace(0.2, 3.0, 8)))
        fn = AveragedFunction(params, exp)
        counts = [count_simple_zeros(fn, 3.4, grid=g).count for g in (200, 400, 800, 1600)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))

    @staticmethod
    def _spy_on_basis_values(monkeypatch) -> list:
        """Record the points of every `basis_values` call made by `zeros`."""
        seen = []

        def spy(params, n, r, *, derivative=False):
            seen.append(np.atleast_1d(r))
            return basis_values(params, n, r, derivative=derivative)

        monkeypatch.setattr(zeros, "basis_values", spy)
        return seen

    def test_refinement_calls_do_not_grow_with_brackets(self, params, monkeypatch):
        # all brackets of a grid are refined together: each Newton iteration
        # is one evaluation of the values and analytic derivatives at every
        # open bracket, and the simple-zero flag reads the last of them
        exp = place_zeros(params, 3, list(np.linspace(0.3, 5.0, 8)))
        seen = self._spy_on_basis_values(monkeypatch)
        report = count_simple_zeros(AveragedFunction(params, exp), 7.5, grid=800)
        assert report.count == 8
        assert len(seen) <= 20

    def test_ceiling_capacity_counts_take_few_evaluations(self, monkeypatch):
        # the eight capacity counts of the benchmark's ceiling workload
        # (reproduce_hn at (1, -2) and (1, -1), n = 1..4: targets on
        # (0.3, 5), counted on (0, 7.5) at grid 800).  Newton's evaluations
        # carry the flag's derivatives too; regula falsi plus the
        # finite-difference derivatives took 76 evaluations over the eight
        fns = []
        for b in (-2.0, -1.0):
            params = SystemParams(1.0, b)
            for n in (1, 2, 3, 4):
                targets = list(np.linspace(0.3, 5.0, reachable_zero_capacity(params, n)))
                fns.append((AveragedFunction(params, place_zeros(params, n, targets)), len(targets)))
        seen = self._spy_on_basis_values(monkeypatch)
        for fn, capacity in fns:
            assert count_simple_zeros(fn, 7.5, grid=800).simple_count == capacity
        assert len(seen) - len(fns) <= 38  # all but the one scan per count

    def test_debug_line_reports_the_refinement_work(self, params, caplog):
        exp = place_zeros(params, 3, list(np.linspace(0.3, 5.0, 8)))
        lines = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="pwcycles"):
                report = count_simple_zeros(AveragedFunction(params, exp), 7.5, grid=800)
            lines += [r.getMessage() for r in caplog.records if r.getMessage().startswith("count:")]
        assert len(lines) == 2 and lines[0] == lines[1]
        got = re.fullmatch(
            r"count: 8 brackets, (\d+) Newton, (\d+) regula falsi and (\d+) bisection steps in (\d+) "
            r"evaluations, 0 doublings, largest noise/\|F'\| at the zeros (\S+)",
            lines[0],
        )
        assert got and report.count == 8
        newton, falsi, bisections, calls = (int(got.group(k)) for k in (1, 2, 3, 4))
        # every step lands on a point that the next evaluation samples
        assert 1 <= calls <= 20 and newton + falsi + bisections <= 8 * (calls - 1)
        # the noise is taken at each zero's last Newton point, within its step
        c = exp.vector(zeros.LONG)
        values, slopes = basis_values(params, 3, np.array(report.locations), derivative=True)
        noise = zeros._envelope(c, np.abs(values)) / np.abs(np.dot(c, slopes))
        assert float(got.group(5)) == pytest.approx(float(np.max(noise)), rel=1e-2)

    @pytest.mark.parametrize(
        "z0,r_max", [(5e-7, 1e-5), (1.5 - 3e-7, 1.5 - 1e-7)], ids=["origin", "annulus_edge"]
    )
    def test_derivative_samples_stay_inside_the_annulus(self, bounded_params, monkeypatch, z0, r_max):
        # F = r - z0 with z0 within 1e-6 of 0 or of r0 = 1.5: the derivative
        # is analytic at the Newton points, all inside their brackets, so
        # the basis is never sampled outside (0, r0), where it is not defined
        e = BasisExpansion.zeros(1)
        e.coeff_poly[:2] = [-z0, 1.0]
        seen = self._spy_on_basis_values(monkeypatch)
        report = count_simple_zeros(AveragedFunction(bounded_params, e), r_max)
        assert report.locations == pytest.approx((z0,), abs=1e-12)
        assert report.zeros[0][1] == pytest.approx(1.0, rel=1e-6)
        r = np.concatenate(seen)
        assert np.all((0 < r) & (r < bounded_params.r0))

    def test_validation(self, params):
        fn = AveragedFunction(params, BasisExpansion.zeros(1))
        with pytest.raises(ValueError):
            count_simple_zeros(fn, -1.0)
        with pytest.raises(ValueError):
            count_simple_zeros(fn, 1.0, grid=2)


class TestBracketedRoots:
    """`_newton_roots` on a jet with a NaN slope, as the fixed-point search
    calls it: regula falsi and bisection steps only."""

    def _refine(self, fun, lo, hi, xtol):
        calls = []

        def jet(x):
            calls.append(x.size)
            return fun(x), np.nan, 0

        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        f_lo, f_hi = fun(lo), fun(hi)
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        return _newton_roots(jet, x, lo, hi, f_lo, f_hi, xtol)[0], calls

    @pytest.mark.parametrize("xtol,tol", [(1e-11, 1e-11), (5e-13, 1e-12)], ids=["1e-11", "5e-13"])
    def test_smooth_roots_within_xtol(self, xtol, tol):
        roots = np.array([-2.0, 0.3, 1.7])
        fun = lambda x: (x - roots[0]) * (x - roots[1]) * (x - roots[2])  # noqa: E731
        got, calls = self._refine(fun, [-3.0, 0.0, 1.0], [-1.0, 1.0, 2.5], xtol)
        assert np.all(np.abs(got - roots) <= tol)
        # superlinear: far fewer calls than the ~38 bisections, each call
        # covering only the brackets still open
        assert len(calls) <= 15 and calls == sorted(calls, reverse=True)

    def test_illinois_moves_the_end_plain_regula_falsi_keeps(self):
        # x^10 - 1 is convex on [0, 1.3]: plain regula falsi keeps the end
        # 1.3 and, with the same bisection safeguard, takes 28 calls;
        # halving the kept end's value takes 13
        got, calls = self._refine(lambda x: x**10 - 1, [0.0], [1.3], 1e-11)
        assert abs(got[0] - 1.0) <= 1e-11
        assert len(calls) <= 13

    def test_sign_step_falls_back_to_bisection(self):
        # a function with no slope to interpolate: only the bisection
        # safeguard can close the bracket
        edge = 0.123456789
        got, calls = self._refine(lambda x: np.where(x < edge, -1.0, 1.0), [0.0], [1.0], 1e-11)
        assert abs(got[0] - edge) <= 1e-11
        # the safeguard at least halves the bracket every fourth step
        assert len(calls) <= 4 * 37

    def test_a_bracket_narrower_than_the_stop_is_not_evaluated(self):
        # it closes at its midpoint, whatever the first point
        got, calls = self._refine(lambda x: x - 0.5, [0.5 - 4e-12, 0.0], [0.5 + 4e-12, 1.0], 5e-12)
        assert got[0] == 0.5 and got[1] == 0.5
        assert calls == [1]


ROUND_TRIPS = [
    # (a, b, n, targets) chosen within each configuration's conditioning
    (1.0, -2.0, 1, [0.5, 1.0, 1.5, 2.0]),
    (1.0, -2.0, 2, list(np.linspace(0.4, 4.2, 6))),
    (1.0, -2.0, 3, list(np.linspace(0.2, 2.6, 8))),
    (1.0, -2.0, 4, list(np.linspace(0.3, 3.0, 8))),
    (1.0, -2.0, 5, list(np.linspace(0.3, 3.0, 8))),
    (1.0, -1.0, 1, [0.3, 0.8]),
    (1.0, -1.0, 2, list(np.linspace(0.4, 2.4, 3))),
    (1.0, -1.0, 3, list(np.linspace(0.3, 3.3, 5))),
    (1.0, -1.0, 4, list(np.linspace(0.3, 4.0, 6))),
    (1.0, -1.0, 5, list(np.linspace(0.3, 4.4, 8))),
    (-1.5, 2.0, 1, [0.3, 0.6, 0.9, 1.2]),
    (-1.5, 2.0, 2, list(np.linspace(0.2, 1.3, 6))),
]


class TestPlacement:
    @pytest.mark.parametrize("a,b,n,targets", ROUND_TRIPS)
    def test_round_trip(self, a, b, n, targets):
        p = SystemParams(a, b)
        exp = place_zeros(p, n, targets)
        r_cap = 1.5 * max(targets)
        if np.isfinite(p.r0):
            r_cap = min(r_cap, 0.98 * p.r0)
        report = count_simple_zeros(AveragedFunction(p, exp), r_cap, grid=700)
        assert report.count == len(targets)
        assert np.allclose(report.locations, targets, atol=1e-9)

    def test_empty_targets(self, params):
        exp = place_zeros(params, 1, [])
        report = count_simple_zeros(AveragedFunction(params, exp), 5.0)
        assert report.count == 0

    def test_equispaced_count_example(self, params):
        # eight equally spaced zeros over (0.2, 3.0) for degree 3
        targets = list(np.linspace(0.2, 3.0, 8))
        exp = place_zeros(params, 3, targets)
        report = count_simple_zeros(AveragedFunction(params, exp), 4.0, grid=800)
        assert report.count == 8

    def test_capacity_counts(self, params, resonant_params):
        # saturating the measured capacity: count must be exact, locations
        # are intrinsically ill-conditioned at full capacity so only a
        # loose location check applies
        for p, n, window in [
            (params, 4, (0.3, 5.5)),
            (resonant_params, 4, (0.3, 4.0)),
        ]:
            cap = reachable_zero_capacity(p, n)
            targets = list(np.linspace(window[0], window[1], cap))
            exp = place_zeros(p, n, targets)
            report = count_simple_zeros(
                AveragedFunction(p, exp), 1.4 * window[1], grid=900
            )
            assert report.count == cap
            assert np.allclose(report.locations, targets, atol=1e-3)

    def test_too_many_targets(self, params):
        with pytest.raises(PlacementError):
            place_zeros(params, 1, list(np.linspace(0.3, 3.0, 6)))

    def test_saturated_even_degree_fails_with_diagnosis(self, params):
        # one more zero than the measured capacity: the square collocation
        # system would need a singular matrix, and the reachable span (a
        # numerical Chebyshev system) never provides one
        targets = list(np.linspace(0.5, 4.1, 7))
        with pytest.raises(PlacementError, match="capacity 6"):
            place_zeros(params, 2, targets)

    @pytest.mark.parametrize(
        "a,b,n,window",
        [
            (1.0, -2.0, 4, (0.1, 1.0)),
            (1.0, -2.0, 4, (2.0, 7.0)),
            (-1.5, 2.0, 4, (0.3, 1.06875)),
            (-1.5, 2.0, 5, (0.3, 1.06875)),
            (1.0, 2.0, 5, (0.3, 1.425)),
        ],
    )
    def test_capacity_plus_one_targets_are_refused_before_sampling(self, monkeypatch, a, b, n, window):
        # from n = 4 on, the square collocation matrices of these windows
        # are singular to double roundoff, so a search for a singular one
        # would "place" capacity + 1 zeros out of noise; the target count
        # alone decides, and the basis is never sampled
        p = SystemParams(a, b)
        cap = reachable_zero_capacity(p, n)
        seen = TestCountSimpleZeros._spy_on_basis_values(monkeypatch)
        with pytest.raises(PlacementError, match=f"degree {n} has capacity {cap} simple zeros"):
            place_zeros(p, n, list(np.linspace(*window, cap + 1)))
        assert seen == []

    @pytest.mark.parametrize(
        "n,targets,match",
        [
            (2, list(np.linspace(0.3, 1.425, 7)), "capacity 6"),
            (1, [0.3, 0.8, 1.3, 1.97, 1.99], "capacity 4"),
        ],
        ids=["scan_end", "scan_start"],
    )
    def test_saturated_scan_stays_inside_the_annulus(self, n, targets, match):
        # r0 = 2: capacity + 1 targets close to r0 are refused, not handed
        # to a sampling of the basis, which is NaN outside the annulus
        with pytest.raises(PlacementError, match=match):
            place_zeros(SystemParams(1.0, 2.0), n, targets)

    def test_rank_deficiency_detected(self, params):
        targets = [0.5, 0.5 + 1e-14, 1.0, 1.5]
        with pytest.raises((RankDeficiencyError, ValueError)):
            place_zeros(params, 1, targets)

    @pytest.mark.parametrize(
        "n,targets",
        [(1, [1e-60, 2e-60]), (1, [1e-200, 2e-200]), (2, [1e120, 2e120])],
        ids=["nan_condition", "svd_failure", "overflow"],
    )
    def test_condition_that_is_not_finite_refused(self, params, n, targets):
        # window samples that are singular in double make the orthonormal
        # transform infinite, and samples that overflow double make it NaN:
        # 1e-60 used to pass the `condition > 1e12` test with a NaN condition
        # and return a placement whose scan resolves none of its targets,
        # 1e-200 and 1e120 failed inside numpy's SVD after overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficiencyError, match="condition nan is not finite or exceeds 1e12"):
                place_zeros(params, n, targets)

    @pytest.mark.parametrize("targets", [[1.0, 0.5], [0.5, 0.5, 1.0]])
    def test_targets_must_increase_strictly(self, params, targets):
        with pytest.raises(ValueError, match="strictly increasing and distinct"):
            place_zeros(params, 2, targets)

    @pytest.mark.parametrize("ab,targets", [((1.0, -2.0), [0.0, 1.0]), ((-1.5, 2.0), [0.5, 1.5])])
    def test_targets_must_lie_in_the_annulus(self, ab, targets):
        with pytest.raises(ValueError, match=r"targets must lie in \(0, "):
            place_zeros(SystemParams(*ab), 2, targets)

    @pytest.mark.parametrize("n,free", [(1, 1), (3, 1), (4, 1), (3, 3), (2, 2)])
    def test_candidates_scored(self, params, monkeypatch, n, free):
        # m - p = 1 at capacity: the null space is a line, so draw 0 is the
        # one candidate, taken unscored; a wider null space scores 5 (m - p)
        # draws, each with one `_sign_flips` scan.  The winner's resolution
        # scan is one more
        p = reachable_zero_capacity(params, n) + 1 - free
        targets = list(np.linspace(0.3, 5.0, p))
        draws, flips = [], []
        null_draws, sign_flips = zeros._null_draws, zeros._sign_flips
        monkeypatch.setattr(zeros, "_null_draws", lambda M, count: draws.append(count) or null_draws(M, count))
        monkeypatch.setattr(zeros, "_sign_flips", lambda v, e: flips.append(v.size) or sign_flips(v, e))
        place_zeros(params, n, targets)
        candidates = 1 if free == 1 else 5 * free
        assert draws == [candidates]
        assert flips == [2048] * (1 if free == 1 else candidates + 1)

    @pytest.mark.parametrize("ab,n,p", [((1.0, -2.0), 3, 3), ((1.0, -1.0), 4, 2), ((0.7, -0.3), 5, 6)])
    def test_scores_match_the_per_candidate_loop(self, monkeypatch, ab, n, p):
        # the reference scores the candidates one at a time and keeps the
        # first lowest score; the products over all candidates must pick
        # the same winner and give its coefficients bit for bit
        params = SystemParams(*ab)
        draws, rows = [], []
        null_draws, generator_rows = zeros._null_draws, zeros._generator_rows

        def keep(out, value):
            out.append(value)
            return value

        monkeypatch.setattr(zeros, "_null_draws", lambda M, count: keep(draws, null_draws(M, count)))
        monkeypatch.setattr(zeros, "_generator_rows", lambda G, b: keep(rows, generator_rows(G, b)))
        hi = min(5.0, 0.8 * params.r0)
        got = place_zeros(params, n, list(np.linspace(0.1 * hi, hi, p))).vector()
        (candidates,), (Gs, _, tslope) = draws, rows
        assert len(candidates) > 1
        colscale = np.maximum(Gs.max(axis=1), -Gs.min(axis=1))
        best = None
        for c in candidates:
            dg = c / colscale
            vals, slope = np.dot(dg, Gs), np.dot(dg, tslope)
            scale_f = float(np.maximum(vals.max(), -vals.min()))
            extra = max(0, len(zeros._sign_flips(vals, zeros._envelope(dg, np.abs(Gs)))[1]) - p)
            score = (extra, -float(np.min(np.abs(slope))) / scale_f)
            if best is None or score < best[0]:
                best = (score, dg / scale_f if slope[0] >= 0 else -dg / scale_f)
        G = zeros._generator_matrix(zeros.reachable_generators(params, n))
        assert _same_bits(got, np.dot(best[1], G))

    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (0.7, -0.3)])
    def test_capacity_placement_is_draw_zero(self, ab, monkeypatch):
        # bit for bit the placement made from the first of five draws
        params = SystemParams(*ab)
        hi = min(5.0, 0.8 * params.r0)
        wants = [place_zeros(params, n, list(np.linspace(0.1 * hi, hi, reachable_zero_capacity(params, n))))
                 for n in (1, 2, 3, 4)]
        null_draws = zeros._null_draws
        monkeypatch.setattr(zeros, "_null_draws", lambda M, count: null_draws(M, 5)[:1])
        for n, want in zip((1, 2, 3, 4), wants):
            got = place_zeros(params, n, list(np.linspace(0.1 * hi, hi, reachable_zero_capacity(params, n))))
            assert np.array_equal(got.vector(), want.vector())

    def test_deterministic(self, params):
        e1 = place_zeros(params, 2, [0.4, 1.0, 1.9])
        e2 = place_zeros(params, 2, [0.4, 1.0, 1.9])
        assert np.array_equal(e1.coeff_A, e2.coeff_A)
        assert np.array_equal(e1.coeff_poly, e2.coeff_poly)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (0.7, -0.3)])
    def test_placed_values_stay_inside_the_roundoff_envelope(self, ab, n):
        # at capacity (p = m - 1) and half way there, the placed F vanishes at
        # every target to within the noise of its own long-double evaluation,
        # and it rises through the first target
        params = SystemParams(*ab)
        m = len(zeros.reachable_generators(params, n))
        hi = min(5.0, 0.8 * params.r0)
        for p in sorted({m - 1, m // 2}):
            targets = np.linspace(0.1 * hi, hi, p)
            c = place_zeros(params, n, list(targets)).vector(zeros.LONG)
            b = basis_values(params, n, targets)
            assert np.all(np.abs(c @ b) <= zeros._NOISE_FACTOR * zeros._envelope(c, np.abs(b)))
            h = 1e-6 * max(1.0, targets[0])
            below, above = c @ basis_values(params, n, targets[0] + np.array([-h, h]))
            assert above > below

    @pytest.mark.parametrize("n,resolved", [(4, 6), (5, 4)])
    def test_unresolved_placement_warns(self, n, resolved, caplog):
        # at (0.7, -0.3) the capacity placements on (0.5, 5) lie below
        # long-double resolution beyond r ~ 3: the scan sees only some of
        # the sign changes, and the placement says so
        p = SystemParams(0.7, -0.3)
        cap = reachable_zero_capacity(p, n)
        with caplog.at_level(logging.WARNING, logger="pwcycles"):
            place_zeros(p, n, list(np.linspace(0.5, 5.0, cap)))
        assert caplog.messages == [
            f"placement: the scan resolves {resolved} of {cap} targets; the placed function "
            "is below long-double resolution between them"
        ]

    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0)])
    def test_resolved_placements_do_not_warn(self, ab, caplog):
        # the capacity placements of reproduce_hn by default, n = 1..4
        p = SystemParams(*ab)
        with caplog.at_level(logging.WARNING, logger="pwcycles"):
            for n in (1, 2, 3, 4):
                place_zeros(p, n, list(np.linspace(0.3, 5.0, reachable_zero_capacity(p, n))))
        assert caplog.messages == []

    def test_debug_line_reports_condition_and_envelope_margin(self, params, caplog):
        # the (1, -2), n = 4 capacity placement of `reproduce_hn`
        targets = list(np.linspace(0.3, 5.0, reachable_zero_capacity(params, 4)))
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            c = place_zeros(params, 4, targets).vector(zeros.LONG)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("placement:")]
        got = re.fullmatch(
            r"placement: 10 targets, 11 generators, condition (\S+), "
            r"largest \|F\(t\)\|/envelope at the targets (\S+)",
            line,
        )
        assert got
        assert float(got.group(1)) == pytest.approx(1.05e4, rel=0.01)
        b = basis_values(params, 4, np.array(targets))
        margin = float(np.max(np.abs(c @ b) / zeros._envelope(c, np.abs(b))))
        assert float(got.group(2)) == pytest.approx(margin, rel=1e-3)
        assert margin <= zeros._NOISE_FACTOR


class TestIndependence:
    def test_nonresonant_n1(self, params):
        rank, sv = independence_check(params, 1, 4.0)
        assert rank == 9
        assert sv > 1e-10

    def test_resonant_n1(self, resonant_params):
        rank, sv = independence_check(resonant_params, 1, 4.0)
        assert rank == 6
        assert sv > 1e-10

    @pytest.mark.parametrize("r_max", [0.0, 1.5, 2.0])
    def test_r_max_must_lie_in_the_annulus(self, bounded_params, r_max):
        with pytest.raises(ValueError, match="need 0 < r_max < r0"):
            independence_check(bounded_params, 1, r_max)

    def test_duplicate_column_drops_rank(self, params):
        gens = independence_generators(params, 1)
        pts = chebyshev_points(0.04, 4.0, 4 * len(gens))
        coeffs = np.array([g.vector() for g in gens])
        M = (coeffs @ basis_values(params, 1, pts).astype(float)).T
        rank, _ = sample_rank(M)
        M_dup = np.hstack([M, M[:, :1]])
        rank_dup, _ = sample_rank(M_dup)
        assert rank_dup == rank
        assert M_dup.shape[1] == M.shape[1] + 1  # one dependent column added

    def test_zero_matrix_rank(self):
        rank, _ = sample_rank(np.zeros((8, 3)))
        assert rank == 0


class TestSurjectivity:
    def test_odd_degrees_full(self, params):
        for n in (1, 3):
            rank, expected = coefficient_surjectivity_check(params, n)
            assert rank == expected

    def test_even_degrees_deficit(self, params):
        # one tie per half: the claimed list overcounts by exactly two
        for n in (2, 4):
            rank, expected = coefficient_surjectivity_check(params, n)
            assert expected - rank == 2

    def test_claimed_lists(self):
        assert claimed_coefficient_indices(1) == [("kernel", 0), ("kernel", 1), ("poly", 1)]
        assert ("kernel", 2) in claimed_coefficient_indices(2)
        assert ("poly", 3) in claimed_coefficient_indices(2)


class TestExactRank:
    def test_degenerate_matrices(self):
        row = [Fraction(1, 3), Fraction(0), Fraction(-2, 7)]
        assert [exact.rank(m) for m in ([], [[0] * 3] * 2, [row, row], [row, [0] * 3, [1, 2, 0]])] == [0, 0, 1, 2]

    def test_hilbert_matrix(self):
        # nonsingular, but its condition (about 1e19) puts five sampled
        # singular values below `RANK_THRESHOLD`
        hilbert = [[Fraction(1, i + j + 1) for j in range(14)] for i in range(14)]
        assert exact.rank(hilbert) == 14 and sample_rank(np.array(hilbert, dtype=float))[0] == 9

    def test_ranks_read_no_threshold(self, monkeypatch):
        def ranks():
            surjectivity = [coefficient_surjectivity_check(SystemParams(1.0, -2.0), n) for n in (2, 3)]
            return surjectivity + [smooth.smooth_generating_rank(1.0, n)["reachable_rank"] for n in (2, 3)]

        before = ranks()
        monkeypatch.setattr(zeros, "RANK_THRESHOLD", 0.5)
        assert ranks() == before == [(8, 10), (12, 12), 3, 4]


def _exact_columns(units, resonant):
    """The expansion vector of each unit column in rationals: the kernel rows
    (A and B merged at b = -a, where B00 = A00), then the two halves'
    merged monomials, of one pi parity each (see `pwcycles.exact`)."""
    cols = []
    for coef_A, poly_plus, coef_B, poly_minus in units:
        kernels = [x + y for x, y in zip(coef_A, coef_B)] if resonant else [*coef_A, *coef_B]
        cols.append(kernels + [p + q for p, q in zip(poly_plus, poly_minus)])
    return cols


def _exact_generators(params, n):
    """`zeros.reachable_generators` in the coordinates of `_exact_columns`:
    the shifted kernel's constant -pi/c^2 as its pi multiple -1/c^2 at
    index 0, the even-n top tie -2/a or 2/b at index 2h+1, A and B merged
    at b = -a.  The monomial r^k of even k is written as pi r^k, the same
    direction."""
    h = (n + 1) // 2
    a, b = exact.as_fraction(params.a), exact.as_fraction(params.b)
    halves = [(a, -2 / a)] if params.resonant else [(a, -2 / a), (b, 2 / b)]
    width = len(halves) * (h + 2)

    def column(kernel, poly):
        col = [Fraction(0)] * (width + 2 * h + 2)
        for k in kernel:
            col[k] = Fraction(1)
        for k, q in poly.items():
            col[width + k] = q
        return col

    gens = []
    for side, (c, tie) in enumerate(halves):
        first = side * (h + 2)
        gens.append(column([first], {0: -1 / c**2}))
        gens += [column([first + i], {}) for i in range(1, h + 1)]
        if n % 2 == 0:
            gens.append(column([first + h + 1], {2 * h + 1: tie}))
    return gens + [column([], {k: Fraction(1)}) for k in range(1, 2 * h)]


class TestGeneratorListsAgainstTheExactAssembly:
    """The hand-written generator lists span exactly the exact assembly's
    column space: their lengths, and so every capacity, are the exact rank
    of the unit columns of `_unit_parts`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (0.7, -0.3), (-1.0, 1.0)])
    def test_reachable_generators(self, ab, n):
        params = SystemParams(*ab)
        units = _exact_columns(averaging._unit_parts(params, n), params.resonant)
        gens = _exact_generators(params, n)
        floats = zeros.reachable_generators(params, n)
        assert len(gens) == len(floats)
        for want, g in zip(gens, floats):
            # each exact generator is the direction of its float one
            kernel = g.coeff_A + g.coeff_B if params.resonant else np.concatenate([g.coeff_A, g.coeff_B])
            got = np.concatenate([kernel, g.coeff_poly])
            image = np.array(
                [float(q) for q in want[: kernel.size]]
                + [exact.pi_parity_float(q, k) for k, q in enumerate(want[kernel.size :])]
            )
            np.testing.assert_allclose(
                got / got[np.argmax(np.abs(got))], image / image[np.argmax(np.abs(image))], rtol=1e-14, atol=0
            )
        rank = exact.rank(units)
        assert rank == exact.rank(gens) == exact.rank(units + gens)
        assert rank == len(floats)
        assert rank == reachable_zero_capacity(params, n) + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("a", [1.0, -1.5])
    def test_smooth_generators(self, a, n):
        # the smooth unit directions: plus unit k on the front half and minus
        # unit k on the back half, at b = a
        assert exact.rank(smooth._check_smooth_units(a, n)) == len(smooth.smooth_generators(a, n))


def _left_null_space(cols):
    """A basis over Q of the vectors y with y . col = 0 for every column:
    the null space of the matrix whose rows are the columns, one vector per
    free coordinate of its reduced row echelon form."""
    rows = [list(map(Fraction, col)) for col in cols]
    width = len(rows[0])
    pivots = []
    for j in range(width):
        k = len(pivots)
        pivot = next((i for i in range(k, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][j] for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[j]:
                rows[i] = [x - row[j] * y for x, y in zip(row, rows[k])]
        pivots.append(j)
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        y = [Fraction(0)] * width
        y[free] = Fraction(1)
        for k, j in enumerate(pivots):
            y[j] = -rows[k][free]
        basis.append(y)
    return basis


class TestReachableSpanAnnihilators:
    """Every linear relation over Q that the exact assembly's columns obey,
    in the coordinates of `_exact_columns`: the left null space of the unit
    columns is spanned by exactly the relations the reduction is known to
    impose, so the reachable span has no tie beyond them."""

    @staticmethod
    def _known(params, n):
        """F(0) = 0, which reads A_0/a^2 + B_0/b^2 + p_0 = 0 with p_0 held as
        its multiple of pi (A[0,0](0; c) = pi/c^2); the structural zeros,
        kernel slot h + 1 and monomials 2h, 2h + 1 for odd n and monomial 2h
        for even n; and for even n the halves' top ties merged into one,
        (2/a) A_(h+1) - (2/b) B_(h+1) + p_(2h+1) = 0.  At (1, -2) the ties
        read A_0 + B_0/4 + p_0 = 0 and 2A_(h+1) + B_(h+1) + p_(2h+1) = 0; at
        b = -a the kernels merge and B drops out: A_0 + p_0 = 0 and
        2A_(h+1) + p_(2h+1) = 0 at (1, -1)."""
        h = (n + 1) // 2
        a, b = exact.as_fraction(params.a), exact.as_fraction(params.b)
        halves = [a] if params.resonant else [a, b]
        width = len(halves) * (h + 2)

        def vector(entries):
            y = [Fraction(0)] * (width + 2 * h + 2)
            for k, q in entries.items():
                y[k] = Fraction(q)
            return y

        known = [vector({**{side * (h + 2): 1 / c**2 for side, c in enumerate(halves)}, width: 1})]
        if n % 2:
            known += [vector({side * (h + 2) + h + 1: 1}) for side in range(len(halves))]
            known += [vector({width + 2 * h: 1}), vector({width + 2 * h + 1: 1})]
        else:
            known.append(vector({width + 2 * h: 1}))
            ties = {h + 1: 2 / a} if params.resonant else {h + 1: 2 / a, 2 * h + 3: -2 / b}
            known.append(vector({**ties, width + 2 * h + 1: 1}))
        return known

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0)])
    def test_left_null_space(self, ab, n):
        params = SystemParams(*ab)
        cols = _exact_columns(averaging._unit_parts(params, n), params.resonant)
        null = _left_null_space(cols)
        assert all(sum(x * y for x, y in zip(col, v)) == 0 for col in cols for v in null)
        assert len(null) == len(cols[0]) - exact.rank(cols)
        known = self._known(params, n)
        assert len(null) == len(known) == exact.rank(known) == exact.rank(null + known)


class TestCeiling:
    def test_random_search_below_claim(self, params, resonant_params):
        for p in (params, resonant_params):
            for n in (1, 2, 3):
                claimed = hn_formula(n, p.resonant)
                best, _ = random_search_max_zeros(p, n, 60, seed=3, r_max=6.0)
                assert best <= claimed

    # Histograms of the per-draw exact reduction that the matrix survey
    # replaced, recorded before the change.
    @pytest.mark.parametrize(
        "b, n, seed, hist",
        [
            (-2.0, 1, 11, {0: 36, 1: 23, 2: 1}),
            (-2.0, 3, 12, {0: 26, 1: 30, 2: 4}),
            (-1.0, 2, 13, {0: 31, 1: 23, 2: 6}),
            (-1.0, 4, 14, {0: 22, 1: 27, 2: 9, 3: 2}),
        ],
    )
    def test_pinned_histograms(self, b, n, seed, hist):
        best, got = random_search_max_zeros(SystemParams(1.0, b), n, 60, seed, r_max=8.0, grid=300)
        assert got == hist and best == max(hist)

    def test_no_draws(self, params):
        assert random_search_max_zeros(params, 2, 0, seed=1, r_max=6.0) == (0, {})

    def test_reductions_do_not_grow_with_draws(self, reduce_calls):
        # degree 2 reaches 5 even-sine entries sigma[p, q] per half; the
        # smooth survey at a = 1 reuses the front half of (1, -2)
        counts = []
        for draws in (5, 40):
            reduce_calls.clear()
            random_search_max_zeros(SystemParams(1.0, -2.0), 2, draws, seed=1, r_max=6.0, grid=100)
            counts.append(len(reduce_calls))
        assert counts == [10, 0]
        counts = []
        for draws in (5, 40):
            reduce_calls.clear()
            smooth.random_search_max_smooth_zeros(1.0, 2, draws, seed=1, r_max=0.9, grid=100)
            counts.append(len(reduce_calls))
        assert counts == [5, 0]


class TestSurveyAgainstKacRice:
    """The survey's mean count over Gaussian perturbations against the
    Kac-Rice expectation of the zeros of the random function it counts.

    With coefficients x ~ N(0, I), F(r) = x . u(r) and F'(r) = x . w(r),
    u = M^T phi(r) and w = M^T phi'(r), where M is `assembly_matrix` and
    phi, phi' are the rows of `basis_values` in double.  F's expected
    number of zeros on the survey's window (8/600, 8] is

        E = (1/pi) int sqrt(|u|^2 |w|^2 - (u . w)^2) / |u|^2 dr

    (Edelman and Kostlan, Bull. AMS 32, 1995), here by the trapezoid rule
    on 40,001 points.  The oracle shares only `basis_values` with the
    survey, besides the matrix that defines F: no sign decision, envelope
    or count of `zeros` enters E.

    A count of sign changes on a grid can only miss zeros (two in one
    grid step), so the bound is one-sided by delta, the expected number
    of zeros the grid misses: E less the grid's expected count of sign
    changes, sum over steps of arccos(rho_k)/pi, rho_k the correlation of
    F at neighbouring grid points (a centered Gaussian pair changes sign
    with that probability; Sheppard 1899).  Within 4 standard errors of
    the mean: mean <= E + 4 SE and mean >= E - 4 SE - delta.  Measured
    within 2.4 SE of E for all eight cases, with delta at most 1e-5.
    """

    R_MAX, GRID, DRAWS = 8.0, 600, 2000

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [-2.0, -1.0])
    def test_mean_count(self, b, n):
        params = SystemParams(1.0, b)
        rows = np.random.default_rng(7).standard_normal((self.DRAWS, len(averaging.PerturbationSpec(n).vector())))
        _, hist = zeros._survey(params, n, self.R_MAX, self.GRID, rows)
        counts = np.repeat(list(hist), list(hist.values()))
        mean, se = counts.mean(), counts.std(ddof=1) / np.sqrt(self.DRAWS)

        M = assembly_matrix(params, n)
        r = np.linspace(self.R_MAX / self.GRID, self.R_MAX, 40001)
        phi, dphi = basis_values(params, n, r, derivative=True)
        u, w = M.T @ phi.astype(float), M.T @ dphi.astype(float)
        uu, ww, uw = (u * u).sum(0), (w * w).sum(0), (u * w).sum(0)
        expected = np.trapezoid(np.sqrt(np.maximum(uu * ww - uw**2, 0.0)) / uu, r) / np.pi

        g = M.T @ basis_values(params, n, np.linspace(self.R_MAX / self.GRID, self.R_MAX, self.GRID)).astype(float)
        norms = np.sqrt((g * g).sum(0))
        rho = np.clip((g[:, 1:] * g[:, :-1]).sum(0) / (norms[1:] * norms[:-1]), -1.0, 1.0)
        delta = expected - np.arccos(rho).sum() / np.pi
        assert expected - 4 * se - delta <= mean <= expected + 4 * se, (mean, se, expected, delta)


def _long_double_counts(coeffs, basis):
    """Each draw's sign changes from one long-double evaluation per draw:
    the oracle that `zeros._flip_counts` must reproduce draw for draw."""
    abs_basis = np.abs(basis)
    return [len(zeros._sign_flips(c @ basis, zeros._envelope(c, abs_basis))[1]) for c in coeffs.astype(zeros.LONG)]


def _long_double_survey(params, n, r_max, grid, rows):
    """The survey as one long-double evaluation per draw: the oracle that
    `zeros._survey` must reproduce histogram for histogram."""
    coeffs = rows @ assembly_matrix(params, n).T
    basis = basis_values(params, n, np.linspace(r_max / grid, r_max, grid))
    hist = {}
    for count in _long_double_counts(coeffs, basis):
        hist[count] = hist.get(count, 0) + 1
    return max(hist, default=0), hist


class TestSurveySignDecisions:
    PARAMS, N, R_MAX, GRID = SystemParams(1.0, -2.0), 4, 7.7, 600

    @classmethod
    def _noise_band_rows(cls, count):
        """Rows of the capacity placement at (1, -2), n = 4, jittered by 1e-13
        relative.  Their values cancel to the double roundoff level over much
        of the grid and, at some samples, to the long-double one."""
        targets = list(np.linspace(0.3, 5.5, reachable_zero_capacity(cls.PARAMS, cls.N)))
        x = perturbation_for_expansion(cls.PARAMS, place_zeros(cls.PARAMS, cls.N, targets)).vector()
        rng = np.random.default_rng(404)
        return x * (1 + 1e-13 * rng.standard_normal((count, x.size)))

    @classmethod
    def _coeffs_and_basis(cls, rows):
        """The survey's expansion coefficients of `rows` and its long-double basis."""
        rr = np.linspace(cls.R_MAX / cls.GRID, cls.R_MAX, cls.GRID)
        return rows @ assembly_matrix(cls.PARAMS, cls.N).T, basis_values(cls.PARAMS, cls.N, rr)

    @staticmethod
    def _decision_counts(caplog):
        """The survey DEBUG line's samples left undecided in double and
        draws evaluated in long double."""
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("survey:")]
        got = re.search(r"(\d+) samples undecided in double, (\d+) draws evaluated in long double", line)
        return tuple(int(g) for g in got.groups())

    def test_noise_band_rows_match_the_long_double_loop(self, caplog):
        rows = self._noise_band_rows(40)
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            got = zeros._survey(self.PARAMS, self.N, self.R_MAX, self.GRID, rows)
        assert got == _long_double_survey(self.PARAMS, self.N, self.R_MAX, self.GRID, rows)
        undecided = np.vstack([
            ~decided
            for _, _, decided in zeros._block_signs(*self._coeffs_and_basis(rows), zeros._BLOCK_SAMPLES // self.GRID)
        ])
        want = (int(undecided.sum()), int(undecided.any(axis=1).sum()))
        assert self._decision_counts(caplog) == want
        assert want[0] > 0
        # the rows tell the two precisions apart: plain double signs count
        # other flips than the long-double survey
        rr = np.linspace(self.R_MAX / self.GRID, self.R_MAX, self.GRID)
        neg = (rows @ assembly_matrix(self.PARAMS, self.N).T @ basis_values(self.PARAMS, self.N, rr).astype(float)) < 0
        plain = np.count_nonzero(neg[:, 1:] != neg[:, :-1], axis=1)
        assert {k: int(np.sum(plain == k)) for k in np.unique(plain)} != got[1]

    def test_block_boundaries(self):
        per_block = zeros._BLOCK_SAMPLES // self.GRID
        rows = self._noise_band_rows(per_block + 1)
        rows[::3] = averaging._random_rows(self.N, np.random.default_rng(5), len(rows[::3]), 4)
        for draws in (0, 1, per_block - 1, per_block, per_block + 1):
            got = zeros._survey(self.PARAMS, self.N, self.R_MAX, self.GRID, rows[:draws])
            assert got == _long_double_survey(self.PARAMS, self.N, self.R_MAX, self.GRID, rows[:draws])

    def test_window_orthonormal_draws_match_the_long_double_loop(self, caplog):
        # Gaussian weights on the window-orthonormal basis of the reachable
        # span (`_orthonormal_transform`), mapped to expansion coefficients
        # in long double and rounded to double: draws that reach the
        # capacity, 10, and thousands of samples that double cannot decide
        # (3,559 in 451 draws with x86-64 long double), not crafted ones
        rr = np.linspace(8.0 / self.GRID, 8.0, self.GRID)
        basis = basis_values(self.PARAMS, self.N, rr)
        G = zeros._generator_matrix(zeros.reachable_generators(self.PARAMS, self.N))
        T = zeros._orthonormal_transform(zeros._generator_rows(G, basis))
        weights = np.random.default_rng(7).standard_normal((500, len(G)))
        coeffs = np.dot((weights @ T.T).astype(zeros.LONG), G).astype(float)
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            got = zeros._flip_counts(coeffs, basis)
        assert got.tolist() == _long_double_counts(coeffs, basis)
        assert got.max() == reachable_zero_capacity(self.PARAMS, self.N)
        undecided = np.vstack([~decided for _, _, decided in zeros._block_signs(coeffs, basis, zeros._BLOCK_SAMPLES // self.GRID)])
        want = (int(undecided.sum()), int(undecided.any(axis=1).sum()))
        assert self._decision_counts(caplog) == want
        assert want[0] > 3000 and want[1] > 400

    def test_random_draws_decided_in_double(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            got = random_search_max_zeros(self.PARAMS, 2, 200, seed=9, r_max=8.0)
        rows = averaging._random_rows(2, np.random.default_rng(9), 200, 4)
        assert got == _long_double_survey(self.PARAMS, 2, 8.0, 600, rows)
        assert self._decision_counts(caplog) == (0, 0)

    @pytest.mark.parametrize("noise_band", [True, False])
    def test_samples_decided_in_double_have_the_long_double_sign(self, noise_band):
        if noise_band:
            rows = self._noise_band_rows(60)
        else:
            rows = averaging._random_rows(self.N, np.random.default_rng(8), 60, 4)
        coeffs, basis = self._coeffs_and_basis(rows)
        vals = np.dot(coeffs.astype(zeros.LONG), basis)
        env = zeros._envelope(coeffs.astype(zeros.LONG), np.abs(basis))
        in_double = 0
        for block, neg, decided in zeros._block_signs(coeffs, basis, zeros._BLOCK_SAMPLES // self.GRID):
            v, e = vals[block][decided], env[block][decided]
            assert np.array_equal(v < 0, neg[decided])
            assert np.all(np.abs(v) > zeros._NOISE_FACTOR * e)
            in_double += np.count_nonzero(decided)
        assert (0 < in_double < vals.size) if noise_band else (in_double == vals.size)

    def test_crafted_inputs_match_the_long_double_oracle(self):
        per_block = zeros._BLOCK_SAMPLES // self.GRID
        rows = self._noise_band_rows(2 * per_block + 7)  # three blocks, the last of 7 draws
        rows[1::4] = averaging._random_rows(self.N, np.random.default_rng(6), len(rows[1::4]), 4)
        coeffs, basis = self._coeffs_and_basis(rows)
        coeffs[2] = 0.0  # an all-zero draw
        coeffs[5] *= 1e-305  # a random draw whose values lie below _FLOOR
        coeffs[9] *= 1e305  # a random draw whose values overflow in double
        coeffs[per_block + 3, 4] = np.nan
        coeffs[-2, 0] = np.inf
        coeffs[-1, 5] = -np.inf
        basis[3, 17] = zeros.LONG(1e-310)  # subnormal in double
        basis[5, 40] = zeros.LONG("1e-400")  # zero in double
        with np.errstate(invalid="ignore", over="ignore"):  # the inf, NaN and overflowing draws
            assert zeros._flip_counts(coeffs, basis).tolist() == _long_double_counts(coeffs, basis)
            decisions = list(zeros._block_signs(coeffs, basis, per_block))
        assert [len(neg) for _, neg, _ in decisions] == [per_block, per_block, 7]
        for _, _, decided in decisions:
            assert not decided[:, [17, 40]].any()
            assert not np.delete(decided, [17, 40], axis=1).all()  # undecided samples elsewhere too
        for draw in (2, 5, 9, per_block + 3, -2, -1):
            block, i = divmod(draw % len(coeffs), per_block)
            assert not decisions[block][2][i].any()

    @pytest.mark.parametrize("draws,grid,name", [(-1, 600, "draws"), (5, 1, "grid"), (5, 0, "grid")])
    def test_survey_arguments_validated(self, draws, grid, name):
        with pytest.raises(ValueError, match=name):
            random_search_max_zeros(self.PARAMS, 2, draws, seed=1, r_max=4.0, grid=grid)
        with pytest.raises(ValueError, match=name):
            smooth.random_search_max_smooth_zeros(1.0, 2, draws, seed=1, r_max=0.9, grid=grid)

    def test_smallest_valid_survey_arguments(self):
        assert random_search_max_zeros(self.PARAMS, 2, 0, seed=1, r_max=4.0) == (0, {})
        assert sum(random_search_max_zeros(self.PARAMS, 2, 5, seed=1, r_max=4.0, grid=2)[1].values()) == 5
        assert sum(smooth.random_search_max_smooth_zeros(1.0, 2, 5, seed=1, r_max=0.9, grid=2)[1].values()) == 5

    def test_r_max_outside_the_annulus_raises(self):
        with pytest.raises(ValueError, match="r0"):
            random_search_max_zeros(SystemParams(1.0, 2.0), 1, 5, seed=1, r_max=3.0)
        with pytest.raises(ValueError, match="r0"):
            random_search_max_zeros(SystemParams(1.0, 2.0), 1, 5, seed=1, r_max=2.0)
        with pytest.raises(ValueError, match="r0"):
            smooth.random_search_max_smooth_zeros(1.0, 2, 5, seed=1, r_max=1.0)

    def test_smooth_survey_memory_is_bounded_by_the_block(self):
        # one block of double products at a time: 800 draws at grid 1500
        # stay far below the 800 x 1500 long-double array (19 MB)
        smooth.random_search_max_smooth_zeros(1.0, 3, 1, seed=1, r_max=0.95)  # warm the caches
        tracemalloc.start()
        try:
            smooth.random_search_max_smooth_zeros(1.0, 3, 800, seed=3, r_max=0.95, grid=1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def _same_bits(x, y):
    """Equal entries with equal signs, so a +0 and a -0 differ too."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestGeneratorRows:
    """Placement's generator rows and counting's stacked value-and-envelope
    product against the dense long-double products they stand for."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (0.7, -0.3)])
    def test_generator_rows_equal_the_dense_product(self, ab, n):
        # the scan, target and slope rows of a capacity placement, and the
        # Chebyshev rows of `independence_check`, for all three generator sets
        piecewise, smooth_params = SystemParams(*ab), SystemParams(ab[0], ab[0])
        sets = [
            (piecewise, zeros.reachable_generators(piecewise, n)),
            (piecewise, independence_generators(piecewise, n)),
            (smooth_params, smooth.smooth_generators(ab[0], n)),
        ]
        for params, gens in sets:
            G = zeros._generator_matrix(gens)
            assert np.count_nonzero(G, axis=1).max() > 1  # some generators combine rows
            hi = min(5.0, 0.8 * params.r0)
            targets = np.linspace(0.1 * hi, hi, len(gens) - 1)
            r_hi = min(0.999 * params.r0, 2 * targets[-1])
            near, slopes = basis_values(params, n, targets, derivative=True)
            for rows in (
                basis_values(params, n, np.linspace(r_hi / 2048, r_hi, 2048)),
                near,
                slopes,
                basis_values(params, n, chebyshev_points(hi / 100, hi, 4 * len(gens))),
            ):
                assert _same_bits(zeros._generator_rows(G, rows), np.dot(G, rows))

    @pytest.mark.parametrize("ab", [(1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (0.7, -0.3)])
    def test_count_products_equal_the_separate_ones(self, ab, monkeypatch):
        # every scan and Newton evaluation of a count: F and its envelope
        # from the stacked product are np.dot(c, b) and `_envelope(c, |b|)`
        params = SystemParams(*ab)
        hi = min(5.0, 0.8 * params.r0)
        n = 3
        expansion = place_zeros(params, n, list(np.linspace(0.1 * hi, hi, reachable_zero_capacity(params, n))))
        c = expansion.vector(zeros.LONG)
        r_max = min(2 * hi, 0.95 * params.r0)
        scans, jets = [], []
        sign_flips, newton_roots = zeros._sign_flips, zeros._newton_roots

        def newton(jet, *args):
            def recorded(x):
                jets.append((x, *jet(x)))
                return jets[-1][1:]

            return newton_roots(recorded, *args)

        monkeypatch.setattr(zeros, "_sign_flips", lambda v, e: scans.append((v, e)) or sign_flips(v, e))
        monkeypatch.setattr(zeros, "_newton_roots", newton)
        count_simple_zeros(AveragedFunction(params, expansion), r_max, grid=800)
        assert scans and jets
        for vals, env in scans:
            b = basis_values(params, n, np.linspace(r_max / vals.size, r_max, vals.size))
            assert _same_bits(vals, np.dot(c, b))
            assert _same_bits(env, zeros._envelope(c, np.abs(b)))
        for x, f, d, env in jets:
            values, slopes = basis_values(params, n, x, derivative=True)
            assert _same_bits(f, np.dot(c, values))
            assert _same_bits(d, np.dot(c, slopes))
            assert _same_bits(env, zeros._envelope(c, np.abs(values)))


class TestLongDoubleDot:
    """The zero layer's long-double products use np.dot (module docstring):
    its entries must be those of @, bit for bit.  If a numpy release
    changes either loop's summation order, this fails before any record."""

    @pytest.mark.parametrize("seed", range(3))
    def test_dot_equals_matmul(self, seed):
        rng = np.random.default_rng(seed)

        def draw(*shape):  # long-double entries of magnitude 1e-10 to 1e10, both signs
            mag = 10.0 ** rng.uniform(-10, 10, shape) * rng.choice([-1.0, 1.0], shape)
            return mag.astype(zeros.LONG) / 3

        G, B = draw(11, 14), draw(14, 2048)
        G[4, 6], B[9, 100] = np.nan, np.inf
        row, Q = draw(14), draw(14, 5)
        cases = [
            (G[2], B),  # 1-D . 2-D
            (G, B),  # 2-D . 2-D
            (G, row),  # 2-D . 1-D
            (G[1], B[:, 700:1400]),  # column-subset view
            (G, B[:, 5::3]),  # strided column view
            (G[3], B[:, rng.permutation(2048)[:300]]),  # gathered columns
            (Q.T, row),  # transposed . 1-D
            (Q, Q.T @ row),  # 2-D . 1-D
            (draw(30, 14), Q),  # 2-D . 2-D, as the candidates' projection
            (draw(30, 5), Q.T),  # 2-D . transposed
            (B[:, :14].T, G.T),  # transposed . transposed
        ]
        for x, y in cases:
            assert np.array_equal(np.dot(x, y), x @ y, equal_nan=True)
        # each row of a 2-D product is the 1-D product of that row, as the
        # placement's candidates are scored together and the survey's
        # undecided draws are evaluated
        rows = draw(30, 14)
        assert np.array_equal(np.dot(rows, B), [np.dot(r, B) for r in rows], equal_nan=True)
