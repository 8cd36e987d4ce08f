"""Acceptance gate: one test per criterion (or per criterion clause).

Every test prints a PASS/FAIL line with the measured numbers.  Three
clauses fail by design and are expected to stay red: they assert claims
of the source material that the exact reduction, oracle-only rank
measurements, and high-precision collocation surveys all show to be
overstated by one for even degrees (the top kernel coefficient and the
top monomial coefficient are rationally tied, never independent).  The
companion tests at the measured capacity pass and document the corrected
counts; see notes in the repository root for the full analysis trail.
"""

import math
import time

import numpy as np
import pytest

from pwcycles.averaging import (
    AveragedFunction,
    PerturbationSpec,
    assemble,
    eval_F,
    null_perturbation,
    oracle_F,
    perturbation_for_expansion,
)
from pwcycles.kernels import (
    FamilyIndex,
    SystemParams,
    eval_family,
    oracle_family,
)
from pwcycles.poincare import (
    PolarField,
    cartesian_crosscheck,
    find_fixed_points,
    return_map,
)
from pwcycles.smooth import (
    place_smooth_zeros,
    random_search_max_smooth_zeros,
    smooth_generating_rank,
)
from pwcycles.zeros import (
    PlacementError,
    coefficient_surjectivity_check,
    count_simple_zeros,
    hn_formula,
    independence_check,
    place_zeros,
    random_search_max_zeros,
    reachable_zero_capacity,
)

A00 = FamilyIndex("A", 0, 0)
NONRES = SystemParams(1.0, -2.0)
RES = SystemParams(1.0, -1.0)


def _report(tag, ok, detail):
    print(f"ACCEPT {tag}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_kernel_oracle_agreement():
    """500 randomized family evaluations vs adaptive quadrature, rel 1e-9."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(500):
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
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report("C1", ok, f"worst scaled error {worst:.2e}, {elapsed:.1f}s over 500 cases")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_ode_residuals_and_anchor():
    """First/second-order kernel ODE residuals and the removable-point anchor."""
    # grids stay clear of the blow-up end (0.2|a| for the first-order
    # check, 0.5|a| for the second): the finite-difference truncation of
    # the stated steps exceeds the tolerances closer in
    worst1 = worst2 = 0.0
    for a in (1.0, 2.0, -1.5):
        p = SystemParams(a, 1.0)
        lo, hi = (-0.8 * a, 4.0 * a) if a > 0 else (4.0 * a, 0.8 * abs(a))
        grid = np.linspace(lo, hi, 200)
        grid = grid[np.abs(np.abs(grid) - abs(a)) > 1e-3]
        for r in grid:
            h = 1e-6 * max(1.0, abs(r))
            am, a0, ap = eval_family(A00, r - h, p), eval_family(A00, r, p), eval_family(A00, r + h, p)
            d1 = (ap - am) / (2 * h)
            worst1 = max(worst1, abs(a * (a * a - r * r) * d1 - 3 * a * r * a0 + 4))
        lo2, hi2 = (-0.5 * a, 4.0 * a) if a > 0 else (4.0 * a, 0.5 * abs(a))
        grid2 = np.linspace(lo2, hi2, 200)
        grid2 = grid2[np.abs(np.abs(grid2) - abs(a)) > 1e-3]
        for r in grid2:
            h = 1e-3 * max(1.0, abs(r))
            f = [eval_family(A00, r + k * h, p) for k in (-2, -1, 0, 1, 2)]
            d1 = (8 * (f[3] - f[1]) - (f[4] - f[0])) / (12 * h)
            d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
            worst2 = max(worst2, abs((a * a - r * r) * d2 - 5 * r * d1 - 3 * f[2]))
    anchor_err = max(
        abs(eval_family(A00, a, SystemParams(a, 1.0)) - 4 / (3 * a * a)) / (4 / (3 * a * a))
        for a in (1.0, 2.0, 0.5)
    )
    ok = worst1 < 1e-8 and worst2 < 1e-6 and anchor_err < 1e-12
    _report(
        "C2",
        ok,
        f"ODE residuals {worst1:.2e} (first) {worst2:.2e} (second), anchor rel {anchor_err:.2e}",
    )
    assert worst1 < 1e-8
    assert worst2 < 1e-6
    assert anchor_err < 1e-12


def test_criterion_3_pipeline_equivalence():
    """Assembled expansion vs direct quadrature on 100 random perturbations."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
        b = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
        p = SystemParams(a, b)
        pert = PerturbationSpec.random(n, rng)
        fn = assemble(p, pert)  # raises on any exact structural violation
        r = float(rng.uniform(0.05, min(3.5, 0.9 * p.r0)))
        got = eval_F(fn, r)
        want = oracle_F(p, pert, r)
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    ok = worst < 1e-8
    _report("C3", ok, f"worst scaled error {worst:.2e} over 100 perturbations (n <= 6)")
    assert worst < 1e-8


_C4_START = time.monotonic()


def _attained_count(p: SystemParams, n: int, count: int, window=(0.3, 5.0)) -> int:
    targets = list(np.linspace(window[0], window[1], count))
    expansion = place_zeros(p, n, targets)
    fn = AveragedFunction(p, expansion)
    return count_simple_zeros(fn, r_max=1.4 * window[1], grid=900).count


def test_criterion_4_attainability_odd_degrees():
    """Odd degrees attain the claimed counts exactly."""
    results = {}
    for p, n in ((NONRES, 1), (NONRES, 3), (RES, 1), (RES, 3)):
        claimed = hn_formula(n, p.resonant)
        results[(p.a, p.b, n)] = (claimed, _attained_count(p, n, claimed))
    ok = all(att == cl for cl, att in results.values())
    _report("C4.odd", ok, f"claimed vs attained: {results}")
    assert ok


def test_criterion_4_attainability_even_degrees():
    """Even degrees, claimed counts {7, 11} and resonant {4, 7}.

    Expected red: the reachable span has exactly the claimed dimension,
    so a square homogeneous collocation would need a singular matrix —
    and 60-digit determinant surveys show it keeps one sign.  The
    measured capacity (claimed - 1) is attained by the companion test.
    """
    outcomes = {}
    for p, n in ((NONRES, 2), (NONRES, 4), (RES, 2), (RES, 4)):
        claimed = hn_formula(n, p.resonant)
        try:
            outcomes[(p.a, p.b, n)] = (claimed, _attained_count(p, n, claimed))
        except PlacementError as exc:
            outcomes[(p.a, p.b, n)] = (claimed, str(exc).split(":")[0])
    ok = all(isinstance(att, int) and att == cl for cl, att in outcomes.values())
    _report("C4.even", ok, f"claimed vs attained: {outcomes}")
    assert ok, (
        "claimed even-degree counts are not attainable: the top kernel and "
        f"monomial coefficients are rationally tied; outcomes {outcomes}"
    )


def test_criterion_4_even_capacity_companion():
    """The measured even-degree capacity (claimed - 1) is attained."""
    results = {}
    for p, n, window in (
        (NONRES, 2, (0.4, 4.2)),
        (NONRES, 4, (0.3, 5.5)),
        (RES, 2, (0.4, 2.4)),
        (RES, 4, (0.3, 4.0)),
    ):
        cap = reachable_zero_capacity(p, n)
        results[(p.a, p.b, n)] = (cap, _attained_count(p, n, cap, window))
    ok = all(att == cap for cap, att in results.values())
    _report("C4.capacity", ok, f"capacity vs attained: {results}")
    assert ok


def test_criterion_4_random_ceiling_and_runtime():
    """500 random draws per configuration never exceed the claimed count."""
    t0 = time.monotonic()
    worst = {}
    for p in (NONRES, RES):
        for n in (1, 2, 3, 4):
            claimed = hn_formula(n, p.resonant)
            best, _ = random_search_max_zeros(p, n, 500, seed=500 + n, r_max=8.0)
            worst[(p.a, p.b, n)] = (best, claimed)
            assert best <= claimed, (p, n, best, claimed)
    elapsed = time.monotonic() - t0 + (time.monotonic() - _C4_START) * 0
    total = time.monotonic() - _C4_START
    ok = total < 300.0
    _report(
        "C4.ceiling",
        ok,
        f"max random counts {worst}; criterion-4 block runtime {total:.0f}s (< 300s)",
    )
    assert ok


_EPSILONS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def _simulate_configuration(p: SystemParams, n: int, targets):
    """Place, realize, and verify fixed points + convergence slope.

    Two realizations of the same averaged function are used: the
    minimal-norm one is reversible (its displacement has no even eps
    orders), which pins the fixed points onto the zeros but makes the
    convergence-slope measurement degenerate; a kernel-direction
    component breaks the symmetry for the slope study without touching
    the averaged function.
    """
    expansion = place_zeros(p, n, targets)
    pert = perturbation_for_expansion(p, expansion).normalized()
    fn = assemble(p, pert)
    report = count_simple_zeros(fn, r_max=1.4 * max(targets), grid=900)
    assert report.count == len(targets)
    predicted = report.locations

    pert_g = pert.scaled_add(1.0, null_perturbation(n), 0.1)

    lo, hi = 0.6 * min(predicted), 1.25 * max(predicted)
    grid = np.linspace(lo, hi, 40)
    pred_f0 = eval_F(fn, grid) / grid
    fields = [PolarField(p, pert_g, eps, r_range=(0.3 * lo, 1.3 * hi)) for eps in _EPSILONS]
    eps_fp = 1e-3
    fld = PolarField(p, pert, eps_fp, r_range=(0.3 * lo, 1.3 * hi))
    fp_grid = np.linspace(lo, hi, 60)
    *images, fp_images = return_map([(f, grid) for f in fields] + [(fld, fp_grid)])
    errs = [float(np.max(np.abs((im - grid) / eps - pred_f0))) for im, eps in zip(images, _EPSILONS)]
    slope = float(np.polyfit(np.log(_EPSILONS), np.log(errs), 1)[0])

    res = find_fixed_points(fld, fp_grid, fp_images)
    gaps = [abs(f.location - z) for f, z in zip(res.fixed_points, predicted)]
    return len(res.fixed_points), len(predicted), max(gaps, default=math.nan), slope, eps_fp


_C5_START = time.monotonic()


def test_criterion_5_odd_parity_dynamics():
    """n=1 with 4 zeros: fixed points at eps=1e-3 within 10*eps, slope 1+-0.2."""
    got, want, gap, slope, eps_fp = _simulate_configuration(
        NONRES, 1, [0.5, 1.0, 1.5, 2.0]
    )
    elapsed = time.monotonic() - _C5_START
    ok = got == want and gap <= 10 * eps_fp and abs(slope - 1.0) <= 0.2 and elapsed < 600
    _report(
        "C5.n1",
        ok,
        f"{got}/{want} fixed points, max gap {gap:.2e} (tol {10 * eps_fp}), "
        f"slope {slope:.3f}, {elapsed:.0f}s",
    )
    assert got == want
    assert gap <= 10 * eps_fp
    assert abs(slope - 1.0) <= 0.2
    assert elapsed < 600


def test_criterion_5_even_parity_dynamics():
    """n=2 with 7 zeros in (0, 5): expected red, capacity is 6.

    The placement itself is impossible (see criterion 4); the return-map
    machinery for even degree is exercised by the companion below.
    """
    targets = list(np.linspace(0.5, 4.1, 7))
    try:
        got, want, gap, slope, eps_fp = _simulate_configuration(NONRES, 2, targets)
    except PlacementError as exc:
        _report("C5.n2", False, f"7-zero configuration unplaceable: {exc}")
        pytest.fail(
            f"criterion 5 even-parity clause asserts 7 zeros for n=2, but the "
            f"reachable span caps at 6 simple zeros: {exc}"
        )
    ok = got == want and gap <= 10 * eps_fp and abs(slope - 1.0) <= 0.2
    _report("C5.n2", ok, f"{got}/{want} fixed points, gap {gap:.2e}, slope {slope:.3f}")
    assert ok


def test_criterion_5_even_parity_companion():
    """n=2 at a dynamically resolvable sub-capacity count (4 zeros)."""
    got, want, gap, slope, eps_fp = _simulate_configuration(NONRES, 2, [0.6, 1.2, 1.8, 2.4])
    elapsed = time.monotonic() - _C5_START
    ok = got == want and gap <= 10 * eps_fp and abs(slope - 1.0) <= 0.2 and elapsed < 600
    _report(
        "C5.companion",
        ok,
        f"{got}/{want} fixed points, max gap {gap:.2e}, slope {slope:.3f}, "
        f"criterion-5 block runtime {elapsed:.0f}s",
    )
    assert got == want
    assert gap <= 10 * eps_fp
    assert abs(slope - 1.0) <= 0.2
    assert elapsed < 600


def test_criterion_6_smooth_case():
    """Smooth system: exactly n zeros attainable, never exceeded; rank recorded."""
    a = 1.0
    details = {}
    for n in (2, 3):
        targets = list(np.linspace(0.15, 0.8, n))
        fn = AveragedFunction(SystemParams(a, a), place_smooth_zeros(a, n, targets))
        zeros = count_simple_zeros(fn, 0.95, grid=2000).locations
        best, _ = random_search_max_smooth_zeros(a, n, 200, seed=606 + n, r_max=0.95)
        ranks = smooth_generating_rank(a, n)
        details[n] = {
            "attained": len(zeros),
            "random_max": best,
            "listed_set": ranks["listed_set_size"],
            "reachable": ranks["reachable_rank"],
        }
        assert len(zeros) == n, details
        assert best <= n, details
        assert ranks["reachable_rank"] == n + 1
    # the even-degree generating-set question: the listed set has one more
    # function than the reachable span (its top even monomial is outside
    # the assembled range); recorded here and in the run records
    assert details[2]["listed_set"] == details[2]["reachable"] + 1
    assert details[3]["listed_set"] == details[3]["reachable"]
    _report("C6", True, f"smooth counts and ranks: {details}")


def test_criterion_7_independence_full_rank():
    """Candidate generating sets sampled at 4x size Chebyshev points, n <= 5.

    Expected red: mathematically the sets are independent (distinct branch
    points), but from degree 3 up the top kernel terms are numerically
    monomial-like (r^(2i) A ~ (2/a) r^(2i-1) to working precision), so the
    minimum singular value after column normalization falls to the 1e-15
    floor and the stated 1e-10 gate cannot be met at double precision.
    """
    outcomes = {}
    ok = True
    for p in (NONRES, RES):
        for n in range(1, 6):
            rank, sv = independence_check(p, n, r_max=6.0)
            from pwcycles.zeros import independence_generators

            size = len(independence_generators(p, n))
            outcomes[(p.a, p.b, n)] = (rank, size, sv)
            ok = ok and rank == size and sv > 1e-10
    _report("C7.independence", ok, f"(rank, size, min_sv): {outcomes}")
    assert ok, (
        "candidate sets are numerically rank-deficient at working precision "
        f"for higher degrees: {outcomes}"
    )


def test_criterion_7_independence_low_degree_companion():
    """The gate holds where the sets are numerically resolvable."""
    outcomes = {}
    ok = True
    for p, n_max in ((NONRES, 2), (RES, 4)):
        for n in range(1, n_max + 1):
            rank, sv = independence_check(p, n, r_max=6.0)
            from pwcycles.zeros import independence_generators

            size = len(independence_generators(p, n))
            outcomes[(p.a, p.b, n)] = (rank, size, sv)
            ok = ok and rank == size and sv > 1e-10
    _report("C7.indep-companion", ok, f"{outcomes}")
    assert ok


def test_criterion_7_surjectivity_odd_degrees():
    """Claimed-arbitrary coefficient lists reachable for odd n."""
    outcomes = {}
    for n in (1, 3):
        rank, expected = coefficient_surjectivity_check(NONRES, n)
        outcomes[n] = (rank, expected)
    ok = all(r == e for r, e in outcomes.values())
    _report("C7.surjectivity-odd", ok, f"rank vs claimed: {outcomes}")
    assert ok


def test_criterion_7_surjectivity_even_degrees():
    """Claimed lists for even n.

    Expected red: the exact reduction proves the top monomial coefficient
    is a fixed rational multiple of the top kernel coefficient on each
    half, so the claimed list overcounts the reachable rank by two.
    """
    outcomes = {}
    for n in (2, 4):
        rank, expected = coefficient_surjectivity_check(NONRES, n)
        outcomes[n] = (rank, expected)
    ok = all(r == e for r, e in outcomes.values())
    _report("C7.surjectivity-even", ok, f"rank vs claimed: {outcomes}")
    assert ok, (
        "even-degree claimed coefficient lists are not jointly reachable "
        f"(one exact tie per half): {outcomes}"
    )


def test_criterion_8_cross_integrator_agreement():
    """Polar vs Cartesian return maps on 20 random cases; eps=0 conservation."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.6, 1.8))
        b = float(-rng.uniform(0.6, 2.2))
        p = SystemParams(a, b)
        pert = PerturbationSpec.random(int(rng.integers(1, 4)), rng)
        eps = float(rng.uniform(2e-4, 2e-3))
        fld = PolarField(p, pert, eps, r_range=(0.2, 3.5))
        r = float(rng.uniform(0.4, 2.8))
        polar = return_map(fld, r)
        cart = cartesian_crosscheck(fld, (r, 0.0), n_crossings=1).section_radii[0]
        worst = max(worst, abs(polar - cart))
    fld0 = PolarField(SystemParams(1.0, -2.0), PerturbationSpec(1), 0.0, r_range=(0.2, 3.5))
    drift = cartesian_crosscheck(fld0, (1.3, 0.0), n_crossings=1).max_invariant_drift
    ok = worst < 1e-8 and drift < 1e-10
    _report("C8", ok, f"worst polar/cartesian gap {worst:.2e}, eps=0 drift {drift:.2e}")
    assert worst < 1e-8
    assert drift < 1e-10
