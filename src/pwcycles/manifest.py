"""Experiment orchestration: manifests in, result records and tables out.

A manifest is a single JSON document (schema_version 1) naming one
experiment kind and its inputs; running it is deterministic given the
explicit seed.  Results come back as a record carrying pass/fail/finding
checks (every fail stores measured value, expected value, and tolerance)
plus numeric payload tables, which `emit_table` writes as RFC-4180 CSV
and as a JSON mirror holding identical doubles (repr round-trip encoding;
timestamps live outside the payload block so reruns are byte-identical).

Experiment kinds:

    verify_identities   kernel/averaging identity suite at fixed seeds
    reproduce_hn        claimed-count reproduction + randomized ceiling
    place_and_simulate  placement -> return-map verification (eps sweep)
    smooth_theorem12    smooth-case attainability + ceiling + rank note
    sweep               displacement profiles for a given perturbation
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from . import __version__
from .averaging import (
    null_perturbation,
    AveragedFunction,
    PerturbationSpec,
    assemble,
    eval_F,
    oracle_F,
    perturbation_for_expansion,
)
from .kernels import (
    FamilyIndex,
    SystemParams,
    eval_family,
    oracle_family,
    wallis_half,
)
from .poincare import PolarField, find_fixed_points, interpolation_rows, return_map
from .smooth import place_smooth_zeros, random_search_max_smooth_zeros, smooth_generating_rank
from .zeros import (
    count_simple_zeros,
    hn_formula,
    place_zeros,
    random_search_max_zeros,
    reachable_zero_capacity,
)


class ManifestError(ValueError):
    """Invalid or incomplete experiment manifest."""


def _integer(low: int) -> Callable[[Any], int]:
    """A JSON integer >= `low`."""

    def convert(value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ValueError(f"expected an integer >= {low}, got {value!r}")
        return value

    return convert


def _number(value: Any) -> float:
    """A finite JSON number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _list(convert: Callable[[Any], Any], nonempty: bool = False, distinct: bool = False) -> Callable[[Any], List[Any]]:
    """A JSON list, each item converted."""

    def convert_list(value: Any) -> List[Any]:
        if not isinstance(value, list) or (nonempty and not value):
            raise ValueError(f"expected a {'non-empty ' * nonempty}list, got {value!r}")
        items = [convert(v) for v in value]
        if distinct and len(set(items)) < len(items):
            raise ValueError(f"expected distinct items, got {value!r}")
        return items

    return convert_list


def _descending(eps: List[float]) -> List[float]:
    if not all(e1 > e2 for e1, e2 in zip(eps, [*eps[1:], 0.0])):
        raise ValueError(f"epsilon values must be positive and descending, got {eps}")
    return eps


def _entry(value: Any) -> Tuple[int, int, float]:
    """One [i, j, value] entry of a perturbation table."""
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"expected an [i, j, value] entry, got {value!r}")
    return _integer(0)(value[0]), _integer(0)(value[1]), _number(value[2])


def _perturbation(doc: Any, what: str) -> PerturbationSpec:
    """A perturbation from a `pert_inline` or `pert_file` document."""
    tables = _convert(doc, PERTURBATION, what)
    degree = tables.pop("degree")
    return PerturbationSpec(degree, **{k: {(i, j): v for i, j, v in t} for k, t in tables.items()})


def _pert_file(path: Any) -> PerturbationSpec:
    if not isinstance(path, str):
        raise ValueError(f"expected a path string, got {path!r}")
    if not Path(path).exists():
        raise ValueError(f"referenced file does not exist: {path}")
    return _perturbation(json.loads(Path(path).read_text()), "pert_file")


# An option table maps each key to its conversion and its default.  A
# default goes through the conversion; REQUIRED marks a key that must be
# given, and None one whose absence the experiment itself handles (r_max
# and the r_grid `hi` from r0, the sweep's perturbation sources).
REQUIRED = object()
COMMON = {"a": (_number, REQUIRED), "b": (_number, REQUIRED), "seed": (_integer(0), REQUIRED)}
PERT_TABLES = ("plus_f", "plus_g", "minus_f", "minus_g")
PERTURBATION = {"degree": (_integer(1), REQUIRED), **{table: (_list(_entry), []) for table in PERT_TABLES}}
R_GRID = {"lo": (_number, 0.2), "hi": (_number, None), "count": (_integer(1), 40)}
OPTIONS = {
    "verify_identities": {"samples": (_integer(1), 40)},
    "reproduce_hn": {
        "n_list": (_list(_integer(1), distinct=True), [1, 2, 3, 4]),
        "draws": (_integer(0), 500),
        "r_max": (_number, None),
    },
    "place_and_simulate": {
        "degree": (_integer(1), REQUIRED),
        "targets": (_list(_number, nonempty=True), REQUIRED),
        "epsilons": (lambda eps: _descending(_list(_number)(eps)), []),
        "r_max": (_number, None),
        "grid": (_integer(1), 60),
    },
    "smooth_theorem12": {"n_list": (_list(_integer(1), distinct=True), [2, 3]), "draws": (_integer(0), 200)},
    "sweep": {
        "epsilons": (lambda eps: _descending(_list(_number, nonempty=True)(eps)), REQUIRED),
        "r_grid": (lambda doc: _convert(doc, R_GRID, "r_grid"), {}),
        "pert_inline": (lambda doc: _perturbation(doc, "pert_inline"), None),
        "pert_file": (_pert_file, None),
        "pert_targets": (_list(_number), None),
        "degree": (_integer(1), None),
    },
}


def _convert(doc: Any, table: Dict[str, Tuple[Callable, Any]], what: str, noun: str = "key", besides: str = "") -> Dict:
    """Every key of `table`, converted from the JSON object `doc` or from its
    default.  A key outside `table` is refused, so that a misspelt key cannot
    silently fall back to its default; every error names the key.  The
    conversions follow strict JSON types: an integer refuses a fraction, a
    boolean or a string, a number NaN, the infinities, a boolean or a
    string, and a list a string."""
    if not isinstance(doc, dict):
        raise ManifestError(f"{what} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ManifestError(
            f"{what}: unknown {noun} {', '.join(map(repr, unknown))}; the known keys are {', '.join(table)}{besides}"
        )
    values = dict.fromkeys(table)
    for key, (convert, default) in table.items():
        if key not in doc and default in (None, REQUIRED):
            continue
        try:
            values[key] = convert(doc.get(key, default))
        except ManifestError:
            raise
        except (ValueError, OverflowError, OSError) as exc:
            raise ManifestError(f"{what} {key!r}: {exc}") from exc
    missing = [key for key, (_, default) in table.items() if key not in doc and default is REQUIRED]
    if missing:
        raise ManifestError(f"{what} needs {', '.join(map(repr, missing))}")
    return values


@dataclass(frozen=True)
class ExperimentManifest:
    """One experiment: the options as given, which the digest hashes, and
    every option of the kind converted or defaulted, which the run reads."""

    kind: str
    a: float
    b: float
    seed: int
    given: Dict[str, Any]
    options: Dict[str, Any] = field(compare=False, repr=False)

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ExperimentManifest":
        if not isinstance(doc, dict):
            raise ManifestError("manifest must be a JSON object")
        version = doc.get("schema_version")
        if type(version) is not int or version != 1:
            raise ManifestError(f"schema_version must be the integer 1, got {version!r}")
        kind = doc.get("kind")
        if kind not in OPTIONS:
            raise ManifestError(f"kind must be one of {tuple(OPTIONS)}, got {kind!r}")
        common = _convert({k: doc[k] for k in COMMON if k in doc}, COMMON, "manifest")
        if common["a"] == 0 or common["b"] == 0:
            raise ManifestError("system constants must be nonzero")
        given = {k: v for k, v in doc.items() if k not in ("schema_version", "kind", *COMMON)}
        options = _convert(given, OPTIONS[kind], kind, "option", ", besides schema_version, kind, a, b and seed")
        return ExperimentManifest(kind, common["a"], common["b"], common["seed"], given, options)

    def canonical(self) -> str:
        """The manifest as given, with a `pert_file` path joined by the
        perturbation the file holds, so that a changed file changes the digest."""
        common = {"schema_version": 1, "kind": self.kind, "a": self.a, "b": self.b, "seed": self.seed}
        given = dict(self.given)
        if "pert_file" in given:
            pert = self.options["pert_file"]
            given["pert_file"] = {"path": given["pert_file"], "degree": pert.degree, "vector": pert.vector().tolist()}
        return json.dumps({**common, **given}, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _check(name: str, ok: bool, measured, expected, tolerance) -> Dict[str, Any]:
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
    }


def _finding(name: str, measured, expected, note: str) -> Dict[str, Any]:
    return {
        "name": name,
        "status": "finding",
        "measured": measured,
        "expected": expected,
        "tolerance": None,
        "note": note,
    }


def _check_radii(what: str, radii: List[float], r0: float) -> None:
    """Refuse radii that placement does not accept."""
    if not all(lo < hi for lo, hi in zip([0.0, *radii], [*radii, r0])):
        raise ManifestError(f"{what}: expected radii strictly increasing inside (0, r0 = {r0}), got {radii}")


def _sweep_perturbation(manifest: ExperimentManifest, params: SystemParams) -> PerturbationSpec:
    """The sweep's one perturbation: inline tables, a file, or a placement."""
    opts = manifest.options
    sources = [k for k in ("pert_inline", "pert_file", "pert_targets") if opts[k] is not None]
    if len(sources) != 1:
        found = ", ".join(sources) or "none"
        raise ManifestError(f"sweep needs one of pert_inline, pert_file, or pert_targets + degree; got {found}")
    if sources != ["pert_targets"]:
        if opts["degree"] is not None:
            raise ManifestError(f"sweep 'degree' goes with pert_targets; {sources[0]} carries its own degree")
        return opts[sources[0]]
    if opts["degree"] is None:
        raise ManifestError("sweep pert_targets needs 'degree'")
    _check_radii("sweep 'pert_targets'", opts["pert_targets"], params.r0)
    expansion = place_zeros(params, opts["degree"], opts["pert_targets"])
    return perturbation_for_expansion(params, expansion).normalized()


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _displacement_table(fn: AveragedFunction, fields, rr, images) -> Dict[str, Any]:
    """Scaled displacements (P(r) - r)/eps of each field's `images` of the
    radii `rr`, against the f0 = F/r prediction of `fn`.  The cells are
    Python floats, which `csv.writer` formats faster than numpy scalars."""
    pred = (eval_F(fn, rr) / rr).tolist()
    rows = [
        [fld.epsilon, r, d, p, abs(d - p)]
        for fld, image in zip(fields, images)
        for r, d, p in zip(rr.tolist(), ((image - rr) / fld.epsilon).tolist(), pred)
    ]
    return {
        "columns": ["epsilon", "r", "scaled_displacement", "f0_prediction", "abs_error"],
        "rows": rows,
    }


def _run_verify(manifest: ExperimentManifest) -> Dict[str, Any]:
    params = SystemParams(manifest.a, manifest.b)
    rng = np.random.default_rng(manifest.seed)
    samples = manifest.options["samples"]
    checks: List[Dict[str, Any]] = []

    worst = 0.0
    for _ in range(samples):
        fam = rng.choice(["A", "B", "I", "J"])
        i = int(rng.integers(0, 9))
        j = int(rng.integers(0, 9 - i))
        c = params.a if fam in ("A", "I") else params.b
        if fam in ("A", "I"):
            # front half circle: singular endpoint at r = -c
            lo, hi = (-0.9 * c, 3 * c) if c > 0 else (3 * c, 0.9 * c)
        else:
            # back half circle: singular endpoint at r = +c
            lo, hi = (-3 * c, 0.9 * c) if c > 0 else (0.9 * c, -3 * c)
        r = float(rng.uniform(lo, hi))
        idx = FamilyIndex(str(fam), i, j)
        got = eval_family(idx, r, params)
        want = oracle_family(idx, r, params)
        worst = max(worst, abs(got - want) / (1 + abs(want)))
    checks.append(_check("kernel_vs_oracle", worst < 1e-9, worst, 0.0, 1e-9))

    a = params.a
    grid = [a * t for t in (-0.7, -0.3, 0.1, 0.5, 0.9, 1.2, 2.0, 5.0)]
    a00 = FamilyIndex("A", 0, 0)
    worst_ode = 0.0
    for r in grid:
        h = 1e-6 * max(1.0, abs(r))
        d = (eval_family(a00, r + h, params) - eval_family(a00, r - h, params)) / (2 * h)
        res = abs(a * (a * a - r * r) * d - 3 * a * r * eval_family(a00, r, params) + 4)
        worst_ode = max(worst_ode, res)
    checks.append(_check("a00_ode_residual", worst_ode < 1e-8, worst_ode, 0.0, 1e-8))

    worst_pipe = 0.0
    for _ in range(max(4, samples // 4)):
        n = int(rng.integers(1, 5))
        pert = PerturbationSpec.random(n, rng)
        fn = assemble(params, pert)
        r = float(rng.uniform(0.1, min(4.0, 0.9 * params.r0)))
        got = eval_F(fn, r)
        want = oracle_F(params, pert, r)
        worst_pipe = max(worst_pipe, abs(got - want) / (1 + abs(want)))
    checks.append(_check("assembly_vs_oracle", worst_pipe < 1e-8, worst_pipe, 0.0, 1e-8))

    k = int(rng.integers(2, 12))
    lhs = k * wallis_half(k)
    rhs = (k - 1) * wallis_half(k - 2)
    checks.append(_check("wallis_recurrence", abs(lhs - rhs) < 1e-14 * max(1, lhs), lhs - rhs, 0.0, 1e-14))

    return {"checks": checks, "payloads": {}}


def _auto_targets(count: int, lo: float, hi: float) -> List[float]:
    return [float(t) for t in np.linspace(lo, hi, count)]


def _run_reproduce_hn(manifest: ExperimentManifest) -> Dict[str, Any]:
    params = SystemParams(manifest.a, manifest.b)
    opts = manifest.options
    r_max = opts["r_max"]
    if r_max is None:
        r_max = min(10.0 * max(abs(params.a), abs(params.b)), 0.95 * params.r0)
    if r_max <= 0.4:
        given = "r_max" if "r_max" in manifest.given else "the default r_max = min(10*max(|a|, |b|), 0.95*r0)"
        raise ManifestError(f"{given} = {r_max} must exceed 0.4: the targets lie on (0.3, 0.75*r_max)")
    reach = min(r_max, 8.0)  # the survey radius, which bounds the count radius and the targets
    if not reach < params.r0:
        raise ManifestError(
            f"r_max = {r_max}: the run reaches min(r_max, 8.0) = {reach}, which must stay below r0 = {params.r0}"
        )
    lo, hi = 0.3, 0.75 * r_max if r_max < 8 else 5.0
    checks: List[Dict[str, Any]] = []
    rows = []
    for n in opts["n_list"]:
        claimed = hn_formula(n, params.resonant)
        capacity = reachable_zero_capacity(params, n)
        fn = AveragedFunction(params, place_zeros(params, n, _auto_targets(capacity, lo, hi)))
        attained = count_simple_zeros(fn, r_max=min(r_max, 1.5 * hi), grid=800).simple_count
        checks.append(_check(f"attained_equals_claimed_n{n}", attained == claimed, attained, claimed, 0))
        if attained != claimed:
            checks.append(
                _finding(
                    f"capacity_n{n}",
                    attained,
                    claimed,
                    "reachable span is one short of the claimed count for even degree "
                    "(top kernel and monomial coefficients are rationally tied)",
                )
            )
        best, hist = random_search_max_zeros(params, n, opts["draws"], manifest.seed + n, r_max=reach)
        checks.append(_check(f"random_ceiling_n{n}", best <= claimed, best, claimed, 0))
        rows.append([n, claimed, capacity, attained, best])
    payload = {
        "hn_counts": {
            "columns": ["n", "claimed", "capacity", "attained", "random_max"],
            "rows": rows,
        }
    }
    return {"checks": checks, "payloads": payload}


def _run_place_and_simulate(manifest: ExperimentManifest) -> Dict[str, Any]:
    params = SystemParams(manifest.a, manifest.b)
    opts = manifest.options
    n, targets, epsilons, r_max = opts["degree"], opts["targets"], opts["epsilons"], opts["r_max"]
    _check_radii("place_and_simulate 'targets'", targets, params.r0)
    if r_max is None:
        r_max = min(1.5 * max(targets), 0.95 * params.r0)
    if r_max <= max(targets):
        if "r_max" not in manifest.given:
            raise ManifestError(f"the largest target {max(targets)} must stay below 0.95*r0 = {r_max}")
        raise ManifestError(f"r_max = {r_max} must exceed the largest target {max(targets)}")
    if not r_max < params.r0:
        raise ManifestError(f"r_max = {r_max} must stay below r0 = {params.r0}")
    checks: List[Dict[str, Any]] = []
    payloads: Dict[str, Any] = {}

    expansion = place_zeros(params, n, targets)
    fn = AveragedFunction(params, expansion)
    report = count_simple_zeros(fn, r_max=r_max, grid=800)
    checks.append(
        _check("placed_zero_count", report.simple_count == len(targets), report.simple_count, len(targets), 0)
    )
    payloads["zeros"] = {
        "columns": ["location", "derivative", "simple_flag"],
        "rows": [[z, d, z not in report.non_simple] for z, d in report.zeros],
    }
    if not epsilons:
        return {"checks": checks, "payloads": payloads}

    pert = perturbation_for_expansion(params, expansion).normalized()
    fn_scaled = assemble(params, pert)
    scaled_report = count_simple_zeros(fn_scaled, r_max=r_max, grid=800)
    predicted = scaled_report.locations
    # Minimal-norm realizations are time-reversal symmetric, which makes
    # the displacement error degenerate (pure second order).  The slope
    # study therefore adds a kernel-direction component (same averaged
    # function); the fixed-point search keeps the symmetric realization,
    # whose even-order displacement terms vanish.
    pert_g = pert.scaled_add(1.0, null_perturbation(n), 0.1)

    if not predicted:
        raise ManifestError(
            f"the scaled averaged function has no simple zero below r_max = {r_max} for targets {targets}, "
            "so there is no window for the return map"
        )
    lo = max(0.5 * min(predicted), 0.05)
    hi = min(1.2 * max(predicted), 0.95 * r_max)
    # an empty grid, lo >= hi, leaves every zero outside it
    outside = [z for z in predicted if not lo < z < hi]
    if outside:
        raise ManifestError(
            f"predicted zeros {outside} lie outside the return-map grid, from its floor max(half the smallest "
            f"zero, 0.05) = {lo} to its top min(1.2 times the largest zero, 0.95 r_max) = {hi}, with r_max = {r_max}"
        )
    r_range = (lo * 0.5, r_max)
    fields = [PolarField(params, pert_g, eps, r_range=r_range) for eps in epsilons]
    eps_fp = min(epsilons)
    field_fp = PolarField(params, pert, eps_fp, r_range=r_range)
    rr = np.linspace(lo, hi, opts["grid"])
    # one lockstep call: the displacement grid at every eps, the fixed-point
    # grid and the interpolation rows of each grid interval that holds a
    # predicted zero, which the fixed-point search then need not map
    inner = interpolation_rows(rr, predicted)
    *images, images_fp, images_inner = return_map([(fld, rr) for fld in (*fields, field_fp)] + [(field_fp, inner)])
    payloads["displacement"] = _displacement_table(fn_scaled, fields, rr, images)
    rows = payloads["displacement"]["rows"]
    errs = [max(row[4] for row in rows if row[0] == eps) for eps in epsilons]
    if len(epsilons) >= 3:
        slope = float(
            np.polyfit(np.log(np.asarray(epsilons)), np.log(np.asarray(errs)), 1)[0]
        )
        checks.append(_check("epsilon_convergence_slope", abs(slope - 1.0) <= 0.2, slope, 1.0, 0.2))

    result = find_fixed_points(field_fp, rr, images_fp, mapped=(inner, images_inner))
    checks.append(
        _check(
            "fixed_point_count",
            len(result.fixed_points) == len(predicted),
            len(result.fixed_points),
            len(predicted),
            0,
        )
    )
    # each fixed point against its nearest predicted zero; with no fixed
    # point, nothing is measured and the check fails
    gaps = [min(abs(f.location - z) for z in predicted) for f in result.fixed_points]
    worst_gap = max(gaps, default=None)
    checks.append(
        _check(
            "fixed_points_near_zeros",
            worst_gap is not None and worst_gap <= 10 * eps_fp,
            worst_gap,
            0.0,
            10 * eps_fp,
        )
    )
    payloads["fixed_points"] = {
        "columns": ["location", "stability", "displacement_slope"],
        "rows": [[f.location, f.stability, f.displacement_slope] for f in result.fixed_points],
    }
    return {"checks": checks, "payloads": payloads}


def _run_smooth(manifest: ExperimentManifest) -> Dict[str, Any]:
    a = manifest.a
    if manifest.b != a:
        raise ManifestError(f"smooth_theorem12 is the smooth system b = a; got a = {a}, b = {manifest.b}")
    params = SystemParams(a, a)
    opts = manifest.options
    checks: List[Dict[str, Any]] = []
    rows = []
    for n in opts["n_list"]:
        targets = _auto_targets(n, 0.15 * abs(a), 0.8 * abs(a))
        fn = AveragedFunction(params, place_smooth_zeros(a, n, targets))
        attained = count_simple_zeros(fn, 0.95 * abs(a), grid=2000).simple_count
        checks.append(_check(f"smooth_attained_n{n}", attained == n, attained, n, 0))
        best, _ = random_search_max_smooth_zeros(a, n, opts["draws"], manifest.seed + n, 0.95 * abs(a))
        checks.append(_check(f"smooth_ceiling_n{n}", best <= n, best, n, 0))
        ranks = smooth_generating_rank(a, n)
        ok = ranks["reachable_rank"] == ranks["expected_reachable"]
        checks.append(
            _check(f"smooth_rank_n{n}", ok, ranks["reachable_rank"], ranks["expected_reachable"], 0)
        )
        if ranks["listed_set_size"] != ranks["reachable_rank"]:
            checks.append(
                _finding(
                    f"smooth_generating_set_n{n}",
                    ranks["reachable_rank"],
                    ranks["listed_set_size"],
                    "even-degree generating set lists one more function than the reachable "
                    "span contains (the top even monomial is outside the assembled range)",
                )
            )
        rows.append([n, attained, best, ranks["listed_set_size"], ranks["reachable_rank"]])
    payload = {
        "smooth_counts": {
            "columns": ["n", "attained", "random_max", "listed_set_size", "reachable_rank"],
            "rows": rows,
        }
    }
    return {"checks": checks, "payloads": payload}


def _run_sweep(manifest: ExperimentManifest) -> Dict[str, Any]:
    params = SystemParams(manifest.a, manifest.b)
    epsilons, (lo, hi, count) = manifest.options["epsilons"], manifest.options["r_grid"].values()
    if hi is None:
        hi = min(3.0, 0.8 * params.r0)
    if not 0 < lo < hi <= 0.97 * params.r0:
        raise ManifestError(f"r_grid needs 0 < lo < hi <= 0.97*r0 = {0.97 * params.r0}; got lo = {lo}, hi = {hi}")
    pert = _sweep_perturbation(manifest, params)
    r_range = (0.5 * lo, min(1.5 * hi, 0.97 * params.r0))
    fields = [PolarField(params, pert, eps, r_range=r_range) for eps in epsilons]
    rr = np.linspace(lo, hi, count)
    table = _displacement_table(assemble(params, pert), fields, rr, return_map([(fld, rr) for fld in fields]))
    return {"checks": [], "payloads": {"displacement": table}}


_RUNNERS = {
    "verify_identities": _run_verify,
    "reproduce_hn": _run_reproduce_hn,
    "place_and_simulate": _run_place_and_simulate,
    "smooth_theorem12": _run_smooth,
    "sweep": _run_sweep,
}


def run_manifest(manifest: ExperimentManifest) -> Dict[str, Any]:
    """Execute the named experiment deterministically; returns the record."""
    body = _RUNNERS[manifest.kind](manifest)
    checks = sorted(body["checks"], key=lambda c: c["name"])
    record = {
        "experiment_id": f"{manifest.kind}-{manifest.digest()[:12]}",
        "kind": manifest.kind,
        "inputs_digest": manifest.digest(),
        "tool_version": __version__,
        "checks": checks,
        "payloads": body["payloads"],
    }
    return record


def emit_table(record: Dict[str, Any], fmt: str, out_dir: str | Path) -> List[Path]:
    """Write the record as CSV tables and/or its JSON mirror.

    The JSON mirror keeps every double at full precision (repr encoding);
    the wall-clock timestamp lives in the meta block, outside the record,
    so identical runs produce byte-identical record payloads.
    """
    if fmt not in ("csv", "json", "both"):
        raise ManifestError(f"format must be csv, json, or both; got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    base = record["experiment_id"]
    if fmt in ("json", "both"):
        doc = {"meta": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}, "record": record}
        path = out / f"{base}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        written.append(path)
    if fmt in ("csv", "both"):
        columns = ["name", "status", "measured", "expected", "tolerance"]
        checks = {"columns": columns, "rows": [[c[k] for k in columns] for c in record["checks"]]}
        for name, table in {"checks": checks, **record["payloads"]}.items():
            path = out / f"{base}_{name}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(table["columns"])
                writer.writerows(table["rows"])
            written.append(path)
    return written
