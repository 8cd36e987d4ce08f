"""Print one sha256 per experiment record, to compare two source trees.

    python scripts/record_digests.py [--src DIR] [--seed N]

Imports `pwcycles` from DIR (default: this checkout's `src`) and runs, in
process, each of these manifests:

* the operations of every perfbench workload at seed N, read from
  `perfbench/workloads.operations` and left unchanged;
* a `verify_identities` manifest at seed 7;
* `simulate-degree3`: `place_and_simulate` at (1, -2), degree 3, eight
  targets 0.4, 0.8, ..., 3.2, eps down to 1.25e-3, grid 60, at seed N,
  whose displacement slopes are about 1e-9, so its fixed points sit in
  integrator noise and some brackets hold no predicted zero;
* a sweep over a placed perturbation (`pert_targets`) and a sweep over
  inline tables (`pert_inline`), at seed N.

Each of those lines is the sha256 of `json.dumps(record, sort_keys=True)`
and the manifest's name.  The next line, `csv-tables`, is one sha256
over the CSV files that `emit_table` writes for the perfbench operations'
records (see `csv_tables`).  The last nine lines,
`zero-layer-placements`, `zero-layer-reports`, `zero-layer-histograms`,
`zero-layer-smooth-placements`, `survey-fallback`, `exact-layer`,
`smooth-ranks`, `family-values` and `return-map`, are each one sha256
over outputs that no manifest of the lines above pins (see `zero_layer`,
`smooth_placements`, `survey_fallback`, `exact_layer`, `smooth_ranks`,
`family_values` and `return_map_images`); they do not depend on N.  Two trees that print
the same lines give byte-identical records, so comparing a parent
checkout with a change is

    python scripts/record_digests.py --src ../parent/src --seed 3 > before
    python scripts/record_digests.py --seed 3 > after
    diff before after

With a `--src` other than this checkout's `src`, the script then prints
how the zero layer's reports and the family values move from DIR to
this checkout, whose outputs a child process computes: per (system,
degree) one `zero-move` line with the largest change of a zero location
over its placements, or the placements whose zero count changed, one
`non-simple` line for every placement whose `non_simple` set changed,
one `family-move` line with the largest relative change of a family
value, and per `place_and_simulate` manifest one `fixed-point-move`
line with the largest change of a fixed point's location, the largest
relative change of its slope and each change of its stability class.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The (a, b) of `exact_layer` and `family_values`.
EXACT_SYSTEMS = ((1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (1.0, 1.0), (0.7, -0.3))


def manifests(seed: int):
    """(name, manifest) pairs, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.NAMES:
        for k, (_, doc) in enumerate(workloads.operations(workload, seed)):
            yield f"perfbench-{workload}-{k}", doc
    yield "verify", {"schema_version": 1, "kind": "verify_identities", "a": 1.0, "b": -2.0, "seed": 7}
    yield "simulate-degree3", {
        "schema_version": 1, "kind": "place_and_simulate", "a": 1.0, "b": -2.0, "seed": seed, "degree": 3,
        "targets": [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2], "epsilons": [0.01, 0.005, 0.0025, 0.00125], "grid": 60,
    }
    sweep = {
        "schema_version": 1, "kind": "sweep", "a": 1.0, "b": -2.0, "seed": seed,
        "epsilons": [0.01, 0.005], "r_grid": {"lo": 0.2, "hi": 2.5, "count": 12},
    }
    yield "sweep-pert_targets", {**sweep, "degree": 2, "pert_targets": [0.5, 1.0, 1.5, 2.0]}
    yield "sweep-pert_inline", {
        **sweep,
        "pert_inline": {"degree": 2, "plus_f": [[0, 0, 1.0], [1, 1, -0.5]], "minus_g": [[0, 2, 0.3]]},
    }


def csv_tables(records) -> str:
    """sha256 over the CSV files `emit_table` writes for `records`, each
    file's name and bytes in the order written.  Public names only."""
    import tempfile

    from pwcycles.manifest import emit_table

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        for record in records:
            for path in emit_table(record, "csv", out):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def zero_layer():
    """One sha256 each over placements, their zero reports and survey
    histograms, keyed `placements`, `reports` and `histograms`, and the
    reports' (locations, non_simple) keyed by (a, b, n, p).

    At (a, b) = (1, -2), (1, -1), (-1.5, 2) and (0.7, -0.3), with
    hi = min(5, 0.8 r0), for n = 1..5:

    * `place_zeros` on linspace(0.1 hi, hi, p) for every p = 1..capacity
      (144 placements), each coefficient encoded exactly as a double and
      the double residual of the long double;
    * each placement's `count_simple_zeros` report on (0, min(2 t_p,
      0.95 r0)) at grid 800, t_p the last target;
    * the 200-draw `random_search_max_zeros` histogram on (0, hi) at seed
      5 + n.

    Apart, they show whether a change that moves placements (say, in
    long-double noise) leaves the survey histograms as they were.
    """
    from pwcycles.averaging import AveragedFunction
    from pwcycles.kernels import SystemParams
    from pwcycles.zeros import LONG, count_simple_zeros, place_zeros, random_search_max_zeros, reachable_zero_capacity

    digests = {part: hashlib.sha256() for part in ("placements", "reports", "histograms")}
    reports = {}

    def put(part, *items) -> None:
        digests[part].update(repr(items).encode())

    for a, b in ((1.0, -2.0), (1.0, -1.0), (-1.5, 2.0), (0.7, -0.3)):
        params = SystemParams(a, b)
        hi = min(5.0, 0.8 * params.r0)
        for n in range(1, 6):
            for p in range(1, reachable_zero_capacity(params, n) + 1):
                targets = np.linspace(0.1 * hi, hi, p)
                expansion = place_zeros(params, n, targets)
                c = expansion.vector(LONG)
                head = c.astype(float)
                put("placements", a, b, n, p, head.tolist(), (c - head).astype(float).tolist())
                r_max = min(2 * targets[-1], 0.95 * params.r0)
                report = count_simple_zeros(AveragedFunction(params, expansion), r_max, 800)
                put("reports", a, b, n, p, report.zeros, report.grid_resolution, report.degenerate, report.non_simple)
                reports[a, b, n, p] = (report.locations, report.non_simple)
            put("histograms", a, b, n, random_search_max_zeros(params, n, 200, 5 + n, hi))
    return {part: d.hexdigest() for part, d in digests.items()}, reports


def smooth_placements() -> str:
    """sha256 over `place_smooth_zeros(a, n, linspace(0.15 |a|, 0.8 |a|, p))`
    for a = 1, -1.5 and 0.7, n = 1..6 and p = 1..n: 63 placements, 45 of
    them below the capacity n, so that their candidates are scored.  Each
    coefficient is encoded as in `zero_layer`.  Public names only."""
    from pwcycles.smooth import place_smooth_zeros
    from pwcycles.zeros import LONG

    digest = hashlib.sha256()
    for a in (1.0, -1.5, 0.7):
        for n in range(1, 7):
            for p in range(1, n + 1):
                c = place_smooth_zeros(a, n, np.linspace(0.15 * abs(a), 0.8 * abs(a), p)).vector(LONG)
                head = c.astype(float)
                digest.update(repr((a, n, p, head.tolist(), (c - head).astype(float).tolist())).encode())
    return digest.hexdigest()


def survey_fallback() -> str:
    """sha256 over the per-draw counts of `zeros._flip_counts` on two
    ensembles at (1, -2), n = 4, whose samples double cannot all decide,
    so that the survey's long-double fallback runs; no manifest and no
    other digest survey sends a sample there.

    * 500 draws of Gaussian weights (seed 7) on the window-orthonormal
      basis of the reachable span (`_orthonormal_transform`) sampled at
      grid 600 on (0, 8], mapped to expansion coefficients in long double
      and rounded to double;
    * 60 perturbation rows of the capacity placement on linspace(0.3,
      5.5, 10), jittered by 1e-13 relative (seed 404), through
      `assembly_matrix`, on grid 600 over (0, 7.7].

    The test suite's survey ensembles."""
    from pwcycles import zeros
    from pwcycles.averaging import assembly_matrix, basis_values, perturbation_for_expansion
    from pwcycles.kernels import SystemParams

    params, n = SystemParams(1.0, -2.0), 4
    basis = basis_values(params, n, np.linspace(8.0 / 600, 8.0, 600))
    G = zeros._generator_matrix(zeros.reachable_generators(params, n))
    T = zeros._orthonormal_transform(zeros._generator_rows(G, basis))
    weights = np.random.default_rng(7).standard_normal((500, len(G)))
    window = zeros._flip_counts(np.dot((weights @ T.T).astype(zeros.LONG), G).astype(float), basis)
    targets = np.linspace(0.3, 5.5, zeros.reachable_zero_capacity(params, n))
    x = perturbation_for_expansion(params, zeros.place_zeros(params, n, targets)).vector()
    rows = x * (1 + 1e-13 * np.random.default_rng(404).standard_normal((60, x.size)))
    basis = basis_values(params, n, np.linspace(7.7 / 600, 7.7, 600))
    noise_band = zeros._flip_counts(rows @ assembly_matrix(params, n).T, basis)
    return hashlib.sha256(repr((window.tolist(), noise_band.tolist())).encode()).hexdigest()


def zero_moves(before: dict, after: dict):
    """Lines comparing two `zero_layer` report sets on the same keys."""
    worst, recounted = {}, {}
    for key, (locations, flagged) in before.items():
        new_locations, new_flagged = after[key]
        system = key[:3]
        if len(new_locations) != len(locations):
            recounted.setdefault(system, []).append(f"p={key[3]}: {len(locations)} -> {len(new_locations)}")
        else:
            move = max((abs(x - y) for x, y in zip(locations, new_locations)), default=0.0)
            worst[system] = max(worst.get(system, 0.0), move)
        if tuple(flagged) != tuple(new_flagged):
            yield f"non-simple a={key[0]} b={key[1]} n={key[2]} p={key[3]}: {tuple(flagged)} -> {tuple(new_flagged)}"
    for a, b, n in sorted(set(worst) | set(recounted)):
        counts = "; zero counts changed at " + ", ".join(recounted[a, b, n]) if (a, b, n) in recounted else ""
        yield f"zero-move a={a} b={b} n={n}: largest |location change| {worst.get((a, b, n), 0.0):.3g}{counts}"


def exact_layer() -> str:
    """sha256 over the exact reduction's rounded outputs.

    At (a, b) = (1, -2), (1, -1), (-1.5, 2), (1, 1) and (0.7, -0.3), for
    n = 1..6:

    * the bytes of `assembly_matrix`;
    * the bytes of `assemble(...).expansion.vector()` for three random
      perturbations (seed 11), three with about 80 % of their
      coefficients zeroed, and every unit perturbation;
    * `coefficient_surjectivity_check`;

    then `wallis_half(k)` for k < 60.  Public names only, so the function
    runs on any tree that has them.
    """
    from pwcycles.averaging import PerturbationSpec, assemble, assembly_matrix
    from pwcycles.kernels import SystemParams, wallis_half
    from pwcycles.zeros import coefficient_surjectivity_check

    digest = hashlib.sha256()
    rng = np.random.default_rng(11)
    for a, b in EXACT_SYSTEMS:
        params = SystemParams(a, b)
        for n in range(1, 7):
            M = assembly_matrix(params, n)
            digest.update(M.tobytes())
            size = M.shape[1]
            perts = [PerturbationSpec.random(n, rng) for _ in range(3)]
            perts += [PerturbationSpec.from_vector(n, rng.uniform(-1, 1, size) * (rng.random(size) >= 0.8))
                      for _ in range(3)]
            perts += [PerturbationSpec.from_vector(n, row) for row in np.eye(size)]
            for pert in perts:
                digest.update(assemble(params, pert).expansion.vector().tobytes())
            digest.update(repr(coefficient_surjectivity_check(params, n)).encode())
    digest.update(repr([wallis_half(k) for k in range(60)]).encode())
    return digest.hexdigest()


def smooth_ranks() -> str:
    """sha256 over the records of a `smooth_theorem12` manifest (b = a,
    n = 1..6, no survey draws) at a = 1, -1.5 and 0.7: every smooth rank
    and generating-set size, beyond the smooth workload's n = 2, 3.
    Through the manifest, so the function runs on any tree."""
    from pwcycles.manifest import ExperimentManifest, run_manifest

    digest = hashlib.sha256()
    for a in (1.0, -1.5, 0.7):
        doc = {"schema_version": 1, "kind": "smooth_theorem12", "a": a, "b": a, "seed": 0,
               "n_list": [1, 2, 3, 4, 5, 6], "draws": 0}
        digest.update(json.dumps(run_manifest(ExperimentManifest.from_dict(doc)), sort_keys=True).encode())
    return digest.hexdigest()


def return_map_images() -> str:
    """sha256 over `return_map` images on three fields that no manifest
    pins, mapped one field to a call:

    * the README simulate placement (targets 0.5, 1, 1.5, 2 at (1, -2),
      degree 1) at eps = 0.3, where many steps are rejected, on 60 radii
      over (0.25, 2.4);
    * the placement of targets 0.5, 1, 1.5 at (1, -1), degree 2, at eps =
      1.25e-3, on 60 radii over (0.25, 1.8);
    * a degree-1 perturbation at (-1.5, 2) drawn at seed 13, at eps = 1e-3,
      on 30 radii over (0.1, 1.35), near the plus-side singular line x = 1.5.

    They do not depend on N.  Public names only."""
    from pwcycles.averaging import PerturbationSpec, perturbation_for_expansion
    from pwcycles.kernels import SystemParams
    from pwcycles.poincare import PolarField, return_map
    from pwcycles.zeros import place_zeros

    def placed(a, b, n, targets):
        params = SystemParams(a, b)
        return params, perturbation_for_expansion(params, place_zeros(params, n, targets)).normalized()

    bounded = SystemParams(-1.5, 2.0), PerturbationSpec.from_vector(1, np.random.default_rng(13).uniform(-1, 1, 12))
    digest = hashlib.sha256()
    for (params, pert), eps, r_range, radii in (
        (placed(1.0, -2.0, 1, [0.5, 1.0, 1.5, 2.0]), 0.3, (0.125, 5.0), np.linspace(0.25, 2.4, 60)),
        (placed(1.0, -1.0, 2, [0.5, 1.0, 1.5]), 1.25e-3, (0.125, 1.9), np.linspace(0.25, 1.8, 60)),
        (bounded, 1e-3, (0.1, 1.35), np.linspace(0.1, 1.35, 30)),
    ):
        digest.update(return_map(PolarField(params, pert, eps, r_range=r_range), radii).tobytes())
    return digest.hexdigest()


def family_values() -> list:
    """`eval_family` for A, B, I and J at i + j <= 5 and r = 0, 0.1 (inside
    the series radius of every constant here), 0.6 and 1.2, those below
    r0, at `EXACT_SYSTEMS`.  Public names only."""
    from pwcycles.kernels import FamilyIndex, SystemParams, eval_family

    values = []
    for a, b in EXACT_SYSTEMS:
        params = SystemParams(a, b)
        values += [eval_family(FamilyIndex(fam, i, j), r, params)
                   for fam in "ABIJ" for i in range(6) for j in range(6 - i)
                   for r in (0.0, 0.1, 0.6, 1.2) if r < params.r0]
    return values


def family_move(before: list, after: list) -> str:
    """The largest relative change between two `family_values` lists; a
    value that was zero counts its absolute change."""
    move = max(abs(y - x) / (abs(x) or 1.0) for x, y in zip(before, after))
    return f"family-move: largest relative change {move:.3g} over {len(before)} values"


def fixed_points(seed: int) -> dict:
    """The (location, stability, slope) rows of each `place_and_simulate`
    manifest's record, keyed by its name.  Public names only."""
    from pwcycles.manifest import ExperimentManifest, run_manifest

    return {name: run_manifest(ExperimentManifest.from_dict(doc))["payloads"]["fixed_points"]["rows"]
            for name, doc in manifests(seed) if doc["kind"] == "place_and_simulate"}


def fixed_point_move(name: str, before: list, after: list) -> str:
    """How the fixed points of one manifest move between two row lists,
    paired in order; a slope that was zero counts its absolute change."""
    if len(before) != len(after):
        return f"fixed-point-move {name}: fixed point count {len(before)} -> {len(after)}"
    pairs = list(zip(before, after))
    location = max((abs(y[0] - x[0]) for x, y in pairs), default=0.0)
    slope = max((abs(y[2] - x[2]) / (abs(x[2]) or 1.0) for x, y in pairs), default=0.0)
    classes = ", ".join(f"r={x[0]:.6g} {x[1]} -> {y[1]}" for x, y in pairs if x[1] != y[1]) or "none"
    return (f"fixed-point-move {name}: largest |location change| {location:.3g}, "
            f"largest relative slope change {slope:.3g}, class changes: {classes}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the pwcycles package")
    parser.add_argument("--seed", type=int, default=3, help="seed of the perfbench operations and the sweeps")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)  # the child's JSON
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    if args.child:
        reports = [[key, value] for key, value in zero_layer()[1].items()]
        print(json.dumps({"zero_reports": reports, "family_values": family_values(),
                          "fixed_points": fixed_points(args.seed)}))
        return 0
    from pwcycles.manifest import ExperimentManifest, run_manifest

    located, perfbench = {}, []
    for name, doc in manifests(args.seed):
        record = run_manifest(ExperimentManifest.from_dict(doc))
        print(hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(), name)
        if doc["kind"] == "place_and_simulate":
            located[name] = record["payloads"]["fixed_points"]["rows"]
        if name.startswith("perfbench-"):
            perfbench.append(record)
    print(csv_tables(perfbench), "csv-tables")
    digests, reports = zero_layer()
    for part, digest in digests.items():
        print(digest, f"zero-layer-{part}")
    print(smooth_placements(), "zero-layer-smooth-placements")
    print(survey_fallback(), "survey-fallback")
    print(exact_layer(), "exact-layer")
    print(smooth_ranks(), "smooth-ranks")
    values = family_values()
    print(hashlib.sha256(repr(values).encode()).hexdigest(), "family-values")
    print(return_map_images(), "return-map")
    if src != (ROOT / "src").resolve():
        child = json.loads(subprocess.run([sys.executable, __file__, "--child", "--seed", str(args.seed)],
                                          capture_output=True, text=True, check=True).stdout)
        here = {tuple(key): value for key, value in child["zero_reports"]}
        for line in zero_moves(reports, here):
            print(line)
        print(family_move(values, child["family_values"]))
        for name, rows in located.items():
            print(fixed_point_move(name, rows, child["fixed_points"][name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
