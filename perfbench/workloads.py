"""Benchmark workloads and the correctness gate applied to every run.

Each workload is a list of operations; an operation is one manifest run
through ``pwcycles.cli.main``, as a CLI user would start it.  Why each
workload was chosen:

* ``simulate`` -- place four zeros at degree 1 and find them again as
  fixed points of the integrated return map (the README example).  Almost
  all of its time is ``poincare``: 240 grid displacements plus the
  sequential brentq/finite-difference refinement.  ``zeros``,
  ``averaging`` and ``kernels`` do under 1 % of the work, so it is the
  workload on which changes to those layers must show no change.
* ``ceiling`` -- ``reproduce_hn`` for n = 1..4 with 500 survey draws at
  (a, b) = (1, -2) and at the resonant (1, -1), the acceptance
  configurations.  The exact Fraction reduction, the long-double survey
  and placement (including the even-n saturated placement that fails by
  design) run here; ``poincare`` does nothing, so it is the workload on
  which return-map changes must show no change.
* ``smooth`` -- ``smooth_theorem12`` at a = 1, n = 2, 3, with 800 draws so
  that one pass lasts a few seconds.  The only workload that runs
  ``pwcycles.smooth``; ``poincare`` and ``averaging.assemble`` are idle.

The manifests take the benchmark's ``--seed`` as their ``seed``; it drives
the null-space candidates of placement and the survey draws.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_SEED = 3
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Absolute tolerance for floating outputs compared against the reference;
# integers, flags and histograms must match exactly.
FLOAT_TOL = 1e-7

NAMES = ("simulate", "ceiling", "smooth")


def operations(workload: str, seed: int, reduced: bool = False) -> List[Tuple[str, Dict[str, Any]]]:
    """(subcommand, manifest) pairs of one pass of the workload.

    ``reduced`` shrinks every size for the benchmark's own tests while
    keeping the same code paths and the same correctness gate.
    """
    if workload == "simulate":
        eps = [0.01, 0.005, 0.0025] if reduced else [0.01, 0.005, 0.0025, 0.00125]
        doc = {
            "kind": "place_and_simulate", "a": 1.0, "b": -2.0, "degree": 1,
            "targets": [0.5, 1.0, 1.5, 2.0], "epsilons": eps, "r_max": 5.0,
            "grid": 20 if reduced else 60,
        }
        ops = [("simulate", doc)]
    elif workload == "ceiling":
        n_list, draws = ([1, 2], 20) if reduced else ([1, 2, 3, 4], 500)
        ops = [
            ("reproduce-hn", {"kind": "reproduce_hn", "a": 1.0, "b": b, "n_list": n_list, "draws": draws})
            for b in (-2.0, -1.0)
        ]
    elif workload == "smooth":
        doc = {"kind": "smooth_theorem12", "a": 1.0, "b": 1.0, "n_list": [2, 3], "draws": 20 if reduced else 800}
        ops = [("smooth", doc)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    return [(cmd, {"schema_version": 1, "seed": int(seed), **doc}) for cmd, doc in ops]


def expected_verdicts(doc: Dict[str, Any]) -> Dict[str, str]:
    """Check name -> status that a correct run of the manifest reports.

    The verdicts do not depend on the seed.  The even-degree entries record
    the documented deviations: the claimed count is one above the reachable
    capacity for even n, and the even smooth generating set lists one
    function outside the reachable span.
    """
    kind = doc["kind"]
    out: Dict[str, str] = {}
    if kind == "place_and_simulate":
        out["placed_zero_count"] = "pass"
        if len(doc["epsilons"]) >= 3:
            out["epsilon_convergence_slope"] = "pass"
        out["fixed_point_count"] = "pass"
        out["fixed_points_near_zeros"] = "pass"
    elif kind == "reproduce_hn":
        for n in doc["n_list"]:
            out[f"attained_equals_claimed_n{n}"] = "pass" if n % 2 else "fail"
            if n % 2 == 0:
                out[f"capacity_n{n}"] = "finding"
            out[f"random_ceiling_n{n}"] = "pass"
    elif kind == "smooth_theorem12":
        for n in doc["n_list"]:
            out[f"smooth_attained_n{n}"] = "pass"
            out[f"smooth_ceiling_n{n}"] = "pass"
            out[f"smooth_rank_n{n}"] = "pass"
            if n % 2 == 0:
                out[f"smooth_generating_set_n{n}"] = "finding"
    return out


def expected_exit(doc: Dict[str, Any]) -> int:
    return 1 if "fail" in expected_verdicts(doc).values() else 0


def _measured(record: Dict[str, Any], name: str):
    for check in record["checks"]:
        if check["name"] == name:
            return check["measured"]
    return None


def outputs(record: Dict[str, Any]) -> Dict[str, Any]:
    """The scientific outputs of one record that the reference pins."""
    payloads = record["payloads"]
    if record["kind"] == "place_and_simulate":
        return {
            "zeros": [row[0] for row in payloads["zeros"]["rows"]],
            "fixed_points": [[row[0], row[1]] for row in payloads["fixed_points"]["rows"]],
            "fixed_point_gap": _measured(record, "fixed_points_near_zeros"),
            "convergence_slope": _measured(record, "epsilon_convergence_slope"),
        }
    table = "hn_counts" if record["kind"] == "reproduce_hn" else "smooth_counts"
    return {table: payloads[table]["rows"]}


def science_metrics(workload: str, record: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """fp_gap_max and slope_err from the record of a ``simulate`` pass; None elsewhere."""
    if workload != "simulate":
        return None
    return {
        "fp_gap_max": float(_measured(record, "fixed_points_near_zeros")),
        "slope_err": abs(float(_measured(record, "epsilon_convergence_slope")) - 1.0),
    }


def _differences(path: str, got, want) -> List[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _differences(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _differences(f"{path}[{i}]", g, w)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isfinite(want) and abs(got - want) <= FLOAT_TOL:
            return []
        return [f"{path}: {got!r} != {want!r} (tolerance {FLOAT_TOL})"]
    if got != want or type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


def check_operation(
    doc: Dict[str, Any],
    exit_code: Optional[int],
    record: Optional[Dict[str, Any]],
    reference: Optional[Dict[str, Any]],
) -> List[str]:
    """Problems with one operation; an empty list means it succeeded.

    ``reference`` is the pinned output of this operation at the default
    seed, or None when the run uses another seed.
    """
    if exit_code is None or record is None:
        return ["no record written"]
    problems = []
    if exit_code != expected_exit(doc):
        problems.append(f"exit code {exit_code}, expected {expected_exit(doc)}")
    got = {c["name"]: c["status"] for c in record["checks"]}
    want = expected_verdicts(doc)
    if got != want:
        problems.append(f"verdicts {got} differ from the expected {want}")
    if reference is not None:
        problems += _differences(record["kind"], outputs(record), reference)
    return problems


def check_histograms(
    docs: List[Dict[str, Any]], captured: List[Dict[str, Any]], reference: Optional[List[Dict[str, Any]]]
) -> List[List[str]]:
    """Problems per operation with the survey histograms of a traced pass.

    Every survey call must report one histogram whose counts add up to its
    draws; at the default seed the histograms must equal the reference.
    """
    problems: List[List[str]] = [[] for _ in docs]
    for op, doc in enumerate(docs):
        mine = [h for h in captured if h["op"] == op]
        expected_calls = len(doc["n_list"]) if "draws" in doc else 0
        if len(mine) != expected_calls:
            problems[op].append(f"{len(mine)} survey histograms, expected {expected_calls}")
        for h in mine:
            if sum(h["hist"].values()) != doc["draws"]:
                problems[op].append(f"histogram n={h['n']} counts {h['hist']} do not add up to {doc['draws']}")
        if reference is not None:
            want = [h for h in reference if h["op"] == op]
            problems[op] += _differences(f"op{op}.histograms", mine, want)
    return problems
