"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Reduced-size passes of every workload go through the same correctness
gate as a full run; the traced pass must record calls in the layers each
workload is predicted to exercise and none in the layers it bypasses; the
tracer must leave no wrapper bound.
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}

# Per workload: metrics that must be at least 1 on a traced pass, and
# metrics that must be exactly 0 because the workload bypasses the layer.
PREDICTED = {
    "simulate": (
        [
            "poincare.return_map.calls",
            "poincare.PolarField.calls",
            "poincare.solve_ivp.calls",
            "poincare.solve_ivp.nfev",
            "poincare.displacement_profile.radii",
            "poincare.find_fixed_points.return_maps_per_fixed_point",
            "averaging.perturbation_for_expansion.calls",
            "averaging.perturbation_for_expansion.assemble_calls",
            "zeros.place_zeros.calls",
        ],
        ["smooth.assemble_smooth.calls", "zeros.random_search_max_zeros.draws"],
    ),
    "ceiling": (
        [
            "averaging.assemble.calls",
            "kernels.a00.calls",
            "kernels.a00.points",
            "zeros.place_zeros.calls",
            "zeros.place_zeros.failed",
            "zeros.count_simple_zeros.calls",
            "zeros.random_search_max_zeros.draws",
        ],
        ["poincare.return_map.calls", "poincare.PolarField.calls", "poincare.solve_ivp.calls",
         "smooth.assemble_smooth.calls"],
    ),
    "smooth": (
        [
            "smooth.assemble_smooth.calls",
            "smooth.random_search_max_smooth_zeros.draws",
            "kernels.a00.calls",
        ],
        ["poincare.return_map.calls", "poincare.PolarField.calls", "poincare.solve_ivp.calls",
         "averaging.assemble.calls"],
    ),
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reduced_traced_run_passes_gate_and_hits_predicted_layers(workload, tmp_path):
    out = run.run(workload, seed=11, seconds=0.1, trace=True, work=tmp_path, reduced=True)
    result, detail = out["result"], out["detail"]
    assert detail["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    used, bypassed = PREDICTED[workload]
    for name in used:
        assert metrics[name] >= 1, name
    for name in bypassed:
        assert metrics[name] == 0, name
    assert metrics["manifest.emit_table.bytes"] > 0
    assert metrics["import.scipy_s"] > 0 and metrics["import.pwcycles_s"] > 0
    assert sum(metrics[f"{layer}.share"] for layer in tracer.LAYERS) == pytest.approx(1.0, abs=0.02)


def test_reduced_untraced_run_reports_end_to_end_metrics(tmp_path):
    out = run.run("simulate", seed=5, seconds=0.1, trace=False, work=tmp_path, reduced=True)
    result = out["result"]
    assert result["correct"] and result["attempted"] == run.MIN_PASSES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert out["detail"]["samples"]["setup_s"] >= run.MIN_SETUP_SAMPLES
    assert 0 < result["metrics"]["fp_gap_max"]["value"] < 1e-2


def _ceiling_record(doc, reference):
    checks = [{"name": k, "status": v, "measured": None} for k, v in workloads.expected_verdicts(doc).items()]
    return {"kind": "reproduce_hn", "checks": checks, "payloads": {"hn_counts": {"rows": reference["hn_counts"]}}}


def test_gate_rejects_wrong_verdict_exit_code_and_output():
    doc = workloads.operations("ceiling", workloads.DEFAULT_SEED)[0][1]
    reference = workloads.load_reference()["ceiling"]["records"][0]
    record = _ceiling_record(doc, reference)
    assert workloads.check_operation(doc, 1, record, reference) == []
    assert workloads.check_operation(doc, 0, record, reference)
    assert workloads.check_operation(doc, 3, None, reference)

    flipped = copy.deepcopy(record)
    flipped["checks"][0]["status"] = "fail"
    assert workloads.check_operation(doc, 1, flipped, reference)

    moved = copy.deepcopy(record)
    moved["payloads"]["hn_counts"]["rows"][1][4] += 1
    assert workloads.check_operation(doc, 1, moved, reference)


def test_gate_compares_floats_within_tolerance_only():
    want = {"zeros": [0.5, 1.0]}
    assert workloads._differences("x", {"zeros": [0.5 + 1e-9, 1.0]}, want) == []
    assert workloads._differences("x", {"zeros": [0.5 + 1e-5, 1.0]}, want)
    assert workloads._differences("x", {"zeros": [0.5]}, want)


def test_histogram_gate_checks_draw_totals_and_reference():
    doc = workloads.operations("smooth", 1, reduced=True)[0][1]
    good = [{"op": 0, "function": "f", "n": n, "hist": {"0": 15, "1": 5}} for n in doc["n_list"]]
    assert workloads.check_histograms([doc], good, None) == [[]]
    assert workloads.check_histograms([doc], good[:1], None) != [[]]
    short = copy.deepcopy(good)
    short[0]["hist"]["0"] = 14
    assert workloads.check_histograms([doc], short, None) != [[]]
    assert workloads.check_histograms([doc], short, good) != [[]]


def test_tracer_sees_calls_through_by_name_imports_and_restores_everything():
    import numpy as np

    import pwcycles.averaging
    import pwcycles.manifest
    import pwcycles.poincare
    import pwcycles.zeros
    from pwcycles.kernels import SystemParams

    originals = {
        (mod.__name__, name): getattr(mod, name)
        for mod in (pwcycles.averaging, pwcycles.zeros, pwcycles.manifest, pwcycles)
        for name in ("assemble", "place_zeros")
        if hasattr(mod, name)
    }
    post_init = pwcycles.poincare.PolarField.__dict__["__post_init__"]
    solve_ivp = pwcycles.poincare.solve_ivp

    t = tracer.Tracer()
    with t:
        assert pwcycles.zeros.assemble is not originals[("pwcycles.averaging", "assemble")]
        assert pwcycles.zeros.assemble is pwcycles.averaging.assemble is pwcycles.assemble
        pwcycles.zeros.random_search_max_zeros(SystemParams(1.0, -2.0), 1, 3, 0, r_max=2.0, grid=50)
        field = pwcycles.poincare.PolarField(
            SystemParams(1.0, -2.0), pwcycles.averaging.null_perturbation(1), 0.01, r_range=(0.5, 0.6)
        )
        pwcycles.poincare.return_map(field, 0.55)
    spans = t.spans()
    names = [s[0] for s in spans]
    survey = names.index("zeros.random_search_max_zeros")
    assert names.count("averaging.assemble") == 3
    assert all(spans[i][3] == survey for i, n in enumerate(names) if n == "averaging.assemble")
    assert names.count("poincare.PolarField") == 1 and names.count("poincare.solve_ivp") == 3
    assert tracer.survey_histograms(spans)[0]["n"] == 1
    metrics = tracer.layer_metrics(spans)
    assert metrics["poincare.solve_ivp.nfev"] > 0 and metrics["kernels.a00.points"] >= 3 * 50

    assert tracer.remaining_wrappers() == []
    for (mod, name), obj in originals.items():
        assert getattr(sys.modules[mod], name) is obj
    assert pwcycles.poincare.PolarField.__dict__["__post_init__"] is post_init
    assert pwcycles.poincare.solve_ivp is solve_ivp
    assert np.isfinite(metrics["zeros.share"])


def test_layer_metrics_self_time_and_recursion():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, None),
        ("kernels.a00", 1.0, 4.0, 0, 0, {"points": 5}),
        ("kernels.a00", 2.0, 3.0, 1, 0, {"points": 5}),
        ("poincare.return_map", 5.0, 9.0, 0, 0, None),
        ("poincare.solve_ivp", 6.0, 8.0, 3, 0, {"nfev": 40}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["kernels.a00.calls"] == 1 and m["kernels.a00.points"] == 5
    assert m["kernels.a00.self_s"] == pytest.approx(3.0)
    assert m["poincare.return_map.self_s"] == pytest.approx(4.0)
    assert m["poincare.solve_ivp.calls"] == 1 and m["poincare.solve_ivp.nfev"] == 40
    assert m["cli.main.self_s"] == pytest.approx(3.0)
    assert m["kernels.share"] == pytest.approx(0.3) and m["poincare.share"] == pytest.approx(0.4)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "smooth", "--seed", "1", "--seconds", "1"]) == 2
