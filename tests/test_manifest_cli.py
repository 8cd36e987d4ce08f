"""Manifest validation, determinism, emission formats, CLI exit codes."""

import csv
import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pwcycles import manifest
from pwcycles.averaging import AveragedFunction
from pwcycles.cli import _build_parser, _manifest_from_args, main
from pwcycles.manifest import (
    OPTIONS,
    REQUIRED,
    ExperimentManifest,
    ManifestError,
    emit_table,
    run_manifest,
)
from pwcycles.poincare import _INTERP_NODES
from pwcycles.zeros import count_simple_zeros


def _verify_doc(**over):
    """A verify_identities manifest at 10 samples; another `kind` in `over`
    drops `samples`, which only that kind reads."""
    doc = {
        "schema_version": 1,
        "kind": "verify_identities",
        "a": 1.0,
        "b": -2.0,
        "seed": 7,
        "samples": 10,
    }
    if over.get("kind", doc["kind"]) != doc["kind"]:
        del doc["samples"]
    doc.update(over)
    return doc


_ROOT = Path(__file__).resolve().parents[1]
_SIM = {"kind": "place_and_simulate", "degree": 1, "targets": [0.5]}
_SWEEP = {"kind": "sweep", "epsilons": [0.01]}
# the README simulate example at grid 20 and three eps
_SIM_REDUCED = {
    "schema_version": 1, "kind": "place_and_simulate", "a": 1.0, "b": -2.0, "seed": 3, "degree": 1,
    "targets": [0.5, 1.0, 1.5, 2.0], "epsilons": [0.01, 0.005, 0.0025], "r_max": 5.0, "grid": 20,
}


class TestManifestValidation:
    def test_minimal_valid(self):
        m = ExperimentManifest.from_dict(_verify_doc())
        assert m.kind == "verify_identities"

    def test_empty_manifest_names_missing_field(self):
        with pytest.raises(ManifestError, match="schema_version"):
            ExperimentManifest.from_dict({})

    @pytest.mark.parametrize("doc", [[_verify_doc()], "verify_identities", None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ManifestError, match="^manifest must be a JSON object$"):
            ExperimentManifest.from_dict(doc)

    @pytest.mark.parametrize("entry", [[0, 0], [0, 0, 1.0, 2.0], {"i": 0, "j": 0, "value": 1.0}, "0 0 1"])
    def test_table_entry_must_be_a_triple(self, entry):
        doc = _verify_doc(kind="sweep", epsilons=[0.01], pert_inline={"degree": 1, "plus_f": [entry]})
        with pytest.raises(ManifestError, match=r"^pert_inline 'plus_f': expected an \[i, j, value\] entry, got "):
            ExperimentManifest.from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(ManifestError, match="kind"):
            ExperimentManifest.from_dict(_verify_doc(kind="nonsense"))

    def test_missing_seed(self):
        doc = _verify_doc()
        del doc["seed"]
        with pytest.raises(ManifestError, match="seed"):
            ExperimentManifest.from_dict(doc)

    def test_missing_constants(self):
        doc = _verify_doc()
        del doc["a"]
        with pytest.raises(ManifestError, match="manifest needs 'a'"):
            ExperimentManifest.from_dict(doc)

    def test_constants_are_tested_for_zero_one_by_one(self):
        # the product 1e-200 * -1e-200 underflows to zero; the constants do not
        m = ExperimentManifest.from_dict(_verify_doc(a=1e-200, b=-1e-200))
        assert (m.a, m.b) == (1e-200, -1e-200)
        with pytest.raises(ManifestError, match="nonzero"):
            ExperimentManifest.from_dict(_verify_doc(a=0.0))

    def test_epsilons_must_descend(self):
        doc = _verify_doc(kind="sweep", epsilons=[1e-3, 1e-2])
        with pytest.raises(ManifestError, match="descending"):
            ExperimentManifest.from_dict(doc)

    def test_epsilons_must_be_positive(self):
        doc = _verify_doc(kind="sweep", epsilons=[1e-2, -1e-3])
        with pytest.raises(ManifestError, match="positive"):
            ExperimentManifest.from_dict(doc)

    def test_readme_simulate_digest_is_pinned(self):
        # the digest hashes the manifest as given, without defaults; a change
        # to it would rename every record of that manifest
        text = (_ROOT / "README.md").read_text()
        start = text.index("\n", text.index("cat > sim.json")) + 1
        doc = json.loads(text[start : text.index("\nEOF", start)])
        digest = ExperimentManifest.from_dict(doc).digest()
        assert digest == "35e530c09cca77784433937de404a07c28d4947e06f191c5cd00b8dab246ec70"

    @pytest.mark.parametrize(
        "over,digest",
        [({"pert_inline": {"degree": 2, "plus_f": [[0, 0, 0.3], [1, 0, -0.5]], "minus_g": [[1, 1, 0.7]]}},
          "25b54b986879036151895015f05e18c2de2349be5cde31c70e1f6239b3278ff7"),
         ({"degree": 1, "pert_targets": [0.5, 1.5]},
          "550976634e41603af33a88bdf2b2ded89023f0e839b660e1df38784c58be448d")],
        ids=["pert_inline", "pert_targets"],
    )
    def test_sweep_digests_are_pinned(self, over, digest):
        doc = _verify_doc(kind="sweep", epsilons=[0.01, 0.005], **over)
        assert ExperimentManifest.from_dict(doc).digest() == digest

    def test_pert_file_digest_follows_the_file(self, tmp_path):
        # two tables written in turn under one path are two experiments
        path = tmp_path / "pert.json"
        doc = _verify_doc(**_SWEEP, pert_file=str(path), r_grid={"lo": 0.5, "hi": 1.5, "count": 2})
        records = []
        for value in (0.4, -0.9):
            path.write_text(json.dumps({"degree": 1, "plus_g": [[0, 1, value]]}))
            records.append(run_manifest(ExperimentManifest.from_dict(doc)))
        (first, second) = records
        assert first["inputs_digest"] != second["inputs_digest"]
        assert first["experiment_id"] != second["experiment_id"]
        assert first["payloads"] != second["payloads"]

    def test_missing_file_reference(self, tmp_path):
        doc = _verify_doc(kind="sweep", pert_file=str(tmp_path / "nope.json"))
        with pytest.raises(ManifestError, match="does not exist"):
            ExperimentManifest.from_dict(doc)


class TestRunDeterminism:
    def test_identical_records(self):
        m = ExperimentManifest.from_dict(_verify_doc())
        r1 = run_manifest(m)
        r2 = run_manifest(m)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [
            _SIM_REDUCED,
            _verify_doc(kind="sweep", epsilons=[0.01, 0.005], pert_inline={
                "degree": 2, "plus_f": [[0, 0, 0.3], [1, 0, -0.5]], "minus_g": [[1, 1, 0.7]]}),
            _verify_doc(kind="sweep", epsilons=[0.01, 0.005], degree=1, pert_targets=[0.5, 1.5]),
        ],
        ids=["simulate", "sweep_inline", "sweep_targets"],
    )
    def test_return_map_experiments_rerun_byte_identical(self, doc):
        m = ExperimentManifest.from_dict(doc)
        r1, r2 = (json.dumps(run_manifest(m), sort_keys=True, indent=1) for _ in range(2))
        assert r1 == r2 and '"displacement"' in r1

    def test_json_mirror_round_trip(self, tmp_path):
        m = ExperimentManifest.from_dict(_verify_doc())
        record = run_manifest(m)
        paths = emit_table(record, "json", tmp_path)
        doc = json.loads(paths[0].read_text())
        # doubles survive the round trip bit for bit
        for c_orig, c_load in zip(record["checks"], doc["record"]["checks"]):
            assert c_load["measured"] == c_orig["measured"]

    def test_timestamp_outside_payload(self, tmp_path):
        m = ExperimentManifest.from_dict(_verify_doc())
        record = run_manifest(m)
        paths = emit_table(record, "json", tmp_path)
        doc = json.loads(paths[0].read_text())
        assert "timestamp" in doc["meta"]
        assert "timestamp" not in json.dumps(doc["record"])


class TestEmission:
    def test_csv_check_table(self, tmp_path):
        m = ExperimentManifest.from_dict(_verify_doc())
        record = run_manifest(m)
        paths = emit_table(record, "csv", tmp_path)
        with paths[0].open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "status", "measured", "expected", "tolerance"]
        assert len(rows) == len(record["checks"]) + 1

    def test_zero_table_columns(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "place_and_simulate",
            "a": 1.0,
            "b": -2.0,
            "seed": 3,
            "degree": 1,
            "targets": [0.5, 1.0, 1.5, 2.0],
            "epsilons": [],
        }
        record = run_manifest(ExperimentManifest.from_dict(doc))
        paths = emit_table(record, "csv", tmp_path)
        zero_csv = [p for p in paths if p.name.endswith("_zeros.csv")][0]
        with zero_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["location", "derivative", "simple_flag"]
        assert len(rows) == 5  # header + four zeros

    def test_simulate_payload_cells_are_python_scalars(self):
        # csv.writer formats numpy scalars through numpy's str, several
        # times slower than a built-in float's repr, which prints the same
        record = run_manifest(ExperimentManifest.from_dict(_SIM_REDUCED))
        assert set(record["payloads"]) == {"zeros", "displacement", "fixed_points"}
        for table in record["payloads"].values():
            assert table["rows"]
            for row in table["rows"]:
                assert {type(cell) for cell in row} <= {bool, int, float, str}

    def test_bad_format_rejected(self, tmp_path):
        m = ExperimentManifest.from_dict(_verify_doc())
        with pytest.raises(ManifestError):
            emit_table(run_manifest(m), "xml", tmp_path)


class TestReproduceHn:
    def test_odd_degree_counts(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "reproduce_hn",
            "a": 1.0,
            "b": -2.0,
            "seed": 2,
            "n_list": [1, 3],
            "draws": 20,
            "r_max": 8.0,
        }
        record = run_manifest(ExperimentManifest.from_dict(doc))
        rows = {r[0]: r for r in record["payloads"]["hn_counts"]["rows"]}
        assert rows[1][3] == 4  # attained H(1)
        assert rows[3][3] == 8  # attained H(3)
        assert all(c["status"] == "pass" for c in record["checks"])

    def test_even_degree_records_finding(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "reproduce_hn",
            "a": 1.0,
            "b": -1.0,
            "seed": 2,
            "n_list": [2],
            "draws": 10,
            "r_max": 6.0,
        }
        record = run_manifest(ExperimentManifest.from_dict(doc))
        statuses = {c["name"]: c["status"] for c in record["checks"]}
        assert statuses["attained_equals_claimed_n2"] == "fail"
        assert statuses["capacity_n2"] == "finding"
        assert statuses["random_ceiling_n2"] == "pass"


class TestCli:
    def test_verify_exit_zero(self, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc()))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_b_and_seed_override_the_config(self, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc()))
        args = _build_parser().parse_args(["verify", "--config", str(cfg), "--b", "-3", "--seed", "9"])
        m = _manifest_from_args(args)
        assert (m.a, m.b, m.seed) == (1.0, -3.0, 9)

    def test_verify_negative_a_exit_zero(self, tmp_path, capsys):
        # for a < 0 the ODE-residual grid a * t must stay in A00's domain r < -a
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc(a=-1.0, b=2.0)))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4 and "[FAIL]" not in out

    def test_config_error_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["verify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "command,over,argv",
        [
            ("verify", {"a": "abc"}, []),
            ("verify", {"b": [1.0]}, []),
            ("verify", {"seed": "three"}, []),
            ("simulate", {**_SIM, "epsilons": [0.01, "abc"]}, []),
            ("simulate", _SIM, ["--epsilon", "0.1,abc"]),
            ("sweep", {**_SWEEP, "pert_targets": [0.5, 1.0]}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"plus_f": [[0, 0, 1.0]]}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1, "plus_f": [[1, 1, 2.0]]}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1, "plus_f": [[0, "x", 2.0]]}}, []),
            ("verify", {"samples": "many"}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "n_list": [1, "x"]}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "n_list": 3}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "draws": "abc"}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "r_max": "far"}, []),
            ("smooth", {"kind": "smooth_theorem12", "draws": [10]}, []),
            ("simulate", {**_SIM, "degree": "one"}, []),
            ("simulate", {**_SIM, "targets": [0.5, "x"]}, []),
            ("simulate", {**_SIM, "targets": []}, []),
            ("simulate", {**_SIM, "targets": 0.5}, []),
            ("simulate", {**_SIM, "grid": "fine"}, []),
            ("simulate", {**_SIM, "r_max": None}, []),
            ("simulate", {**_SIM, "r_max": 0.5}, []),
            ("simulate", {**_SIM, "grid": 0}, []),
            ("simulate", {**_SIM, "a": -1.0, "b": 2.0, "targets": [0.5, 0.98]}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": [0.2, 1.0]}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"lo": "x"}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"hi": [1.0]}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"count": "forty"}}, []),
            ("verify", [1, 2], []),
            ("verify", "x", []),
            ("sweep", {**_SWEEP, "pert_file": 5}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "a": 1.0, "b": 0.35}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "a": -0.3, "b": 1.0}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "r_max": 0.35}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "n_list": [1, 0]}, []),
            ("smooth", {"kind": "smooth_theorem12", "n_list": [0]}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "draws": -1}, []),
            ("smooth", {"kind": "smooth_theorem12", "draws": -1}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"lo": 0.0}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"lo": 1.0, "hi": 0.5}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"count": 0}}, []),
            ("sweep", {**_SWEEP, "b": 2.0, "pert_inline": {"degree": 1}, "r_grid": {"hi": 2.5}}, []),
            ("verify", {"samples": 0}, []),
            ("verify", {"samples": -4}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "b": 2.0, "r_max": 2.2}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "b": 2.0, "r_max": 3.0}, []),
            ("simulate", {**_SIM, "epsilonz": [0.01, 0.005]}, []),
            ("simulate", {**_SIM, "grd": 20}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "samples": 10}, []),
            ("smooth", {"kind": "smooth_theorem12", "r_max": 0.9}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "grid": 20}, []),
            ("verify", {}, ["--epsilon", "0.01"]),
            ("reproduce-hn", {"kind": "reproduce_hn"}, ["--epsilon", "0.01"]),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"lo": 0.2, "hii": 1.0, "count": 3}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1, "minus_gg": [[0, 0, 1.0]]}}, []),
            ("sweep", {**_SWEEP, "pert_file": {"degree": 1, "plus_f": [[0, 0, 1.0]], "seed": 3}}, []),
            ("verify", {"a": math.nan}, []),
            ("verify", {}, ["--a", "nan"]),
            ("reproduce-hn", {"kind": "reproduce_hn", "a": math.inf}, []),
            ("verify", {"seed": math.inf}, []),
            ("verify", {"samples": math.inf}, []),
            ("simulate", _SIM, ["--epsilon", "inf,0.01"]),
            ("simulate", {**_SIM, "targets": [0.5, math.nan]}, []),
            ("simulate", {**_SIM, "r_max": math.inf}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "r_max": math.nan}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"hi": math.nan}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1, "plus_f": [[0, 0, math.nan]]}}, []),
            ("sweep", {**_SWEEP, "pert_targets": [0.5, math.nan], "degree": 1}, []),
            ("place", {**_SIM, "degree": 0}, []),
            ("simulate", {**_SIM, "degree": 0}, []),
            ("simulate", {**_SIM, "targets": [1.0, 0.5]}, []),
            ("simulate", {**_SIM, "targets": [-0.5, 1.0]}, []),
            ("simulate", {**_SIM, "targets": [0.5, 0.5]}, []),
            ("simulate", {**_SIM, "b": 2.0, "targets": [0.5, 2.5], "r_max": 3.0}, []),
            ("simulate", {**_SIM, "b": 2.0, "r_max": 3.0}, []),
            ("sweep", {**_SWEEP, "pert_targets": [0.5], "degree": 0}, []),
            ("sweep", {**_SWEEP, "pert_targets": [1.0, 0.5], "degree": 1}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "pert_targets": [0.5], "degree": 1}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "pert_file": {"degree": 1}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "degree": 1}, []),
            ("verify", {"samples": 2.9}, []),
            ("verify", {"samples": True}, []),
            ("verify", {"seed": 2.9}, []),
            ("verify", {"a": "1"}, []),
            ("verify", {"a": 0.0}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "n_list": [1.5]}, []),
            ("reproduce-hn", {"kind": "reproduce_hn", "draws": 5.5}, []),
            ("simulate", {**_SIM, "grid": 20.5}, []),
            ("place", {**_SIM, "degree": 1.9}, []),
            ("sweep", {**_SWEEP, "epsilons": "21", "pert_inline": {"degree": 1}}, []),
            ("sweep", {**_SWEEP, "epsilons": [], "pert_inline": {"degree": 1}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1}, "r_grid": {"count": 3.7}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1.5}}, []),
            ("sweep", {**_SWEEP, "pert_inline": {"degree": 1, "plus_f": [[0.6, 0, 1.0]]}}, []),
            ("verify", {"seed": -1}, []),
            ("sweep", {**_SWEEP, "pert_file": "."}, []),
            ("verify", {"schema_version": True}, []),
            ("verify", {"schema_version": 1.0}, []),
            ("verify", {"schema_version": "1"}, []),
        ],
        ids=["a", "b", "seed", "epsilons", "epsilon_flag", "no_degree", "inline_no_degree",
             "off_triangle", "inline_index", "samples", "n_list", "n_list_scalar", "draws",
             "r_max", "smooth_draws", "degree", "targets", "targets_empty", "targets_scalar",
             "grid", "sim_r_max", "sim_r_max_at_target", "sim_grid_empty",
             "sim_target_past_default_r_max", "r_grid", "r_grid_lo", "r_grid_hi", "r_grid_count",
             "config_list", "config_string", "pert_file_number", "hn_default_r_max_window",
             "hn_default_r_max_window_negative_a", "hn_r_max_window", "n_list_below_one",
             "smooth_n_list_below_one", "draws_negative", "smooth_draws_negative", "r_grid_lo_zero",
             "r_grid_hi_below_lo", "r_grid_count_zero", "r_grid_hi_past_r0", "samples_zero",
             "samples_negative", "hn_r_max_past_r0", "hn_r_max_far_past_r0", "sim_unknown_epsilonz",
             "sim_unknown_grd", "hn_option_of_verify", "smooth_unknown_r_max", "sweep_unknown_grid",
             "verify_epsilon_flag", "hn_epsilon_flag", "r_grid_unknown_hii", "inline_unknown_table",
             "pert_file_unknown_key", "a_nan", "a_flag_nan", "hn_a_infinity", "seed_infinity",
             "samples_infinity", "epsilon_flag_infinity", "targets_nan",
             "sim_r_max_infinity", "hn_r_max_nan", "r_grid_hi_nan", "inline_nan", "pert_targets_nan",
             "place_degree_zero", "sim_degree_zero", "targets_decreasing", "targets_negative",
             "targets_repeated", "targets_past_r0", "sim_r_max_past_r0", "sweep_degree_zero",
             "pert_targets_decreasing", "inline_and_pert_targets", "inline_and_pert_file",
             "inline_with_degree", "samples_fraction", "samples_boolean", "seed_fraction", "a_string",
             "a_zero", "n_list_fraction", "draws_fraction", "grid_fraction", "place_degree_fraction",
             "epsilons_string", "sweep_epsilons_empty", "r_grid_count_fraction", "inline_degree_fraction",
             "inline_index_fraction", "seed_negative", "pert_file_directory",
             "schema_version_true", "schema_version_float", "schema_version_string"],
    )
    def test_malformed_manifest_exit_two(self, tmp_path, capsys, command, over, argv):
        if isinstance(over, dict) and isinstance(over.get("pert_file"), dict):
            # a document given as pert_file is written out, and the manifest names its path
            (tmp_path / "pert.json").write_text(json.dumps(over["pert_file"]))
            over = {**over, "pert_file": str(tmp_path / "pert.json")}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(_verify_doc(**over) if isinstance(over, dict) else over))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "Traceback" not in err

    @pytest.mark.parametrize("over,argv", [({}, ["--epsilon", "nan"]), ({"epsilons": [0.01, math.nan]}, [])],
                             ids=["flag", "config"])
    def test_nan_epsilon_exits_two_promptly(self, tmp_path, over, argv):
        # a NaN epsilon passed every guard and the integrator never returned;
        # a fresh process with a timeout, so that a regression fails, not hangs
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**_SIM_REDUCED, **over}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), *argv]
        out = subprocess.run(
            [sys.executable, "-m", "pwcycles.cli", *argv],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("configuration error: ") and "finite" in out.stderr

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"pert_inline": {"degree": 1}, "pert_targets": [0.5], "degree": 1},
             "sweep needs one of pert_inline, pert_file, or pert_targets + degree; got pert_inline, pert_targets"),
            ({"pert_inline": {"degree": 1}, "degree": 1},
             "sweep 'degree' goes with pert_targets; pert_inline carries its own degree"),
            ({}, "sweep needs one of pert_inline, pert_file, or pert_targets + degree; got none"),
        ],
        ids=["two_sources", "degree_without_targets", "no_source"],
    )
    def test_perturbation_sources_are_named(self, tmp_path, capsys, over, message):
        # with two sources the sweep used to run on the first it found
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(_verify_doc(**{**_SWEEP, **over})))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "command,doc,value,message",
        [
            ("simulate", _SIM_REDUCED, "", "--epsilon: could not convert string to float: ''"),
            ("place", _SIM_REDUCED, "0.02,0.01", "--epsilon: place runs no simulation; use simulate"),
            ("verify", _verify_doc(), "0.01", "--epsilon: verify runs no simulation; use simulate or sweep"),
            ("reproduce-hn", _verify_doc(kind="reproduce_hn"), "0.01",
             "--epsilon: reproduce-hn runs no simulation; use simulate or sweep"),
            ("smooth", _verify_doc(kind="smooth_theorem12", b=1.0), "0.01",
             "--epsilon: smooth runs no simulation; use simulate or sweep"),
        ],
        ids=["empty", "place", "verify", "reproduce-hn", "smooth"],
    )
    def test_epsilon_flag_refused(self, tmp_path, capsys, command, doc, value, message):
        # an empty value used to run the config's epsilons, and place used to
        # drop the flag; both exited 0.  On a kind without epsilons the
        # refusal used to name the key 'epsilons', which the user never wrote
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), "--epsilon", value]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,kind,n_list",
        [("reproduce-hn", "reproduce_hn", [1, 1]), ("smooth", "smooth_theorem12", [2, 3, 2])],
        ids=["reproduce-hn", "smooth"],
    )
    def test_repeated_degree_refused(self, tmp_path, capsys, command, kind, n_list):
        # a repeated degree used to run twice and write two checks of one name
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(_verify_doc(kind=kind, b=1.0, n_list=n_list, draws=0)))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {kind} 'n_list': expected distinct items, got {n_list}\n"
        )
        assert not out.exists()

    def test_unknown_option_names_the_known_keys(self, tmp_path, capsys):
        # a misspelt epsilons used to skip the simulation with exit 0
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**_SIM_REDUCED, "epsilonz": [0.01]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: place_and_simulate: unknown option 'epsilonz'; the known keys are "
            "degree, targets, epsilons, r_max, grid, besides schema_version, kind, a, b and seed\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"r_grid": {"lo": 0.2, "hii": 1.0, "count": 3}},
             "r_grid: unknown key 'hii'; the known keys are lo, hi, count"),
            ({"pert_inline": {"degree": 1, "minus_gg": [], "plus_ff": []}},
             "pert_inline: unknown key 'minus_gg', 'plus_ff'; the known keys are degree, plus_f, plus_g, "
             "minus_f, minus_g"),
        ],
        ids=["r_grid", "pert_inline"],
    )
    def test_unknown_nested_key_names_the_known_keys(self, tmp_path, capsys, over, message):
        # both used to be ignored: the run went on with the default hi = 3.0,
        # or without the misspelt tables
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(_verify_doc(**{**_SWEEP, "pert_inline": {"degree": 1}, **over})))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("b,exit_code", [(2.0, 2), (-2.0, 0)], ids=["r0_2", "r0_inf"])
    def test_hn_large_r_max_is_bounded_by_r0(self, tmp_path, capsys, b, exit_code):
        # r_max 12 reaches the survey radius min(12, 8.0) = 8: a configuration
        # error naming the bound when r0 = 2, a working run when r0 is infinite
        cfg = tmp_path / "hn.json"
        doc = _verify_doc(kind="reproduce_hn", b=b, n_list=[1], draws=10, r_max=12.0)
        cfg.write_text(json.dumps(doc))
        assert main(["reproduce-hn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == exit_code
        err = capsys.readouterr().err
        assert ("min(r_max, 8.0) = 8.0, which must stay below r0 = 2.0" in err) == (exit_code == 2)

    @pytest.mark.parametrize("case", ["absent", "directory", "not_utf8", "out_is_file", "out_under_file"])
    def test_missing_config_exit_two(self, tmp_path, capsys, case):
        # a --config that cannot be read, or an --out that is a file, is
        # refused before the experiment runs, and nothing is written
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        command = "verify"
        if case == "directory":
            cfg.mkdir()
        elif case == "not_utf8":
            cfg.write_bytes(b"\xff\xfe{}")
        elif case != "absent":
            command = "reproduce-hn"
            cfg.write_text(json.dumps(_verify_doc(kind="reproduce_hn", n_list=[1], draws=10)))
            out.write_text("kept")
            out = out if case == "out_is_file" else out / "sub"

        def tree():
            return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert tree() == before
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("verify", "reproduce-hn", "place", "simulate", "smooth", "sweep"):
            assert name in out

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--seed", "3"]])
    def test_missing_or_unknown_command_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_options_parse_the_same_before_and_after_the_command(self):
        parser = _build_parser()
        options = ["--seed", "4", "--format", "json", "--a", "1.5", "--epsilon", "0.01,0.005"]
        want = parser.parse_args(["sweep", *options])
        assert parser.parse_args([*options, "sweep"]) == want
        assert parser.parse_args([*options[:4], "sweep", *options[4:]]) == want
        assert (want.command, want.seed, want.format, want.a) == ("sweep", 4, "json", 1.5)

    def test_parser_survives_a_rejected_call(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "xml"])
        assert exc.value.code == 2
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc()))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc()))
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_runtime_error_exit_three(self, tmp_path):
        # seven zeros for degree 2 exceed the reachable capacity
        cfg = tmp_path / "sim7.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "place_and_simulate",
                    "a": 1.0,
                    "b": -2.0,
                    "seed": 3,
                    "degree": 2,
                    "targets": [0.5, 1.1, 1.7, 2.3, 2.9, 3.5, 4.1],
                    "epsilons": [],
                }
            )
        )
        assert main(["place", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"targets": [1e-20, 2e-20]}, "the scaled averaged function has no simple zero below r_max = "
                                          "2.9999999999999997e-20 for targets [1e-20, 2e-20], so there is no "
                                          "window for the return map"),
            ({"targets": [1e-3, 2e-3]}, "predicted zeros [0.0010000000021576894, 0.0019999999988861913] lie "
                                        "outside the return-map grid, from its floor max(half the smallest zero, "
                                        "0.05) = 0.05 to its top min(1.2 times the largest zero, 0.95 r_max) = "
                                        "0.0023999999986634296"),
            ({"targets": [0.01, 0.02]}, "predicted zeros [0.010000000000113134, 0.019999999999930688] lie "
                                        "outside the return-map grid, from its floor max(half the smallest zero, "
                                        "0.05) = 0.05 to its top min(1.2 times the largest zero, 0.95 r_max) = "
                                        "0.023999999999916824"),
            ({"targets": [0.04, 0.08]}, "predicted zeros [0.04000000000020495] lie outside the return-map grid, "
                                        "from its floor max(half the smallest zero, 0.05) = 0.05 to its top"),
            ({"targets": [0.5, 1.0, 1.5, 2.0], "r_max": 2.05},
             "predicted zeros [1.9999999999951323] lie outside the return-map grid, from its floor max(half the "
             "smallest zero, 0.05) = 0.2500000000002386 to its top min(1.2 times the largest zero, 0.95 r_max) "
             "= 1.9474999999999998, with r_max = 2.05"),
        ],
        ids=["unresolved", "below_the_floor", "top_below_the_floor", "window_above_the_floor", "zero_above_the_top"],
    )
    def test_small_targets_name_the_return_map_window(self, tmp_path, capsys, over, message):
        # at the default r_max = 1.5 x the largest target, these used to exit 3
        # naming no input: min() of no predicted zeros, "invalid r_range", and
        # grid radii outside the field's range.  A zero outside the grid the
        # return map samples used to fail `fixed_point_count` (exit 1), as if
        # the map had missed a cycle: targets 0.04 and 0.08 put one below the
        # grid's floor 0.05, and r_max = 2.05 puts the zero at 2 above its top
        doc = {key: value for key, value in _SIM_REDUCED.items() if key != "r_max"}
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**doc, **over}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"configuration error: {message}") and "r_max" in err[-1]
        assert not (tmp_path / "o").exists()

    def test_invalid_log_level_exit_two(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc()))
        monkeypatch.setenv("PWCYCLES_LOG", "verbose")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_log_level_restored_after_main(self, tmp_path, monkeypatch):
        log = logging.getLogger("pwcycles")
        before = log.level
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps(_verify_doc()))
        monkeypatch.setenv("PWCYCLES_LOG", "DEBUG")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert log.level == before

    def test_placement_debug_log_reaches_stderr(self, tmp_path, monkeypatch, capsys):
        # the n=2 capacity placement logs its condition at DEBUG; the log
        # must not touch the record
        cfg = tmp_path / "hn.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "reproduce_hn",
                    "a": 1.0,
                    "b": -1.0,
                    "seed": 2,
                    "n_list": [2],
                    "draws": 10,
                    "r_max": 6.0,
                }
            )
        )
        logged, records = {}, {}
        for level in ("WARNING", "DEBUG"):
            monkeypatch.setenv("PWCYCLES_LOG", level)
            out = tmp_path / level
            assert main(["reproduce-hn", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 1
            logged[level] = "placement: 3 targets, 4 generators" in capsys.readouterr().err
            doc = json.loads(next(out.glob("*.json")).read_text())
            records[level] = json.dumps(doc["record"], sort_keys=True, indent=1)
        assert logged == {"WARNING": False, "DEBUG": True}
        assert records["DEBUG"] == records["WARNING"]

    def test_debug_log_reports_integrator_work(self, tmp_path, monkeypatch, capsys):
        # every batched return map logs its RHS evaluations and rejected
        # steps at DEBUG; the record stays byte-identical
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "place_and_simulate",
                    "a": 1.0,
                    "b": -2.0,
                    "seed": 3,
                    "degree": 1,
                    "targets": [0.5, 1.0, 1.5, 2.0],
                    "epsilons": [0.01, 0.005],
                    "r_max": 5.0,
                    "grid": 20,
                }
            )
        )
        logged, records = {}, {}
        for level in ("WARNING", "DEBUG"):
            monkeypatch.setenv("PWCYCLES_LOG", level)
            out = tmp_path / level
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
            err = capsys.readouterr().err
            logged[level] = [line for line in err.splitlines() if "return_map:" in line]
            doc = json.loads(next(out.glob("*.json")).read_text())
            records[level] = json.dumps(doc["record"], sort_keys=True, indent=1)
        assert logged["WARNING"] == []
        assert logged["DEBUG"] and all("RHS evaluations" in line for line in logged["DEBUG"])
        assert records["DEBUG"] == records["WARNING"]

    def test_debug_log_reports_unit_reductions(self, tmp_path, monkeypatch, capsys, reduce_calls):
        # from cold caches, each degree's unit columns log their reductions
        # at DEBUG; the record is the one a warm WARNING run writes
        cfg = tmp_path / "hn.json"
        cfg.write_text(json.dumps(_verify_doc(kind="reproduce_hn", n_list=[1, 2], draws=10, r_max=6.0)))
        logged, records = {}, {}
        for level in ("DEBUG", "WARNING"):
            monkeypatch.setenv("PWCYCLES_LOG", level)
            out = tmp_path / level
            assert main(["reproduce-hn", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 1
            logged[level] = [line for line in capsys.readouterr().err.splitlines() if "unit columns:" in line]
            doc = json.loads(next(out.glob("*.json")).read_text())
            records[level] = json.dumps(doc["record"], sort_keys=True, indent=1)
        assert logged["WARNING"] == [] and len(logged["DEBUG"]) == 2
        # degree 2 reduces only its two new entries per half, sigma[3, 0] and sigma[1, 2]
        assert [line.split("unit columns: ")[1] for line in logged["DEBUG"]] == [
            "degree 1, (a, b) = (1.0, -2.0), 12 columns, 6 half reductions run, 0 reused, 6 zero columns",
            "degree 2, (a, b) = (1.0, -2.0), 24 columns, 4 half reductions run, 8 reused, 12 zero columns",
        ]
        assert records["DEBUG"] == records["WARNING"]

    def test_debug_log_shows_one_grid_call(self, tmp_path, monkeypatch, capsys):
        # the displacement grid at every eps, the fixed-point grid and the
        # interpolation rows of the intervals that hold a zero of F are one
        # return-map call.  Each of the 4 zeros lies in its own interval of
        # the grid and so does each fixed point, so the search maps no
        # interpolation rows and makes no call of its own
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(_SIM_REDUCED))
        monkeypatch.setenv("PWCYCLES_LOG", "DEBUG")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        widths = [int(w) for w in re.findall(r"return_map: (\d+) radii in \d+ fields", capsys.readouterr().err)]
        brackets = len(_SIM_REDUCED["targets"])
        grid_rows = (len(_SIM_REDUCED["epsilons"]) + 1) * _SIM_REDUCED["grid"] + _INTERP_NODES * brackets
        assert widths == [grid_rows]

    def test_readme_simulate_makes_one_return_map_call(self, caplog):
        # the grid call carries the interpolation rows of every fixed point
        text = (_ROOT / "README.md").read_text()
        start = text.index("\n", text.index("cat > sim.json")) + 1
        doc = json.loads(text[start : text.index("\nEOF", start)])
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            record = run_manifest(ExperimentManifest.from_dict(doc))
        calls = [r for r in caplog.records if r.getMessage().startswith("return_map:")]
        assert len(calls) == 1
        assert len(record["payloads"]["fixed_points"]["rows"]) == 4

    def test_degree_three_simulate_makes_at_most_two_return_map_calls(self, caplog):
        # at (1, -2), degree 3, the displacement slopes are about 1e-9 and
        # three of the eight predicted fixed points are not found; the
        # search maps the rows of the brackets no zero of F predicts in
        # one call of its own and chases no integrator noise after it
        doc = {
            "schema_version": 1, "kind": "place_and_simulate", "a": 1.0, "b": -2.0, "seed": 3, "degree": 3,
            "targets": [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2], "epsilons": [0.01, 0.005, 0.0025, 0.00125],
            "grid": 60,
        }
        with caplog.at_level(logging.DEBUG, logger="pwcycles"):
            record = run_manifest(ExperimentManifest.from_dict(doc))
        calls = [r for r in caplog.records if r.getMessage().startswith("return_map:")]
        assert len(calls) <= 2
        statuses = {c["name"]: c["status"] for c in record["checks"]}
        assert statuses == {
            "placed_zero_count": "pass", "epsilon_convergence_slope": "pass",
            "fixed_point_count": "fail", "fixed_points_near_zeros": "fail",
        }

    def test_simulate_without_fixed_points_writes_strict_json(self, tmp_path):
        # at grid 2 the displacement keeps one sign, so no fixed point is
        # found and the gap check has nothing to measure
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**_SIM_REDUCED, "grid": 2}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 1

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        (path,) = out.glob("*.json")
        doc = json.loads(path.read_text(), parse_constant=refuse)
        checks = {c["name"]: c for c in doc["record"]["checks"]}
        assert checks["fixed_point_count"]["measured"] == 0
        assert checks["fixed_points_near_zeros"]["measured"] is None
        assert checks["fixed_points_near_zeros"]["status"] == "fail"

    def test_place_subcommand_skips_simulation(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "place_and_simulate",
                    "a": 1.0,
                    "b": -2.0,
                    "seed": 3,
                    "degree": 1,
                    "targets": [0.5, 1.0, 1.5, 2.0],
                    "epsilons": [0.01, 0.005],
                }
            )
        )
        out = tmp_path / "o"
        assert main(["place", "--config", str(cfg), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert any("zeros" in n for n in names)
        assert not any("fixed_points" in n for n in names)

    def test_placed_zero_count_skips_flagged_zeros(self, caplog, monkeypatch, triple_zero_expansion):
        # the count is stubbed to report F = (r - 1)^3 (r - 2), whose triple
        # zero at r = 1 it flags: the payload lists both zeros and the check
        # counts only the simple one
        def count(fn, r_max, grid):
            return count_simple_zeros(AveragedFunction(fn.params, triple_zero_expansion), r_max, grid)

        monkeypatch.setattr(manifest, "count_simple_zeros", count)
        doc = {
            "schema_version": 1, "kind": "place_and_simulate", "a": 1.0, "b": -2.0, "seed": 3,
            "degree": 1, "targets": [1.0, 2.0], "r_max": 3.0, "epsilons": [],
        }
        with caplog.at_level(logging.WARNING, logger="pwcycles"):
            record = run_manifest(ExperimentManifest.from_dict(doc))
        (check,) = record["checks"]
        assert (check["name"], check["measured"], check["expected"]) == ("placed_zero_count", 1, 2)
        rows = record["payloads"]["zeros"]["rows"]
        assert [row[2] for row in rows] == [False, True]
        assert rows[0][0] == pytest.approx(1.0, abs=1e-5) and rows[1][0] == pytest.approx(2.0, abs=1e-9)
        assert sum("near-vanishing derivative" in m for m in caplog.messages) == 1

    def test_smooth_subcommand_runs_to_completion(self, tmp_path):
        # the benchmark's smooth workload at 20 draws: its verdicts, and each
        # degree's zeros attained with a reachable span of n + 1 functions
        spec = importlib.util.spec_from_file_location("workloads", _ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        doc = _verify_doc(kind="smooth_theorem12", a=1.0, b=1.0, n_list=[2, 3], draws=20)
        cfg, out = tmp_path / "smooth.json", tmp_path / "o"
        cfg.write_text(json.dumps(doc))
        assert main(["smooth", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        record = json.loads(next(out.glob("*.json")).read_text())["record"]
        assert {c["name"]: c["status"] for c in record["checks"]} == workloads.expected_verdicts(doc)
        table = record["payloads"]["smooth_counts"]
        columns = [table["columns"].index(c) for c in ("n", "attained", "reachable_rank")]
        assert [[row[i] for i in columns] for row in table["rows"]] == [[2, 2, 3], [3, 3, 4]]

    def test_smooth_refuses_b_other_than_a(self, tmp_path, capsys):
        # the smooth system is b = a; a b that the run would not read used to
        # give the b = a payload under another experiment id
        cfg, out = tmp_path / "smooth.json", tmp_path / "o"
        cfg.write_text(json.dumps(_verify_doc(kind="smooth_theorem12", a=1.0, b=2.0, n_list=[2], draws=5)))
        assert main(["smooth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "a = 1.0, b = 2.0" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,epsilons", [("place", []), ("simulate", [0.01, 0.005, 0.0025])]
    )
    def test_place_and_simulate_defaults_stay_inside_the_annulus(self, tmp_path, capsys, command, epsilons):
        # (a, b) = (1, 2), r0 = 2: the default r_max is min(1.5 * 1.5, 0.95 * 2)
        # = 1.9, and the fixed-point search's field is validated up to it
        cfg = tmp_path / "sim.json"
        doc = {
            "schema_version": 1,
            "kind": "place_and_simulate",
            "a": 1.0,
            "b": 2.0,
            "seed": 3,
            "degree": 1,
            "targets": [0.5, 1.0, 1.5],
            "epsilons": epsilons,
            "grid": 20,
        }
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "[PASS] placed_zero_count: measured=3 expected=3" in out
        assert "[FAIL]" not in out
        if epsilons:
            assert "[PASS] fixed_point_count: measured=3 expected=3" in out

    @staticmethod
    def _bounded_reproduce_hn(tmp_path, **over):
        # (a, b) = (1, 2): the annulus ends at r0 = 2
        cfg = tmp_path / "hn.json"
        doc = {"schema_version": 1, "kind": "reproduce_hn", "a": 1.0, "b": 2.0, "seed": 3, **over}
        cfg.write_text(json.dumps(doc))
        return main(["reproduce-hn", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_reproduce_hn_default_r_max_stays_inside_the_annulus(self, tmp_path, monkeypatch, capsys):
        # the default r_max is min(10 max(|a|, |b|), 0.95 r0) = 1.9; every
        # survey logs its draws and long-double samples at DEBUG
        monkeypatch.setenv("PWCYCLES_LOG", "DEBUG")
        assert self._bounded_reproduce_hn(tmp_path, n_list=[1]) == 0
        err = capsys.readouterr().err
        assert "survey: 500 draws, grid 600, 54 draws per block," in err

    def test_reproduce_hn_saturated_scan_stays_inside_the_annulus(self, tmp_path, capsys):
        # the 7-target placement at n = 2 is refused by design, and the run
        # reports the even-degree deviation instead of a crash
        assert self._bounded_reproduce_hn(tmp_path, n_list=[1, 2], r_max=1.9) == 1
        out, err = capsys.readouterr()
        assert "runtime error" not in err
        assert "[FAIL] attained_equals_claimed_n2: measured=6 expected=7" in out


def _literal_defaults(table):
    """The defaults of an option table as converted, a nested object's
    values one by one; the defaults that depend on r0 or the targets (None)
    are left out."""
    for convert, default in table.values():
        if default is not None and default is not REQUIRED:
            value = convert(default)
            yield from (v for v in value.values() if v is not None) if isinstance(value, dict) else [value]


def test_readme_lists_every_manifest_option():
    # each kind's bullet under "Kind-specific fields" names every key that
    # the kind reads, backticked, and gives each literal default of its table
    text = (_ROOT / "README.md").read_text()
    start = text.index("\n* ", text.index("Kind-specific fields"))
    section = text[start + 1 : text.index("\n\n", start)]
    bullets = dict(re.findall(r"^\* `(\w+)`:(.*?)(?=^\* |\Z)", section, re.M | re.S))
    assert set(bullets) == set(OPTIONS)
    missing = {kind: [k for k in keys if f"`{k}`" not in bullets[kind]] for kind, keys in OPTIONS.items()}
    assert missing == {kind: [] for kind in OPTIONS}
    words = {kind: " ".join(bullet.split()) for kind, bullet in bullets.items()}
    undocumented = {
        kind: [d for d in _literal_defaults(table) if f"default `{json.dumps(d)}`" not in words[kind]]
        for kind, table in OPTIONS.items()
    }
    assert undocumented == {kind: [] for kind in OPTIONS}
