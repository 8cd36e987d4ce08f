"""The pwcycles benchmark: end-to-end CLI passes plus a per-layer traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simulate|ceiling|smooth \\
        --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src`` directory; it is pure
Python, so there is nothing to build beyond the bytecode that an untimed
warm-up process compiles.  Each pass runs in a fresh interpreter
(``worker.py``) started right after the previous one ends, so every pass
is cold with respect to in-package caches, as every CLI invocation is.
Passes repeat until the next one would end after ``--seconds`` (at least
three).  One process works at a time; BLAS keeps its default thread count.

``--trace 0`` reports the end-to-end metrics, each a median over passes:

* ``setup_s``: fresh interpreter to ``import pwcycles.cli`` done.
* ``wall_s``: the workload's ``cli.main`` calls, outputs written as CSV
  and JSON.
* ``peak_rss_mb``: peak resident memory of a pass's process.
* ``ok_ratio``: operations without a problem / operations attempted.
* ``fp_gap_max``, ``slope_err``: the fixed-point gap and the
  |convergence slope - 1| of ``simulate``.  They exist only there and
  read 1.0 on the other workloads, which carry no such output.

``setup_s`` and ``wall_s`` are reported at a reference host speed.  The
shared 2-vCPU host this was written on changed speed by up to a factor of
two within minutes, in CPU time as much as in wall time, so every worker
also times a fixed calibration job (``worker._calibrate``) right after the
import and again after each operation, and each timing is scaled by
``CALIB_REF_S / mean(calibrations around it)``.  A change to pwcycles
moves the timing but not the calibration; a change of host speed moves
both.  The unscaled seconds and the calibrations of every pass are in the
detail line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.layer_metrics`` (medians over traced
passes, in unscaled seconds), the ``import.*`` split of the set-up time
from ``python -X importtime``, and ``trace.overhead_ratio``, the traced
over the untraced ``wall_s``.

Every pass is checked (``workloads.check_operation``): exit code, check
verdicts against the expected table, byte-identical ``record`` blocks
across the passes of a run and, at the default seed, the outputs pinned
in ``reference.json``.  The last line of standard output is the result
object; the line before it holds sample counts, quartiles and run
metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer  # noqa: E402  (the benchmark's own modules sit beside this file)
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_SETUP_SAMPLES = 5
IMPORTTIME_RUNS = 3
# Seconds the calibration job takes on the 2-vCPU host the benchmark was
# written on when that host is not contended; timings are scaled to it.
CALIB_REF_S = 0.2
# A run must end within 180 s; a pass that is still going at this point
# is stopped and counted as failed.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "fp_gap_max": "radius",
    "slope_err": "1",
}


class Run:
    """Starts worker processes for one benchmark run, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def worker(self, argvs: List[List[str]], trace: bool = False, environment: bool = False) -> Dict[str, Any]:
        """One pass in a fresh interpreter; returns the worker's result.

        ``setup_s`` is added from the parent's clock; a pass that fails to
        produce a result comes back as ``{"error": ...}``.
        """
        self.count += 1
        job_path = self.work / f"job{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        job = {
            "src": str(SRC),
            "ops": argvs,
            "trace": trace,
            "run_id": self.count,
            "result": str(result_path),
            "environment": environment,
        }
        job_path.write_text(json.dumps(job))
        log_path = self.work / f"worker{self.count}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        with log_path.open("w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_path)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    cwd=str(ROOT),
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return {"error": f"pass stopped after {timeout:.0f} s"}
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            return {"error": f"worker exited with {proc.returncode}: {tail}"}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["import_done"] - spawned
        return result


def _scaled_setup(result: Dict[str, Any]) -> float:
    """A worker's set-up time at the reference host speed (module notes)."""
    return result["setup_s"] * CALIB_REF_S / statistics.mean(result["calib_s"])


def _scaled_wall(result: Dict[str, Any]) -> float:
    """A pass's wall time at the reference host speed.

    Each operation is scaled by the calibrations timed just before and
    just after it.
    """
    calib = result["calib_s"]
    return sum(
        op["wall_s"] * CALIB_REF_S / statistics.mean(calib[i : i + 2]) for i, op in enumerate(result["ops"])
    )


def _import_split(runs: int) -> Dict[str, float]:
    """Median self time of the imports per top-level package, in seconds."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pwcycles.cli"
    samples: Dict[str, List[float]] = {"scipy": [], "numpy": [], "pwcycles": []}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            cwd=str(ROOT),
            timeout=60,
            check=True,
        )
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            if package in totals:
                totals[package] += int(self_us) * 1e-6
        for package, value in totals.items():
            samples[package].append(value)
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


def _src_lines() -> Dict[str, int]:
    return {
        path.name: len(path.read_text().splitlines()) for path in sorted((SRC / "pwcycles").glob("*.py"))
    }


def _source_identity() -> Dict[str, Optional[str]]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pwcycles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=str(ROOT), timeout=30
        )
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def cli_argvs(ops: List[Tuple[str, Dict[str, Any]]], work: Path, tag: str) -> List[List[str]]:
    """CLI argument lists of one pass; its outputs go to ``work/tag``."""
    argvs = []
    for i, (command, doc) in enumerate(ops):
        config = work / f"op{i}.json"
        config.write_text(json.dumps(doc))
        argvs.append([command, "--config", str(config), "--out", str(work / tag / f"op{i}"), "--format", "both"])
    return argvs


def _check_passes(
    passes: List[Dict[str, Any]], docs: List[Dict[str, Any]], reference: Optional[Dict[str, Any]]
) -> Tuple[int, int, List[str]]:
    """The correctness gate over every pass of a run: (attempted, failed, problems).

    An operation fails when ``workloads.check_operation`` finds a problem,
    when its record differs from the same operation's record in the first
    pass, or, in a traced pass, when a survey histogram is wrong or the
    tracer left a wrapper bound.  A pass that produced no result fails all
    of its operations.
    """
    attempted = failed = 0
    problems: List[str] = []
    first_sha: List[Optional[str]] = [None] * len(docs)
    for k, p in enumerate(passes):
        if "ops" not in p:
            attempted += len(docs)
            failed += len(docs)
            problems.append(f"pass {k}: {p['error']}")
            continue
        op_problems = []
        for i, (doc, op) in enumerate(zip(docs, p["ops"])):
            found = workloads.check_operation(doc, op["exit"], op["record"], reference and reference["records"][i])
            if first_sha[i] is None:
                first_sha[i] = op["record_sha256"]
            elif op["record_sha256"] != first_sha[i]:
                found.append("record differs from the first pass of this run")
            op_problems.append(found)
        if p["traced"]:
            captured = tracer.survey_histograms([tuple(s) for s in p["spans"]])
            hist_ref = reference["histograms"] if reference else None
            for i, found in enumerate(workloads.check_histograms(docs, captured, hist_ref)):
                op_problems[i] += found
            if p["remaining_wrappers"]:
                op_problems[0].append(f"tracer left wrappers bound: {p['remaining_wrappers']}")
        for i, found in enumerate(op_problems):
            attempted += 1
            if found:
                failed += 1
                problems += [f"pass {k} op {i}: {msg}" for msg in found]
    return attempted, failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, reduced: bool = False) -> Dict[str, Any]:
    """One benchmark run; returns the result object and the detail report."""
    start = time.monotonic()
    runner = Run(work, start + DEADLINE_S)
    ops = workloads.operations(workload, seed, reduced=reduced)
    docs = [doc for _, doc in ops]
    reference = None
    if seed == workloads.DEFAULT_SEED and not reduced:
        reference = workloads.load_reference()[workload]

    warmup = runner.worker([], environment=True)
    if "error" in warmup:
        raise RuntimeError(f"warm-up pass failed: {warmup['error']}")

    passes: List[Dict[str, Any]] = []
    durations: List[float] = []
    min_passes = 2 if trace else MIN_PASSES
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        result = runner.worker(cli_argvs(ops, work, f"pass{len(passes)}"), trace=traced)
        result["traced"] = traced
        passes.append(result)
        durations.append(time.monotonic() - began)
        if "error" in result:
            break
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed + statistics.median(durations) > seconds:
            if not trace or len(passes) % 2 == 0:
                break

    setups = [p for p in passes if "setup_s" in p]
    while not trace and len(setups) < MIN_SETUP_SAMPLES and "error" not in passes[-1]:
        extra = runner.worker([])
        if "error" in extra:
            passes.append(extra)
            break
        setups.append(extra)

    attempted, failed, problems = _check_passes(passes, docs, reference)

    good = [p for p in passes if "ops" in p]
    plain = [p for p in good if not p["traced"]]
    samples: Dict[str, List[float]] = {}
    if trace:
        traced_passes = [p for p in good if p["traced"]]
        per_pass = [tracer.layer_metrics([tuple(s) for s in p["spans"]]) for p in traced_passes]
        for name in per_pass[0] if per_pass else []:
            samples[name] = [m[name] for m in per_pass]
        if plain and traced_passes:
            ratio = statistics.median(_scaled_wall(p) for p in traced_passes) / statistics.median(
                _scaled_wall(p) for p in plain
            )
            samples["trace.overhead_ratio"] = [ratio]
        for name, value in _import_split(IMPORTTIME_RUNS).items():
            samples[name] = [value]
    else:
        samples["setup_s"] = [_scaled_setup(p) for p in setups]
        samples["wall_s"] = [_scaled_wall(p) for p in plain]
        samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in plain]
        samples["ok_ratio"] = [(attempted - failed) / attempted if attempted else 0.0]
        recorded = [p["ops"][0]["record"] for p in plain if p["ops"][0]["record"] is not None]
        science = workloads.science_metrics(workload, recorded[0]) if recorded else None
        for name in ("fp_gap_max", "slope_err"):
            samples[name] = [science[name] if science else 1.0]

    metrics = {
        name: {"value": statistics.median(values), "unit": _layer_unit(name) if trace else E2E_UNITS[name]}
        for name, values in samples.items()
        if values
    }

    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "run_s": time.monotonic() - start,
        "samples": {name: len(v) for name, v in samples.items()},
        "quartiles": {name: statistics.quantiles(v, n=4) for name, v in samples.items() if len(v) > 1},
        "max": {name: max(v) for name, v in samples.items() if len(v) > 1},
        "passes": [
            {
                "traced": p.get("traced"),
                "wall_s": p.get("wall_s"),
                "setup_s": p.get("setup_s"),
                "cpu_work_s": p.get("cpu_work_s"),
                "cpu_s": p.get("cpu_s"),
                "calib_s": p.get("calib_s"),
                "peak_rss_mb": p.get("peak_rss_mb"),
                "op_wall_s": [op["wall_s"] for op in p.get("ops", [])],
            }
            for p in passes
        ],
        "meta": {
            **_source_identity(),
            "tool_version": warmup["tool_version"],
            **warmup["environment"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "src_lines": _src_lines(),
        },
        "problems": problems,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".share", ".overhead_ratio", "_per_fixed_point", ".assemble_calls")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pwcycles" / "cli.py").is_file():
        print(f"no pwcycles sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
