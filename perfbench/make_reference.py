"""Write ``reference.json``: the default-seed outputs the benchmark pins.

Usage, from the root of a checkout: ``python3 perfbench/make_reference.py``.
For each workload it runs one traced pass at ``workloads.DEFAULT_SEED``,
requires every operation to show the expected verdicts, and records the
scientific outputs of each record (zero locations, fixed points, gap and
slope, count tables) and the survey histograms.  Regenerate it only when
a change to the program is meant to change those outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import tracer
import workloads


def main() -> int:
    reference = {"seed": workloads.DEFAULT_SEED, "float_tolerance": workloads.FLOAT_TOL}
    work = run.ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Run(work, time.monotonic() + 600)
        for name in workloads.NAMES:
            ops = workloads.operations(name, workloads.DEFAULT_SEED)
            result = runner.worker(run.cli_argvs(ops, work, name), trace=True)
            if "error" in result:
                print(result["error"], file=sys.stderr)
                return 1
            records = []
            for (_, doc), op in zip(ops, result["ops"]):
                problems = workloads.check_operation(doc, op["exit"], op["record"], None)
                if problems:
                    print(f"{name}: {problems}", file=sys.stderr)
                    return 1
                records.append(workloads.outputs(op["record"]))
            histograms = tracer.survey_histograms([tuple(s) for s in result["spans"]])
            reference[name] = {"records": records, "histograms": histograms}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
