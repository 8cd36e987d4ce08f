"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the
``src`` directory to import ``pwcycles`` from, the CLI argument lists of
the pass, whether to trace, and where to write the result.  The worker
imports ``pwcycles.cli`` first and notes the monotonic clock (the parent
noted it before starting the process, so the difference is the set-up
time), times the calibration job, then calls ``pwcycles.cli.main`` once
per operation, timing each call and the calibration job after it, and
writes one JSON result with the records the CLI wrote, the peak resident memory
and, when traced, the spans.
"""

import math
import sys
import time


def main() -> int:
    import json

    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import pwcycles.cli

    import_done = time.monotonic()

    import contextlib
    import hashlib
    import io
    import os
    import resource
    from pathlib import Path

    if Path(pwcycles.__file__).resolve().parent != Path(job["src"]).resolve() / "pwcycles":
        print(f"imported pwcycles from {pwcycles.__file__}, not from {job['src']}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(run_id=job["run_id"])
        tracer.install()

    calib_s = [_calibrate()]
    ops = []
    try:
        for argv in job["ops"]:
            captured = io.StringIO()
            cpu_start = time.process_time()
            start = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                try:
                    code = pwcycles.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            ops.append({"exit": code, "wall_s": wall_s, "cpu_s": cpu_s, "stdout": captured.getvalue()})
            calib_s.append(_calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()

    for argv, op in zip(job["ops"], ops):
        out_dir = Path(argv[argv.index("--out") + 1])
        docs = sorted(out_dir.glob("*.json"))
        op["record"] = json.loads(docs[0].read_text())["record"] if len(docs) == 1 else None
        op["record_sha256"] = (
            hashlib.sha256(json.dumps(op["record"], sort_keys=True).encode()).hexdigest()
            if op["record"] is not None
            else None
        )

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "import_done": import_done,
        "ops": ops,
        "wall_s": sum(op["wall_s"] for op in ops),
        "cpu_work_s": sum(op["cpu_s"] for op in ops),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "tool_version": pwcycles.__version__,
        "calib_s": calib_s,
    }
    if tracer is not None:
        from tracer import remaining_wrappers

        result["spans"] = tracer.spans()
        result["remaining_wrappers"] = remaining_wrappers()
    if job.get("environment"):
        result["environment"] = _environment()
    tmp = Path(job["result"] + ".part")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, job["result"])
    return 0


def _calibrate() -> float:
    """Seconds for a fixed job of the kinds of work pwcycles does.

    Exact rational sums (the Fraction reduction), a scalar Python loop
    (the integrator's right-hand side) and small long-double array
    operations (the zero scans), none of it from pwcycles.
    """
    from fractions import Fraction

    import numpy as np

    r = np.linspace(0.1, 2.0, 600).astype(np.longdouble)
    start = time.perf_counter()
    for _ in range(5):
        acc = Fraction(0)
        for k in range(1, 400):
            acc += Fraction(k, 3 * k + 1) * Fraction(2 * k - 1, k + 2)
        x = 0.0
        for k in range(60000):
            x += math.sin(k * 1e-3) * math.cos(k * 2e-3)
        for k in range(300):
            x += float(np.sum(np.sqrt(r + k) * np.arctan(r)))
    return time.perf_counter() - start


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _environment():
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


if __name__ == "__main__":
    sys.exit(main())
