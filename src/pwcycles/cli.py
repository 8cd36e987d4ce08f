"""Command-line front end for the experiment harness.

Commands map onto manifest kinds; a JSON config supplies the inputs
and flags override its common fields.  Exit codes: 0 all checks passed,
1 at least one check failed, 2 configuration error, 3 runtime or
numerical error.  PWCYCLES_LOG sets the log level (default WARNING); log
lines go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

from .manifest import OPTIONS, ExperimentManifest, ManifestError, emit_table, run_manifest

_SUBCOMMANDS = {
    "verify": "verify_identities",
    "reproduce-hn": "reproduce_hn",
    "place": "place_and_simulate",
    "simulate": "place_and_simulate",
    "smooth": "smooth_theorem12",
    "sweep": "sweep",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # One flat parser: the options are common to every command, so they
    # may stand before or after it.
    parser = argparse.ArgumentParser(
        prog="pwcycles",
        description="Averaged-function zero analysis and return-map verification "
        "for the piecewise cubic center",
    )
    parser.add_argument(
        "command",
        choices=_SUBCOMMANDS,
        help="the experiment to run: " + ", ".join(f"{name} ({kind})" for name, kind in _SUBCOMMANDS.items()),
    )
    parser.add_argument("--config", type=Path, help="JSON manifest path")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument("--seed", type=int, help="override the manifest seed")
    parser.add_argument(
        "--epsilon",
        type=str,
        help="comma-separated descending epsilon list, overrides the manifest",
    )
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")
    parser.add_argument("--a", type=float, help="system constant for x >= 0")
    parser.add_argument("--b", type=float, help="system constant for x < 0")
    return parser


def _manifest_from_args(args: argparse.Namespace) -> ExperimentManifest:
    kind = _SUBCOMMANDS[args.command]
    doc = {"schema_version": 1, "kind": kind}
    if args.config:
        try:
            loaded = json.loads(args.config.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise ManifestError(f"cannot read config {args.config} as JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ManifestError("config must be a JSON object")
        doc.update(loaded)
        if doc.get("kind") != kind:
            raise ManifestError(
                f"config kind {doc.get('kind')!r} does not match subcommand {args.command!r}"
            )
    if args.a is not None:
        doc["a"] = args.a
    if args.b is not None:
        doc["b"] = args.b
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.epsilon is not None:
        if args.command == "place":
            raise ManifestError("--epsilon: place runs no simulation; use simulate")
        if "epsilons" not in OPTIONS[kind]:
            raise ManifestError(f"--epsilon: {args.command} runs no simulation; use simulate or sweep")
        try:
            doc["epsilons"] = [float(x) for x in args.epsilon.split(",")]
        except ValueError as exc:
            raise ManifestError(f"--epsilon: {exc}") from exc
    if args.command == "place":
        doc["epsilons"] = []
    return ExperimentManifest.from_dict(doc)


def _set_log_level() -> None:
    level = os.environ.get("PWCYCLES_LOG", "WARNING").upper()
    try:
        logging.getLogger("pwcycles").setLevel(level)
    except ValueError as exc:
        raise ManifestError(f"PWCYCLES_LOG: {exc}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Log lines go to this call's stderr; the level comes from PWCYCLES_LOG.
    # Both are undone on return, so a caller's own logging is left as it was.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log = logging.getLogger("pwcycles")
    level = log.level
    log.addHandler(handler)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args: argparse.Namespace) -> int:
    try:
        _set_log_level()
        blocker = next((p for p in (args.out, *args.out.parents) if p.exists() and not p.is_dir()), None)
        if blocker is not None:
            raise ManifestError(f"--out {args.out}: {blocker} exists and is not a directory")
        record = run_manifest(_manifest_from_args(args))
        written = emit_table(record, args.format, args.out)
    except ManifestError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical/runtime failures carry module context
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failed = [c for c in record["checks"] if c["status"] == "fail"]
    for c in record["checks"]:
        marker = {"pass": "PASS", "fail": "FAIL", "finding": "NOTE"}[c["status"]]
        print(f"[{marker}] {c['name']}: measured={c['measured']} expected={c['expected']}")
    for path in written:
        print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
