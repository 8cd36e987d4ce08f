"""Print one sha256 per experiment record, to compare two source trees.

    python scripts/record_digests.py [--src DIR] [--seed N]

Imports `pwcycles` from DIR (default: this checkout's `src`) and runs, in
process, each of these manifests:

* the operations of every perfbench workload at seed N, read from
  `perfbench/workloads.operations` and left unchanged;
* a `verify_identities` manifest at seed 7;
* a sweep over a placed perturbation (`pert_targets`) and a sweep over
  inline tables (`pert_inline`), at seed N.

Each output line is the sha256 of `json.dumps(record, sort_keys=True)`
and the manifest's name.  Two trees that print the same lines give
byte-identical records, so comparing a parent checkout with a change is

    python scripts/record_digests.py --src ../parent/src --seed 3 > before
    python scripts/record_digests.py --seed 3 > after
    diff before after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def manifests(seed: int):
    """(name, manifest) pairs, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.NAMES:
        for k, (_, doc) in enumerate(workloads.operations(workload, seed)):
            yield f"perfbench-{workload}-{k}", doc
    yield "verify", {"schema_version": 1, "kind": "verify_identities", "a": 1.0, "b": -2.0, "seed": 7}
    sweep = {
        "schema_version": 1, "kind": "sweep", "a": 1.0, "b": -2.0, "seed": seed,
        "epsilons": [0.01, 0.005], "r_grid": {"lo": 0.2, "hi": 2.5, "count": 12},
    }
    yield "sweep-pert_targets", {**sweep, "degree": 2, "pert_targets": [0.5, 1.0, 1.5, 2.0]}
    yield "sweep-pert_inline", {
        **sweep,
        "pert_inline": {"degree": 2, "plus_f": [[0, 0, 1.0], [1, 1, -0.5]], "minus_g": [[0, 2, 0.3]]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the pwcycles package")
    parser.add_argument("--seed", type=int, default=3, help="seed of the perfbench operations and the sweeps")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from pwcycles.manifest import ExperimentManifest, run_manifest

    for name, doc in manifests(args.seed):
        record = run_manifest(ExperimentManifest.from_dict(doc))
        print(hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(), name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
