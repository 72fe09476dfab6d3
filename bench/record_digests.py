"""Record the digests of the default seeds into bench/digests.json.

    python3 bench/record_digests.py

For seeds 0-31 of every workload it records the sha256 of the frozen
input file, and for the workloads that emit reports the sha256 of every
report one pass emits, in input order. bench/run.py fails its check on a
listed seed whose inputs or reports differ by a single byte, which keeps
the inputs byte-identical across commits and the reports byte-identical
across changes that must not alter them. Run this only on the commit
whose reports are the reference, and only when the reports are meant to
change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

SEEDS = range(32)


def main():
    run._import_tdual()
    import workloads

    digests = {"inputs": {}, "reports": {}}
    for workload in workloads.GENERATORS:
        for seed in SEEDS:
            path = run.ensure_inputs(workload, seed)
            digests["inputs"].setdefault(workload, {})[str(seed)] = run.file_digest(path)
            if workload not in workloads.REPORTING:
                continue
            digest = hashlib.sha256()
            for op in run._load_ops(workload, seed):
                digest.update(op.run().encode())
            digests["reports"].setdefault(workload, {})[str(seed)] = digest.hexdigest()
            print(f"{workload} seed {seed}: {digest.hexdigest()}", flush=True)
    (run.HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
