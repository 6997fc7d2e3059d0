#!/usr/bin/env python3
"""Record the output digest of op seeds 0..N-1 of a workload in digests.json.

    python3 perfbench/record_digests.py --workload ring --seeds 8

Run it from the repository root, and only when a change is meant to alter
the outputs; say why in CHANGES.md.  A seed whose op exits non-zero or whose
`wavecap report` says FAIL is still recorded, and reported here, so that the
benchmark counts it as failed rather than hiding it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
from workloads import DIGESTS, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import bench  # after the thread pinning, as in run.py

    workload = WORKLOADS[args.workload]
    work = run.HERE / "out" / f"record-{args.workload}"
    cfg = workload.write_configs(work / "configs")
    table = {}
    for seed in range(args.seeds):
        op = bench.run_op(workload, cfg, work / "op", seed, {})
        table[str(seed)] = op.digest
        fails = [f for f in op.failures if not f.startswith("digest ")]
        print(f"{args.workload} seed {seed}: {op.digest} " + ("; ".join(fails) or "PASS"),
              flush=True)
    shutil.rmtree(work, ignore_errors=True)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[args.workload] = table
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
