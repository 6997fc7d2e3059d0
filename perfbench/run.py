#!/usr/bin/env python3
"""Run one benchmark run of one workload and print its metrics.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The package is imported from ``src/`` of
the same checkout; nothing needs installing.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is a JSON record with the environment,
every op's time and seed, the failures and the accuracy figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS, load_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One process, one thread: pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavecap" / "__init__.py").is_file():
        print(f"error: no wavecap package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench  # noqa: E402  (imports numpy, so after the thread pinning)

    if not Path(bench.wavecap.__file__).resolve().is_relative_to(SRC):
        print(f"error: wavecap imported from {bench.wavecap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = HERE / "out"
    result, record = bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        out / f"work-{args.workload}-{os.getpid()}", load_digests()[args.workload],
        out / f"spans-{args.workload}-seed{args.seed}.csv" if args.trace else None,
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
