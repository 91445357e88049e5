"""Run one pass of a workload in a fresh interpreter and report its peak RSS.

    python3 perfbench/one_pass.py --workload robertson-stiff --seed 0 [--out DIR]

The last line of standard output is a JSON object with the process's peak
resident set size (``ru_maxrss``, KiB on Linux), the commands attempted and
failed, and the CSV digests of the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from workloads import OUT_ROOT, WORKLOADS, MissingProgram, import_cli, run_pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=OUT_ROOT)
    args = parser.parse_args()
    try:
        cli = import_cli()
    except MissingProgram as exc:
        print(f"one_pass: {exc}", file=sys.stderr)
        return 2
    result = run_pass(cli, args.workload, args.seed, args.out)
    print(json.dumps({
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(result.commands),
        "failures": {c.label: c.failures for c in result.commands if c.failures},
        "digests": result.digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
