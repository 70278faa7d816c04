"""The driver's entry point: one workload, one result line.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  With ``--trace 0`` it runs the workload's
untraced processes and prints the end-to-end metrics ``BENCHMARK.json``
lists; with ``--trace 1`` it runs the traced process and prints every
per-layer metric.  The last line of stdout is the JSON result; any failure to
run exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.perf import harness, spec  # noqa: E402  (needs ROOT on sys.path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes (smoke test only)")
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = harness.run_traced(args.workload, args.seed, args.quick)
            metrics, names = result["per_layer"], [m.name for m in spec.PER_LAYER]
        else:
            result = harness.run_untraced(args.workload, args.seed, args.seconds, args.quick)
            metrics = result["end_to_end"]
            names = [m.name for m in spec.CONTRACT_END_TO_END]
    except harness.ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print("\n".join(harness.describe(result)), flush=True)
    print(harness.contract_line(result, metrics, names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
