"""Command line of the ledger: ``run``, ``compare``, ``spec`` (and the internal ``child``)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.perf import spec


def _run(args: argparse.Namespace) -> int:
    from benchmarks.perf import harness
    from benchmarks.perf.compare import compare_files

    workloads = args.workloads.split(",") if args.workloads else [w.name for w in spec.WORKLOADS]
    unknown = [name for name in workloads if name not in spec.WORKLOAD_BY_NAME]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    out = Path(args.out)
    paths, failures = [], []
    for repeat in range(args.repeat):
        if args.repeat > 1:
            print(f"== set {repeat + 1} of {args.repeat} ==", flush=True)
        document = harness.run_set(workloads, args.seed, args.seconds, args.quick, args.trace)
        path = out if args.repeat == 1 else out.with_suffix(f".{repeat + 1}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", flush=True)
        paths.append(path)
        failures += harness.gate_failures(document)
    for failure in failures:
        print(f"FAIL {failure}")
    status = 1 if failures else 0
    # The repeatability gate: later sets of the same code against the first.
    for path in paths[1:]:
        status |= compare_files(paths[0], path, same_code=True)
    return status


def _compare(args: argparse.Namespace) -> int:
    from benchmarks.perf.compare import compare_files

    return compare_files(Path(args.base), Path(args.new))


def _spec(args: argparse.Namespace) -> int:
    from benchmarks.perf.harness import ROOT

    text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
    if args.write:
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _child(args: argparse.Namespace) -> int:
    from benchmarks.perf import child

    report = child.run(args.workload, args.seed, args.first_index, args.iterations,
                       bool(args.trace), bool(args.quick), args.spawned_at)
    print(json.dumps(report), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads, print every metric, write one JSON")
    run.add_argument("--workloads", help="comma-separated subset (default: all four)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                     help="timed budget per workload; scales the fixed iteration counts")
    run.add_argument("--trace", action="store_true", help="add the traced run (per-layer metrics)")
    run.add_argument("--quick", action="store_true", help="tiny sizes, one iteration (smoke test)")
    run.add_argument("--repeat", type=int, default=1,
                     help="run N full sets in fresh processes and compare each to the first")
    run.add_argument("--out", default="benchmarks/perf/results/latest.json")
    run.set_defaults(handler=_run)

    compare = commands.add_parser("compare", help="ratio table of two result files")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=_compare)

    spec_cmd = commands.add_parser("spec", help="print (or --write) BENCHMARK.json from spec.py")
    spec_cmd.add_argument("--write", action="store_true")
    spec_cmd.set_defaults(handler=_spec)

    child = commands.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--first-index", type=int, required=True)
    child.add_argument("--iterations", type=int, required=True)
    child.add_argument("--trace", type=int, required=True)
    child.add_argument("--quick", type=int, required=True)
    child.add_argument("--spawned-at", type=float, required=True)
    child.set_defaults(handler=_child)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
