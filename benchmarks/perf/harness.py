"""The orchestrating side: spawn fresh child processes, merge, report, gate.

Imports nothing from ``repro`` -- every workload runs in a child started by
:func:`spawn_child` -- so the timing of a run never includes this process's
own state.  One untraced run of a workload is ``spec.PROCESSES`` children in
sequence, each paying the full set-up and then running its slice of the timed
iterations; :func:`run_untraced` pools their iterations into the five
end-to-end metrics.  :func:`run_traced` is one more child with the tracer on.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from benchmarks.perf import spec

ROOT = Path(__file__).resolve().parents[2]

#: The driver allows one run 180 s in total; children that would overrun this
#: budget are killed with their whole process group.
RUN_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A workload process exited non-zero, hung, or printed no report."""


def spawn_child(workload: str, seed: int, first_index: int, iterations: int,
                traced: bool, quick: bool, deadline: float) -> dict:
    """Run one workload process to completion and return its report.

    ``deadline`` is on ``time.monotonic()``: the end of the run's budget.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise ChildFailed(f"no src/repro under {ROOT}: nothing to benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [
        sys.executable, "-m", "benchmarks.perf", "child", "--workload", workload,
        "--seed", str(seed), "--first-index", str(first_index),
        "--iterations", str(iterations), "--trace", str(int(traced)),
        "--quick", str(int(quick)), "--spawned-at", repr(time.time()),
    ]
    # Its own session, so a hung child's pool workers die with it.
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} overran the run's {RUN_TIMEOUT_S:.0f}s budget") from None
    finally:
        if process.poll() is None or process.returncode != 0:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        process.wait()
    if process.returncode != 0:
        raise ChildFailed(f"{workload} child exited with code {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} child printed no report")
    return json.loads(lines[-1])


def _entry(name: str, value: float, samples: list[float]) -> dict:
    return dict(value=value, unit=spec.UNITS[name], samples=samples)


def spread(samples: list[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None below 2 samples)."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else None


def _collect(children: list[dict]) -> dict:
    """Counts, gate failures and fingerprints common to both kinds of run."""
    iterations = [it for child in children for it in child["iterations"] + child["reference"]]
    gate_failures = [failure for child in children for failure in child["gate_failures"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = min(attempted, sum(it["failed"] for it in iterations) + len(gate_failures))
    return dict(
        attempted=attempted, failed=failed, gate_failures=gate_failures,
        checks=dict(fingerprints={str(it["index"]): it["fingerprint"] for it in iterations}),
        env=children[0]["env"],
    )


def run_untraced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """All end-to-end metrics of one workload, from fresh processes."""
    declared = spec.WORKLOAD_BY_NAME[workload]
    processes = 1 if quick else spec.PROCESSES
    per_process = 1 if quick else spec.iterations_for(declared, seconds)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    children = [
        spawn_child(workload, seed, index * per_process, per_process, traced=False,
                    quick=quick, deadline=deadline)
        for index in range(processes)
    ]
    result = _collect(children)
    walls = [it["wall_s"] for child in children for it in child["iterations"]]
    megabits = [sum(it["payload_bytes"] for it in child["iterations"]) * 8 / 1e6
                for child in children]
    seconds_timed = [sum(it["wall_s"] for it in child["iterations"]) for child in children]
    setups = [child["setup_s"] for child in children]
    rss = [child["peak_rss_mb"] for child in children]
    result.update(
        workload=workload, processes=processes, iterations_per_process=per_process,
        end_to_end={
            "setup_s": _entry("setup_s", statistics.median(setups), setups),
            "wall_s": _entry("wall_s", statistics.median(walls), walls),
            "goodput_mbit_s": _entry(
                "goodput_mbit_s", sum(megabits) / sum(seconds_timed),
                [m / s for m, s in zip(megabits, seconds_timed)]),
            "peak_rss_mb": _entry("peak_rss_mb", statistics.median(rss), rss),
            "fail_frac": _entry("fail_frac", result["failed"] / result["attempted"], []),
        },
    )
    return result


def run_traced(workload: str, seed: int, quick: bool, untraced: Optional[dict] = None) -> dict:
    """All per-layer metrics of one workload, from one traced process.

    With ``untraced`` given (the same workload's :func:`run_untraced` result,
    same seed) the traced fingerprints must also equal the untraced run's.
    """
    iterations = 1 if quick else spec.TRACED_ITERATIONS
    child = spawn_child(workload, seed, 0, iterations, traced=True, quick=quick,
                        deadline=time.monotonic() + RUN_TIMEOUT_S)
    result = _collect([child])
    if untraced is not None:
        expected = untraced["checks"]["fingerprints"]
        for index, digest in result["checks"]["fingerprints"].items():
            if expected.get(index, digest) != digest:
                result["gate_failures"].append(
                    f"iteration {index}: traced fingerprint differs from the untraced run's")
                result["failed"] = min(result["attempted"], result["failed"] + 1)
    result.update(
        workload=workload, traced_iterations=iterations,
        trace_file=f"benchmarks/perf/results/trace_{workload}.json",
        per_layer={name: dict(value=value, unit=spec.UNITS[name])
                   for name, value in child["layers"].items()},
    )
    return result


def contract_line(result: dict, metrics: dict, names) -> str:
    """The driver's result line: correct, attempted, failed, metrics."""
    return json.dumps(dict(
        correct=not result["gate_failures"] and result["failed"] == 0,
        attempted=result["attempted"], failed=result["failed"],
        metrics={name: dict(value=metrics[name]["value"], unit=metrics[name]["unit"])
                 for name in names},
    ))


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def describe(result: dict) -> list[str]:
    """Human-readable lines for one workload's result(s), every metric by name."""
    lines = []
    for name, entry in result.get("end_to_end", {}).items():
        line = f"  {result['workload']:<15}{name:<16}{entry['value']:>12.4f} {entry['unit']}"
        samples = entry["samples"]
        if name == "fail_frac":
            line += f"  ({result['failed']} failed / {result['attempted']} attempted)"
        elif len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f"  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples)})"
        lines.append(line)
    for name, entry in result.get("per_layer", {}).items():
        lines.append(f"  {result['workload']:<15}{name:<40}{entry['value']:>16.6g} {entry['unit']}")
    lines += [f"  {result['workload']:<15}GATE FAILED: {failure}" for failure in result["gate_failures"]]
    return lines


def run_set(workloads: list[str], seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    """One full set: every workload untraced, then (``trace``) traced; one document."""
    document = dict(schema=1, seed=seed, seconds=seconds, quick=quick,
                    git_commit=git_commit(), workloads={})
    for workload in workloads:
        result = run_untraced(workload, seed, seconds, quick)
        print("\n".join(describe(result)), flush=True)
        if trace:
            traced = run_traced(workload, seed, quick, untraced=result)
            print("\n".join(describe(traced)), flush=True)
            result["traced"] = traced
        document["workloads"][workload] = result
        document.setdefault("env", result["env"])
    return document


def gate_failures(document: dict) -> list[str]:
    """Every gate failure of a set, prefixed with its workload."""
    failures = []
    for name, result in document["workloads"].items():
        for part in (result, result.get("traced", {})):
            failures += [f"{name}: {failure}" for failure in part.get("gate_failures", [])]
            if part.get("failed"):
                failures.append(f"{name}: {part['failed']} of {part['attempted']} operations failed")
    return failures
