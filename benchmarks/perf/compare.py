"""``compare A.json B.json``: per (metric, workload) ratios against the spec's bounds.

A is the base (parent commit, or the first of two repeat sets), B the change.
Every ratio is printed with its base.  For each end-to-end metric the verdict
is ``ok``, ``REGRESSED`` (B worse than A by more than the metric's bound --
non-zero exit) or ``unresolved`` (either side's own inter-quartile spread
exceeds the bound, so the pair cannot tell a change from noise; not a pass,
not a failure).  ``fail_frac`` and the attempted count must not move at all.
Per-layer metrics have no bound: they are listed as ratios, and with
``same_code`` (the ``run --repeat`` gate) the counts declared ``exact`` in the
spec must be identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.perf import spec
from benchmarks.perf.harness import spread


def _worse_by(metric: spec.Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` as a share of base (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / base
    return change if metric.better == "lower" else -change


def compare(base: dict, new: dict, same_code: bool = False) -> tuple[list[str], list[str]]:
    """Return (table lines, failures) for two ``run`` documents."""
    lines = [f"{'workload':<15}{'metric':<40}{'base':>14}{'new':>14}{'new/base':>10}  verdict"]
    failures: list[str] = []
    for name in base["workloads"]:
        if name not in new["workloads"]:
            failures.append(f"{name}: missing from the second document")
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        if a["attempted"] != b["attempted"]:
            failures.append(f"{name}: attempted {a['attempted']} -> {b['attempted']}")
        for metric in spec.END_TO_END:
            old, cur = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            worse = _worse_by(metric, old["value"], cur["value"])
            spreads = [s for s in (spread(old["samples"]), spread(cur["samples"])) if s is not None]
            if spreads and max(spreads) > metric.bound:
                verdict = f"unresolved (spread {max(spreads):.1%} > bound {metric.bound:.0%})"
            elif worse > metric.bound:
                verdict = f"REGRESSED (bound {metric.bound:.0%})"
                failures.append(f"{name}: {metric.name} {old['value']:.6g} -> {cur['value']:.6g} {metric.unit}")
            else:
                verdict = "ok"
            lines.append(_row(name, metric, old["value"], cur["value"], verdict))
        layers_a = a.get("traced", {}).get("per_layer", {})
        layers_b = b.get("traced", {}).get("per_layer", {})
        for metric in spec.PER_LAYER:
            if metric.name not in layers_a or metric.name not in layers_b:
                continue
            old, cur = layers_a[metric.name]["value"], layers_b[metric.name]["value"]
            if old == 0 and cur == 0:
                continue  # a layer this workload bypasses
            verdict = ""
            if metric.exact and old != cur:
                verdict = "count differs"
                if same_code:
                    failures.append(f"{name}: exact count {metric.name} {old:g} -> {cur:g}")
            lines.append(_row(name, metric, old, cur, verdict))
    return lines, failures


def _row(workload: str, metric: spec.Metric, old: float, cur: float, verdict: str) -> str:
    ratio = f"{cur / old:>10.3f}" if old else f"{'-':>10}"
    return (f"{workload:<15}{metric.name + ' [' + metric.unit + ']':<40}"
            f"{old:>14.6g}{cur:>14.6g}{ratio}  {verdict}")


def compare_files(base_path: Path, new_path: Path, same_code: bool = False) -> int:
    """Print the table for two result files; return the process exit code."""
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    print(f"base {base_path} ({base.get('git_commit', '?')[:12]}, seed {base.get('seed')})")
    print(f"new  {new_path} ({new.get('git_commit', '?')[:12]}, seed {new.get('seed')})")
    lines, failures = compare(base, new, same_code=same_code)
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0
