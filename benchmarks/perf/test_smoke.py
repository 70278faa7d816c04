"""Smoke test of the ledger: ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.

Runs every workload once at ``--quick`` sizes (untraced and traced, well
under 30 s) and holds the output to ``spec.py``: every declared name is
emitted with its declared unit on every workload, nothing undeclared appears,
and ``BENCHMARK.json`` is exactly what the spec generates.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declared_names_units_and_counts_fit_the_contract():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + [w.name for w in spec.WORKLOADS]
    assert len(names) == len(set(names)), "a name is declared twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), (metric.name, metric.unit)
        assert metric.better in ("lower", "higher")
    assert len(spec.WORKLOADS) == 4 and len(spec.END_TO_END) == 5
    assert len(spec.PER_LAYER) < 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert all(0.0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_is_generated_from_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()
    assert committed["paths"] == ["benchmarks/perf"]
    assert {m["name"] for m in committed["end_to_end"]} == {
        m.name for m in spec.END_TO_END} - {"fail_frac"}


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--quick", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_every_workload_emits_exactly_the_declared_metrics(quick_run):
    assert list(quick_run["workloads"]) == [w.name for w in spec.WORKLOADS]
    for name, result in quick_run["workloads"].items():
        assert {k: v["unit"] for k, v in result["end_to_end"].items()} == {
            m.name: m.unit for m in spec.END_TO_END}, name
        assert {k: v["unit"] for k, v in result["traced"]["per_layer"].items()} == {
            m.name: m.unit for m in spec.PER_LAYER}, name
        assert result["end_to_end"]["fail_frac"]["value"] == 0.0, result["gate_failures"]
        assert not result["gate_failures"] and not result["traced"]["gate_failures"]
        assert (ROOT / result["traced"]["trace_file"]).is_file()
    for key in ("usable_cores", "python", "numpy", "kernel", "platform"):
        assert key in quick_run["env"]


def test_driver_entry_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "sim_payload", "--seed", "7",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m.name: m.unit for m in spec.CONTRACT_END_TO_END}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
