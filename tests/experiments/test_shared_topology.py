"""A-B-A: runs that share a topology cannot see each other.

``run_job`` runs every job of a process on one cached fat-tree per ``k``,
whose healthy routing all of them share.  Cell A (healthy) runs, then a
cell B that reroutes in every way the fabric can -- SRLG links down and
back up, a switch down and back up, each install delayed by a
convergence lag -- then A again, all in this process.  Both A runs must
equal A run alone in a fresh interpreter, by ``canonical_dict()``.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, run_job
from repro.experiments.resilience import permutation_workload
from repro.faults.schedule import FaultSchedule, shared_risk_group_schedule, switch_down, switch_up
from repro.network.routing import healthy_routes
from repro.network.topology import FatTreeTopology, shared_fattree
from repro.sim.randomness import RandomStreams

ROOT = Path(__file__).resolve().parents[2]

FRESH_RUN = """
import json, pickle, sys
from repro.experiments.parallel import run_job
for job in pickle.load(sys.stdin.buffer):
    print(json.dumps(run_job(job).canonical_dict(), sort_keys=True))
"""


def _config(**overrides) -> ExperimentConfig:
    settings = dict(
        fattree_k=4, num_foreground_transfers=4, object_bytes=48 * 1024,
        background_fraction=0.0, offered_load=0.33, seed=11, max_sim_time_s=10.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def _cell_a(protocol: Protocol) -> RunJob:
    config = _config()
    transfers = permutation_workload(config, FatTreeTopology(4))
    return RunJob(key="A", protocol=protocol, config=config, transfers=tuple(transfers))


def _cell_b(protocol: Protocol) -> RunJob:
    config = _config(seed=12, convergence_delay_s=50e-6)
    topology = FatTreeTopology(4)
    srlg = shared_risk_group_schedule(topology, RandomStreams(12).stream("aba.faults"),
                                      group_size=2, start_time=0.0, duration=0.002)
    switch = FaultSchedule.ordered([switch_down(0.0005, "agg1_0"), switch_up(0.0015, "agg1_0")])
    return RunJob(key="B", protocol=protocol, config=config,
                  transfers=tuple(permutation_workload(config, topology)),
                  fault_schedule=srlg.merged(switch))


def _fresh_process(jobs: list[RunJob]) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    output = subprocess.run(
        [sys.executable, "-c", FRESH_RUN], input=pickle.dumps(jobs), env=env,
        capture_output=True, check=True, timeout=120,
    ).stdout
    return output.decode().splitlines()


def _canonical(job: RunJob) -> str:
    return json.dumps(run_job(job).canonical_dict(), sort_keys=True)


@pytest.mark.parametrize("protocol", [Protocol.POLYRAPTOR, Protocol.TCP],
                         ids=lambda protocol: protocol.value)
def test_a_then_rerouting_b_then_a_matches_a_fresh_process(protocol):
    cell_a, cell_b = _cell_a(protocol), _cell_b(protocol)
    routes = healthy_routes(shared_fattree(4))
    first_a = _canonical(cell_a)
    result_b = run_job(cell_b)
    second_a = _canonical(cell_a)

    stats = result_b.fault_stats
    assert stats["reroutes"] > 0
    assert stats["switches_failed"] == stats["switches_restored"] == 1
    assert stats["links_failed"] == stats["links_restored"] == 2
    assert stats["route_installs"] == stats["recomputes_requested"]
    assert healthy_routes(shared_fattree(4)) is routes

    [fresh_a] = _fresh_process([cell_a])
    assert first_a == fresh_a
    assert second_a == fresh_a
