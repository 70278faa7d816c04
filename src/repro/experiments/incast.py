"""Incast experiment: fan-in sweep, Polyraptor against TCP with ECN marking off and on.

The Figure 1c experiment (:mod:`repro.experiments.figure1c`) measures incast
*goodput* collapse.  This experiment adds ECN/PCN marking on TCP's drop-tail
switch queues.  TCP's receiver echoes every mark (a per-packet ECE echo) and
its sender halves cwnd at most once per window, as RFC 3168 does -- not
DCTCP's cut scaled by the marked fraction.  Polyraptor needs no marks: its
receivers' pull clocks already cap every receiver's arrival rate at its
link rate, and trimming switches absorb the transient overflow, so its
trimming fabric never marks and it runs each fan-in once.  Each fan-in
therefore has three series -- Polyraptor, TCP with marking off
(byte-identical to the unmarked simulator) and TCP with marking on -- and
the sweep reports the FCT tail: incast pathology lives in p99, where
drop-tail overflow turns into 200 ms retransmission timeouts.

Every (seed, fan-in, marking, protocol) is an independent
:class:`~repro.experiments.parallel.RunJob`: the workload is generated once
per (seed, fan-in) and shared by every cell that uses it, and the marking
switch rides inside the job's
:class:`~repro.experiments.config.ExperimentConfig` (``ecn_enabled``), so the
sweep shards over ``--jobs N`` workers with byte-identical output for any N.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob
from repro.experiments.report import fct_columns
from repro.experiments.sweep import (
    SweepResult,
    cell_jobs,
    fct_points,
    keyed_cells,
    run_sweep,
    seed_configs,
)
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.workloads.incast import incast_transfers

#: Cell-label suffix of the reaction-off baseline each ratio is computed against.
MARK_OFF = "mark-off"
MARK_ON = "mark-on"


#: How :func:`repro.experiments.report.format_sweep` renders the result: one
#: row per (protocol, cell) the sweep ran, in sweep order -- Polyraptor's
#: fan-ins, then TCP's with marking off then on -- with p99 included (the
#: incast pathology lives in the tail) and the ratio of each TCP marking-on
#: cell against TCP at the same fan-in with marking off, then the per-cell
#: congestion-reaction counters.
TABLE = dict(
    title="Incast -- fan-in sweep: Polyraptor vs TCP with marking off and on",
    columns=fct_columns(("cell", lambda point: point.cell), "vs mark-off", p99=True),
    counters="transport_stats",
)


def incast_labels(fanins: tuple[int, ...]) -> tuple[str, ...]:
    """Cell labels in sweep order; shared by expansion and reporting."""
    labels = []
    for fanin in fanins:
        labels.append(f"fanin-{fanin}/{MARK_OFF}")
        labels.append(f"fanin-{fanin}/{MARK_ON}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate sweep cells in {labels}")
    return tuple(labels)


def _validate_axes(fanins: tuple[int, ...], response_bytes: int) -> None:
    if not fanins:
        raise ValueError("fanins cannot be empty")
    if any(fanin < 1 for fanin in fanins):
        raise ValueError(f"fan-ins must be positive integers, got {fanins}")
    if response_bytes <= 0:
        raise ValueError(f"response_bytes must be positive, got {response_bytes}")


def reactive_config(config: ExperimentConfig) -> ExperimentConfig:
    """A copy of ``config`` with ECN marking on the drop-tail (TCP) fabric.

    TCP's ECE reaction is always on and becomes active the moment the
    fabric marks.
    """
    return replace(config, ecn_enabled=True)


def expand_incast_sweep(
    config: ExperimentConfig,
    fanins: tuple[int, ...],
    response_bytes: int,
    protocols: tuple[Protocol, ...],
    num_seeds: int,
) -> list[RunJob]:
    """Expand seeds x fan-ins into fully-by-value jobs, marking only TCP's.

    Per (seed, fan-in) the incast episode is generated once and shared by
    every cell (the fair-comparison requirement: every cell of a fan-in sees
    byte-identical offered traffic): each protocol unmarked, then TCP with
    marking on.  The marking-on cell differs only in its config's
    ``ecn_enabled``, which rides inside the job.

    Job keys are ``(seed, protocol.value, label)``.
    """
    _validate_axes(fanins, response_bytes)
    incast_labels(fanins)  # rejects duplicates
    jobs: list[RunJob] = []
    topology = FatTreeTopology(config.fattree_k)
    max_fanin = len(topology.hosts) - 1
    if max(fanins) > max_fanin:
        raise ValueError(
            f"k={config.fattree_k} FatTree supports fan-in <= {max_fanin}, got {max(fanins)}"
        )
    marked = (Protocol.TCP,) if Protocol.TCP in protocols else ()
    for seed_config in seed_configs(config, num_seeds):
        marked_config = reactive_config(seed_config)
        streams = RandomStreams(seed_config.seed)
        for fanin in fanins:
            _, transfers = incast_transfers(
                topology,
                fanin,
                response_bytes,
                streams.stream(f"incast.{fanin}"),
                first_transfer_id=1,
            )
            jobs += cell_jobs(f"fanin-{fanin}/{MARK_OFF}", seed_config, transfers, protocols)
            jobs += cell_jobs(f"fanin-{fanin}/{MARK_ON}", marked_config, transfers, marked)
    return jobs


def run_incast(
    config: ExperimentConfig | None = None,
    fanins: tuple[int, ...] = (4, 8, 15),
    response_bytes: int = 64 * 1024,
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> SweepResult:
    """Run the incast fan-in sweep, summarised per (protocol, cell).

    Polyraptor runs each fan-in once (``mark-off``); TCP runs it with marking
    off and on, and each TCP marking-off cell is the baseline its marking-on
    cell's ``fct_vs_baseline`` ratio is computed against (marking-off cells
    themselves carry no ratio).  Results are byte-identical for every
    ``jobs`` value.
    """
    cfg = config or ExperimentConfig.scaled_default()
    sweep = expand_incast_sweep(cfg, fanins, response_bytes, protocols, num_seeds)
    result = run_sweep("incast", keyed_cells(sweep), jobs)
    result.points = fct_points(
        result.runs,
        "incast",
        baseline_of=lambda label: (
            label.replace(MARK_ON, MARK_OFF) if label.endswith(MARK_ON) else None
        ),
    )
    return result
