"""Figure 1b: goodput vs session rank for the multi-source fetch scenario.

A storage client fetches an object that is stored on 1 or 3 replica servers.
Polyraptor pulls statistically unique symbols from all replicas at once
(natural load balancing); TCP emulates the fetch by having each replica send
an uncoordinated 1/N share of the object.  Series:

    1 Senders RQ, 3 Senders RQ, 1 Senders TCP, 3 Senders TCP
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.figure1a import RankFigureResult, run_rank_figure
from repro.workloads.spec import TransferKind


def series_label(protocol: Protocol, num_senders: int) -> str:
    """The legend label used by the paper for one (protocol, senders) series."""
    short = "RQ" if protocol is Protocol.POLYRAPTOR else "TCP"
    return f"{num_senders} Senders {short}"


def run_figure1b(
    config: ExperimentConfig | None = None,
    sender_counts: tuple[int, ...] = (1, 3),
    protocols: tuple[Protocol, ...] = (Protocol.POLYRAPTOR, Protocol.TCP),
    num_seeds: int = 1,
    jobs: int = 1,
) -> RankFigureResult:
    """Run every series of Figure 1b and return the rank curves.

    Accepts the same ``num_seeds`` / ``jobs`` sweep controls as
    :func:`~repro.experiments.figure1a.run_figure1a`.
    """
    return run_rank_figure("figure1b", config, sender_counts, protocols, num_seeds,
                           jobs, TransferKind.FETCH, series_label)
