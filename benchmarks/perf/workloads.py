"""The four workloads: set-up, one closed-loop iteration, end-of-run gates.

Every workload is driven the same way by :mod:`benchmarks.perf.child`:
``setup()`` once, ``iterate(index)`` for the warm-up and each timed
iteration, ``finish()`` once (always, in a ``finally``).  An iteration times
only its calls into ``repro`` (``Iteration.wall_s``); generating inputs and
verifying outputs -- fingerprints, hashes, completion -- happen outside that
window.  The program under test only ever sees generated inputs: ``--seed``
and the iteration index derive an ``ExperimentConfig.seed``, object names
and loss seeds through :func:`sub_seed`.

The two simulator workloads give every timed iteration of a run its *own*
sub-seed: a cell's work depends on its permutation (hop counts, collisions),
so a run that repeats one cell inherits that cell's luck, while a run over
many distinct cells averages it out and different ``--seed`` values agree.
The warm-up iteration reuses the first timed iteration's sub-seed, so each
process still re-runs one input and demands an identical fingerprint.
"""

from __future__ import annotations

import asyncio
import glob
import hashlib
import json
import socket
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import (
    RunJob,
    execute_jobs,
    last_profile,
    run_job,
    shutdown_worker_pool,
    warm_worker_pool,
)
from repro.experiments.resilience import permutation_workload
from repro.experiments.runner import RunResult, run_transfers
from repro.faults.schedule import (
    FaultSchedule,
    gray_failure_schedule,
    link_loss,
    shared_risk_group_schedule,
)
from repro.net.client import FetchError, fetch_object_async
from repro.net.driver import wire_config
from repro.net.server import ObjectStore, deterministic_object, run_server
from repro.network.topology import FatTreeTopology
from repro.obs import MetricRegistry
from repro.rq.backend import default_context
from repro.rq.block import partition_object
from repro.sim.randomness import RandomStreams
from repro.workloads.spec import TransferKind, TransferSpec

from benchmarks.perf.trace import Tracer


def sub_seed(seed: int, index: int) -> int:
    """The seed of iteration ``index`` of a ``--seed`` run (disjoint per seed)."""
    return seed * 1000 + index


def fingerprint(results) -> str:
    """sha256 over the canonical snapshots of one or more :class:`RunResult`."""
    snapshots = [result.canonical_dict() for result in results]
    text = json.dumps(snapshots, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Iteration:
    """What one iteration did, measured and verified."""

    wall_s: float
    attempted: int
    failed: int
    #: object payload bytes completed *and verified*
    payload_bytes: int
    fingerprint: str
    failures: list[str] = field(default_factory=list)
    #: per-layer numbers read from public result objects
    layer: dict[str, float] = field(default_factory=dict)


class _Workload:
    """Shared plumbing: sizes, seed, optional tracer."""

    def __init__(self, seed: int, sizes: dict, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        #: layer numbers fixed at set-up (pool spawn, store put)
        self.setup_layer: dict[str, float] = {}

    def span(self, layer: str, name: str):
        """A harness span around a call into ``layer`` (no-op when untraced)."""
        return self.tracer.span(layer, name) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, index: int) -> Iteration:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Release everything held; return end-of-run gate failures."""
        return []


def _codec_layer(stats: Optional[dict], before: Optional[dict] = None) -> dict[str, float]:
    """Codec counters of one iteration from ``codec_stats`` (minus a ``before`` snapshot)."""
    if not stats:
        return {}

    def since(*path: str) -> float:
        now, then = stats, before
        for key in path:
            now, then = now[key], (then[key] if then is not None else None)
        return now - (then or 0)

    def hit_rate(cache: str) -> float:
        hits, misses = since(cache, "hits"), since(cache, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "rq.blocks_encoded": since("blocks_encoded"),
        "rq.blocks_decoded": since("blocks_decoded"),
        "rq.plan.hit_rate": hit_rate("plan_cache"),
        "rq.decode_plan.hit_rate": hit_rate("decode_plan_cache"),
    }


class SimCells(_Workload):
    """One permutation workload offered to each protocol in turn."""

    protocols: tuple[Protocol, ...] = ()
    polyraptor_config: Optional[PolyraptorConfig] = None
    #: uniform per-link Bernoulli loss from t=0 (None = a healthy fabric)
    link_loss_probability: Optional[float] = None

    def setup(self) -> None:
        self.topology = FatTreeTopology(self.sizes["fattree_k"])
        self.faults: Optional[FaultSchedule] = None
        if self.link_loss_probability is not None:
            self.faults = FaultSchedule.ordered([
                link_loss(0.0, a, b, self.link_loss_probability, cause="gray")
                for a, b in sorted(self.topology.graph.edges)
            ])

    def iterate(self, index: int) -> Iteration:
        config = ExperimentConfig(
            fattree_k=self.sizes["fattree_k"],
            num_foreground_transfers=self.sizes["transfers"],
            object_bytes=self.sizes["object_bytes"],
            background_fraction=0.0,
            offered_load=self.sizes["load"],
            seed=sub_seed(self.seed, index),
            max_sim_time_s=30.0,
        )
        transfers = permutation_workload(config, self.topology)
        results: list[RunResult] = []
        start = time.perf_counter()
        for protocol in self.protocols:
            with self.span(f"experiments.runner.{protocol.value}", "run_transfers"):
                results.append(run_transfers(
                    protocol, config, transfers, topology=self.topology,
                    polyraptor_config=self.polyraptor_config, fault_schedule=self.faults,
                ))
        wall_s = time.perf_counter() - start

        completed = [r for result in results for r in result.registry.records if r.completed]
        attempted = len(transfers) * len(results)
        failures = [
            f"{result.protocol.value} completion_fraction {result.completion_fraction}"
            for result in results if result.completion_fraction != 1.0
        ]
        layer = {"network.trimmed_packets": 0.0, "network.dropped_packets": 0.0}
        for result in results:
            name = result.protocol.value
            layer[f"sim.events.{name}"] = result.events_processed
            layer[f"sim.events_per_s.{name}"] = result.events_processed / result.wall_time_s
            layer["network.trimmed_packets"] += result.trimmed_packets
            layer["network.dropped_packets"] += result.dropped_packets
            layer.update(_codec_layer(result.codec_stats))
        return Iteration(
            wall_s=wall_s, attempted=attempted, failed=attempted - len(completed),
            payload_bytes=sum(record.transfer_bytes for record in completed),
            fingerprint=fingerprint(results), failures=failures, layer=layer,
        )


class SimIdentity(SimCells):
    """Polyraptor then TCP on byte-identical offered traffic, identity mode."""

    protocols = (Protocol.POLYRAPTOR, Protocol.TCP)


class SimPayload(SimCells):
    """Polyraptor carrying real coded bytes; a fresh codec context per cell.

    On a healthy fabric a cell decodes anywhere from zero to most of its
    blocks depending on which initial windows happen to collide, and each
    decode is a cold ~0.15 s plan build -- single cells differ by 50 %.  A
    uniform 1 % per-link loss makes *every* block lose a few source symbols,
    so each cell encodes and cold-decodes each of its blocks exactly once and
    the work no longer depends on the seed's luck.
    """

    protocols = (Protocol.POLYRAPTOR,)
    polyraptor_config = PolyraptorConfig(carry_payload=True)
    link_loss_probability = 0.01

    def iterate(self, index: int) -> Iteration:
        iteration = super().iterate(index)
        if iteration.layer.get("rq.blocks_decoded", 0) <= 0:
            iteration.failures.append("blocks_decoded == 0: no codec work was measured")
        return iteration


class SweepCampaign(_Workload):
    """One ``execute_jobs`` call over hundreds of tiny campaign cells.

    Same cell shape as ``benchmarks/test_campaign.py``: k=4, one 8 KB
    transfer, unicast/fetch x healthy/SRLG/gray, one seed per cell.
    """

    KINDS = (TransferKind.UNICAST, TransferKind.FETCH)
    FAULTS = ("none", "srlg", "gray")

    def _cell(self, index: int) -> RunJob:
        seed = sub_seed(self.seed, index)
        kind = self.KINDS[index % len(self.KINDS)]
        fault = self.FAULTS[(index // len(self.KINDS)) % len(self.FAULTS)]
        config = ExperimentConfig(
            fattree_k=self.sizes["fattree_k"], num_foreground_transfers=1,
            object_bytes=self.sizes["object_bytes"], background_fraction=0.0,
            offered_load=0.15, max_sim_time_s=5.0, seed=seed,
        )
        streams = RandomStreams(seed)
        rng = streams.stream("campaign.workload")
        hosts = list(self.topology.hosts)
        client = hosts[rng.randrange(len(hosts))]
        peers = rng.sample([host for host in hosts if host != client],
                           1 if kind is TransferKind.UNICAST else 2)
        fault_rng = streams.stream("campaign.faults")
        schedule = None
        if fault == "srlg":
            schedule = shared_risk_group_schedule(
                self.topology, fault_rng, group_size=2, start_time=0.0, duration=0.01)
        elif fault == "gray":
            schedule = gray_failure_schedule(
                self.topology, fault_rng, loss_probability=0.01, start_time=0.0, duration=0.01)
        transfer = TransferSpec(
            transfer_id=0, kind=kind, client=client, peers=tuple(peers),
            size_bytes=config.object_bytes, start_time=0.0, label="campaign",
        )
        return RunJob(key=(seed, kind.value, fault), protocol=Protocol.POLYRAPTOR,
                      config=config, transfers=(transfer,), fault_schedule=schedule)

    def setup(self) -> None:
        self.topology = FatTreeTopology(self.sizes["fattree_k"])
        self.jobs = [self._cell(index) for index in range(self.sizes["cells"])]
        self.workers = self.sizes["workers"]
        pool = warm_worker_pool(self.workers, transport="shm")
        self.setup_layer = {
            "experiments.parallel.pool_spawn_s": pool.spawn_s,
            "experiments.parallel.worker_init_s": pool.worker_init_s,
        }
        self.last_results: list[RunResult] = []
        self.reference: Optional[str] = None

    def iterate(self, index: int) -> Iteration:
        start = time.perf_counter()
        with self.span("experiments.parallel", "execute_jobs"):
            results = execute_jobs(self.jobs, num_workers=self.workers, transport="shm",
                                   label="perf.sweep_campaign")
        wall_s = time.perf_counter() - start
        profile = last_profile()
        self.last_results = results

        cells = len(self.jobs)
        done = [result for result in results if result.completion_fraction == 1.0]
        digest = fingerprint(results)
        failures = []
        # Every iteration runs the same job list, so fingerprints must repeat.
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            failures.append("sweep fingerprint differs from the previous iteration")
        layer = {
            "experiments.parallel.cells_per_s": cells / profile.wall_s,
            "experiments.parallel.ms_per_cell": 1e3 * profile.wall_s / cells,
            "experiments.parallel.overhead_frac":
                1.0 - profile.run_s / (profile.workers * profile.wall_s),
            "experiments.parallel.serialize_s": profile.serialize_s,
            "experiments.parallel.merge_s": profile.merge_s,
            "experiments.parallel.prewarm_s": profile.prewarm_s,
            "experiments.parallel.plans_ship_s": profile.plans_ship_s,
            "experiments.parallel.bytes_shipped": profile.bytes_shipped,
            "experiments.shm.bytes": profile.shm_bytes,
            "sim.events.polyraptor": sum(result.events_processed for result in results),
            "network.trimmed_packets": sum(result.trimmed_packets for result in results),
            "network.dropped_packets": sum(result.dropped_packets for result in results),
        }
        if self.tracer is not None:
            layer["experiments.parallel.speedup"] = (
                self._inline_sample_ms() / layer["experiments.parallel.ms_per_cell"])
        return Iteration(
            wall_s=wall_s, attempted=cells, failed=cells - len(done),
            payload_bytes=sum(r.transfer_bytes for result in done for r in result.registry.records),
            fingerprint=digest, failures=failures, layer=layer,
        )

    def _inline_sample_ms(self) -> float:
        """ms/cell of the first cells run in this process, under the tracer.

        The pool's workers are out of the tracer's reach, so this sample is
        where the sweep's per-cell attribution (``network.build_s``,
        ``sim.run_s``, ``protocol.busy_s``) comes from.
        """
        sample = self.jobs[: self.sizes["inline_sample"]]
        start = time.perf_counter()
        for job in sample:
            with self.span("experiments.runner.polyraptor", "run_job"):
                run_job(job)
        return 1e3 * (time.perf_counter() - start) / len(sample)

    def finish(self) -> list[str]:
        failures = []
        try:
            # A spread-out sample of cells, re-run here, must fingerprint equal.
            cells, sample = len(self.last_results), self.sizes["refingerprint"]
            for index in range(0, cells, max(1, cells // sample))[:sample]:
                if fingerprint([run_job(self.jobs[index])]) != fingerprint([self.last_results[index]]):
                    failures.append(f"cell {index} {self.jobs[index].key} diverged from inline execution")
        finally:
            shutdown_worker_pool()
        leaked = glob.glob("/dev/shm/rpshm-*")
        if leaked:
            failures.append(f"{len(leaked)} /dev/shm/rpshm-* segment(s) left behind")
        return failures


def _free_udp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class NetFetch(_Workload):
    """Two concurrent loopback fetches of one object from an in-process server.

    Client 0 is clean; client 1 drops 10 % of arriving symbol frames with a
    fresh ``loss_seed`` every iteration, so every lossy block is a cold
    decode -- as real loss gives.  Server, both clients and a 5 ms sleeper
    (the loop-lag gauge) share one asyncio loop over the loopback interface:
    link rate and wire latency are not measured.
    """

    SLEEP_S = 0.005

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.name = f"perf-{self.seed}"
        self.data = deterministic_object(self.sizes["object_bytes"], seed=self.name)
        # Independent of the transfer: hashed from the generator's output
        # before any byte crosses a socket.
        self.sha256 = hashlib.sha256(self.data).hexdigest()
        self.store = ObjectStore()
        start = time.perf_counter()
        self.store.put(self.name, self.data)
        self.setup_layer = {"net.store.put_s": time.perf_counter() - start}
        self.registry = MetricRegistry()
        self.iterations_run = 0
        self.runs_of: dict[int, int] = {}
        self.port = _free_udp_port()
        self.loop.run_until_complete(self._start_server())

    async def _start_server(self) -> None:
        ready = asyncio.Event()
        self.server = asyncio.ensure_future(
            run_server(self.store, port=self.port, ready=ready, registry=self.registry))
        await asyncio.wait_for(ready.wait(), 10.0)

    async def _fetch(self, **loss) -> tuple[float, bool, str]:
        start = time.perf_counter()
        try:
            data = await fetch_object_async(self.name, port=self.port, **loss)
        except FetchError as error:
            return time.perf_counter() - start, False, str(error)
        elapsed = time.perf_counter() - start
        ok = hashlib.sha256(data).hexdigest() == self.sha256
        return elapsed, ok, "" if ok else "sha256 mismatch"

    async def _sleeper(self, lags: list[float]) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + self.SLEEP_S
            await asyncio.sleep(self.SLEEP_S)
            lags.append(loop.time() - due)

    async def _iteration(self, index: int) -> Iteration:
        lags: list[float] = []
        sleeper = asyncio.ensure_future(self._sleeper(lags))
        # Warm-up, reference and traced runs of one index each get their own
        # loss pattern: a repeated pattern would hit the plans its first run
        # left in the process-wide codec context.
        self.runs_of[index] = self.runs_of.get(index, 0) + 1
        loss_seed = sub_seed(self.seed, index) * 10 + self.runs_of[index]
        before, codec_before = self.registry.snapshot(), default_context().stats_dict()
        start = time.perf_counter()
        clean, lossy = await asyncio.gather(
            self._fetch(),
            self._fetch(loss_rate=self.sizes["loss_rate"], loss_seed=loss_seed),
        )
        wall_s = time.perf_counter() - start
        sleeper.cancel()
        after = self.registry.snapshot()

        fetches = {"clean": clean, "lossy": lossy}
        failures = [f"{which} fetch: {why}" for which, (_, ok, why) in fetches.items() if not ok]
        verified = sum(1 for _, ok, _ in fetches.values() if ok)
        config = wire_config()
        oti = partition_object(len(self.data), config.symbol_size_bytes,
                               config.max_symbols_per_block)
        sent = after.get("net.server.symbols_sent", 0) - before.get("net.server.symbols_sent", 0)
        repair = (after.get("net.server.repair_symbols_sent", 0)
                  - before.get("net.server.repair_symbols_sent", 0))
        lags.sort()
        layer = {
            "net.fetch_clean_s": clean[0],
            "net.fetch_lossy_s": lossy[0],
            "net.server.symbols_sent": sent,
            "net.server.repair_symbols_sent": repair,
            "net.symbol_overhead": sent / (len(fetches) * oti.total_source_symbols),
            "net.loop_lag_ms_p50": 1e3 * statistics.median(lags) if lags else 0.0,
            "net.loop_lag_ms_max": 1e3 * lags[-1] if lags else 0.0,
            # Endpoints built without a context share the process-wide one.
            **_codec_layer(default_context().stats_dict(), codec_before),
        }
        return Iteration(
            wall_s=wall_s, attempted=len(fetches), failed=len(fetches) - verified,
            payload_bytes=verified * len(self.data),
            # The delivered bytes are the output; both were checked against it.
            fingerprint=self.sha256, failures=failures, layer=layer,
        )

    def iterate(self, index: int) -> Iteration:
        self.iterations_run += 1
        return self.loop.run_until_complete(self._iteration(index))

    async def _stop_server(self) -> None:
        self.server.cancel()
        await asyncio.gather(self.server, return_exceptions=True)

    def finish(self) -> list[str]:
        try:
            self.loop.run_until_complete(self._stop_server())
        finally:
            self.loop.close()
        state = self.registry.snapshot()
        failures = []
        if state.get("net.server.grants_active", 0) != 0:
            failures.append(f"server still holds {state['net.server.grants_active']} grants")
        expected = 2 * self.iterations_run
        if state.get("net.server.sessions_completed", 0) != expected:
            failures.append(
                f"server completed {state.get('net.server.sessions_completed', 0)} "
                f"sessions, expected {expected}")
        return failures


WORKLOAD_CLASSES = {
    "sim_identity": SimIdentity,
    "sim_payload": SimPayload,
    "sweep_campaign": SweepCampaign,
    "net_fetch": NetFetch,
}
