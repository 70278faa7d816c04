"""The ledger's vocabulary: every workload and metric name, unit, direction and bound.

This module is the single source of those names.  ``BENCHMARK.json`` at the
repository root is generated from :func:`benchmark_json` (``python -m
benchmarks.perf spec --write``) and ``test_smoke.py`` asserts the two agree,
that a run emits exactly the declared names with the declared units, and that
nothing undeclared appears.  It imports nothing but the standard library so
the orchestrating process and the tests can read it without ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The ``--seconds`` value the iteration counts below were sized for.  Loops
#: are closed and run a *fixed* number of iterations (scaled linearly when a
#: different ``--seconds`` is passed) rather than watching a stopwatch, so the
#: attempted-operation count of a run repeats exactly.
RUN_SECONDS = 12

#: Fresh processes per untraced run.  Each pays the whole set-up (imports,
#: input generation, pool spawn or server bind, warm-up iteration), so a run
#: reports the median of this many honest ``setup_s`` samples, and per-process
#: layout effects average out of ``wall_s``.
PROCESSES = 3

#: Timed iterations of a traced run (and untraced reference iterations beside
#: them, which give ``trace.overhead_frac``).
TRACED_ITERATIONS = 2


@dataclass(frozen=True)
class Metric:
    """One named number of the ledger."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    about: str
    #: regression bound as a share of the parent's median (end-to-end only);
    #: 0.0 means "any increase fails" and ``None`` means unbounded (per-layer)
    bound: Optional[float] = None
    #: a count that must repeat exactly between two runs of the same code
    exact: bool = False


@dataclass(frozen=True)
class Workload:
    """One named input set: why it exists and how big one iteration is."""

    name: str
    why: str
    #: timed iterations per process at ``RUN_SECONDS``
    iterations: int
    sizes: dict
    #: the ``--quick`` sizes of the smoke test (one process, one iteration)
    quick: dict


WORKLOADS = (
    Workload(
        "sim_identity",
        "Paper cell pair (Polyraptor then TCP, same offered traffic), identity mode: "
        "engine, fabric, cores and TCP do all the work and rq none.",
        iterations=4,
        sizes=dict(fattree_k=6, transfers=16, object_bytes=256_000, load=0.33),
        quick=dict(fattree_k=4, transfers=4, object_bytes=32_000, load=0.33),
    ),
    Workload(
        "sim_payload",
        "Polyraptor cell carrying real coded bytes on a fresh codec context: rq kernels "
        "and cold plans dominate, the engine barely shows.",
        iterations=4,
        sizes=dict(fattree_k=4, transfers=4, object_bytes=256 * 1024, load=0.33),
        quick=dict(fattree_k=4, transfers=4, object_bytes=48 * 1024, load=0.33),
    ),
    Workload(
        "sweep_campaign",
        "Hundreds of tiny cells through the 2-worker shm pool: executor fixed costs and "
        "environment construction dominate, each cell runs only ~375 events.",
        iterations=3,
        sizes=dict(cells=400, workers=2, fattree_k=4, object_bytes=8_000,
                   inline_sample=150, refingerprint=4),
        quick=dict(cells=24, workers=2, fattree_k=4, object_bytes=8_000,
                   inline_sample=6, refingerprint=2),
    ),
    Workload(
        "net_fetch",
        "Two concurrent real-UDP loopback fetches (one clean, one at 10% induced loss) from "
        "one in-process server on one asyncio loop: wire, server, client, cold decodes.",
        iterations=3,
        sizes=dict(object_bytes=1024 * 1024, loss_rate=0.10),
        quick=dict(object_bytes=96 * 1024, loss_rate=0.10),
    ),
)

END_TO_END = (
    Metric("setup_s", "s", "lower",
           "process spawn to first timed iteration: imports, input generation, pool "
           "spawn or server bind, warm-up iteration (median over processes)", bound=0.25),
    Metric("wall_s", "s", "lower",
           "median wall-clock of one timed iteration, all processes pooled", bound=0.25),
    Metric("goodput_mbit_s", "Mbit/s", "higher",
           "verified object payload bits over total timed wall (mean-based, so stalls "
           "the median hides still show); simulated payload per host-second for the sims",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the workload process plus its largest reaped child "
           "(median over processes)", bound=0.10),
    Metric("fail_frac", "ratio", "lower",
           "operations not completed, refused, timed out or failing a hash/fingerprint "
           "gate over operations attempted in timed iterations; expected 0", bound=0.0),
)

#: What ``BENCHMARK.json`` lists and the driver's result line carries.
#: ``fail_frac`` is expected to be exactly 0, and the driver's bound is a share
#: of the parent's median, which cannot express "any increase from zero"; it
#: travels as the result line's ``failed``/``attempted`` keys instead.
CONTRACT_END_TO_END = tuple(metric for metric in END_TO_END if metric.bound)


def _count(name: str, about: str) -> Metric:
    return Metric(name, "count", "lower", about, exact=True)


PER_LAYER = (
    # rq.kernels
    Metric("rq.kernels.matmul_mb_s", "MB/s", "higher",
       "probe: default kernel, plan operator x one block's source plane at 1408-byte symbols"),
    Metric("rq.kernels.matmul_mb_s.numpy", "MB/s", "higher", "probe: same product on the numpy oracle"),
    Metric("rq.kernels.scale_rows_mb_s", "MB/s", "higher", "probe: per-row scaling of one source plane"),
    Metric("rq.kernels.busy_s", "s", "lower", "traced self time in kernel matmul/matvec/scale_rows outside plan builds"),
    Metric("rq.kernels.calls", "count", "lower", "traced kernel calls outside plan builds"),
    Metric("rq.kernels.bytes", "count", "lower", "traced symbol-plane bytes read by those calls"),
    # rq codec
    Metric("rq.encode_ms_per_block_warm", "ms", "lower", "probe: block encode, plan cached"),
    Metric("rq.encode_ms_per_block_cold", "ms", "lower", "probe: block encode on a fresh context"),
    Metric("rq.decode_ms_per_block_warm", "ms", "lower", "probe: 10% sources missing, repeated pattern"),
    Metric("rq.decode_ms_per_block_cold", "ms", "lower", "probe: 10% sources missing, new pattern per block"),
    Metric("rq.encode.busy_s", "s", "lower", "traced self time in encoders (kernel, plan build excluded)"),
    Metric("rq.decode.busy_s", "s", "lower", "traced self time in decoders (kernel, plan build excluded)"),
    Metric("rq.plan.build_s", "s", "lower", "traced time in build_plan, its elimination's kernel row ops included"),
    Metric("rq.plan.builds", "count", "lower", "traced build_plan calls"),
    _count("rq.blocks_encoded", "codec_stats: blocks encoded"),
    _count("rq.blocks_decoded", "codec_stats: blocks that needed a solve"),
    Metric("rq.plan.hit_rate", "ratio", "higher", "codec_stats: plan-cache hits over lookups"),
    Metric("rq.decode_plan.hit_rate", "ratio", "higher", "codec_stats: decode-plan hits over lookups"),
    # protocol
    Metric("protocol.symbols_per_s", "1/s", "higher", "probe: SenderCore<->ReceiverCore null-driver loop"),
    Metric("protocol.busy_s", "s", "lower", "traced self time in core event handlers"),
    Metric("protocol.calls", "count", "lower", "traced core event-handler calls"),
    # sim
    Metric("sim.engine.noop_events_per_s", "1/s", "higher", "probe: self-rescheduling no-op chain, 64 outstanding"),
    Metric("sim.events_per_s.polyraptor", "1/s", "higher", "RunResult: events over Simulator.run wall"),
    Metric("sim.events_per_s.tcp", "1/s", "higher", "RunResult: events over Simulator.run wall"),
    _count("sim.events.polyraptor", "RunResult: events processed"),
    _count("sim.events.tcp", "RunResult: events processed"),
    Metric("sim.run_s", "s", "lower", "traced self time of Simulator.run (core and codec children removed)"),
    # network / experiments.runner
    Metric("network.build_s", "s", "lower", "traced time in build_environment"),
    Metric("experiments.runner.cell_s.polyraptor", "s", "lower", "traced time of Polyraptor cells"),
    Metric("experiments.runner.cell_s.tcp", "s", "lower", "traced time of TCP cells"),
    _count("network.trimmed_packets", "RunResult: payloads trimmed by switches"),
    _count("network.dropped_packets", "RunResult: packets dropped by switches"),
    # experiments.parallel / experiments.shm
    Metric("experiments.parallel.cells_per_s", "1/s", "higher", "ExecutorProfile: cells over wall"),
    Metric("experiments.parallel.ms_per_cell", "ms", "lower", "ExecutorProfile: wall over cells"),
    Metric("experiments.parallel.overhead_frac", "ratio", "lower", "1 - run_s / (workers x wall_s)"),
    Metric("experiments.parallel.speedup", "ratio", "higher", "inline-sample ms/cell over pooled ms/cell"),
    Metric("experiments.parallel.serialize_s", "s", "lower", "ExecutorProfile"),
    Metric("experiments.parallel.merge_s", "s", "lower", "ExecutorProfile"),
    Metric("experiments.parallel.prewarm_s", "s", "lower", "ExecutorProfile"),
    Metric("experiments.parallel.plans_ship_s", "s", "lower", "ExecutorProfile"),
    Metric("experiments.parallel.pool_spawn_s", "s", "lower", "parent-observed pool spawn (set-up)"),
    Metric("experiments.parallel.worker_init_s", "s", "lower", "slowest worker warm-up (set-up)"),
    Metric("experiments.parallel.bytes_shipped", "count", "lower", "ExecutorProfile: pipe bytes"),
    Metric("experiments.shm.bytes", "count", "lower", "ExecutorProfile: shared-memory bytes"),
    # net
    Metric("net.wire.encode_us_per_frame", "us", "lower", "probe: symbol frame at the granted size"),
    Metric("net.wire.decode_us_per_frame", "us", "lower", "probe: symbol frame at the granted size"),
    Metric("net.wire.busy_s", "s", "lower", "traced self time in encode_frame/decode_frame"),
    Metric("net.store.put_s", "s", "lower", "ObjectStore.put during set-up"),
    Metric("net.fetch_clean_s", "s", "lower", "median clean-client fetch time"),
    Metric("net.fetch_lossy_s", "s", "lower", "median lossy-client fetch time"),
    Metric("net.server.symbols_sent", "count", "lower", "server registry, per iteration"),
    Metric("net.server.repair_symbols_sent", "count", "lower", "server registry, per iteration"),
    Metric("net.symbol_overhead", "ratio", "lower", "symbols sent over source symbols needed"),
    Metric("net.loop_lag_ms_p50", "ms", "lower", "5 ms sleeper on the shared loop: median lateness"),
    Metric("net.loop_lag_ms_max", "ms", "lower", "5 ms sleeper on the shared loop: worst lateness"),
    # obs / cli / tracing
    Metric("obs.telemetry_on_ratio", "ratio", "lower", "probe: Polyraptor identity cell, telemetry on over off"),
    Metric("cli.import_s", "s", "lower", "probe: python -c 'import repro.cli' in a subprocess"),
    Metric("trace.wall_s", "s", "lower", "mean wall of a traced iteration (denominator for busy shares)"),
    Metric("trace.overhead_frac", "ratio", "lower", "traced over untraced iteration wall, minus 1"),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def iterations_for(workload: Workload, seconds: float) -> int:
    """Timed iterations per process for a ``--seconds`` budget (fixed work)."""
    return max(1, round(workload.iterations * seconds / RUN_SECONDS))


def benchmark_json() -> dict:
    """The driver-facing ``BENCHMARK.json`` derived from this module."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in CONTRACT_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
