"""Command-line interface: regenerate any figure or ablation from a terminal.

Usage (``python -m repro`` and ``python -m repro.cli`` are equivalent)::

    python -m repro figure1a
    python -m repro figure1a --seeds 5 --jobs 4     # sharded multi-seed sweep
    python -m repro figure1c --senders 1 2 4 8 12 --seeds 3
    python -m repro ablations
    python -m repro hotspot
    python -m repro mix
    python -m repro resilience --intensities 0 0.5 1.0
    python -m repro correlated --srlg-sizes 1 3 --gray-loss 0.01 0.05
    python -m repro incast --fanins 4 8 15 --response-kb 64
    python -m repro all --fattree-k 4 --sessions 24

Each command prints the same text table the corresponding benchmark produces,
followed by the merged RQ codec block counters for the coded series.
``--jobs N`` shards a sweep's independent runs over N worker processes
(:mod:`repro.experiments.parallel`); ``--jobs auto`` uses one worker per CPU
core.  The output is byte-identical for every jobs value, only faster on
multi-core machines.  ``--progress`` logs one stderr line per finished run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

from repro.experiments import correlated, hotspot, incast, resilience, workload_mix
from repro.experiments.ablations import (
    initial_window_ablation,
    rq_overhead_ablation,
    spraying_ablation,
    trimming_ablation,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1a import run_figure1a
from repro.experiments.figure1b import run_figure1b
from repro.experiments.figure1c import run_figure1c
from repro.experiments.parallel import (
    clear_telemetry,
    collected_telemetry,
    log_progress,
    resolve_jobs,
    set_progress_logger,
)
from repro.experiments.report import (
    format_ablation,
    format_codec_stats,
    format_figure1c,
    format_overhead,
    format_rank_figure,
    format_sweep,
    format_table,
    format_trace,
)
from repro.obs import (
    TelemetryConfig,
    read_telemetry_jsonl,
    write_telemetry_csv,
    write_telemetry_jsonl,
)
from repro.utils.units import KILOBYTE


def _telemetry_config(args: argparse.Namespace) -> TelemetryConfig | None:
    """The run telemetry requested on the command line, or ``None`` (off)."""
    if getattr(args, "telemetry", None) is None:
        return None
    return TelemetryConfig(
        sample_period_s=args.telemetry_period_ms / 1e3,
        max_samples=args.telemetry_samples,
    )


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    telemetry = _telemetry_config(args)
    if getattr(args, "paper_scale", False):
        # The k=10 250-host preset; size/load flags are superseded, while
        # seed, time cap and telemetry knobs still apply.
        return replace(
            ExperimentConfig.paper_fabric(),
            seed=args.seed,
            max_sim_time_s=args.max_sim_time,
            telemetry=telemetry,
        )
    return ExperimentConfig(
        fattree_k=args.fattree_k,
        num_foreground_transfers=args.sessions,
        object_bytes=args.object_kb * KILOBYTE,
        offered_load=args.load,
        seed=args.seed,
        max_sim_time_s=args.max_sim_time,
        telemetry=telemetry,
    )


def _jobs_type(value: str) -> int:
    try:
        return resolve_jobs(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs must be a positive integer or 'auto', got {value!r}"
        )


def _number_type(
    what: str, cast: type, kind: str, valid: Callable[[float], bool], expected: str
) -> Callable[[str], float]:
    """An argparse ``type=`` that parses a number and checks its range.

    ``what`` names the quantity in error messages, ``kind`` what ``cast``
    accepts ("a number", "an integer") and ``expected`` the range ``valid``
    enforces.
    """
    def parse(value: str) -> float:
        try:
            number = cast(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be {kind}, got {value!r}")
        if not valid(number):
            raise argparse.ArgumentTypeError(f"{what} must be {expected}, got {value}")
        return number
    return parse


_seeds_type = _number_type(
    "--seeds", int, "an integer", lambda seeds: seeds >= 1, "at least 1")
_intensity_type = _number_type(
    "intensity", float, "a number", lambda x: 0.0 <= x <= 1.0, "a fraction in [0, 1]")
_gray_loss_type = _number_type(
    "gray-loss rate", float, "a number", lambda p: 0.0 < p <= 1.0, "a probability in (0, 1]")
_srlg_size_type = _number_type(
    "SRLG size", int, "an integer", lambda size: size >= 1, "at least 1")
_fanin_type = _number_type(
    "fan-in", int, "an integer", lambda fanin: fanin >= 1, "at least 1")
_delay_ms_type = _number_type(
    "delay", float, "a number (ms)", lambda ms: ms >= 0, "non-negative")
_loss_type = _number_type(
    "loss rate", float, "a number", lambda p: 0.0 <= p <= 1.0, "a probability in [0, 1]")
_seconds_type = _number_type(
    "duration", float, "a number (seconds)", lambda s: s > 0, "positive")
_sessions_type = _number_type(
    "session count", int, "an integer", lambda n: n >= 1, "at least 1")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fattree-k", type=int, default=4,
                        help="fat-tree arity (k=10 is the paper's 250-host fabric)")
    parser.add_argument("--sessions", type=int, default=24,
                        help="foreground sessions per series")
    parser.add_argument("--object-kb", type=int, default=128,
                        help="object size in kilobytes (paper: 4096)")
    parser.add_argument("--load", type=float, default=0.15,
                        help="offered load as a fraction of host link rate")
    parser.add_argument("--seed", type=int, default=1, help="base random seed")
    parser.add_argument("--max-sim-time", type=float, default=30.0,
                        help="simulation-time cap per run (seconds)")
    parser.add_argument("--jobs", type=_jobs_type, default=1, metavar="N|auto",
                        help="worker processes to shard independent runs across; "
                             "'auto' uses one per CPU core (results are identical "
                             "for any value)")
    parser.add_argument("--progress", action="store_true",
                        help="log one stderr line per finished run")
    parser.add_argument("--paper-scale", action="store_true",
                        help="run on the paper's k=10, 250-host fabric preset "
                             "(100 sessions, offered load 0.33; supersedes "
                             "--fattree-k/--sessions/--object-kb/--load); combine "
                             "with --seeds 5 for the paper's methodology")
    parser.add_argument("--telemetry", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="record seeded time-series telemetry (queue depths, "
                             "link utilisation, path loss, cwnd) for "
                             "every run and write it to PATH after the tables "
                             "(JSONL, or CSV when PATH ends in .csv; default "
                             "telemetry.jsonl).  Identical for every --jobs "
                             "value; render with 'repro trace PATH'")
    parser.add_argument("--telemetry-period-ms", type=float, default=10.0,
                        metavar="MS",
                        help="telemetry sampling cadence in simulated "
                             "milliseconds (default 10)")
    parser.add_argument("--telemetry-samples", type=int, default=512, metavar="N",
                        help="ring-buffer bound per telemetry series; oldest "
                             "samples drop off (counted) beyond this")


def _seeds(args: argparse.Namespace, default: int = 1) -> int:
    return args.seeds if args.seeds is not None else default


def _with_codec_stats(table: str, result) -> str:
    return table + "\n\n" + format_codec_stats(result.codec_stats)


def _cmd_figure1a(args: argparse.Namespace) -> str:
    result = run_figure1a(_build_config(args), num_seeds=_seeds(args), jobs=args.jobs)
    return _with_codec_stats(
        format_rank_figure(result, "Figure 1a -- storage replication"), result)


def _cmd_figure1b(args: argparse.Namespace) -> str:
    result = run_figure1b(_build_config(args), num_seeds=_seeds(args), jobs=args.jobs)
    return _with_codec_stats(
        format_rank_figure(result, "Figure 1b -- multi-source fetch"), result)


def _figure1c_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--senders", type=int, nargs="+", default=[1, 2, 4, 8, 12],
                     help="sender counts to sweep")
    sub.add_argument("--response-kb", type=int, nargs="+", default=[256, 70],
                     help="response sizes in kilobytes")


def _cmd_figure1c(args: argparse.Namespace) -> str:
    result = run_figure1c(
        _build_config(args),
        sender_counts=tuple(args.senders),
        response_sizes=tuple(size * KILOBYTE for size in args.response_kb),
        num_seeds=_seeds(args, default=3),
        jobs=args.jobs,
    )
    return _with_codec_stats(format_figure1c(result), result)


def _cmd_ablations(args: argparse.Namespace) -> str:
    config = _build_config(args)
    sections = [
        format_ablation(trimming_ablation(config, jobs=args.jobs),
                        "A1 -- trimming vs drop-tail"),
        format_ablation(spraying_ablation(config, jobs=args.jobs),
                        "A2 -- spraying vs ECMP vs single path"),
        format_overhead(rq_overhead_ablation(), "A3 -- RQ decode overhead"),
        format_ablation(initial_window_ablation(config, jobs=args.jobs),
                        "A4 -- initial window"),
    ]
    return "\n\n".join(sections)


def _cmd_hotspot(args: argparse.Namespace) -> str:
    results = hotspot.run_hotspot_experiment(_build_config(args), jobs=args.jobs)
    return format_table(results.values(), **hotspot.TABLE)


def _cmd_mix(args: argparse.Namespace) -> str:
    results = workload_mix.run_workload_mix(_build_config(args), jobs=args.jobs)
    return format_table(results.values(), **workload_mix.TABLE)


def _resilience_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--intensities", type=_intensity_type, nargs="+",
                     default=[0.0, 0.3, 0.6, 1.0],
                     help="fault intensities in [0, 1] to sweep (0 = healthy "
                          "baseline, always included)")


def _cmd_resilience(args: argparse.Namespace) -> str:
    result = resilience.run_resilience(
        _build_config(args),
        intensities=tuple(args.intensities),
        num_seeds=_seeds(args),
        jobs=args.jobs,
    )
    return _with_codec_stats(format_sweep(result, **resilience.TABLE), result)


def _correlated_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--srlg-sizes", type=_srlg_size_type, nargs="+",
                     default=[1, 3], metavar="N",
                     help="shared-risk link group sizes to sweep (links that "
                          "fail together; the first size also anchors the "
                          "convergence-delay cells)")
    sub.add_argument("--gray-loss", type=_gray_loss_type, nargs="+",
                     default=[0.01, 0.05], metavar="P",
                     help="gray-failure Bernoulli loss rates in (0, 1] smeared "
                          "across half the fabric links (routing never reacts)")
    sub.add_argument("--convergence-delay-ms", type=_delay_ms_type, nargs="+",
                     default=[0.0, 1.0], metavar="MS",
                     help="control-plane convergence lags (milliseconds) to "
                          "replay the reference SRLG event under; 0 = "
                          "instantaneous reconvergence")


def _cmd_correlated(args: argparse.Namespace) -> str:
    result = correlated.run_correlated(
        _build_config(args),
        srlg_sizes=tuple(args.srlg_sizes),
        gray_rates=tuple(args.gray_loss),
        convergence_delays=tuple(ms / 1e3 for ms in args.convergence_delay_ms),
        num_seeds=_seeds(args),
        jobs=args.jobs,
    )
    return _with_codec_stats(format_sweep(result, **correlated.TABLE), result)


def _incast_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    # `all` already owns --response-kb (figure1c's list); the incast episode
    # size therefore gets its own destination, spelled --response-kb on the
    # standalone subcommand for symmetry.
    flag = "--incast-response-kb" if command == "all" else "--response-kb"
    sub.add_argument("--fanins", type=_fanin_type, nargs="+",
                     default=[4, 8, 15], metavar="N",
                     help="worker fan-ins to sweep (each crossed with ECN "
                          "marking off and on)")
    sub.add_argument(flag, dest="incast_response_kb", type=int, default=64,
                     metavar="KB",
                     help="per-worker incast response size in kilobytes")


def _cmd_incast(args: argparse.Namespace) -> str:
    result = incast.run_incast(
        _build_config(args),
        fanins=tuple(args.fanins),
        response_bytes=args.incast_response_kb * KILOBYTE,
        num_seeds=_seeds(args),
        jobs=args.jobs,
    )
    return _with_codec_stats(format_sweep(result, **incast.TABLE), result)


class Scenario(NamedTuple):
    """One simulation subcommand: how it is offered, parsed and run."""

    name: str
    help: str
    #: adds the scenario's own flags to ``(subparser, command)`` -- called for
    #: its own subcommand and again for ``all``; ``None`` when it has none
    add_arguments: Callable[[argparse.ArgumentParser, str], None] | None
    #: multi-seed sweeps take ``--seeds``; ablations/hotspot/mix are
    #: single-seed by design, so they simply don't accept the flag
    takes_seeds: bool
    #: runs the scenario from parsed arguments and returns its tables
    run: Callable[[argparse.Namespace], str]


#: Every scenario subcommand, in the order ``all`` runs them.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario("figure1a", "replication / multicast rank curves", None, True, _cmd_figure1a),
    Scenario("figure1b", "multi-source fetch rank curves", None, True, _cmd_figure1b),
    Scenario("figure1c", "Incast sweep", _figure1c_arguments, True, _cmd_figure1c),
    Scenario("ablations", "design-choice ablations A1-A4", None, False, _cmd_ablations),
    Scenario("hotspot", "network-hotspot extension experiment", None, False, _cmd_hotspot),
    Scenario("mix", "heavy-tailed workload-mix extension experiment", None, False, _cmd_mix),
    Scenario("resilience", "path-resilience sweep under injected faults",
             _resilience_arguments, True, _cmd_resilience),
    Scenario("correlated", "correlated/gray failures with routing-convergence delay",
             _correlated_arguments, True, _cmd_correlated),
    Scenario("incast", "incast fan-in sweep with ECN marking on vs off",
             _incast_arguments, True, _cmd_incast),
)


def _all_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    for scenario in SCENARIOS:
        if scenario.add_arguments is not None:
            scenario.add_arguments(sub, command)


def _cmd_all(args: argparse.Namespace) -> str:
    return "\n\n".join(scenario.run(args) for scenario in SCENARIOS)


ALL = Scenario("all", "everything above in sequence", _all_arguments, True, _cmd_all)


def _cmd_trace(args: argparse.Namespace) -> str:
    telemetry = read_telemetry_jsonl(args.path)
    return format_trace(
        telemetry, series=args.series, width=args.width, limit=args.limit
    )


def _size_type(value: str) -> int:
    """Parse a byte size with an optional k/M suffix (binary multiples)."""
    text = value.strip().lower()
    factor = 1
    if text.endswith("k"):
        factor, text = 1024, text[:-1]
    elif text.endswith("m"):
        factor, text = 1024 * 1024, text[:-1]
    try:
        size = int(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {value!r}") from None
    if size <= 0:
        raise argparse.ArgumentTypeError("size must be positive")
    return size


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio
    import json

    from repro.net import ObjectStore, run_server
    from repro.net.server import (
        DEFAULT_GRANT_TTL_S,
        DEFAULT_SESSION_IDLE_S,
        deterministic_object,
    )
    from repro.obs import MetricRegistry

    store = ObjectStore()
    for spec in args.object or []:
        name, _, size = spec.partition("=")
        if not name or not size:
            raise SystemExit(f"--object expects NAME=SIZE, got {spec!r}")
        store.put(name, deterministic_object(_size_type(size), seed=name))
    for path in args.file or []:
        import os

        with open(path, "rb") as handle:
            store.put(os.path.basename(path), handle.read())
    if len(store) == 0:
        raise SystemExit("serve needs at least one --object NAME=SIZE or --file PATH")
    registry = MetricRegistry()

    async def _serve():
        ready = asyncio.Event()
        task = asyncio.ensure_future(
            run_server(
                store,
                host=args.host,
                port=args.port,
                loss_rate=args.loss,
                loss_seed=args.loss_seed,
                max_sessions=args.max_sessions,
                max_concurrent_sessions=args.max_concurrent_sessions,
                grant_ttl_s=args.grant_ttl,
                session_idle_timeout_s=args.idle_timeout,
                mtu=args.mtu,
                registry=registry,
                ready=ready,
            )
        )
        # run_server sets ``ready`` once its socket is bound; if it raises
        # first (a bad option, a port in use), ``ready`` never fires.
        bound = asyncio.ensure_future(ready.wait())
        await asyncio.wait((task, bound), return_when=asyncio.FIRST_COMPLETED)
        bound.cancel()
        if task.done() and task.exception() is not None:
            raise SystemExit(f"serve failed: {task.exception()}")
        print(
            f"serving {len(store)} object(s) on {args.host}:{args.port}: "
            + " ".join(store.names()),
            flush=True,
        )
        return await task

    protocol = asyncio.run(_serve())
    if args.server_telemetry is not None:
        with open(args.server_telemetry, "w", encoding="utf-8") as handle:
            json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"telemetry: wrote server counters to {args.server_telemetry}",
            file=sys.stderr,
        )
    counts = protocol.registry.snapshot()

    def served(name: str) -> int:
        return counts.get(f"net.server.{name}", 0)

    return (
        f"served {served('sessions_completed')} session(s) "
        f"(reaped: {served('sessions_reaped')}, "
        f"busy rejections: {served('busy_rejections')}, "
        f"frames dropped: {served('frames_dropped')}, "
        f"malformed: {served('malformed_frames')})"
    )


def _sources_type(value: str) -> list:
    """Parse ``host:port,host:port,...`` into a list of (host, port) pairs."""
    endpoints = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise argparse.ArgumentTypeError(
                f"--sources expects host:port[,host:port...], got {item!r}"
            )
        try:
            endpoints.append((host, int(port)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid port in --sources entry {item!r}"
            ) from None
    if not endpoints:
        raise argparse.ArgumentTypeError("--sources needs at least one host:port")
    return endpoints


def _cmd_fetch(args: argparse.Namespace) -> str:
    import hashlib

    from repro.net import FetchError, fetch_object

    try:
        data = fetch_object(
            args.name,
            host=args.host,
            port=args.port,
            sources=args.sources,
            loss_rate=args.loss,
            loss_seed=args.loss_seed,
            transfer_timeout_s=args.timeout,
            mtu=args.mtu,
        )
    except FetchError as exc:
        raise SystemExit(f"fetch failed: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    if args.output is not None:
        with open(args.output, "wb") as handle:
            handle.write(data)
    if args.expect_sha256 is not None and args.expect_sha256 != digest:
        raise SystemExit(
            f"sha256 mismatch for {args.name!r}: got {digest}, "
            f"expected {args.expect_sha256}"
        )
    return f"{args.name}: {len(data)} bytes sha256={digest}"


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the Polyraptor paper's figures and ablations."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for scenario in (*SCENARIOS, ALL):
        sub = subparsers.add_parser(scenario.name, help=scenario.help)
        _add_common_arguments(sub)
        sub.set_defaults(handler=scenario.run)
        if scenario.takes_seeds:
            sub.add_argument("--seeds", type=_seeds_type, default=None,
                             help="repetition seeds per series (default: 1; figure1c: 3)")
        if scenario.add_arguments is not None:
            scenario.add_arguments(sub, scenario.name)

    # ``trace`` reads a recorded artefact instead of running simulations, so
    # it takes none of the common run flags -- just the file and rendering.
    trace = subparsers.add_parser(
        "trace", help="render a recorded --telemetry JSONL file as text timelines"
    )
    trace.add_argument("path", help="telemetry JSONL file written by --telemetry")
    trace.add_argument("--series", default=None, metavar="GLOB",
                       help="only series whose name matches this glob "
                            "(e.g. 'queue.depth.*' or 'loss.h1*')")
    trace.add_argument("--width", type=int, default=60, metavar="N",
                       help="sparkline width in characters (default 60)")
    trace.add_argument("--limit", type=int, default=20, metavar="N",
                       help="series rendered per run (default 20)")
    trace.set_defaults(handler=_cmd_trace)

    # ``serve`` / ``fetch`` are real-network endpoints (repro.net) completing
    # actual UDP object transfers; like ``trace`` they take none of the
    # simulation flags.
    serve = subparsers.add_parser(
        "serve", help="serve named objects over UDP (Polyraptor wire protocol)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=9109, help="UDP port (default 9109)")
    serve.add_argument("--object", action="append", metavar="NAME=SIZE",
                       help="serve a deterministic object of SIZE bytes "
                            "(k/M suffixes allowed; bytes derived from NAME, "
                            "so fetchers can verify the hash independently); "
                            "repeatable")
    serve.add_argument("--file", action="append", metavar="PATH",
                       help="serve a file's bytes under its basename; repeatable")
    serve.add_argument("--loss", type=_loss_type, default=0.0, metavar="P",
                       help="drop arriving frames with probability P (testing)")
    serve.add_argument("--loss-seed", type=int, default=0,
                       help="seed for the induced-loss stream")
    serve.add_argument("--max-sessions", type=_sessions_type, default=None, metavar="N",
                       help="exit after N completed sessions (default: serve forever)")
    serve.add_argument("--max-concurrent-sessions", type=_sessions_type, default=None,
                       metavar="N",
                       help="answer OPENs beyond N in-flight grants with "
                            "OPEN_ERR busy (default: unbounded)")
    serve.add_argument("--grant-ttl", type=_seconds_type, default=30.0, metavar="S",
                       help="expire grants idle for S seconds that never "
                            "progressed to a transfer (default 30)")
    serve.add_argument("--idle-timeout", type=_seconds_type, default=30.0, metavar="S",
                       help="reap live sessions whose client stayed silent "
                            "for S seconds (default 30)")
    serve.add_argument("--mtu", type=int, default=None, metavar="BYTES",
                       help="cap granted symbol sizes so every DATA frame "
                            "fits one datagram of this path MTU")
    serve.add_argument("--telemetry", dest="server_telemetry", default=None,
                       metavar="PATH",
                       help="write the server's metric-registry snapshot "
                            "(grants, sessions, symbols, rejections) to PATH "
                            "as JSON on exit")
    serve.set_defaults(handler=_cmd_serve)

    fetch = subparsers.add_parser(
        "fetch", help="fetch one named object from a running `repro serve`"
    )
    fetch.add_argument("name", help="object name to fetch")
    fetch.add_argument("--host", default="127.0.0.1", help="server address")
    fetch.add_argument("--port", type=int, default=9109, help="server UDP port")
    fetch.add_argument("--sources", type=_sources_type, default=None,
                       metavar="HOST:PORT,...",
                       help="fetch from several replica holders at once (one "
                            "session per server, all folded into one decode); "
                            "supersedes --host/--port")
    fetch.add_argument("--mtu", type=int, default=None, metavar="BYTES",
                       help="propose a symbol size that fits one datagram of "
                            "this path MTU")
    fetch.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="write the fetched bytes to PATH")
    fetch.add_argument("--loss", type=_loss_type, default=0.0, metavar="P",
                       help="drop arriving symbol frames with probability P (testing)")
    fetch.add_argument("--loss-seed", type=int, default=1,
                       help="seed for the induced-loss stream")
    fetch.add_argument("--timeout", type=_seconds_type, default=30.0, metavar="S",
                       help="overall transfer deadline in seconds")
    fetch.add_argument("--expect-sha256", default=None, metavar="HEX",
                       help="fail unless the fetched bytes hash to HEX")
    fetch.set_defaults(handler=_cmd_fetch)
    return parser


def _export_telemetry(args: argparse.Namespace) -> None:
    """Write telemetry collected during this invocation, if it was requested.

    Goes to stderr/files only, so command stdout stays byte-identical with
    and without ``--telemetry``.
    """
    destination = getattr(args, "telemetry", None)
    if destination is None:
        return
    records = collected_telemetry()
    path = "telemetry.jsonl" if destination == "auto" else destination
    if path.endswith(".csv"):
        rows = write_telemetry_csv(records, path)
        print(f"telemetry: wrote {rows} rows to {path}", file=sys.stderr)
    else:
        lines = write_telemetry_jsonl(records, path)
        print(f"telemetry: wrote {lines} lines to {path}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments, run the requested command, print its table."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "progress", False):
        set_progress_logger(log_progress)
    clear_telemetry()
    output = args.handler(args)
    print(output)
    _export_telemetry(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
