"""One workload in one fresh process: set-up, warm-up, timed iterations, gates.

``python -m benchmarks.perf child ...`` runs :func:`run` and prints its report
as the last line of stdout; :mod:`benchmarks.perf.harness` spawns it and
merges reports.  An untraced child measures end-to-end numbers only.  A
traced child alternates an untraced *reference* iteration with a traced one
on the same input -- the pair gives ``trace.overhead_frac`` and proves the
tracer does not change the fingerprints -- then runs the layer probes and
writes ``results/trace_<workload>.json``.
"""

from __future__ import annotations

import platform
import resource
import statistics
import time
from pathlib import Path

import numpy

from repro.experiments.parallel import available_cpus
from repro.rq.kernels import get_kernel

from benchmarks.perf import probes, spec
from benchmarks.perf.surface import SURFACE
from benchmarks.perf.trace import Tracer
from benchmarks.perf.workloads import WORKLOAD_CLASSES, Iteration

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: per-layer metric -> (tracer layer, field of ``Tracer.layer_means``)
TRACE_METRICS = {
    "rq.kernels.busy_s": ("rq.kernels", "self_s"),
    "rq.kernels.calls": ("rq.kernels", "calls"),
    "rq.kernels.bytes": ("rq.kernels", "bytes"),
    "rq.encode.busy_s": ("rq.encode", "self_s"),
    "rq.decode.busy_s": ("rq.decode", "self_s"),
    "rq.plan.build_s": ("rq.plan", "self_s"),
    "rq.plan.builds": ("rq.plan", "calls"),
    "protocol.busy_s": ("protocol", "self_s"),
    "protocol.calls": ("protocol", "calls"),
    "sim.run_s": ("sim", "self_s"),
    "network.build_s": ("network", "total_s"),
    "net.wire.busy_s": ("net.wire", "self_s"),
    "experiments.runner.cell_s.polyraptor": ("experiments.runner.polyraptor", "total_s"),
    "experiments.runner.cell_s.tcp": ("experiments.runner.tcp", "total_s"),
}


def _iteration_report(index: int, iteration: Iteration) -> dict:
    return dict(index=index, wall_s=iteration.wall_s, attempted=iteration.attempted,
                failed=iteration.failed, payload_bytes=iteration.payload_bytes,
                fingerprint=iteration.fingerprint)


def _peak_rss_mb() -> float:
    """This process plus its largest reaped child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _layers(workload, tracer: Tracer, traced: list[Iteration], reference: list[Iteration],
            quick: bool) -> dict[str, float]:
    """Every declared per-layer metric: probes, result objects, trace aggregates."""
    sizes = {w.name: (w.quick if quick else w.sizes) for w in spec.WORKLOADS}
    layers = {metric.name: 0.0 for metric in spec.PER_LAYER}
    layers.update(probes.run_all(sizes, quick))
    layers.update(workload.setup_layer)
    for key in {key for iteration in traced for key in iteration.layer}:
        layers[key] = statistics.mean(it.layer[key] for it in traced if key in it.layer)
    means = tracer.layer_means()
    for metric, (layer, field) in TRACE_METRICS.items():
        layers[metric] = means.get(layer, {}).get(field, 0.0)
    layers["trace.wall_s"] = statistics.mean(it.wall_s for it in traced)
    layers["trace.overhead_frac"] = (
        layers["trace.wall_s"] / statistics.mean(it.wall_s for it in reference) - 1.0)
    return layers


def run(name: str, seed: int, first_index: int, iterations: int, traced: bool,
        quick: bool, spawned_at: float) -> dict:
    """Run one workload here and return its report (see module docstring)."""
    declared = spec.WORKLOAD_BY_NAME[name]
    tracer = Tracer() if traced else None
    workload = WORKLOAD_CLASSES[name](seed, declared.quick if quick else declared.sizes)
    indices = range(first_index, first_index + iterations)
    gate_failures: list[str] = []
    timed: list[Iteration] = []
    reference: list[Iteration] = []
    try:
        workload.setup()
        warm_up = workload.iterate(first_index)
        setup_s = time.time() - spawned_at
        for index in indices:
            if tracer is None:
                timed.append(workload.iterate(index))
                continue
            reference.append(workload.iterate(index))
            workload.tracer = tracer
            tracer.install(SURFACE)
            try:
                with tracer.iteration(index):
                    timed.append(workload.iterate(index))
            finally:
                tracer.uninstall()
                workload.tracer = None
        layers = _layers(workload, tracer, timed, reference, quick) if tracer is not None else None
    finally:
        gate_failures += workload.finish()
    rss_mb = _peak_rss_mb()

    # The warm-up shares the first timed iteration's input: same fingerprint.
    if warm_up.fingerprint != timed[0].fingerprint:
        gate_failures.append("fingerprint of the first timed iteration differs from the warm-up's")
    for index, ref, traced_iteration in zip(indices, reference, timed):
        if ref.fingerprint != traced_iteration.fingerprint:
            gate_failures.append(f"iteration {index}: traced fingerprint differs from untraced")
    for index, iteration in list(zip(indices, timed)) + list(zip(indices, reference)):
        gate_failures += [f"iteration {index}: {failure}" for failure in iteration.failures]
    if tracer is not None:
        tracer.dump(RESULTS_DIR / f"trace_{name}.json", workload=name, seed=seed,
                    iterations=list(indices), quick=quick)
    return dict(
        workload=name, seed=seed, traced=traced, quick=quick,
        setup_s=setup_s, peak_rss_mb=rss_mb,
        iterations=[_iteration_report(i, it) for i, it in zip(indices, timed)],
        reference=[_iteration_report(i, it) for i, it in zip(indices, reference)],
        layers=layers, gate_failures=gate_failures,
        env=dict(
            usable_cores=available_cpus(), python=platform.python_version(),
            numpy=numpy.__version__, kernel=get_kernel().name,
            platform=platform.platform(),
        ),
    )
