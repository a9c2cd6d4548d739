#!/usr/bin/env python3
"""SGL user-path benchmark: measurements in -> fit -> publish -> served over TCP.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-mesh --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is in the benchmark):
``fit-mesh``, ``fit-sharded`` and ``stream-live``.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the run wraps the public calls
into each layer of ``repro`` (``layertrace.py``) and reports per-layer
metrics instead.  Lines before it are a readable report: every metric with
its unit, sample count and tail, the environment (nproc, thread pins,
interpreter and library versions, commit) and anything that failed.

``--inject SPAN=SECONDS`` adds a fixed sleep to every call of one wrapped
function (for example ``artifacts.publish=0.05``); ``selftest.py`` uses it
to check that a slower layer moves its metrics beyond their bounds.

The set-up runs three times (once when traced) and ``setup_s`` is their
median.  Everything the run writes goes under ``.bench_run/`` in the
checkout and is removed at exit; every helper process is stopped.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
RUN_LIMIT_S = 140  # leaves time to stop the helpers within 180 s

#: Timings and rates of the end-to-end metrics, with their units; they are
#: reported in reference seconds (``hostspeed.py``).
UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "time_to_serve_s": "s",
    "publish_to_serve_s": "s",
    "update_s": "s",
    "throughput_rps": "req/s",
}
RATE_METRICS = {"throughput_rps"}

#: Relative gap allowed between outside-timed layer busy time and the
#: ``StageTimings`` the program reports for the same calls (plus 2 ms).
RECONCILE_TOLERANCE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None, metavar="SPAN=SECONDS")
    return parser.parse_args(argv)


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Run:
    """State of one benchmark run: samples, checks and the tracer."""

    def __init__(self, args, workload, tracer, host) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.src = SRC
        self.workdir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
        self.conns = min(2, os.cpu_count() or 1)
        self.corr_floor = workload.corr_floor
        self.tracer = tracer
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sample_spans: dict[str, list] = defaultdict(list)
        self.versions: list = []
        self.latencies: list[float] = []
        self.latency_chunks: list[tuple[int, float, float]] = []  # (count, start, end)
        self.gen_lag: list[float] = []
        self.unit_times = {True: [], False: []}
        self.stacks: list = []  # every Stack started, so all get stopped

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def count(self, n: int, wrong: int, what: str) -> None:
        self.attempted += n
        self.failed += wrong
        if wrong:
            self.problems.append(what)

    def count_open_loop(self, result: dict, what: str) -> None:
        wrong = result["n"] - result["ok"]
        self.count(result["n"], wrong, f"{what}: {wrong} failed {result['errors']}")

    def sample(self, name: str, value: float, span: tuple[float, float] | None = None) -> None:
        """Record one sample; a timing or rate passes the interval it covers."""
        self.samples[name].append(float(value))
        self.sample_spans[name].append(span)

    def calibrate(self) -> None:
        self.host.measure()

    def scaled(self, name: str) -> list[float]:
        """Samples of a timing in reference seconds (a rate: per reference second)."""
        out = []
        for value, span in zip(self.samples[name], self.sample_spans[name]):
            factor = self.host.scale(*span)
            out.append(value / factor if name in RATE_METRICS else value * factor)
        return out

    def add_latencies(self, result: dict, start: float, end: float) -> None:
        """Latencies of one open-loop call that ran over ``[start, end]``."""
        values = [x for x in result["latency_ms"] if x is not None]
        self.latencies.extend(values)
        self.latency_chunks.append((len(values), start, end))
        self.gen_lag.extend(result["gen_lag_ms"])

    def scaled_latencies(self) -> list[float]:
        out, k = [], 0
        for count, start, end in self.latency_chunks:
            factor = self.host.scale(start, end)
            out.extend(x * factor for x in self.latencies[k:k + count])
            k += count
        return out

    def set_tracing(self, unit) -> None:
        """Trace even-numbered units of work; ``None`` ends the unit."""
        if self.traced:
            self.tracer.enabled = unit is not None and unit % 2 == 0

    def unit_time(self, unit, seconds: float) -> None:
        if self.traced:
            self.unit_times[unit % 2 == 0].append(seconds)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run, server_rss: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and what is printed only.

    Timings and rates are medians of samples scaled to the reference host
    speed (``hostspeed.py``); the wall-clock medians are printed beside
    them.

    Across seeds on the two-core reference box the latency tails spread
    0.4-0.85 of their median (p90 as well as p99: bursts of host noise hit
    some runs and not others) and ``update_tail_s`` up to 0.25, beyond any
    bound a metric may have, so they are reported but not gated.  So are
    ``query_p50_ms`` and ``throughput_rps``: when the shared host is loaded
    (calibration kernel 30 % slower), TCP serving between the two helper
    processes runs at half speed, and one or two such runs in ten spread
    them 0.24-0.33 of their median.
    """
    from stats import percentile, summarize

    med = lambda values: statistics.median(values) if values else math.nan  # noqa: E731
    timing = lambda name: (med(run.scaled(name)), UNITS[name])  # noqa: E731
    main_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = run.scaled_latencies()
    gated = {
        "setup_s": timing("setup_s"),
        "fit_s": timing("fit_s"),
        "resistance_corr": (med(run.samples["resistance_corr"]), "1"),
        "density": (med(run.samples["density"]), "1"),
        "time_to_serve_s": timing("time_to_serve_s"),
        "publish_to_serve_s": timing("publish_to_serve_s"),
        "update_s": timing("update_s"),
        "peak_rss_mb": (main_rss + server_rss, "MB"),
    }
    printed = {
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "throughput_rps": timing("throughput_rps"),
        "query_p90_ms": (percentile(latencies, 90), "ms"),
        "query_p99_ms": (percentile(latencies, 99), "ms"),
        "update_tail_s": (summarize(run.scaled("update_s"))["tail"], "s"),
        "wall_query_p50_ms": (percentile(run.latencies, 50), "ms"),
    }
    for name in UNITS:
        printed[f"wall_{name}"] = (med(run.samples[name]), UNITS[name])
    printed["host_kernel_s"] = (med(run.host.seconds), "s")
    return gated, printed


def span_sum(tracer, name: str, inside: str | None = None) -> float:
    return sum(
        end - start
        for i, (span, start, end, _) in enumerate(tracer.spans)
        if span == name and (inside is None or tracer.within(i, inside))
    )


class LayerHooks:
    """Reads the public results of traced calls while the run goes on."""

    STAGES = {
        "knn.knn_graph": ("knn",),
        "embedding.refresh": ("embedding", "embedding_warm", "coarsen", "refine"),
        "core.edge_sensitivities": ("sensitivity",),
    }

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.engine = defaultdict(int)
        self.engine_seen: dict[int, dict] = {}
        self.iterations = 0
        self.edges_added = 0
        self.bytes_written = 0
        self.updates = defaultdict(int)
        self.roots: list[tuple[int, object, tuple]] = []
        self.sharded: list = []
        tracer.on_return("embedding.refresh", self.on_refresh)
        tracer.on_return("core.fit", self.on_fit)
        tracer.on_return("stream.update", self.on_update)
        tracer.on_return("artifacts.publish", self.on_publish)
        tracer.on_return("partition.sharded_fit", lambda i, a, result: self.sharded.append(result))

    def on_refresh(self, index, args, result) -> None:
        engine = args[0]
        stats = engine.stats.as_dict()
        last = self.engine_seen.get(id(engine), {})
        if stats.get("refreshes", 0) < last.get("refreshes", 0):
            last = {}  # a new engine reusing a dead one's id
        for key, value in stats.items():
            self.engine[key] += value - last.get(key, 0)
        self.engine_seen[id(engine)] = stats

    def on_fit(self, index, args, result) -> None:
        self.iterations += result.n_iterations
        self.edges_added += result.graph.n_edges - result.initial_graph.n_edges
        self.roots.append((index, result.timings, tuple(self.STAGES)))

    def on_update(self, index, args, result) -> None:
        self.updates[result.mode] += 1
        if result.mode == "incremental":
            self.edges_added += result.n_edges_added
            layers = ("embedding.refresh", "core.edge_sensitivities")
            self.roots.append((index, result.timings, layers))

    def on_publish(self, index, args, result) -> None:
        self.bytes_written += os.path.getsize(args[0].resolve(result.ref))

    def reconcile(self) -> dict[str, tuple[float, float]]:
        """Per layer: outside-timed busy seconds and ``StageTimings`` seconds."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for root, timings, layers in self.roots:
            stages = timings.as_dict()
            for layer in layers:
                out[layer][0] += self.tracer.busy_within(root, layer)
                out[layer][1] += sum(
                    stages.get(stage, {}).get("seconds", 0.0) for stage in self.STAGES[layer]
                )
        return {layer: tuple(pair) for layer, pair in out.items()}


def reconcile_gap(pairs: dict) -> float:
    """Largest relative gap between outside and inside busy time (2 ms slack)."""
    return max(
        (max(0.0, abs(o - i) - 0.002) / max(i, 1e-9) for o, i in pairs.values()),
        default=0.0,
    )


def per_layer(run, hooks, server_final: dict, stats: dict, rungs: dict) -> tuple[dict, float]:
    from stats import percentile

    tracer = run.tracer
    summary = tracer.summary()
    server = server_final.get("trace", {})

    def busy(name, source=summary):
        return source.get(name, {}).get("busy_s", 0.0)

    def calls(name, source=summary):
        return source.get(name, {}).get("calls", 0)

    def self_time(name):
        return summary.get(name, {}).get("self_s", 0.0)

    metrics = stats.get("metrics", {})
    hist = metrics.get("histograms", {})
    counters = metrics.get("counters", {})
    h = lambda name, q: hist.get(name, {}).get(q, 0.0) if hist.get(name, {}).get("count") else 0.0  # noqa: E731
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    refreshes = hooks.engine.get("refreshes", 0)
    warm = hooks.engine.get("warm_rayleigh_ritz", 0) + hooks.engine.get("warm_inverse", 0)
    n_updates = sum(hooks.updates.values())
    timing_sum = lambda stage: sum(  # noqa: E731
        r.timings.as_dict().get(stage, {}).get("seconds", 0.0) for r in hooks.sharded
    )
    stitch_edges = sum(
        r.stitch_stats["connector_edges"] + sum(r.stitch_stats["correction_edges"])
        for r in hooks.sharded
    )
    overhead = math.nan
    if run.unit_times[True] and run.unit_times[False]:
        overhead = statistics.median(run.unit_times[True]) / statistics.median(run.unit_times[False]) - 1
    client_p50 = percentile(run.latencies, 50) if run.latencies else 0.0
    pairs = hooks.reconcile()
    for layer, (outside, inside) in pairs.items():
        print(f"reconcile {layer}: outside {outside:.4f} s, StageTimings {inside:.4f} s")
    gap = reconcile_gap(pairs)
    layer = {
        "knn.busy_s": (busy("knn.knn_graph") + busy("knn.mst"), "s"),
        "knn.calls": (calls("knn.knn_graph"), "count"),
        "knn.mst_s": (busy("knn.mst"), "s"),
        "embedding.refresh_s": (busy("embedding.refresh"), "s"),
        "embedding.refresh_calls": (calls("embedding.refresh"), "count"),
        "embedding.cold_solves": (hooks.engine.get("cold_solves", 0), "count"),
        "embedding.fallbacks": (hooks.engine.get("fallbacks", 0), "count"),
        "embedding.warm_ratio": (warm / refreshes if refreshes else 0.0, "1"),
        "embedding.publish_eigensolve_s": (
            span_sum(tracer, "embedding.spectral_matrix", inside="artifacts.publish"), "s"),
        "core.sensitivity_s": (busy("core.edge_sensitivities"), "s"),
        "core.sensitivity_calls": (calls("core.edge_sensitivities"), "count"),
        "core.iterations": (hooks.iterations, "count"),
        "core.edges_added": (hooks.edges_added, "count"),
        "core.loop_self_s": (self_time("core.fit"), "s"),
        "core.scaling_s": (busy("core.spectral_edge_scaling"), "s"),
        "core.scaling_calls": (calls("core.spectral_edge_scaling"), "count"),
        "linalg.factorizations": (
            calls("linalg.factorize") + calls("linalg.factorize", server), "count"),
        "linalg.factorize_s": (busy("linalg.factorize") + busy("linalg.factorize", server), "s"),
        "artifacts.save_self_s": (
            self_time("artifacts.save_result") + self_time("artifacts.save_artifact"), "s"),
        "artifacts.bytes_written": (hooks.bytes_written, "bytes"),
        "artifacts.publish_s": (busy("artifacts.publish"), "s"),
        "artifacts.load_s": (busy("artifacts.load", server), "s"),
        "serve.session_build_s": (busy("serve.session_build", server), "s"),
        "serve.swaps": (counters.get("serve.follow.swaps", 0), "count"),
        "serve.follow_errors": (counters.get("serve.follow.errors", 0), "count"),
        "serve.batch_size_mean": (stats.get("batching", {}).get("mean_batch_size", 0.0), "1"),
        "serve.queue_wait_ms.p50": (h("batcher.queue_wait_ms", "p50"), "ms"),
        "serve.queue_wait_ms.p99": (h("batcher.queue_wait_ms", "p99"), "ms"),
        "serve.execute_ms.p50": (h("batcher.execute_ms", "p50"), "ms"),
        "serve.tcp_serialize_ms.p50": (h("serve.tcp.serialize_ms", "p50"), "ms"),
        "serve.wire_ms.p50": (client_p50 - h("batcher.latency_ms", "p50"), "ms"),
        "serve.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "1"),
        "serve.rung.oracle_rps": (rungs.get("oracle", 0.0), "req/s"),
        "serve.rung.service_rps": (rungs.get("service", 0.0), "req/s"),
        "serve.rung.tcp_json_rps": (rungs.get("tcp_json", 0.0), "req/s"),
        "serve.rung.tcp_frames_rps": (rungs.get("tcp_frames", 0.0), "req/s"),
        "stream.drift_s": (busy("stream.drift_assess"), "s"),
        "stream.incremental_ratio": (
            hooks.updates["incremental"] / n_updates if n_updates else 0.0, "1"),
        "stream.refits": (hooks.updates["refit"], "count"),
        "partition.partition_s": (busy("partition.partition"), "s"),
        "partition.shard_fit_s": (timing_sum("shard_fit"), "s"),
        "partition.stitch_s": (timing_sum("stitch"), "s"),
        "partition.stitch_edges_added": (stitch_edges, "count"),
        "bench.gen_lag_ms": (percentile(run.gen_lag, 99) if run.gen_lag else 0.0, "ms"),
        "bench.trace_overhead": (overhead, "1"),
        "bench.reconcile_gap": (gap, "1"),
    }
    return layer, gap


def serving_rungs(run, stack, specs, duration: float) -> dict:
    """Requests/s of one request mix through each serving layer in turn.

    oracle: ``GraphSession`` calls in this process; service: in-process
    ``GraphService.query`` with ``conns`` concurrent callers; tcp_json /
    tcp_frames: the load generator's closed loop over ``conns`` connections.
    """
    import asyncio

    import numpy as np

    from repro.serve import GraphService
    from workloads import session_for

    session = session_for(stack.registry, stack.fixed_version)
    rungs = {}
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < duration:
        spec = specs[count % len(specs)]
        items = np.asarray(spec["items"])
        if spec["kind"] == "resistance":
            session.effective_resistance(items)
        elif spec["kind"] == "neighbors":
            session.nearest_neighbors(items, k=5)
        else:
            session.cluster_labels(items, n_clusters=8)
        count += 1
    rungs["oracle"] = count / (time.perf_counter() - start)

    service = GraphService(registry=stack.registry)
    service.warm(stack.fixed)

    async def drive() -> float:
        done = 0
        t0 = time.perf_counter()

        async def caller(offset: int) -> None:
            nonlocal done
            k = offset
            while time.perf_counter() - t0 < duration:
                spec = specs[k % len(specs)]
                items = [tuple(item) if isinstance(item, list) else item for item in spec["items"]]
                await asyncio.gather(*(service.query(stack.fixed, spec["kind"], item) for item in items))
                done += 1
                k += run.conns

        await asyncio.gather(*(caller(c) for c in range(run.conns)))
        return done / (time.perf_counter() - t0)

    try:
        rungs["service"] = asyncio.run(drive())
    finally:
        service.close()
    for proto in ("json", "frame"):
        result = stack.loadgen.call(
            "closed_loop", ref=stack.fixed, specs=specs, duration=duration, proto=proto
        )
        run.count(result["n"], result["n"] - result["ok"], f"tcp {proto} rung")
        rungs["tcp_json" if proto == "json" else "tcp_frames"] = result["rps"]
    return rungs


# ----------------------------------------------------------------------
def report(title: str, metrics: dict, run) -> None:
    from stats import summarize

    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        line = f"{name:32s} {value:14.6g} {unit}"
        base = name.replace("update_tail_s", "update_s")
        if base in UNITS:
            samples = run.scaled(base)
        elif base.startswith("wall_"):
            samples = run.samples.get(base[5:])
        else:
            samples = run.samples.get(base)
        if samples:
            summary = summarize(samples)
            line += f"   (n={summary['n']}, median={summary['median']:.6g}, {summary['tail_level']}={summary['tail']:.6g})"
        print(line)


def on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def on_term(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")  # unwinds, so helpers stop


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from procs import pin_threads

    thread_pins = pin_threads()  # before numpy is imported anywhere

    import numpy
    import scipy

    from hostspeed import HostSpeed
    from layertrace import FIT_TARGETS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    hooks = None
    if args.inject:
        name, seconds = args.inject.split("=")
        tracer.inject(name, float(seconds))
    if args.trace or args.inject:
        tracer.install(FIT_TARGETS)
        hooks = LayerHooks(tracer)
    run = Run(args, workload, tracer, HostSpeed())
    os.makedirs(run.workdir, exist_ok=True)

    setup_count = 0
    server_final: dict = {}
    stats: dict = {}
    rungs: dict = {}
    # A hung helper must not hold the run past its 180 s limit.
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_LIMIT_S)
    try:
        for rep in range(1 if run.traced else SETUP_REPEATS):
            while run.stacks:
                run.stacks.pop().close()
            run.calibrate()
            t0 = time.perf_counter()
            stack = workload.setup(run, rep)
            t1 = time.perf_counter()
            run.calibrate()
            run.sample("setup_s", t1 - t0, (t0, t1))
            setup_count += 1
        workload.measure(run, stack)
        if run.traced:
            rungs = serving_rungs(run, stack, workload.specs, 1.0)
            stats = stack.loadgen.call("stats")
    finally:
        while run.stacks:
            server_final = run.stacks.pop().close()
        signal.alarm(0)
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.workdir))
        except OSError:
            pass

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inject": args.inject,
        "nproc": os.cpu_count(), "connections": run.conns, "thread_pins": thread_pins,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit_id(),
        "setup_repeats": setup_count, "versions_published": len(run.versions),
    }
    if run.traced:
        metrics, gap = per_layer(run, hooks, server_final, stats, rungs)
        run.check(gap <= RECONCILE_TOLERANCE,
                  f"outside-timed layer busy time is {gap:.1%} off StageTimings")
        report("per-layer metrics (traced run)", metrics, run)
    else:
        metrics, printed = end_to_end(run, server_final.get("peak_rss_mb", 0.0))
        report("end-to-end metrics", metrics, run)
        report("printed, not gated: tails, wall-clock medians, host kernel", printed, run)
        print(f"query latency samples: {len(run.latencies)}")
    missing = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    for name in missing:
        run.check(False, f"metric {name} has no samples")
    error_rate = run.failed / max(run.attempted, 1)
    print(f"error_rate {error_rate:.6g} ({run.failed} failed of {run.attempted} attempted)")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
