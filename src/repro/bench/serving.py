"""Serve benchmark: queries/sec and latency of the serving stack.

``python -m repro.bench serve`` measures the end-to-end serving story over
one or more registry scenarios.  For each scenario it

1. learns the graph (timed, reported under ``info`` — learning cost is not
   part of serving throughput);
2. persists the result with :func:`repro.artifacts.save_result` and loads
   it back (exercising the validated round trip every run);
3. answers the same ``n_queries`` effective-resistance queries three ways
   (the naive and batched paths run :data:`SERVE_ROUNDS` interleaved
   rounds and report their fastest):

   * ``serve_naive`` — one Laplacian solve per query pair
     (:func:`repro.linalg.effective_resistance`; it still reuses the
     session's factorisation, so the measured gap is the serving layer's
     batched query engine, not factorisation caching);
   * ``serve_batched`` — the session's batched engine: the exact
     tree-plus-low-rank :class:`~repro.serve.ResistanceOracle` on
     tree-like graphs, grouped multi-RHS solves otherwise;
   * ``serve_service`` — the full asyncio stack: concurrent single-pair
     requests coalesced by the micro-batcher and dispatched to the worker
     pool (per-request p50/p99 latency comes from here).

Records carry ``qps`` / ``p50_ms`` / ``p99_ms`` in ``quality`` and the
total wall time in ``wall_seconds``, so the existing
``python -m repro.bench compare`` regression gate applies unchanged to
``BENCH_serving.json`` artifacts.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import registry
from repro.bench.runner import BenchRecord, trace_prefix_for
from repro.core.sgl import SGLearner
from repro.obs.session import ObsSession
from repro.obs.tracing import span as obs_span
from repro.linalg.pseudoinverse import effective_resistance
from repro.metrics.resistance import sample_node_pairs
from repro.serve.batching import latency_percentiles_ms
from repro.serve.service import GraphService
from repro.serve.session import GraphSession

__all__ = ["run_serve_bench", "serve_records_for_scenario"]

#: Default concurrency sweep for ``--load`` (clients driving the service
#: closed-loop at once).  Spans idle (adaptive flush dominates) through
#: saturated (size-cap flushes dominate).
DEFAULT_LOAD_CONCURRENCY: tuple[int, ...] = (8, 64, 512)

#: Interleaved naive/batched rounds per scenario; each path reports its
#: fastest round (one timing of a few dozen tiny queries is noise-bound).
SERVE_ROUNDS = 3

#: Mixed-workload composition for ``--load``: share of resistance /
#: neighbors / labels requests.
LOAD_MIX: tuple[float, float, float] = (0.5, 0.25, 0.25)


def _record(
    spec,
    method: str,
    truth_nodes: int,
    truth_edges: int,
    *,
    seconds: float,
    n_queries: int,
    p50_ms: float,
    p99_ms: float,
    info: dict,
) -> BenchRecord:
    return BenchRecord(
        scenario=spec.name,
        method=method,
        n_nodes=truth_nodes,
        n_edges_true=truth_edges,
        n_measurements=spec.n_measurements,
        noise_level=spec.noise_level,
        wall_seconds=[seconds],
        quality={
            "qps": n_queries / seconds if seconds > 0 else float("inf"),
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
        },
        info=info,
    )


def serve_records_for_scenario(
    scenario: str,
    *,
    n_queries: int = 512,
    batch_size: int = 64,
    max_delay_ms: float = 2.0,
    workers: int = 2,
    seed: int = 0,
    artifact_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    load_concurrency: tuple[int, ...] | list[int] | None = None,
) -> list[BenchRecord]:
    """Benchmark serving one scenario; returns naive/batched/service records.

    With ``load_concurrency`` (a list of client counts), a load-test sweep
    runs after the three standard paths: for each level ``C``, ``C``
    closed-loop clients drive a *mixed* resistance/neighbors/labels
    workload (:data:`LOAD_MIX`) through the service, producing one
    ``serve_load_c<C>`` record with qps / p50 / p99 per level.

    The learned artifact is written under ``artifact_dir`` as
    ``<scenario>.npz`` and left in place when an explicit directory was
    given; without one it goes to a temporary directory that is removed
    when the benchmark finishes (``info["artifact"]`` then names a path
    that no longer exists).  With ``trace_dir``, the three serving paths
    run traced: the span tree attributes the batched-vs-service gap to
    queue wait / pool wait / execute / serialize, the artifacts land in
    ``<trace_dir>/serve_<scenario>.jsonl`` (+ siblings) and each record's
    ``info`` carries the trace path and a metrics snapshot.
    """
    spec = registry.get_scenario(scenario)
    truth = spec.build_graph()
    measurements = spec.build_measurements(truth)

    cleanup_dir: tempfile.TemporaryDirectory | None = None
    if artifact_dir is None:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        artifact_dir = cleanup_dir.name
    artifact_path = Path(artifact_dir) / (spec.name.replace("/", "_") + ".npz")
    try:
        return _serve_records(
            spec, truth, measurements, artifact_path,
            n_queries=n_queries, batch_size=batch_size,
            max_delay_ms=max_delay_ms, workers=workers, seed=seed,
            trace_dir=trace_dir, load_concurrency=load_concurrency,
        )
    finally:
        if cleanup_dir is not None:
            cleanup_dir.cleanup()


def _serve_records(
    spec,
    truth,
    measurements,
    artifact_path: Path,
    *,
    n_queries: int,
    batch_size: int,
    max_delay_ms: float,
    workers: int,
    seed: int,
    trace_dir: str | Path | None = None,
    load_concurrency: tuple[int, ...] | list[int] | None = None,
) -> list[BenchRecord]:
    obs = ObsSession() if trace_dir is not None else None
    if obs is not None:
        obs.__enter__()
    try:
        records = _serve_records_body(
            spec, truth, measurements, artifact_path,
            n_queries=n_queries, batch_size=batch_size,
            max_delay_ms=max_delay_ms, workers=workers, seed=seed,
            metrics=obs.metrics if obs is not None else None,
            load_concurrency=load_concurrency,
        )
    finally:
        if obs is not None:
            obs.__exit__(None, None, None)
    if obs is not None:
        paths = obs.save(trace_dir, prefix="serve_" + trace_prefix_for(spec.name))
        snapshot = obs.metrics.snapshot()
        for record in records:
            record.info["trace"] = str(paths["trace"])
            record.info["metrics"] = snapshot
    return records


def _serve_records_body(
    spec,
    truth,
    measurements,
    artifact_path: Path,
    *,
    n_queries: int,
    batch_size: int,
    max_delay_ms: float,
    workers: int,
    seed: int,
    metrics=None,
    load_concurrency: tuple[int, ...] | list[int] | None = None,
) -> list[BenchRecord]:

    learn_start = time.perf_counter()
    with obs_span("learn", scenario=spec.name):
        result = SGLearner(spec.make_config(measurements.n_nodes)).fit(
            measurements, checkpoint_path=artifact_path
        )
    learn_seconds = time.perf_counter() - learn_start

    session = GraphSession.from_file(
        artifact_path, resistance_block=batch_size, seed=seed
    )
    pairs = sample_node_pairs(session.n_nodes, n_queries, seed=seed)
    base_info = {
        "learn_seconds": learn_seconds,
        "artifact": str(artifact_path),
        "checksum": session.checksum,
        "learned_edges": result.graph.n_edges,
        "n_queries": n_queries,
        "batch_size": batch_size,
        "resistance_engine": session.resistance_engine,
    }

    def timed_round(name, solve, block_size):
        """Answer every pair in blocks; each pair's latency is its block's."""
        values = np.empty(n_queries)
        latencies = []
        start = time.perf_counter()
        with obs_span(name, n_queries=n_queries, batch_size=block_size):
            for first in range(0, n_queries, block_size):
                t0 = time.perf_counter()
                block = pairs[first:first + block_size]
                values[first:first + block_size] = solve(block)
                latencies.extend([time.perf_counter() - t0] * block.shape[0])
        return time.perf_counter() - start, values, latencies

    # naive: one solve per pair, reusing the session's factorisation;
    # batched: the session's grouped-RHS fast path.  Each keeps its fastest
    # of SERVE_ROUNDS interleaved rounds, so one scheduler hiccup cannot
    # flip the speed-up.
    def naive(block):
        return effective_resistance(session.graph, block, solver=session.solver)

    rounds = [
        (timed_round("serve_naive", naive, 1),
         timed_round("serve_batched", session.effective_resistance, batch_size))
        for _ in range(SERVE_ROUNDS)
    ]
    fastest = lambda path: min((r[path] for r in rounds), key=lambda t: t[0])  # noqa: E731
    naive_seconds, naive_values, naive_latencies = fastest(0)
    batched_seconds, batched_values, batch_latencies = fastest(1)
    p50, p99 = latency_percentiles_ms(naive_latencies)
    records = [
        _record(
            spec, "serve_naive", truth.n_nodes, truth.n_edges,
            seconds=naive_seconds, n_queries=n_queries,
            p50_ms=p50, p99_ms=p99, info=dict(base_info),
        )
    ]
    if not np.allclose(batched_values, naive_values, rtol=1e-7, atol=1e-10):
        raise RuntimeError("batched resistances diverged from the naive solves")
    p50, p99 = latency_percentiles_ms(batch_latencies)
    speedup = naive_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    records.append(
        _record(
            spec, "serve_batched", truth.n_nodes, truth.n_edges,
            seconds=batched_seconds, n_queries=n_queries,
            p50_ms=p50, p99_ms=p99,
            info={**base_info, "speedup_vs_naive": speedup},
        )
    )
    records[-1].quality["speedup_vs_naive"] = speedup

    # --- service: asyncio micro-batching end to end -----------------------
    service = GraphService(
        max_batch_size=batch_size,
        max_delay_s=max_delay_ms / 1e3,
        max_workers=workers,
        session_options={"resistance_block": batch_size, "seed": seed},
        metrics=metrics,
    )
    service.warm(artifact_path)

    async def run_service():
        start = time.perf_counter()
        values = await asyncio.gather(
            *(
                service.query(artifact_path, "resistance", tuple(pair))
                for pair in pairs
            )
        )
        await service.drain()
        return values, time.perf_counter() - start

    with obs_span("serve_service", n_queries=n_queries, batch_size=batch_size):
        service_values, service_seconds = asyncio.run(run_service())
    if not np.allclose(service_values, naive_values, rtol=1e-7, atol=1e-10):
        raise RuntimeError("service resistances diverged from the naive solves")
    batching = service.stats()["batching"]
    records.append(
        _record(
            spec, "serve_service", truth.n_nodes, truth.n_edges,
            seconds=service_seconds, n_queries=n_queries,
            p50_ms=batching.get("p50_ms", 0.0), p99_ms=batching.get("p99_ms", 0.0),
            info={
                **base_info,
                "speedup_vs_naive": naive_seconds / service_seconds
                if service_seconds > 0
                else float("inf"),
                "n_batches": batching["n_batches"],
                "mean_batch_size": batching["mean_batch_size"],
            },
        )
    )

    # --- load sweep: mixed workload at controlled concurrency -------------
    if load_concurrency:
        session = service.session(artifact_path)
        requests = _mixed_workload(
            session.n_nodes, n_queries, seed=seed,
            with_neighbors=session.has_embedding,
        )
        for level in load_concurrency:
            level = int(level)
            with obs_span("serve_load", n_queries=n_queries, concurrency=level):
                latencies, wall = asyncio.run(
                    _drive_load(service, artifact_path, requests, level)
                )
            p50, p99 = latency_percentiles_ms(latencies)
            mix = {
                kind: sum(1 for k, _, _ in requests if k == kind)
                for kind in ("resistance", "neighbors", "labels")
            }
            records.append(
                _record(
                    spec, f"serve_load_c{level}", truth.n_nodes, truth.n_edges,
                    seconds=wall, n_queries=n_queries,
                    p50_ms=p50, p99_ms=p99,
                    info={**base_info, "concurrency": level, "mix": mix},
                )
            )
            records[-1].quality["concurrency"] = level
    service.close()
    return records


def _mixed_workload(
    n_nodes: int, n_queries: int, *, seed: int, with_neighbors: bool = True
) -> list[tuple]:
    """The ``--load`` request mix: ``(kind, payload, options)`` triples.

    Composition follows :data:`LOAD_MIX`; artifacts saved without an
    embedding fold the neighbors share into resistance.  Half the
    non-default-free requests pass their options explicitly (``k=5``,
    ``n_clusters=8``) — identical in meaning to the omitted form, and the
    batcher's key normalisation must coalesce both spellings into the same
    batches.
    """
    rng = np.random.default_rng(seed)
    probs = list(LOAD_MIX)
    if not with_neighbors:
        probs = [probs[0] + probs[1], 0.0, probs[2]]
    kinds = rng.choice(3, size=n_queries, p=probs)
    pairs = sample_node_pairs(n_nodes, n_queries, seed=seed + 1)
    nodes = rng.integers(0, n_nodes, size=n_queries)
    explicit = rng.random(n_queries) < 0.5
    requests: list[tuple] = []
    for idx in range(n_queries):
        if kinds[idx] == 0:
            requests.append(
                ("resistance", (int(pairs[idx, 0]), int(pairs[idx, 1])), {})
            )
        elif kinds[idx] == 1:
            options = {"k": 5} if explicit[idx] else {}
            requests.append(("neighbors", int(nodes[idx]), options))
        else:
            options = {"n_clusters": 8} if explicit[idx] else {}
            requests.append(("labels", int(nodes[idx]), options))
    return requests


async def _drive_load(
    service: GraphService, path, requests: list[tuple], concurrency: int
) -> tuple[list[float], float]:
    """Drive ``requests`` through ``service`` with ``concurrency`` clients.

    Closed-loop load generation: each of the ``concurrency`` worker
    coroutines claims the next request, awaits its result, then claims
    another — so at most ``concurrency`` requests are in flight, and the
    measured per-request latency includes queue wait under exactly that
    offered load.  Returns ``(per-request latencies in seconds, wall)``.
    """
    latencies = [0.0] * len(requests)
    pending = iter(range(len(requests)))

    async def client():
        for idx in pending:  # shared iterator: each index claimed once
            kind, payload, options = requests[idx]
            t0 = time.perf_counter()
            await service.query(path, kind, payload, **options)
            latencies[idx] = time.perf_counter() - t0

    start = time.perf_counter()
    await asyncio.gather(
        *(client() for _ in range(max(1, min(concurrency, len(requests)))))
    )
    await service.drain()
    return latencies, time.perf_counter() - start


def run_serve_bench(
    scenarios: list[str],
    *,
    n_queries: int = 512,
    batch_size: int = 64,
    max_delay_ms: float = 2.0,
    workers: int = 2,
    seed: int = 0,
    artifact_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    load_concurrency: tuple[int, ...] | list[int] | None = None,
    progress=None,
) -> list[BenchRecord]:
    """Run the serve benchmark over several scenarios (see module docs)."""
    all_records: list[BenchRecord] = []
    for name in scenarios:
        records = serve_records_for_scenario(
            name,
            n_queries=n_queries,
            batch_size=batch_size,
            max_delay_ms=max_delay_ms,
            workers=workers,
            seed=seed,
            artifact_dir=artifact_dir,
            trace_dir=trace_dir,
            load_concurrency=load_concurrency,
        )
        all_records.extend(records)
        if progress is not None:
            progress(name, records)
    return all_records
