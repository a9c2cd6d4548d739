"""Stream benchmark: incremental update latency vs full-refit quality.

``python -m repro.bench stream`` measures the online learning story of
:mod:`repro.stream` over one or more registry scenarios.  For each scenario
it

1. learns the initial graph from the scenario's measurement set through
   :class:`~repro.stream.OnlineSGLearner` (publishing snapshot v1 into a
   :class:`~repro.artifacts.ModelRegistry`);
2. drives ``n_batches`` measurement batches from a drifting
   :class:`~repro.stream.MeasurementStream` through ``update()``, timing
   every update and publishing one lineage-chained snapshot each;
3. re-fits the batch learner from scratch on the exact final window, the
   reference an incremental update chain is judged against.

Three records per scenario ride the existing artifact/compare machinery:

* ``stream_fit`` — the initial full fit (wall, quality vs the initial
  truth);
* ``stream_update`` — one wall-clock entry *per incremental update* (so
  the compare gate's fastest-repeat statistic gates the cheapest update,
  and ``mean_update_seconds`` in ``info`` tracks the typical one), scored
  against the **final drifted truth**;
* ``stream_refit`` — the from-scratch refit on the final window, also
  scored against the final truth.  ``quality["speedup_vs_refit"]`` on the
  ``stream_update`` record is the refit wall over the mean incremental
  wall — the number the acceptance bar (>= 3x at <= 0.05 correlation
  loss) reads.

With ``trace_dir`` the whole run is traced: ``stream.update`` spans carry
the per-update stage tree, and each record's ``info`` names the trace
artifact plus the registry index for lineage inspection.  Every record's
``info`` also says why its densification stopped: ``stop_reason`` on the
fit and refit records, ``stop_reasons`` (one per update) on the update
record.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.artifacts.registry import ModelRegistry
from repro.bench import registry as scenario_registry
from repro.bench.runner import BenchRecord, quality_metrics, trace_prefix_for
from repro.core.instrumentation import StageTimings
from repro.core.sgl import SGLearner
from repro.obs.session import ObsSession
from repro.stream.drift import DriftDetector
from repro.stream.generators import MeasurementStream
from repro.stream.learner import OnlineSGLearner

__all__ = ["run_stream_bench", "stream_records_for_scenario"]


def _model_name_for(scenario: str) -> str:
    return trace_prefix_for(scenario)


def stream_records_for_scenario(
    scenario: str,
    *,
    n_batches: int = 5,
    batch_size: int | None = None,
    mode: str = "drift",
    drift_rate: float = 0.02,
    incremental_iterations: int = 2,
    max_updates_between_refits: int = 0,
    seed: int = 0,
    registry_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
) -> list[BenchRecord]:
    """Benchmark online learning on one scenario (see module docstring).

    The registry the snapshots publish into lives under ``registry_dir``
    (kept in place when given, temporary otherwise; ``info["registry"]``
    names it either way, and ``info["lineage"]`` always carries the
    version chain).
    """
    spec = scenario_registry.get_scenario(scenario)
    cleanup: tempfile.TemporaryDirectory | None = None
    if registry_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-stream-bench-")
        registry_dir = cleanup.name
    try:
        obs = ObsSession() if trace_dir is not None else None
        if obs is not None:
            obs.__enter__()
        try:
            records = _stream_records_body(
                spec,
                ModelRegistry(registry_dir),
                n_batches=n_batches,
                batch_size=batch_size,
                mode=mode,
                drift_rate=drift_rate,
                incremental_iterations=incremental_iterations,
                max_updates_between_refits=max_updates_between_refits,
                seed=seed,
            )
        finally:
            if obs is not None:
                obs.__exit__(None, None, None)
        if obs is not None:
            paths = obs.save(trace_dir, prefix="stream_" + trace_prefix_for(spec.name))
            for record in records:
                record.info["trace"] = str(paths["trace"])
        return records
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _stream_records_body(
    spec,
    model_registry: ModelRegistry,
    *,
    n_batches: int,
    batch_size: int | None,
    mode: str,
    drift_rate: float,
    incremental_iterations: int,
    max_updates_between_refits: int,
    seed: int,
) -> list[BenchRecord]:
    truth = spec.build_graph()
    initial = spec.build_measurements(truth)
    if batch_size is None:
        batch_size = max(4, initial.n_measurements // 5)
    config = spec.make_config(initial.n_nodes)
    model_name = _model_name_for(spec.name)

    stream = MeasurementStream(
        truth,
        batch_size,
        mode=mode,
        drift_rate=drift_rate,
        seed=seed + 1,
    )
    learner = OnlineSGLearner(
        config,
        drift=DriftDetector(max_updates_between_refits=max_updates_between_refits),
        registry=model_registry,
        model_name=model_name,
        incremental_iterations=incremental_iterations,
    )

    first = learner.fit(initial)
    base_info = {
        "registry": str(model_registry.root),
        "model": model_name,
        "mode": mode,
        "drift_rate": drift_rate,
        "n_batches": n_batches,
        "batch_size": batch_size,
    }
    records = [
        BenchRecord(
            scenario=spec.name,
            method="stream_fit",
            n_nodes=truth.n_nodes,
            n_edges_true=truth.n_edges,
            n_measurements=initial.n_measurements,
            noise_level=spec.noise_level,
            wall_seconds=[first.wall_seconds],
            stage_seconds=first.timings.as_dict(),
            quality=quality_metrics(truth, first.graph, initial.voltages, seed=seed),
            info={**base_info, "version": first.version.version, "stop_reason": first.stop_reason},
        )
    ]

    updates = [learner.update(batch) for batch in stream.batches(n_batches)]
    incremental = [u for u in updates if u.mode == "incremental"]
    refits = [u for u in updates if u.mode == "refit"]

    # The stream's truth has drifted under the updates: quality is always
    # judged against the network the *latest* batch was measured on.
    final_truth = stream.truth
    window = learner.window
    merged = StageTimings()
    for update in updates:
        merged.merge(update.timings)
    update_quality = quality_metrics(final_truth, learner.graph, window.voltages, seed=seed)

    # Reference: the batch learner from scratch on the exact same window.
    refit_timings = StageTimings()
    refit_start = time.perf_counter()
    refit_result = SGLearner(config).fit(window, timings=refit_timings)
    refit_seconds = time.perf_counter() - refit_start
    refit_quality = quality_metrics(
        final_truth, refit_result.graph, window.voltages, seed=seed
    )

    update_walls = [u.wall_seconds for u in incremental] or [
        u.wall_seconds for u in updates
    ]
    mean_update = float(np.mean(update_walls))
    speedup = refit_seconds / mean_update if mean_update > 0 else float("inf")
    lineage = [v.version for v in model_registry.lineage(f"{model_name}@latest")]

    records.append(
        BenchRecord(
            scenario=spec.name,
            method="stream_update",
            n_nodes=truth.n_nodes,
            n_edges_true=truth.n_edges,
            n_measurements=window.n_measurements,
            noise_level=spec.noise_level,
            wall_seconds=update_walls,
            stage_seconds=merged.as_dict(),
            quality={**update_quality, "speedup_vs_refit": speedup},
            info={
                **base_info,
                "n_updates": len(updates),
                "n_incremental": len(incremental),
                "n_refits": len(refits),
                "mean_update_seconds": mean_update,
                "refit_seconds": refit_seconds,
                "reasons": [u.decision.reason for u in updates],
                "stop_reasons": [u.stop_reason for u in updates],
                "lineage": lineage,
                "latest_version": learner.last_version.version,
            },
        )
    )
    records.append(
        BenchRecord(
            scenario=spec.name,
            method="stream_refit",
            n_nodes=truth.n_nodes,
            n_edges_true=truth.n_edges,
            n_measurements=window.n_measurements,
            noise_level=spec.noise_level,
            wall_seconds=[refit_seconds],
            stage_seconds=refit_timings.as_dict(),
            quality=refit_quality,
            info={**base_info, "stop_reason": refit_result.stop_reason},
        )
    )
    return records


def run_stream_bench(
    scenarios: list[str],
    *,
    n_batches: int = 5,
    batch_size: int | None = None,
    mode: str = "drift",
    drift_rate: float = 0.02,
    incremental_iterations: int = 2,
    max_updates_between_refits: int = 0,
    seed: int = 0,
    registry_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    progress=None,
) -> list[BenchRecord]:
    """Run the stream benchmark over several scenarios (see module docs)."""
    all_records: list[BenchRecord] = []
    for name in scenarios:
        records = stream_records_for_scenario(
            name,
            n_batches=n_batches,
            batch_size=batch_size,
            mode=mode,
            drift_rate=drift_rate,
            incremental_iterations=incremental_iterations,
            max_updates_between_refits=max_updates_between_refits,
            seed=seed,
            registry_dir=registry_dir,
            trace_dir=trace_dir,
        )
        all_records.extend(records)
        if progress is not None:
            progress(name, records)
    return all_records
