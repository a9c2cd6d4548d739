"""Timed benchmark runner: scenarios in, structured records out.

For each :class:`~repro.bench.registry.ScenarioSpec` the runner

1. builds the ground-truth graph and simulates the measurement set (timed,
   but reported separately — setup cost is not part of the learner's time);
2. runs the SGL learner ``warmup + repeats`` times, recording wall-clock
   seconds per repeat and the per-stage counters the learner threads through
   its hot path (kNN, MST, embedding, sensitivity, selection, scaling);
   the recorded stage counters come from the fastest repeat — the
   least scheduler-contaminated measurement of a deterministic fit,
   consistent with the fastest-repeat wall statistic the gate compares;
3. optionally re-runs once under :mod:`tracemalloc` to record the peak
   traced allocation (kept out of the timed repeats — tracing skews time);
4. scores the learned graph against the ground truth (density, effective-
   resistance correlation, measured-signal smoothness);
5. repeats steps 2-4 for any requested baseline adapters.

Every record is JSON-ready (see :mod:`repro.bench.results` for the artifact
schema and the regression gate built on top of it).
"""

from __future__ import annotations

import cProfile
import re
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.baselines import run_baseline
from repro.bench.registry import ScenarioSpec
from repro.core.instrumentation import STAGE_NAMES, StageTimings
from repro.obs.session import ObsSession
from repro.core.sgl import SGLearner, SGLResult
from repro.graphs.graph import WeightedGraph
from repro.measurements.generator import MeasurementSet
from repro.metrics.resistance import effective_resistance_batched, sample_node_pairs
from repro.metrics.smoothness import signal_smoothness

__all__ = [
    "BenchRecord",
    "profile_path_for",
    "quality_metrics",
    "run_scenario",
    "run_suite",
]


@dataclass
class BenchRecord:
    """One (scenario, method) benchmark measurement, JSON-ready."""

    scenario: str
    method: str
    n_nodes: int
    n_edges_true: int
    n_measurements: int
    noise_level: float
    wall_seconds: list[float]
    stage_seconds: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    peak_memory_bytes: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def mean_seconds(self) -> float:
        """Mean wall-clock seconds across repeats."""
        return float(np.mean(self.wall_seconds)) if self.wall_seconds else 0.0

    @property
    def min_seconds(self) -> float:
        """Fastest repeat (the usual benchmarking statistic)."""
        return float(np.min(self.wall_seconds)) if self.wall_seconds else 0.0

    def as_dict(self) -> dict:
        """JSON-ready mapping (inverse of :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "method": self.method,
            "n_nodes": self.n_nodes,
            "n_edges_true": self.n_edges_true,
            "n_measurements": self.n_measurements,
            "noise_level": self.noise_level,
            "wall_seconds": list(self.wall_seconds),
            "stage_seconds": dict(self.stage_seconds),
            "quality": dict(self.quality),
            "peak_memory_bytes": self.peak_memory_bytes,
            "info": dict(self.info),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        """Rebuild a record from its :meth:`as_dict` form."""
        return cls(
            scenario=data["scenario"],
            method=data["method"],
            n_nodes=int(data["n_nodes"]),
            n_edges_true=int(data["n_edges_true"]),
            n_measurements=int(data["n_measurements"]),
            noise_level=float(data.get("noise_level", 0.0)),
            wall_seconds=[float(v) for v in data["wall_seconds"]],
            stage_seconds=dict(data.get("stage_seconds", {})),
            quality=dict(data.get("quality", {})),
            peak_memory_bytes=data.get("peak_memory_bytes"),
            info=dict(data.get("info", {})),
        )


# ----------------------------------------------------------------------
def quality_metrics(
    truth: WeightedGraph,
    learned: WeightedGraph,
    voltages: np.ndarray,
    *,
    node_map: np.ndarray | None = None,
    n_pairs: int = 120,
    seed: int = 0,
) -> dict:
    """Score a learned graph against the ground truth.

    Parameters
    ----------
    truth, learned:
        The ground-truth network and the method's output.  When ``node_map``
        is given, ``learned`` lives on a node subset and ``node_map[i]`` is
        the original id of reduced node ``i``.
    voltages:
        The measured voltage matrix (rows are original node ids).
    n_pairs, seed:
        Sampling controls for the effective-resistance comparison.

    Returns
    -------
    dict with keys ``density``, ``n_edges``, ``resistance_correlation`` and
    ``smoothness`` (mean normalised Rayleigh quotient of the measured
    voltages on the learned graph; lower = smoother).
    """
    if node_map is None:
        if learned.n_nodes != truth.n_nodes:
            raise ValueError("learned graph must share the truth's node set")
        pairs = sample_node_pairs(truth.n_nodes, n_pairs, seed=seed)
        truth_pairs = pairs
        learned_pairs = pairs
        learned_voltages = voltages
    else:
        node_map = np.asarray(node_map, dtype=np.int64)
        if learned.n_nodes != node_map.size:
            raise ValueError("node_map must have one entry per learned node")
        pairs = sample_node_pairs(learned.n_nodes, n_pairs, seed=seed)
        truth_pairs = node_map[pairs]
        learned_pairs = pairs
        learned_voltages = voltages[node_map]

    # Grouped-RHS solves (one factorisation traversal per block) — the same
    # fast path the serve layer and compare_effective_resistances use.
    truth_r = effective_resistance_batched(truth, truth_pairs)
    learned_r = effective_resistance_batched(learned, learned_pairs)
    if truth_r.size < 2 or np.std(truth_r) == 0 or np.std(learned_r) == 0:
        correlation = 1.0 if np.allclose(truth_r, learned_r) else 0.0
    else:
        correlation = float(np.corrcoef(truth_r, learned_r)[0, 1])

    smooth = float(np.mean(signal_smoothness(learned, learned_voltages)))
    return {
        "density": float(learned.density),
        "n_edges": int(learned.n_edges),
        "resistance_correlation": correlation,
        "smoothness": smooth,
    }


def _make_learner(
    spec: ScenarioSpec,
    n_nodes: int,
    *,
    sharded_parts: int | None = None,
    shard_jobs: int = 1,
):
    """The scenario's learner: serial, or partition-parallel when requested."""
    config = spec.make_config(n_nodes)
    if sharded_parts is not None:
        from repro.partition import ShardedSGLearner

        return ShardedSGLearner(config, num_parts=sharded_parts, jobs=shard_jobs)
    return SGLearner(config)


def _timed_sgl_runs(
    spec: ScenarioSpec,
    measurements: MeasurementSet,
    *,
    warmup: int,
    repeats: int,
    sharded_parts: int | None = None,
    shard_jobs: int = 1,
) -> tuple[list[float], StageTimings, SGLResult]:
    """Run the learner ``warmup + repeats`` times; time the last ``repeats``.

    The reported stage counters are those of the *fastest* repeat, matching
    the fastest-repeat wall-time statistic the regression gate uses: the
    learner is deterministic, so repeats only differ by scheduler
    interference, and the fastest repeat is the least contaminated
    measurement of each stage.
    """
    learner = _make_learner(
        spec,
        measurements.n_nodes,
        sharded_parts=sharded_parts,
        shard_jobs=shard_jobs,
    )
    for _ in range(warmup):
        learner.fit(measurements)
    wall: list[float] = []
    best_stages: StageTimings | None = None
    result: SGLResult | None = None
    for _ in range(max(repeats, 1)):
        repeat_timings = StageTimings()
        start = time.perf_counter()
        result = learner.fit(measurements, timings=repeat_timings)
        wall.append(time.perf_counter() - start)
        if wall[-1] == min(wall):
            best_stages = repeat_timings
    assert result is not None and best_stages is not None
    return wall, best_stages, result


def _peak_memory_of(fn) -> int:
    """Peak traced allocation (bytes) while running ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def profile_path_for(profile_dir: str | Path, scenario_name: str) -> Path:
    """The ``.prof`` dump path of one scenario inside ``profile_dir``."""
    safe = re.sub(r"[^A-Za-z0-9_.+-]", "_", scenario_name)
    return Path(profile_dir) / f"{safe}.prof"


def trace_prefix_for(scenario_name: str) -> str:
    """Artifact file prefix of one scenario's trace inside ``--trace DIR``."""
    return re.sub(r"[^A-Za-z0-9_.+-]", "_", scenario_name)


def _profile_scenario(
    spec: ScenarioSpec,
    measurements: MeasurementSet,
    profile_dir: str | Path,
    *,
    sharded_parts: int | None = None,
    shard_jobs: int = 1,
) -> Path:
    """Run one untimed learner fit under :mod:`cProfile`; dump binary stats.

    The dump lands next to the JSON artifact (``repro.bench run --profile``)
    and loads back with :mod:`pstats`::

        python -m pstats BENCH_smoke_profiles/grid_2d_tiny.prof
    """
    learner = _make_learner(
        spec,
        measurements.n_nodes,
        sharded_parts=sharded_parts,
        shard_jobs=shard_jobs,
    )
    path = profile_path_for(profile_dir, spec.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        learner.fit(measurements)
    finally:
        profiler.disable()
    profiler.dump_stats(path)
    return path


def run_scenario(
    spec: ScenarioSpec,
    *,
    warmup: int = 0,
    repeats: int = 1,
    baselines: tuple[str, ...] | list[str] = (),
    track_memory: bool = False,
    n_quality_pairs: int = 120,
    profile_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    sharded_parts: int | None = None,
    shard_jobs: int = 1,
) -> list[BenchRecord]:
    """Benchmark one scenario: the SGL learner plus any requested baselines.

    With ``sharded_parts`` set, the learner is the partition-parallel
    :class:`~repro.partition.ShardedSGLearner` over that many shards
    (``shard_jobs`` workers fit shards concurrently); the record's
    ``info.engine`` is ``"sharded"`` and partition/stitch statistics ride
    along under ``info``.

    Returns one :class:`BenchRecord` per method (skipped baselines produce a
    record with empty ``wall_seconds`` and the skip reason under
    ``info["skipped"]``).  With ``profile_dir`` set, one extra untimed
    learner fit runs under :mod:`cProfile` and its binary stats are dumped
    to ``<profile_dir>/<scenario>.prof`` (recorded under
    ``info["profile"]``).  With ``trace_dir`` set, the timed learner runs
    execute under an ambient :class:`~repro.obs.Tracer`: the hierarchical
    trace, metrics and resource samples land in
    ``<trace_dir>/<scenario>.jsonl`` (+ siblings), the trace path under
    ``info["trace"]`` and the metrics snapshot under ``info["metrics"]``.
    """
    setup_start = time.perf_counter()
    truth = spec.build_graph()
    graph_seconds = time.perf_counter() - setup_start
    measurements = spec.build_measurements(truth)
    setup_seconds = time.perf_counter() - setup_start

    obs = ObsSession() if trace_dir is not None else None
    if obs is not None:
        with obs:
            with obs.tracer.span(
                "scenario", scenario=spec.name, repeats=max(repeats, 1), warmup=warmup
            ):
                wall, stage_totals, result = _timed_sgl_runs(
                    spec,
                    measurements,
                    warmup=warmup,
                    repeats=repeats,
                    sharded_parts=sharded_parts,
                    shard_jobs=shard_jobs,
                )
        # Per-call stage durations feed the fit.<stage>_ms histograms, so a
        # merged suite metrics file keeps per-stage latency distributions.
        for span in obs.tracer.spans():
            if span.name in STAGE_NAMES:
                obs.metrics.histogram(f"fit.{span.name}_ms").observe(
                    1e3 * span.duration
                )
        obs.metrics.counter("fit.runs").inc(max(repeats, 1))
        trace_paths = obs.save(trace_dir, prefix=trace_prefix_for(spec.name))
    else:
        wall, stage_totals, result = _timed_sgl_runs(
            spec,
            measurements,
            warmup=warmup,
            repeats=repeats,
            sharded_parts=sharded_parts,
            shard_jobs=shard_jobs,
        )
        trace_paths = None
    quality = quality_metrics(
        truth,
        result.graph,
        measurements.voltages,
        n_pairs=n_quality_pairs,
        seed=spec.seed,
    )
    peak_memory = None
    if track_memory:
        learner = _make_learner(
            spec,
            measurements.n_nodes,
            sharded_parts=sharded_parts,
            shard_jobs=shard_jobs,
        )
        peak_memory = _peak_memory_of(lambda: learner.fit(measurements))
    profile_file = None
    if profile_dir is not None:
        profile_file = str(
            _profile_scenario(
                spec,
                measurements,
                profile_dir,
                sharded_parts=sharded_parts,
                shard_jobs=shard_jobs,
            )
        )

    engine_stats = result.engine_stats or {}
    sharded_info = {}
    if sharded_parts is not None:
        sharded_info = {
            "engine": "sharded",
            "sharded_parts": sharded_parts,
            "shard_jobs": shard_jobs,
            "partition": result.partition.as_dict(),
            "stitch_stats": result.stitch_stats,
        }
    records = [
        BenchRecord(
            scenario=spec.name,
            method="sgl",
            n_nodes=truth.n_nodes,
            n_edges_true=truth.n_edges,
            n_measurements=spec.n_measurements,
            noise_level=spec.noise_level,
            wall_seconds=wall,
            stage_seconds=stage_totals.as_dict(),
            quality=quality,
            peak_memory_bytes=peak_memory,
            info={
                "converged": result.converged,
                "stop_reason": result.stop_reason,
                "n_iterations": result.n_iterations,
                "scaling_factor": result.scaling_factor,
                "graph_build_seconds": graph_seconds,
                "setup_seconds": setup_seconds,
                "warmup": warmup,
                "repeats": repeats,
                "embedding_engine": result.config.embedding_engine,
                "knn_backend": result.config.knn_backend,
                "refinement_backend": result.config.refinement_backend,
                "engine_stats": result.engine_stats,
                # One number for "how often did the fast path bail": dense
                # fallbacks (incremental engine) + churn rebuilds + rejected
                # mixed-precision refinement levels (multilevel).
                "engine_fallbacks": int(engine_stats.get("fallbacks", 0) or 0)
                + int(engine_stats.get("churn_rebuilds", 0) or 0)
                + int(engine_stats.get("chebyshev_fallbacks", 0) or 0),
                "profile": profile_file,
                "trace": (
                    str(trace_paths["trace"]) if trace_paths is not None else None
                ),
                "metrics": (
                    obs.metrics.snapshot() if obs is not None else None
                ),
                **sharded_info,
            },
        )
    ]

    for name in baselines:
        outcome = run_baseline(name, truth, measurements, seed=spec.seed)
        if not outcome.ok:
            records.append(
                BenchRecord(
                    scenario=spec.name,
                    method=name,
                    n_nodes=truth.n_nodes,
                    n_edges_true=truth.n_edges,
                    n_measurements=spec.n_measurements,
                    noise_level=spec.noise_level,
                    wall_seconds=[],
                    info={"skipped": outcome.skipped},
                )
            )
            continue
        baseline_quality = quality_metrics(
            truth,
            outcome.graph,
            measurements.voltages,
            node_map=outcome.node_map,
            n_pairs=n_quality_pairs,
            seed=spec.seed,
        )
        records.append(
            BenchRecord(
                scenario=spec.name,
                method=name,
                n_nodes=truth.n_nodes,
                n_edges_true=truth.n_edges,
                n_measurements=spec.n_measurements,
                noise_level=spec.noise_level,
                wall_seconds=[outcome.seconds],
                quality=baseline_quality,
                info=dict(outcome.info),
            )
        )
    return records


def run_suite(
    specs,
    *,
    warmup: int = 0,
    repeats: int = 1,
    baselines: tuple[str, ...] | list[str] = (),
    track_memory: bool = False,
    n_quality_pairs: int = 120,
    profile_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    jobs: int = 1,
    sharded_parts: int | None = None,
    shard_jobs: int = 1,
    progress=None,
) -> list[BenchRecord]:
    """Run a sequence of scenarios; ``progress`` is an optional callable
    invoked as ``progress(spec, records)`` after each scenario finishes.

    With ``jobs > 1`` independent scenarios run in a process pool
    (scenarios never share state — every spec rebuilds its graph and
    measurements from seeds).  The records are reassembled in spec order
    regardless of completion order, so record ordering and every
    deterministic field (learned graphs, quality metrics, iteration
    counts) are identical to a serial run; only the ``progress`` callbacks
    may fire out of order.  *Measured* fields (``wall_seconds``, peak
    memory) are never run-reproducible, and co-scheduled scenarios contend
    for cores — use ``jobs`` for quality sweeps and coverage runs, not for
    publishing timing baselines.
    """
    specs = list(specs)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    kwargs = dict(
        warmup=warmup,
        repeats=repeats,
        baselines=tuple(baselines),
        track_memory=track_memory,
        n_quality_pairs=n_quality_pairs,
        profile_dir=profile_dir,
        trace_dir=trace_dir,
        sharded_parts=sharded_parts,
        shard_jobs=shard_jobs,
    )
    if jobs == 1 or len(specs) <= 1:
        all_records: list[BenchRecord] = []
        for spec in specs:
            records = run_scenario(spec, **kwargs)
            all_records.extend(records)
            if progress is not None:
                progress(spec, records)
        return all_records

    from concurrent.futures import ProcessPoolExecutor, as_completed

    ordered: list[list[BenchRecord] | None] = [None] * len(specs)
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = {
            pool.submit(run_scenario, spec, **kwargs): idx
            for idx, spec in enumerate(specs)
        }
        for future in as_completed(futures):
            idx = futures[future]
            ordered[idx] = future.result()
            if progress is not None:
                progress(specs[idx], ordered[idx])
    return [record for records in ordered for record in records]
