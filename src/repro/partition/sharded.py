"""Partition-parallel SGL fitting: per-shard learners plus boundary stitching.

The paper's learner is a single global loop; its runtime and memory are what
cap the experiments at 150k nodes.  :class:`ShardedSGLearner` breaks the
problem along a balanced vertex partition of the Step-1 kNN candidate graph
(:class:`~repro.partition.GraphPartitioner`) and runs one *independent* SGL
fit per shard — in a process pool when ``jobs > 1`` — then repairs what the
decomposition severed:

1. **Union**: the per-shard learned graphs are mapped back to global node
   ids (shards are vertex-disjoint, so the union is exact — no weights
   collide).
2. **Reconnect**: every global maximum-spanning-tree edge of the candidate
   graph that the union is missing is admitted — the same Step-2 backbone
   the serial learner starts from, so the stitched graph is connected by
   construction.
3. **Correct**: ``stitch_sweeps`` steps of the serial learner's own
   densification kernel (:class:`~repro.core.sgl.Densifier`) re-rank
   *every* candidate edge still absent from the stitched graph — cut edges
   and interior edges alike — on a global embedding and admit the
   influential ones: the cross-boundary and cross-shard structure no
   per-shard fit could see.
4. **Scale**: Step-5 spectral edge scaling runs once, globally, on the
   stitched graph (per-shard fits skip it), so a ``num_parts=1`` run is
   bit-compatible with the serial :class:`~repro.core.sgl.SGLearner`.

The ``partition`` / ``shard_fit`` / ``stitch`` phases are recorded as
:class:`~repro.core.instrumentation.StageTimings` stages and ambient
:mod:`repro.obs` spans, exactly like the serial learner's stages.

Examples
--------
>>> from repro.graphs.generators import grid_2d
>>> from repro.measurements import simulate_measurements
>>> from repro.partition import ShardedSGLearner
>>> data = simulate_measurements(grid_2d(12, 12), n_measurements=30, seed=0)
>>> result = ShardedSGLearner(beta=0.05, num_parts=2).fit(data)
>>> result.graph.n_nodes, result.graph.is_connected()
(144, True)
>>> result.partition.n_parts
2
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SGLConfig
from repro.core.instrumentation import StageTimings
# Not called here (the kernel in repro.core.sgl calls them); kept importable
# because perfbench/layertrace.py patches these names in every learner module.
from repro.core.scaling import spectral_edge_scaling  # noqa: F401
from repro.core.sensitivity import edge_sensitivities  # noqa: F401
from repro.core.sgl import Densifier, SGLearner, SGLResult, build_engine, scale_step
from repro.embedding.spectral import SpectralEmbedding
from repro.graphs.graph import WeightedGraph
from repro.knn.knn_graph import knn_graph
from repro.knn.mst import maximum_spanning_tree
from repro.measurements.generator import MeasurementSet
from repro.obs.tracing import set_attributes, span as obs_span
from repro.partition.partitioner import GraphPartition, GraphPartitioner

__all__ = ["ShardFitError", "ShardedSGLearner", "ShardedSGLResult", "fit_shard"]


class ShardFitError(RuntimeError):
    """One shard's SGL fit failed (worker raised or died).

    Attributes
    ----------
    shard:
        Index of the failing shard.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard}: {message}")
        self.shard = int(shard)


def fit_shard(shard: int, voltages: np.ndarray, config: SGLConfig) -> SGLResult:
    """Fit one shard's SGL problem (module level, so process pools can pickle it).

    ``voltages`` are the shard's rows of the global measurement matrix;
    ``config`` must already have ``edge_scaling=False`` (scaling is a global
    stitch-time step).  Exceptions propagate to the pool consumer, which
    wraps them in :class:`ShardFitError` naming ``shard``.
    """
    return SGLearner(config).fit(voltages)


@dataclass(frozen=True)
class ShardedSGLResult:
    """Outcome of a partition-parallel SGL run.

    Attributes
    ----------
    graph:
        The stitched, globally edge-scaled learned graph (global node ids).
    unscaled_graph:
        The stitched graph before Step-5 scaling.
    partition:
        The :class:`~repro.partition.GraphPartition` the fit decomposed over.
    shard_results:
        Per-shard :class:`~repro.core.sgl.SGLResult` objects; their graphs
        use shard-local node ids (``shard_nodes[p][local] = global``).
    shard_nodes:
        Per-shard ascending global node ids.
    config:
        The (global) configuration used.
    scaling_factor:
        The global Step-5 conductance factor (1.0 when unavailable).
    converged:
        True when every shard's densification loop converged.
    stitch_stats:
        Counters of the stitch phase: cut candidates, connector edges,
        per-sweep correction-edge counts.
    timings:
        Stage counters including the new ``partition`` / ``shard_fit`` /
        ``stitch`` stages.
    embedding:
        The spectral embedding of ``graph`` (the scaled stitched graph)
        from the last stitch sweep, when that sweep added no edge and was
        exact-grade (not a multilevel solve); ``None`` otherwise.
        :func:`repro.artifacts.save_result` stores it instead of solving
        again.
    stop_reason:
        Why the stitch sweeps stopped, as for
        :attr:`repro.core.sgl.SGLResult.stop_reason` (``"tol"`` /
        ``"no_progress"``: no missing candidate passed ``tol``;
        ``"pool_exhausted"``: no candidate was missing;
        ``"max_iterations"``: ``stitch_sweeps`` ran out).  A one-part fit
        reports its shard's reason.
    """

    graph: WeightedGraph
    unscaled_graph: WeightedGraph
    partition: GraphPartition
    shard_results: tuple[SGLResult, ...]
    shard_nodes: tuple[np.ndarray, ...]
    config: SGLConfig
    scaling_factor: float
    converged: bool
    stitch_stats: dict
    timings: StageTimings = field(default_factory=StageTimings)
    embedding: SpectralEmbedding | None = None
    stop_reason: str = "max_iterations"

    @property
    def n_parts(self) -> int:
        """Number of shards the fit was decomposed into."""
        return self.partition.n_parts

    @property
    def n_iterations(self) -> int:
        """Largest per-shard densification iteration count."""
        return max((r.n_iterations for r in self.shard_results), default=0)

    @property
    def density(self) -> float:
        """Density ``|E|/|V|`` of the stitched learned graph."""
        return self.graph.density

    @property
    def engine_stats(self) -> dict:
        """Element-wise sum of the shards' embedding-engine counters."""
        totals: dict = {}
        for result in self.shard_results:
            for key, value in (result.engine_stats or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[key] = totals.get(key, 0) + value
        return totals


class ShardedSGLearner:
    """Partition-parallel spectral graph learner.

    Parameters
    ----------
    config:
        A :class:`~repro.core.SGLConfig`, or keyword overrides
        (``ShardedSGLearner(k=5, beta=0.01, num_parts=4)``).  The per-shard
        fits inherit every field (including ``embedding_engine``) except
        ``edge_scaling``, which is deferred to the global stitch.
    num_parts:
        Number of shards.  ``1`` reproduces the serial learner bit for bit.
    jobs:
        Shard fits run in a ``jobs``-process pool when ``> 1``; the pooled
        execution is byte-identical to the in-process sequential order.
    stitch_sweeps:
        Bounded number of global sensitivity sweeps over the cut-edge
        candidates after reconnection (0 disables correction).
    balance_tolerance, partition_oversample:
        Forwarded to :class:`~repro.partition.GraphPartitioner`.
    """

    def __init__(
        self,
        config: SGLConfig | None = None,
        *,
        num_parts: int = 4,
        jobs: int = 1,
        stitch_sweeps: int = 2,
        balance_tolerance: float = 1.2,
        partition_oversample: int = 8,
        **overrides,
    ) -> None:
        if config is None:
            config = SGLConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        if num_parts < 1:
            raise ValueError("num_parts must be at least 1")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if stitch_sweeps < 0:
            raise ValueError("stitch_sweeps must be non-negative")
        self.config = config
        self.num_parts = int(num_parts)
        self.jobs = int(jobs)
        self.stitch_sweeps = int(stitch_sweeps)
        self.balance_tolerance = float(balance_tolerance)
        self.partition_oversample = int(partition_oversample)

    # ------------------------------------------------------------------
    def fit(
        self,
        measurements: MeasurementSet | np.ndarray,
        currents: np.ndarray | None = None,
        *,
        timings: StageTimings | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> ShardedSGLResult:
        """Learn a resistor network from measurements, shard-parallel.

        Mirrors :meth:`repro.core.sgl.SGLearner.fit`;
        ``checkpoint_dir`` persists the finished result as a sharded model
        (:func:`repro.artifacts.save_sharded_result` — per-shard ``.npz``
        files plus a checksummed manifest).  Nothing is written when any
        shard fails: a :class:`ShardFitError` names the failing shard.
        """
        if isinstance(measurements, MeasurementSet):
            voltages = measurements.voltages
            currents = measurements.currents
        else:
            voltages = np.asarray(measurements, dtype=np.float64)
        if voltages.ndim != 2:
            raise ValueError("voltages must be an (N, M) matrix")
        n_nodes = voltages.shape[0]
        if n_nodes < 3 * self.num_parts:
            raise ValueError(
                f"need at least {3 * self.num_parts} nodes for {self.num_parts} "
                "shards (3 per shard)"
            )
        if timings is None:
            timings = StageTimings()

        with obs_span(
            "sharded.fit",
            n_nodes=n_nodes,
            n_measurements=voltages.shape[1],
            n_parts=self.num_parts,
            jobs=self.jobs,
            embedding_engine=self.config.embedding_engine,
        ):
            result = self._fit_body(voltages, currents, timings, checkpoint_dir)
            set_attributes(
                converged=result.converged,
                n_edges_learned=result.graph.n_edges,
                n_cut_edges=result.partition.n_cut_edges,
            )
        return result

    # ------------------------------------------------------------------
    def _fit_body(
        self,
        voltages: np.ndarray,
        currents: np.ndarray | None,
        timings: StageTimings,
        checkpoint_dir: str | Path | None,
    ) -> ShardedSGLResult:
        config = self.config
        n_nodes = voltages.shape[0]

        # Step 1 (global): the kNN candidate graph doubles as the partition
        # substrate — its heavy edges are exactly the measurement-space
        # affinities the shards should keep interior.
        k = min(config.k, n_nodes - 1)
        with timings.stage("knn"):
            candidates = knn_graph(
                voltages,
                k,
                weight_scheme="sgl",
                ensure_connected=True,
                backend=config.knn_backend,
                backend_options={"seed": config.seed},
            )

        with timings.stage("partition", n_parts=self.num_parts):
            partitioner = GraphPartitioner(
                self.num_parts,
                balance_tolerance=self.balance_tolerance,
                oversample=self.partition_oversample,
                min_part_size=3,
                seed=config.seed if config.seed is not None else 0,
            )
            partition = partitioner.partition(candidates)
            set_attributes(
                n_cut_edges=partition.n_cut_edges,
                balance_factor=partition.balance_factor,
            )

        shard_nodes = tuple(
            partition.part_nodes(p) for p in range(self.num_parts)
        )
        with timings.stage("shard_fit", n_parts=self.num_parts, jobs=self.jobs):
            shard_results = self._fit_shards(voltages, shard_nodes)

        with timings.stage("stitch", sweeps=self.stitch_sweeps):
            unscaled, stitch_stats, embedding, stop_reason = self._stitch(
                voltages, candidates, partition, shard_nodes, shard_results
            )
            set_attributes(**stitch_stats)

        stitched, scaling_factor, embedding = scale_step(
            config, unscaled, voltages, currents, embedding, timings
        )

        result = ShardedSGLResult(
            graph=stitched,
            unscaled_graph=unscaled,
            partition=partition,
            shard_results=tuple(shard_results),
            shard_nodes=shard_nodes,
            config=config,
            scaling_factor=scaling_factor,
            converged=all(r.converged for r in shard_results),
            stitch_stats=stitch_stats,
            timings=timings,
            embedding=embedding,
            stop_reason=stop_reason,
        )
        if checkpoint_dir is not None:
            # Local import: repro.artifacts.sharded depends on this module.
            from repro.artifacts.sharded import save_sharded_result

            with timings.stage("checkpoint"):
                save_sharded_result(result, checkpoint_dir)
        return result

    # ------------------------------------------------------------------
    def _fit_shards(
        self, voltages: np.ndarray, shard_nodes: tuple[np.ndarray, ...]
    ) -> list[SGLResult]:
        """Fit every shard, in-process (jobs=1) or in a process pool.

        The pool path submits the exact same ``fit_shard(p, voltages[ids],
        shard_config)`` calls the sequential path makes, so both produce
        byte-identical results; failures surface as :class:`ShardFitError`
        naming the shard, whether the worker raised or died.
        """
        shard_config = dataclasses.replace(self.config, edge_scaling=False)
        n_parts = len(shard_nodes)
        if self.jobs == 1 or n_parts == 1:
            results: list[SGLResult] = []
            for p, ids in enumerate(shard_nodes):
                with obs_span("shard", shard=p, n_nodes=int(ids.size)):
                    try:
                        results.append(fit_shard(p, voltages[ids], shard_config))
                    except Exception as exc:
                        raise ShardFitError(
                            p, f"{type(exc).__name__}: {exc}"
                        ) from exc
            return results

        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

        pool = ProcessPoolExecutor(max_workers=min(self.jobs, n_parts))
        try:
            futures = {
                pool.submit(fit_shard, p, voltages[ids], shard_config): p
                for p, ids in enumerate(shard_nodes)
            }
            wait(futures, return_when=FIRST_EXCEPTION)
            # Attribute the failure to the lowest-indexed shard whose future
            # holds an exception (a dead worker breaks every pending future,
            # so "first in shard order" is the most useful name we can give).
            ordered = sorted(futures.items(), key=lambda item: item[1])
            for future, p in ordered:
                if future.done() and future.exception() is not None:
                    exc = future.exception()
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise ShardFitError(
                        p, f"{type(exc).__name__}: {exc}"
                    ) from exc
            return [future.result() for future, _ in ordered]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    def _stitch(
        self,
        voltages: np.ndarray,
        candidates: WeightedGraph,
        partition: GraphPartition,
        shard_nodes: tuple[np.ndarray, ...],
        shard_results: list[SGLResult],
    ) -> tuple[WeightedGraph, dict, SpectralEmbedding | None, str]:
        """Union the shard graphs, reconnect them, run correction sweeps.

        Returns the stitched graph, the stitch counters, the embedding of
        the stitched graph when the last sweep left it unchanged (else
        ``None``) and the reason the sweeps stopped.
        """
        config = self.config
        n_nodes = partition.n_nodes
        assignment = partition.assignment
        rows = [ids[res.graph.rows] for ids, res in zip(shard_nodes, shard_results)]
        cols = [ids[res.graph.cols] for ids, res in zip(shard_nodes, shard_results)]
        weights = [res.graph.weights for res in shard_results]
        stitched = WeightedGraph(
            n_nodes,
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
            np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
            np.concatenate(weights) if weights else np.empty(0),
        )

        if partition.n_parts == 1:
            # Nothing was severed: the single "shard" fit *is* the serial
            # fit, and skipping the repair stages keeps it bit-compatible.
            only = shard_results[0]
            return stitched, {
                "n_cut_candidates": 0,
                "connector_edges": 0,
                "correction_edges": [],
                "cut_edges_admitted": 0,
                "components_before_stitch": 1,
            }, only.embedding, only.stop_reason

        # (a) Reconnect the way Algorithm 1's Step 2 would have: admit
        # every edge of the candidate graph's global maximum spanning
        # tree still missing from the union.  Its cross-shard edges are
        # the heavy boundary links no per-shard fit could see, and the
        # tree spans all vertices, so the stitched graph is connected
        # by construction.  (Shards can also learn non-candidate edges —
        # connectivity repairs — which simply stay in the union.)
        tree = maximum_spanning_tree(candidates)
        missing = ~stitched.has_edges(tree.edges)
        stitched = stitched.add_edges(tree.edges[missing], tree.weights[missing])
        tree_cross = assignment[tree.rows] != assignment[tree.cols]

        # (b) Correct: bounded global sensitivity sweeps of the shared
        # densification kernel over every candidate edge the stitched graph
        # is still missing — the cross-boundary edges *and* the interior
        # edges a shard-local embedding ranked differently than the global
        # one would have (Step 3 of Algorithm 1, evaluated globally).  Each
        # sweep embeds the stitched graph from scratch (with the multilevel
        # solver when the shards ran the multilevel engine).
        absent = ~stitched.has_edges(candidates.edges)
        method = (
            "multilevel"
            if config.embedding_engine == "multilevel"
            else config.eigensolver
        )
        kernel = Densifier(
            config,
            stitched,
            candidates.edges[absent],
            candidates.weights[absent],
            build_engine(dataclasses.replace(config, eigensolver=method), "stateless"),
        )
        stop_reason = kernel.run(self.stitch_sweeps, voltages)

        crossing = assignment[candidates.rows] != assignment[candidates.cols]
        present = kernel.graph.has_edges(candidates.edges)
        stats = {
            "n_cut_candidates": int(crossing.sum()),
            "connector_edges": int(tree_cross.sum()),
            "correction_edges": [r.n_edges_added for r in kernel.history.records],
            "cut_edges_admitted": int((present & crossing).sum()),
            "components_before_stitch": partition.n_parts,
        }
        return kernel.graph, stats, kernel.final_embedding, stop_reason
