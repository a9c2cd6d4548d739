"""The SGL graph learner (Algorithm 1 of the paper).

Given voltage measurements ``X`` (and optionally the current excitations
``Y``), the learner:

1. builds a connected kNN graph over the measurement vectors and extracts its
   maximum spanning tree as the initial graph (Step 1);
2. repeatedly embeds the current graph spectrally (Step 2), ranks the
   remaining off-tree kNN edges by sensitivity (Step 3) and adds the top
   ``ceil(N beta)`` edges whose sensitivity exceeds ``tol`` (Step 4);
3. once no influential edges remain, rescales all edge weights so the learned
   graph's voltage response energies match the measured ones (Step 5).

Step 2 is the loop's hot spot.  By default it runs through the warm-started
incremental :class:`~repro.embedding.EmbeddingEngine`, which reuses the
previous iteration's eigenvectors instead of re-solving the eigenproblem from
scratch.  ``SGLConfig.embedding_engine = "multilevel"`` switches to the
coarsen-solve-refine :class:`~repro.embedding.MultilevelEmbeddingEngine`
(the paper's near-linear-time path, fastest at paper scale), and
``"stateless"`` restores the old recompute-every-iteration behaviour.

Steps 2-4 live in one kernel, :class:`Densifier`, and Step 5 in
:func:`scale_step`.  :class:`SGLearner`, the stream learner
(:class:`~repro.stream.OnlineSGLearner`) and the sharded learner's stitch
(:class:`~repro.partition.ShardedSGLearner`) all drive that kernel; they
differ only in the graph, candidate pool and engine they hand it.

The result is an ultra-sparse resistor network (density slightly above one)
whose spectral-embedding / effective-resistance distances encode the measured
voltage distances.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SGLConfig
from repro.core.history import IterationRecord, SGLHistory
from repro.core.instrumentation import StageTimings
from repro.obs.tracing import set_attributes, span as obs_span
from repro.core.objective import graphical_lasso_objective
from repro.core.scaling import spectral_edge_scaling
from repro.core.sensitivity import edge_sensitivities
from repro.embedding.engine import EmbeddingEngine, StatelessEngine
from repro.embedding.multilevel_engine import MultilevelEmbeddingEngine
from repro.embedding.spectral import SpectralEmbedding
from repro.graphs.graph import WeightedGraph
from repro.knn.knn_graph import knn_graph
from repro.knn.mst import maximum_spanning_tree
from repro.measurements.generator import MeasurementSet

__all__ = [
    "STOP_REASONS",
    "Densifier",
    "SGLearner",
    "SGLResult",
    "build_engine",
    "learn_graph",
    "scale_step",
]

#: Why a densification loop stopped: the maximum sensitivity fell below
#: ``tol``; no candidate edge passed ``tol`` although the maximum did not
#: fall below it; the candidate pool ran empty; or the iteration budget ran
#: out.
STOP_REASONS = ("tol", "no_progress", "pool_exhausted", "max_iterations")


@dataclass(frozen=True)
class SGLResult:
    """Outcome of an SGL learning run.

    Attributes
    ----------
    graph:
        The learned resistor network after edge scaling (Step 5).
    unscaled_graph:
        The learned graph before Step 5 (identical topology and relative
        weights; only the global conductance scale differs).
    initial_graph:
        The spanning tree (or other initial graph) the densification started
        from.
    knn_graph:
        The kNN graph providing the candidate edge pool.
    history:
        Per-iteration convergence records (max sensitivity, edge counts,
        optionally the objective).
    converged:
        True unless the loop ran out of iterations (``stop_reason`` tells
        which of the other three stops happened).
    scaling_factor:
        The global conductance factor applied by Step 5 (1.0 when currents
        were not available or scaling was disabled).
    config:
        The configuration used.
    timings:
        Per-stage wall-clock counters recorded during :meth:`SGLearner.fit`
        (stages ``knn``, ``initial_tree``, ``candidate_pool``, ``embedding``,
        ``embedding_warm``, ``coarsen``, ``refine``, ``sensitivity``,
        ``objective``, ``edge_selection``, ``edge_scaling``).  ``embedding``
        counts cold / fallback eigensolves and ``embedding_warm``
        warm-started refreshes (incremental engine); ``coarsen`` /
        ``refine`` split the multilevel engine's hierarchy maintenance and
        coarse-solve-prolongate-refine phases.
    engine_stats:
        Refresh-outcome counters of the stateful embedding engine
        (:meth:`repro.embedding.EngineStats.as_dict` or
        :meth:`repro.embedding.MultilevelEngineStats.as_dict`), or ``None``
        when the stateless path was used.
    embedding:
        The spectral embedding (Eq. 12) of ``graph`` — the scaled graph —
        taken from the loop's last refresh when the loop left without
        changing the graph after it (``stop_reason`` ``"tol"`` or
        ``"no_progress"``) and the engine's last embedding is exact-grade;
        ``None`` otherwise — the multilevel engine and any
        ``eigensolver="multilevel"`` cold solve are approximate.
        :func:`repro.artifacts.save_result` stores it instead of solving
        the eigenproblem again.
    stop_reason:
        Why the densification loop stopped: one of :data:`STOP_REASONS`.

    Examples
    --------
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.graphs.generators import grid_2d
    >>> data = simulate_measurements(grid_2d(8, 8), n_measurements=30, seed=0)
    >>> result = learn_graph(data, beta=0.05)
    >>> result.n_iterations >= 1 and 1.0 <= result.density <= 2.0
    True
    >>> sorted(result.engine_stats)[:2]
    ['cold_solves', 'factorizations']
    >>> result.stop_reason, result.embedding.n_nodes
    ('tol', 64)
    """

    graph: WeightedGraph
    unscaled_graph: WeightedGraph
    initial_graph: WeightedGraph
    knn_graph: WeightedGraph
    history: SGLHistory
    converged: bool
    scaling_factor: float
    config: SGLConfig
    timings: StageTimings = field(default_factory=StageTimings)
    engine_stats: dict | None = None
    embedding: SpectralEmbedding | None = None
    stop_reason: str = "max_iterations"

    @property
    def n_iterations(self) -> int:
        """Number of densification iterations executed."""
        return len(self.history)

    @property
    def density(self) -> float:
        """Density ``|E|/|V|`` of the learned graph."""
        return self.graph.density


def _stage(timings: StageTimings | None, name: str):
    """``timings.stage(name)``, or an untimed block without timings."""
    return nullcontext() if timings is None else timings.stage(name)


def build_engine(config: SGLConfig, kind: str | None = None):
    """The embedding engine for ``config`` (``kind`` overrides ``config.embedding_engine``).

    Every engine speaks one protocol: ``refresh(graph, added_edges,
    timings=None)`` returns the embedding of ``graph`` and records its own
    stages; ``exact_grade`` says whether that embedding may be published;
    ``stats`` holds its refresh counters (``None`` for the stateless engine).
    """
    kind = config.embedding_engine if kind is None else kind
    common = dict(sigma_sq=config.sigma_sq, seed=config.seed)
    if kind == "multilevel":
        return MultilevelEmbeddingEngine(
            config.r,
            coarse_size=config.multilevel_coarse_size,
            churn_threshold=config.multilevel_churn_threshold,
            refinement=config.refinement_backend,
            refine_dtype=config.refine_dtype,
            linalg_backend=config.linalg_backend,
            **common,
        )
    engine = EmbeddingEngine if kind == "incremental" else StatelessEngine
    return engine(
        config.r,
        method=config.eigensolver,
        multilevel_coarse_size=config.multilevel_coarse_size,
        **common,
    )


def scale_step(
    config: SGLConfig, graph: WeightedGraph, voltages: np.ndarray, currents: np.ndarray | None,
    embedding: SpectralEmbedding | None, timings: StageTimings | None = None,
) -> tuple[WeightedGraph, float, SpectralEmbedding | None]:
    """Step 5 when ``config.edge_scaling`` is set and currents exist.

    Returns the scaled graph, the factor (1.0 when not scaled) and
    ``embedding`` — a :attr:`Densifier.final_embedding` — mapped onto the
    scaled graph (eigenvalues times the factor), or ``None``.
    """
    factor = 1.0
    if config.edge_scaling and currents is not None:
        with _stage(timings, "edge_scaling"):
            graph, factor = spectral_edge_scaling(graph, voltages, currents)
    return graph, factor, None if embedding is None else embedding.rescaled(factor)


class Densifier:
    """Algorithm 1's densification kernel: one embed-rank-add step at a time.

    Holds the working ``graph``, the candidate pool (``pool_edges`` /
    ``pool_weights``, in order), an ``engine`` from :func:`build_engine` and
    the edges added since the engine last saw the graph; ``config`` supplies
    ``tol``, the batch size, ``sensitivity_samples``, the seed and the
    objective options.  :class:`SGLearner` drives it for a whole fit, the
    stream learner for its incremental passes and the sharded learner for
    its stitch sweeps; only the batch fit asks for ``iteration_spans``.

    The engine is refreshed lazily, at the start of the next :meth:`step`
    (or by :meth:`refresh`), so a loop that stops after adding edges never
    pays for an embedding it does not use.
    """

    def __init__(
        self, config: SGLConfig, graph: WeightedGraph, pool_edges: np.ndarray,
        pool_weights: np.ndarray, engine, *, iteration_spans: bool = False,
    ) -> None:
        self.config = config
        self.graph = graph
        self.pool_edges = pool_edges
        self.pool_weights = pool_weights
        self.engine = engine
        self.iteration_spans = iteration_spans
        self.batch_size = config.edges_per_iteration(graph.n_nodes)
        self.history = SGLHistory()
        self.embedding: SpectralEmbedding | None = None
        self._stale = True
        self._added: np.ndarray | None = None

    @property
    def final_embedding(self) -> SpectralEmbedding | None:
        """The embedding of :attr:`graph`, when it may be published.

        ``None`` when the graph changed after the last refresh or the
        engine's last embedding is not exact-grade.
        """
        return None if self._stale or not self.engine.exact_grade else self.embedding

    def refresh(self, timings: StageTimings | None = None) -> SpectralEmbedding:
        """Bring the engine up to date with :attr:`graph` and return its embedding."""
        if self._stale:
            self.embedding = self.engine.refresh(self.graph, self._added, timings=timings)
            self._stale, self._added = False, None
        return self.embedding

    def step(
        self, voltages: np.ndarray, timings: StageTimings | None = None
    ) -> tuple[IterationRecord | None, str | None]:
        """One iteration of Algorithm 1 (Steps 2-4).

        Returns the iteration's record (``None`` when the pool was already
        empty) and the stop reason from :data:`STOP_REASONS`, or ``None``
        to continue.
        """
        if self.pool_edges.shape[0] == 0:
            return None, "pool_exhausted"
        config = self.config
        span = nullcontext()
        if self.iteration_spans:
            span = obs_span(
                "iteration",
                iteration=len(self.history),
                n_edges=self.graph.n_edges,
                n_candidates=int(self.pool_edges.shape[0]),
            )
        with span:
            embedding = self.refresh(timings)
            with _stage(timings, "sensitivity"):
                sensitivities = edge_sensitivities(
                    embedding, voltages, self.pool_edges,
                    n_samples=config.sensitivity_samples, seed=config.seed,
                )
            max_sensitivity = float(sensitivities.max())

            objective = None
            if config.track_objective:
                with _stage(timings, "objective"):
                    objective = graphical_lasso_objective(
                        self.graph, voltages, sigma_sq=config.sigma_sq,
                        n_eigenvalues=config.objective_eigenvalues, seed=config.seed,
                    )

            n_added = 0
            stop = "tol" if max_sensitivity < config.tol else None
            if stop is None:
                # Step 3: add the top-ranked influential edges.
                with _stage(timings, "edge_selection"):
                    order = np.argsort(sensitivities)[::-1][: self.batch_size]
                    chosen = order[sensitivities[order] > config.tol]
                    add_edges = self.pool_edges[chosen]
                    self.graph = self.graph.add_edges(add_edges, self.pool_weights[chosen])
                    keep = np.ones(self.pool_edges.shape[0], dtype=bool)
                    keep[chosen] = False
                    self.pool_edges = self.pool_edges[keep]
                    self.pool_weights = self.pool_weights[keep]
                n_added = int(chosen.size)
                if n_added:
                    self._stale, self._added = True, add_edges
                else:
                    stop = "no_progress"

            record = IterationRecord(
                iteration=len(self.history),
                max_sensitivity=max_sensitivity,
                n_edges=self.graph.n_edges,
                n_edges_added=n_added,
                objective=objective,
            )
            self.history.append(record)
            if self.iteration_spans:
                set_attributes(max_sensitivity=max_sensitivity, n_edges_added=n_added)
        return record, stop

    def run(self, n_steps: int, voltages: np.ndarray, timings: StageTimings | None = None) -> str:
        """Up to ``n_steps`` steps from a fresh :attr:`history`; returns the stop reason."""
        self.history = SGLHistory()
        for _ in range(n_steps):
            _, stop = self.step(voltages, timings)
            if stop is not None:
                return stop
        return "max_iterations"


class SGLearner:
    """Spectral graph learner implementing Algorithm 1.

    Parameters
    ----------
    config:
        A :class:`~repro.core.SGLConfig`; keyword overrides may be passed
        instead (``SGLearner(k=5, r=5, beta=0.01)``).

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.measurements import simulate_measurements
    >>> graph = grid_2d(10, 10)
    >>> measurements = simulate_measurements(graph, n_measurements=30, seed=0)
    >>> result = SGLearner(beta=0.05, max_iterations=50).fit(measurements)
    >>> result.graph.n_nodes
    100
    """

    def __init__(self, config: SGLConfig | None = None, **overrides) -> None:
        if config is None:
            config = SGLConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def _initial_graphs(
        self, voltages: np.ndarray, timings: StageTimings
    ) -> tuple[WeightedGraph, WeightedGraph]:
        """Build the candidate kNN graph and the initial graph (Step 1)."""
        config = self.config
        n_nodes = voltages.shape[0]
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
        if config.initial_graph == "knn":
            return candidates, candidates.copy()
        if config.initial_graph == "mst":
            with timings.stage("initial_tree"):
                return candidates, maximum_spanning_tree(candidates)
        # "random-tree": a spanning tree chosen with random edge priorities.
        rng = np.random.default_rng(config.seed)
        random_priorities = candidates.with_weights(rng.random(candidates.n_edges) + 0.5)
        tree_topology = maximum_spanning_tree(random_priorities)
        # Restore the SGL weights on the chosen tree edges (one vectorised
        # binary-search lookup instead of an O(V*E) per-edge scan).
        tree = WeightedGraph(
            candidates.n_nodes,
            tree_topology.rows,
            tree_topology.cols,
            candidates.edge_weights(tree_topology.edges),
        )
        return candidates, tree

    # ------------------------------------------------------------------
    def fit(
        self,
        measurements: MeasurementSet | np.ndarray,
        currents: np.ndarray | None = None,
        *,
        timings: StageTimings | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> SGLResult:
        """Learn a resistor network from measurements.

        Parameters
        ----------
        measurements:
            A :class:`~repro.measurements.MeasurementSet`, or a bare voltage
            matrix ``X`` of shape ``(N, M)``.
        currents:
            Optional current matrix ``Y`` when ``measurements`` is a bare
            array; ignored otherwise.
        timings:
            Optional :class:`~repro.core.instrumentation.StageTimings` to
            accumulate stage timings into (e.g. across benchmark repeats); a
            fresh one is created otherwise.  Either way it is attached to the
            result as ``result.timings``.
        checkpoint_path:
            When given, the finished result is persisted as a model artifact
            (:func:`repro.artifacts.save_result`, embedding included) at
            this path, ready for :mod:`repro.serve`.  The ``checkpoint``
            stage in the timings records what the save cost.

        Returns
        -------
        SGLResult
        """
        if isinstance(measurements, MeasurementSet):
            voltages = measurements.voltages
            currents = measurements.currents
        else:
            voltages = np.asarray(measurements, dtype=np.float64)
        if voltages.ndim != 2:
            raise ValueError("voltages must be an (N, M) matrix")
        n_nodes, n_measurements = voltages.shape
        if n_nodes < 3:
            raise ValueError("need at least three nodes to learn a graph")
        config = self.config
        if timings is None:
            timings = StageTimings()

        # The whole fit runs under one root span (a no-op without an active
        # repro.obs tracer); every stage entry below nests under it, and
        # each densification iteration gets its own child span, so a traced
        # run yields fit -> iteration -> stage trees whose per-stage totals
        # are exactly the StageTimings sums.
        with obs_span(
            "sgl.fit",
            n_nodes=n_nodes,
            n_measurements=n_measurements,
            embedding_engine=config.embedding_engine,
            knn_backend=config.knn_backend,
        ):
            result = self._fit_body(voltages, currents, timings, checkpoint_path)
            set_attributes(
                converged=result.converged,
                stop_reason=result.stop_reason,
                n_iterations=result.n_iterations,
                n_edges_learned=result.graph.n_edges,
            )
        return result

    def _fit_body(
        self,
        voltages: np.ndarray,
        currents: np.ndarray | None,
        timings: StageTimings,
        checkpoint_path: str | Path | None,
    ) -> SGLResult:
        """The body of :meth:`fit`, run under the ``sgl.fit`` root span."""
        config = self.config
        candidates, graph = self._initial_graphs(voltages, timings)
        initial_graph = graph.copy()

        # Candidate pool: off-tree edges of the kNN graph, with the paper's
        # M / ||x_s - x_t||^2 weights precomputed once.
        with timings.stage("candidate_pool"):
            pool_mask = ~graph.has_edges(candidates.edges)
            pool_edges = candidates.edges[pool_mask]
            pool_weights = candidates.weights[pool_mask].copy()

        engine = build_engine(config)
        kernel = Densifier(
            config, graph, pool_edges, pool_weights, engine, iteration_spans=True
        )
        stop_reason = kernel.run(config.max_iterations, voltages, timings)
        graph, scaling_factor, final_embedding = scale_step(
            config, kernel.graph, voltages, currents, kernel.final_embedding, timings
        )

        result = SGLResult(
            graph=graph,
            unscaled_graph=kernel.graph,
            initial_graph=initial_graph,
            knn_graph=candidates,
            history=kernel.history,
            converged=stop_reason != "max_iterations",
            scaling_factor=scaling_factor,
            config=config,
            timings=timings,
            engine_stats=None if engine.stats is None else engine.stats.as_dict(),
            embedding=final_embedding,
            stop_reason=stop_reason,
        )
        if checkpoint_path is not None:
            # Local import: repro.artifacts depends on this module's types.
            from repro.artifacts.store import save_result

            with timings.stage("checkpoint"):
                save_result(result, checkpoint_path)
        return result


def learn_graph(
    measurements: MeasurementSet | np.ndarray,
    currents: np.ndarray | None = None,
    *,
    config: SGLConfig | None = None,
    **overrides,
) -> SGLResult:
    """Convenience wrapper: ``SGLearner(config or overrides).fit(measurements)``.

    Examples
    --------
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.graphs.generators import grid_2d
    >>> data = simulate_measurements(grid_2d(8, 8), n_measurements=30, seed=0)
    >>> result = learn_graph(data, beta=0.05)
    >>> result.graph.is_connected() and result.graph.n_nodes == 64
    True
    """
    learner = SGLearner(config=config, **overrides) if config is not None or overrides else SGLearner()
    return learner.fit(measurements, currents)
