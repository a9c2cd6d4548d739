"""Online SGL: incremental graph updates over a stream of measurement batches.

:class:`OnlineSGLearner` wraps the batch :class:`~repro.core.SGLearner` for
the serve-N-while-fitting-N+1 world of ROADMAP item 3.  One initial
:meth:`fit` learns a graph from the first measurement window exactly as the
batch learner would; every subsequent :meth:`update` appends a new batch to
the window and then chooses, per batch, between two paths:

* **incremental** — a bounded number of steps of the batch learner's own
  densification kernel (:class:`~repro.core.sgl.Densifier`) over the
  *existing* candidate pool, reusing the persistent warm-started
  :class:`~repro.embedding.EmbeddingEngine` (Woodbury-corrected refreshes,
  no cold eigensolve) and finishing with a Step-5 rescale against the
  current window.  Cost: a few warm refreshes — a small fraction of a fit.
* **full refit** — the batch learner re-run on the whole window, rebuilding
  the kNN candidate pool and the embedding engine from scratch.  Chosen by
  the :class:`~repro.stream.DriftDetector` when the incoming batch's
  measurement distribution has left the learned subspace, when the energy
  scale jumps, on a forced cadence, or after the incremental path reported
  objective degradation (residual sensitivity it could not drive down).

Every accepted update emits a ``stream.update`` span (with per-stage child
spans via :class:`~repro.core.instrumentation.StageTimings`) and — when a
:class:`~repro.artifacts.ModelRegistry` is attached — publishes a versioned
snapshot whose lineage points at the previous version, so a follower
(``repro-serve --follow name@latest``) can hot-swap to it with zero downtime.

Examples
--------
>>> from repro.graphs.generators import grid_2d
>>> from repro.stream import MeasurementStream, OnlineSGLearner
>>> stream = MeasurementStream(grid_2d(6, 6), batch_size=8, seed=0)
>>> learner = OnlineSGLearner(beta=0.05, max_iterations=30)
>>> first = learner.fit(stream.next_batch())
>>> first.mode
'initial'
>>> second = learner.update(stream.next_batch())
>>> second.mode in ("incremental", "refit")
True
>>> learner.graph.n_nodes
36
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SGLConfig
from repro.core.history import SGLHistory
from repro.core.instrumentation import StageTimings
# Not called here (the kernel in repro.core.sgl calls them); kept importable
# because perfbench/layertrace.py patches these names in every learner module.
from repro.core.scaling import spectral_edge_scaling  # noqa: F401
from repro.core.sensitivity import edge_sensitivities  # noqa: F401
from repro.core.sgl import Densifier, SGLearner, SGLResult, build_engine, scale_step
from repro.graphs.graph import WeightedGraph
from repro.measurements.generator import MeasurementSet
from repro.obs.tracing import set_attributes, span as obs_span
from repro.stream.drift import DriftDecision, DriftDetector

__all__ = ["OnlineSGLearner", "StreamUpdate"]


@dataclass(frozen=True)
class StreamUpdate:
    """Outcome of one accepted measurement batch.

    Attributes
    ----------
    index:
        0-based update counter (the initial :meth:`OnlineSGLearner.fit`
        is index 0 with mode ``"initial"``).
    mode:
        ``"initial"``, ``"incremental"`` or ``"refit"``.
    decision:
        The drift decision that chose the path (``None`` for the initial fit).
    graph:
        The scaled learned graph after this update.
    scaling_factor:
        Step-5 global conductance factor applied for this update.
    n_edges_added:
        Edges added to the learned topology by this update.
    max_sensitivity:
        Largest remaining candidate-edge sensitivity after the update.
    stop_reason:
        Why the update's densification stopped, one of
        :data:`repro.core.sgl.STOP_REASONS` (``"max_iterations"`` on an
        incremental update means ``incremental_iterations`` ran out).
    version:
        The registry snapshot published for this update (``None`` without a
        registry).
    timings:
        Per-stage wall-clock for this update only.
    wall_seconds:
        Total wall-clock of the update.
    """

    index: int
    mode: str
    decision: DriftDecision | None
    graph: WeightedGraph
    scaling_factor: float
    n_edges_added: int
    max_sensitivity: float
    stop_reason: str = "max_iterations"
    version: object | None = None
    timings: StageTimings = field(default_factory=StageTimings)
    wall_seconds: float = 0.0


class OnlineSGLearner:
    """Incremental SGL over measurement batches (see module docstring).

    Parameters
    ----------
    config:
        The :class:`~repro.core.SGLConfig` for full (re)fits; keyword
        overrides may be passed instead, as with ``SGLearner``.  The online
        path requires the warm-capable incremental engine, so
        ``embedding_engine`` must not be ``"stateless"``.
    drift:
        The refit/incremental decision policy; a default
        :class:`~repro.stream.DriftDetector` is built otherwise.
    registry:
        Optional :class:`~repro.artifacts.ModelRegistry`; when given, every
        accepted update publishes a versioned snapshot under ``model_name``
        with lineage back to the previous snapshot.
    model_name:
        Registry name snapshots are published under.
    max_window:
        Keep at most this many newest measurement columns (``None`` =
        unbounded).  Bounds both refit cost and memory over a long stream.
    incremental_iterations:
        Densification mini-iterations per incremental update.
    degradation_ratio:
        After an incremental pass, residual max sensitivity above
        ``degradation_ratio * max(tol, last refit's final sensitivity)``
        flags objective degradation, forcing a refit on the next update
        (``None`` disables the check).
    """

    def __init__(
        self,
        config: SGLConfig | None = None,
        *,
        drift: DriftDetector | None = None,
        registry=None,
        model_name: str = "online",
        max_window: int | None = None,
        incremental_iterations: int = 2,
        degradation_ratio: float | None = 25.0,
        **overrides,
    ) -> None:
        if config is None:
            config = SGLConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        if config.embedding_engine == "stateless":
            raise ValueError(
                "OnlineSGLearner needs a warm-capable engine; "
                "use embedding_engine='incremental' or 'multilevel'"
            )
        if max_window is not None and max_window < 1:
            raise ValueError("max_window must be positive")
        if incremental_iterations < 1:
            raise ValueError("incremental_iterations must be positive")
        self.config = config
        self.drift = drift if drift is not None else DriftDetector()
        self.registry = registry
        self.model_name = model_name
        self.max_window = max_window
        self.incremental_iterations = int(incremental_iterations)
        self.degradation_ratio = degradation_ratio

        self._voltages: np.ndarray | None = None
        self._currents: np.ndarray | None = None
        # Densification kernel over the unscaled working topology.
        self._kernel: Densifier | None = None
        self._scaled_graph: WeightedGraph | None = None
        self._scaling_factor = 1.0
        self._candidates: WeightedGraph | None = None
        self._refit_sensitivity = config.tol
        self._last_result: SGLResult | None = None
        self._version = None
        self._n_updates = 0
        self.updates: list[StreamUpdate] = []

    # ------------------------------------------------------------------
    @property
    def graph(self) -> WeightedGraph:
        """The current scaled learned graph."""
        if self._scaled_graph is None:
            raise RuntimeError("call fit() before reading the learned graph")
        return self._scaled_graph

    @property
    def embedding(self):
        """The :class:`~repro.embedding.SpectralEmbedding` of the unscaled working graph."""
        if self._kernel is None:
            raise RuntimeError("call fit() before reading the embedding")
        return self._kernel.embedding

    @property
    def window(self) -> MeasurementSet:
        """The current measurement window as a :class:`MeasurementSet`."""
        if self._voltages is None:
            raise RuntimeError("call fit() before reading the window")
        return MeasurementSet(self._voltages, self._currents)

    @property
    def last_version(self):
        """The most recently published registry snapshot (or ``None``)."""
        return self._version

    @property
    def n_updates(self) -> int:
        """Accepted updates so far, the initial fit included."""
        return self._n_updates

    # ------------------------------------------------------------------
    def _append_window(self, batch: MeasurementSet) -> None:
        if self._voltages is None:
            self._voltages = batch.voltages.copy()
            self._currents = None if batch.currents is None else batch.currents.copy()
        else:
            if batch.n_nodes != self._voltages.shape[0]:
                raise ValueError("batch node count does not match the window")
            self._voltages = np.concatenate([self._voltages, batch.voltages], axis=1)
            if self._currents is not None and batch.currents is not None:
                self._currents = np.concatenate(
                    [self._currents, batch.currents], axis=1
                )
            else:
                self._currents = None
        if self.max_window is not None and self._voltages.shape[1] > self.max_window:
            self._voltages = self._voltages[:, -self.max_window :]
            if self._currents is not None:
                self._currents = self._currents[:, -self.max_window :]

    def _refit(self, timings: StageTimings) -> tuple[SGLHistory, int, str]:
        """Full batch fit of the window; rebuilds the kernel from its graph.

        Returns the fit's history, the edges it added and why it stopped.
        """
        config = self.config
        result = SGLearner(config).fit(self.window, timings=timings)
        self._last_result = result
        self._scaled_graph = result.graph
        self._scaling_factor = result.scaling_factor
        self._candidates = result.knn_graph
        pool_mask = ~result.unscaled_graph.has_edges(self._candidates.edges)
        # Updates need warm refreshes, so the stream always runs the
        # incremental engine, seeded by one cold solve of the refit graph.
        self._kernel = Densifier(
            config,
            result.unscaled_graph,
            self._candidates.edges[pool_mask],
            self._candidates.weights[pool_mask].copy(),
            build_engine(config, "incremental"),
        )
        self._kernel.refresh()
        self._refit_sensitivity = max(config.tol, _last_sensitivity(result.history))
        self.drift.reset(self.window, self._scaled_graph)
        n_added = result.graph.n_edges - result.initial_graph.n_edges
        return result.history, n_added, result.stop_reason

    def _incremental_pass(self, timings: StageTimings) -> tuple[SGLHistory, int, str]:
        """Bounded densification against the current window (no cold solve).

        Returns the pass's history, the edges it added and why it stopped
        (``"max_iterations"`` is ``incremental_iterations`` running out).
        """
        kernel = self._kernel
        stop_reason = kernel.run(self.incremental_iterations, self._voltages, timings)
        # The next pass and the published snapshot need the final graph's
        # embedding: a warm refresh keyed to the edges just added.
        kernel.refresh(timings)
        self._scaled_graph, self._scaling_factor, _ = scale_step(
            self.config, kernel.graph, self._voltages, self._currents, None, timings
        )
        if (
            self.degradation_ratio is not None
            and _last_sensitivity(kernel.history)
            > self.degradation_ratio * self._refit_sensitivity
        ):
            self.drift.flag_degradation()
        n_added = sum(record.n_edges_added for record in kernel.history.records)
        return kernel.history, n_added, stop_reason

    def _publish(self, timings: StageTimings, mode: str, decision: DriftDecision | None,
                 outcome: tuple[SGLHistory, int, str]) -> object | None:
        if self.registry is None:
            return None
        history, _, stop_reason = outcome
        with timings.stage("publish"):
            # The engine embeds the unscaled working graph; the artifact
            # stores the Step-5 scaled one, whose Laplacian eigenvalues are
            # the unscaled ones times the scaling factor.
            final = self._kernel.final_embedding
            snapshot = SGLResult(
                graph=self._scaled_graph,
                unscaled_graph=self._kernel.graph,
                initial_graph=self._last_result.initial_graph,
                knn_graph=self._candidates,
                history=history,
                converged=True,
                scaling_factor=self._scaling_factor,
                config=self.config,
                timings=timings,
                engine_stats=self._kernel.engine.stats.as_dict(),
                embedding=None if final is None else final.rescaled(self._scaling_factor),
                stop_reason=stop_reason,
            )
            metadata = {
                "stream": {
                    "update": self._n_updates,
                    "mode": mode,
                    "decision": None if decision is None else decision.as_dict(),
                    "window_measurements": int(self._voltages.shape[1]),
                }
            }
            self._version = self.registry.publish(
                snapshot,
                self.model_name,
                parent=self._version,
                metadata=metadata,
            )
        return self._version

    def _accept(self, mode: str, decision: DriftDecision | None,
                outcome: tuple[SGLHistory, int, str], version, timings: StageTimings,
                start: float) -> StreamUpdate:
        history, n_added, stop_reason = outcome
        update = StreamUpdate(
            index=self._n_updates,
            mode=mode,
            decision=decision,
            graph=self._scaled_graph,
            scaling_factor=self._scaling_factor,
            n_edges_added=n_added,
            max_sensitivity=_last_sensitivity(history),
            stop_reason=stop_reason,
            version=version,
            timings=timings,
            wall_seconds=time.perf_counter() - start,
        )
        self._n_updates += 1
        self.updates.append(update)
        return update

    # ------------------------------------------------------------------
    def fit(self, measurements: MeasurementSet) -> StreamUpdate:
        """Learn the initial graph from the first measurement window."""
        if self._kernel is not None:
            raise RuntimeError("fit() already ran; use update() for new batches")
        start = time.perf_counter()
        timings = StageTimings()
        with obs_span("stream.fit", n_nodes=measurements.n_nodes):
            self._append_window(measurements)
            outcome = self._refit(timings)
            version = self._publish(timings, "initial", None, outcome)
        return self._accept("initial", None, outcome, version, timings, start)

    def update(self, new_measurements: MeasurementSet) -> StreamUpdate:
        """Fold one new measurement batch into the learned graph."""
        if self._kernel is None:
            raise RuntimeError("call fit() with the initial window first")
        start = time.perf_counter()
        timings = StageTimings()
        with obs_span(
            "stream.update",
            update=self._n_updates,
            n_new=new_measurements.n_measurements,
        ):
            with timings.stage("drift_check"):
                decision = self.drift.assess(new_measurements)
            self._append_window(new_measurements)
            if decision.refit:
                mode, outcome = "refit", self._refit(timings)
            else:
                mode, outcome = "incremental", self._incremental_pass(timings)
            version = self._publish(timings, mode, decision, outcome)
            set_attributes(
                mode=mode,
                reason=decision.reason,
                n_edges_added=outcome[1],
                max_sensitivity=_last_sensitivity(outcome[0]),
                version=None if version is None else version.version,
            )
        return self._accept(mode, decision, outcome, version, timings, start)


def _last_sensitivity(history: SGLHistory) -> float:
    """The last recorded maximum sensitivity (0.0 for an empty history)."""
    return history.records[-1].max_sensitivity if len(history) else 0.0
