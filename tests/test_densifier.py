"""The one densification kernel and the engine protocol behind it.

``SGLearner``, ``OnlineSGLearner`` and the sharded learner's stitch all run
Algorithm 1's step through :class:`repro.core.sgl.Densifier`.  These tests
pin what the three callers share:

* every stop reason is reachable from every caller and engine, and the
  caller keeps an embedding exactly when the graph did not change after the
  last refresh and the engine's embedding is exact-grade;
* the stitch honours ``sensitivity_samples`` like the other two callers;
* the engines time themselves (``embedding`` / ``embedding_warm`` for the
  incremental engine) and report whether their embedding is exact-grade.
"""

import numpy as np
import pytest

import repro.core.sgl as sgl_module
from repro.artifacts import ModelRegistry, load_result
from repro.core.config import SGLConfig
from repro.core.instrumentation import StageTimings
from repro.core.sgl import STOP_REASONS, Densifier, SGLearner, build_engine
from repro.embedding import (
    EmbeddingEngine,
    MultilevelEmbeddingEngine,
    StatelessEngine,
)
from repro.graphs.generators import grid_2d
from repro.measurements import simulate_measurements
from repro.measurements.generator import MeasurementSet
from repro.partition import ShardedSGLearner
from repro.stream import DriftDetector, OnlineSGLearner

#: Sensitivities forced onto every pool so each stop reason is reached on
#: purpose: all below ``tol``; all exactly ``tol`` (nothing passes, the
#: maximum does not fall below it); all above ``tol`` with a one-step
#: budget, or with a budget large enough to drain the pool.
FORCED = {
    "tol": (lambda tol: 0.0, 50),
    "no_progress": (lambda tol: tol, 50),
    "max_iterations": (lambda tol: 1.0, 1),
    "pool_exhausted": (lambda tol: 1.0, 10_000),
}

CALLERS = [
    ("sgl", "incremental"),
    ("sgl", "multilevel"),
    ("sgl", "stateless"),
    ("stream", "incremental"),
    ("stream", "multilevel"),
    ("stitch", "incremental"),
    ("stitch", "multilevel"),
    ("stitch", "stateless"),
]


@pytest.fixture(scope="module")
def data():
    return simulate_measurements(grid_2d(12, 12), n_measurements=40, seed=0)


def force_sensitivities(monkeypatch, value):
    monkeypatch.setattr(
        sgl_module,
        "edge_sensitivities",
        lambda embedding, voltages, edges, **kw: np.full(len(edges), value),
    )


def run_sgl(engine, budget, data, force, tmp_path):
    force()
    result = SGLearner(beta=0.05, embedding_engine=engine, max_iterations=budget).fit(data)
    return result.stop_reason, result.embedding is not None


def run_stream(engine, budget, data, force, tmp_path):
    # A detector that never asks for a refit: every update is incremental.
    never = DriftDetector(residual_threshold=1e12, novelty_margin=1.0, energy_threshold=1e12)
    learner = OnlineSGLearner(
        beta=0.05,
        embedding_engine=engine,
        drift=never,
        registry=ModelRegistry(tmp_path / "registry"),
        model_name="grid",
        incremental_iterations=budget,
        degradation_ratio=None,
    )
    half = data.n_measurements // 2
    learner.fit(MeasurementSet(data.voltages[:, :half], data.currents[:, :half]))
    force()
    update = learner.update(MeasurementSet(data.voltages[:, half:], data.currents[:, half:]))
    assert update.mode == "incremental"
    meta = load_result(update.version.path).meta
    assert meta["stop_reason"] == update.stop_reason
    return update.stop_reason, meta["embedding_source"] == "fit"


def run_stitch(engine, budget, data, force, tmp_path):
    force()
    result = ShardedSGLearner(
        beta=0.05, embedding_engine=engine, num_parts=2, stitch_sweeps=budget
    ).fit(data)
    assert len(result.stitch_stats["correction_edges"]) <= budget
    return result.stop_reason, result.embedding is not None


RUNNERS = {"sgl": run_sgl, "stream": run_stream, "stitch": run_stitch}


@pytest.mark.parametrize("stop", STOP_REASONS)
@pytest.mark.parametrize("caller, engine", CALLERS)
def test_every_caller_reaches_every_stop(caller, engine, stop, data, monkeypatch, tmp_path):
    value, budget = FORCED[stop]
    tol = SGLConfig().tol
    force = lambda: force_sensitivities(monkeypatch, value(tol))  # noqa: E731
    reason, kept = RUNNERS[caller](engine, budget, data, force, tmp_path)
    assert reason == stop
    if caller == "stream":
        # The stream refreshes after its last step (the next pass starts
        # from that embedding), always on the exact incremental engine.
        expected = True
    else:
        expected = stop in ("tol", "no_progress") and engine != "multilevel"
    assert kept == expected


def test_stitch_honours_sensitivity_samples(data, monkeypatch):
    calls = []
    real = sgl_module.edge_sensitivities

    def recording(embedding, voltages, edges, **kw):
        calls.append(kw.get("n_samples"))
        return real(embedding, voltages, edges, **kw)

    monkeypatch.setattr(sgl_module, "edge_sensitivities", recording)
    result = ShardedSGLearner(beta=0.05, sensitivity_samples=4, num_parts=2).fit(data)
    shard_calls = sum(r.n_iterations for r in result.shard_results)
    stitch_calls = len(result.stitch_stats["correction_edges"])
    assert stitch_calls >= 1
    assert calls == [4] * (shard_calls + stitch_calls)


def test_incremental_fit_splits_cold_and_warm_embedding_stages():
    data = simulate_measurements(grid_2d(16, 16), n_measurements=40, seed=0)
    result = SGLearner(beta=0.02).fit(data)
    stats = result.engine_stats
    stages = result.timings.stages
    assert stages["embedding"].calls == stats["cold_solves"] >= 1
    assert stages["embedding_warm"].calls == (
        stats["warm_rayleigh_ritz"] + stats["warm_inverse"]
    ) >= 1
    assert stats["refreshes"] == result.n_iterations


def test_engine_records_its_own_stages():
    graph = grid_2d(12, 12)
    timings = StageTimings()
    engine = EmbeddingEngine(r=3, warm_min_nodes=16)
    engine.refresh(graph, timings=timings)
    denser = graph.add_edges([(0, 50)], [1.0])
    engine.refresh(denser, np.array([[0, 50]]), timings=timings)
    assert timings.stages["embedding"].calls == 1
    assert timings.stages["embedding_warm"].calls == 1
    StatelessEngine(r=3).refresh(graph, timings=timings)
    assert timings.stages["embedding"].calls == 2
    # Without timings nothing is recorded.
    engine.refresh(graph)
    StatelessEngine(r=3).refresh(graph)
    assert {name: stat.calls for name, stat in timings.stages.items()} == {
        "embedding": 2,
        "embedding_warm": 1,
    }


def test_exact_grade_rule():
    graph = grid_2d(12, 12)
    exact = EmbeddingEngine(r=3)
    exact.refresh(graph)
    assert exact.exact_grade
    coarse = EmbeddingEngine(r=3, method="multilevel", multilevel_coarse_size=40)
    coarse.refresh(graph)
    assert coarse.last_mode == "cold" and not coarse.exact_grade
    assert not MultilevelEmbeddingEngine(r=3).exact_grade
    assert StatelessEngine(r=3).exact_grade
    assert not StatelessEngine(r=3, method="multilevel").exact_grade


@pytest.mark.parametrize(
    "kind, cls",
    [
        ("incremental", EmbeddingEngine),
        ("multilevel", MultilevelEmbeddingEngine),
        ("stateless", StatelessEngine),
    ],
)
def test_build_engine_follows_the_config(kind, cls):
    config = SGLConfig(embedding_engine=kind, r=4)
    assert isinstance(build_engine(config), cls)
    assert isinstance(build_engine(config, "stateless"), StatelessEngine)


def test_kernel_refreshes_lazily(data):
    config = SGLConfig(beta=0.05)
    calls = []

    class Recording(StatelessEngine):
        def refresh(self, graph, added_edges=None, *, timings=None):
            calls.append(None if added_edges is None else len(added_edges))
            return super().refresh(graph, added_edges, timings=timings)

    fitted = SGLearner(config).fit(data)
    tree, candidates = fitted.initial_graph, fitted.knn_graph
    fresh = ~tree.has_edges(candidates.edges)
    kernel = Densifier(
        config, tree, candidates.edges[fresh], candidates.weights[fresh],
        Recording(config.r),
    )
    assert kernel.run(2, data.voltages) == "max_iterations"
    # Two steps, two refreshes: the second one keyed to the first batch; the
    # second batch is not embedded until someone asks.
    assert calls == [None, kernel.history.records[0].n_edges_added]
    assert kernel.final_embedding is None
    kernel.refresh()
    assert calls[-1] == kernel.history.records[1].n_edges_added
    assert kernel.final_embedding is kernel.embedding
