"""The artifact embedding is the fit's own: stop reasons, reuse and accuracy.

A fit that stops without changing its graph after the last refresh already
holds the spectral embedding of the final graph; Step 5 only rescales its
eigenvalues.  ``save_result`` / ``ModelRegistry.publish`` store that
embedding instead of solving the eigenproblem again, and fall back to a cold
solve only when the fit has none.  These tests pin

* which stop path leaves an embedding behind (every ``stop_reason``);
* that publishing a fitted result needs no eigensolve at all;
* that the reused embedding matches a cold solve of the stored (scaled)
  graph on the paper's five medium families, for every engine path and the
  sharded learner;
* that the stream learner publishes the embedding of the scaled graph it
  stores, not of its unscaled working graph.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import repro.core.sgl as sgl_module
import repro.embedding.spectral as spectral_module
from repro.artifacts import ModelRegistry, load_result, save_result
from repro.bench.registry import get_scenario
from repro.core.sgl import STOP_REASONS, SGLearner
from repro.embedding import spectral_embedding_matrix
from repro.graphs.generators import fe_mesh, grid_2d
from repro.measurements import simulate_measurements
from repro.metrics.resistance import sample_node_pairs
from repro.partition import ShardedSGLearner
from repro.stream import MeasurementStream, OnlineSGLearner

MEDIUM_FAMILIES = ("grid_2d", "circuit", "airfoil", "crack", "fem")
MAX_ANGLE_DEG = 1.0
MAX_EIGENVALUE_RELERR = 1e-3


@pytest.fixture(scope="module")
def grid_data():
    return simulate_measurements(grid_2d(10, 10), n_measurements=30, seed=0)


def cold_embedding(graph, config):
    """What ``save_result`` solves when the fit has no embedding."""
    return spectral_embedding_matrix(
        graph,
        config.r,
        sigma_sq=config.sigma_sq,
        method=config.eigensolver,
        seed=config.seed,
        multilevel_coarse_size=config.multilevel_coarse_size,
    )


def assert_matches_cold_solve(embedding, graph, config):
    cold = cold_embedding(graph, config)
    angle = np.degrees(
        scipy.linalg.subspace_angles(cold.eigenvectors, embedding.eigenvectors).max()
    )
    relerr = np.max(np.abs(embedding.eigenvalues - cold.eigenvalues) / cold.eigenvalues)
    assert angle <= MAX_ANGLE_DEG, angle
    assert relerr <= MAX_EIGENVALUE_RELERR, relerr


def forbid_eigensolves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("publish ran an eigensolve")

    monkeypatch.setattr(spectral_module, "spectral_embedding_matrix", refuse)


# ----------------------------------------------------------------------
# Stop reasons: each path, and whether it leaves an embedding behind
# ----------------------------------------------------------------------
class TestStopReasons:
    def test_tol_keeps_the_scaled_embedding(self, grid_data):
        result = SGLearner(beta=0.05).fit(grid_data)
        assert result.stop_reason == "tol" and result.converged
        assert result.scaling_factor != 1.0
        assert result.embedding is not None
        assert_matches_cold_solve(result.embedding, result.graph, result.config)

    def test_no_progress_keeps_the_embedding(self, grid_data, monkeypatch):
        # Every sensitivity exactly at tol: the maximum does not fall below
        # it, yet no candidate passes it, so the loop stops unchanged.
        tol = SGLearner().config.tol
        monkeypatch.setattr(
            sgl_module,
            "edge_sensitivities",
            lambda embedding, voltages, edges, **kw: np.full(len(edges), tol),
        )
        result = SGLearner(beta=0.05).fit(grid_data)
        assert result.stop_reason == "no_progress" and result.converged
        assert result.n_iterations == 1
        assert result.embedding is not None
        assert_matches_cold_solve(result.embedding, result.graph, result.config)

    def test_pool_exhausted_has_no_embedding(self, grid_data):
        # Starting from the whole kNN graph leaves no candidate to add.
        result = SGLearner(beta=0.05, initial_graph="knn").fit(grid_data)
        assert result.stop_reason == "pool_exhausted" and result.converged
        assert result.embedding is None

    def test_max_iterations_has_no_embedding(self, grid_data):
        result = SGLearner(beta=0.05, max_iterations=1).fit(grid_data)
        assert result.stop_reason == "max_iterations" and not result.converged
        assert result.embedding is None


# ----------------------------------------------------------------------
# Publishing reuses the fit's embedding
# ----------------------------------------------------------------------
class TestPublishReuse:
    def test_save_and_publish_need_no_eigensolve(self, grid_data, tmp_path, monkeypatch):
        result = SGLearner(beta=0.05).fit(grid_data)
        forbid_eigensolves(monkeypatch)
        loaded = load_result(save_result(result, tmp_path / "model.npz"))
        np.testing.assert_array_equal(loaded.embedding, result.embedding.coordinates)
        assert loaded.graph == result.graph
        assert loaded.meta["embedding_source"] == "fit"
        assert loaded.meta["stop_reason"] == "tol"

        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(result, "grid")
        published = load_result(version.path)
        np.testing.assert_array_equal(published.embedding, result.embedding.coordinates)
        assert published.checksum == version.checksum

    def test_max_iterations_falls_back_to_a_cold_solve(self, grid_data, tmp_path):
        result = SGLearner(beta=0.05, max_iterations=1).fit(grid_data)
        loaded = load_result(save_result(result, tmp_path / "model.npz"))
        assert loaded.meta["embedding_source"] == "save"
        assert loaded.meta["stop_reason"] == "max_iterations"
        expected = cold_embedding(result.graph, result.config).coordinates
        np.testing.assert_allclose(loaded.embedding, expected)

    def test_explicit_embedding_and_none_are_labelled(self, grid_data, tmp_path):
        result = SGLearner(beta=0.05).fit(grid_data)
        explicit = np.zeros((result.graph.n_nodes, 2))
        loaded = load_result(save_result(result, tmp_path / "a.npz", embedding=explicit))
        assert loaded.meta["embedding_source"] == "explicit"
        loaded = load_result(
            save_result(result, tmp_path / "b.npz", include_embedding=False)
        )
        assert loaded.meta["embedding_source"] is None and not loaded.has_embedding


# ----------------------------------------------------------------------
# Accuracy on the five medium families, every engine path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=MEDIUM_FAMILIES)
def medium_case(request):
    spec = get_scenario(f"{request.param}/medium")
    truth = spec.build_graph()
    return spec.make_config(truth.n_nodes), spec.build_measurements(truth)


@pytest.mark.parametrize("engine", ["incremental", "stateless"])
def test_reused_embedding_matches_cold_solve(medium_case, engine):
    config, data = medium_case
    result = SGLearner(dataclasses.replace(config, embedding_engine=engine)).fit(data)
    assert result.stop_reason == "tol"
    assert result.embedding is not None
    assert_matches_cold_solve(result.embedding, result.graph, result.config)


def test_sharded_reused_embedding_matches_cold_solve(medium_case):
    config, data = medium_case
    result = ShardedSGLearner(config, num_parts=4).fit(data)
    assert result.stop_reason == "tol"
    assert result.embedding is not None
    assert_matches_cold_solve(result.embedding, result.graph, result.config)


def test_multilevel_publishes_a_cold_solve(tmp_path):
    # The multilevel engine's refinements miss the bounds above (up to ~2
    # degrees on medium meshes), so its fits keep no embedding and the
    # artifact gets the cold solve.
    spec = get_scenario("fem/medium")
    truth = spec.build_graph()
    config = dataclasses.replace(
        spec.make_config(truth.n_nodes), embedding_engine="multilevel"
    )
    result = SGLearner(config).fit(spec.build_measurements(truth))
    assert result.stop_reason == "tol" and result.embedding is None
    loaded = load_result(save_result(result, tmp_path / "model.npz"))
    assert loaded.meta["embedding_source"] == "save"


# ----------------------------------------------------------------------
# Stream publishes the embedding of the scaled graph it stores
# ----------------------------------------------------------------------
def test_stream_artifact_embedding_describes_the_stored_graph(tmp_path):
    truth = fe_mesh(1600, seed=3)
    stream = MeasurementStream(truth, batch_size=20, seed=0)
    registry = ModelRegistry(tmp_path / "registry")
    learner = OnlineSGLearner(registry=registry, model_name="mesh", max_window=60)
    updates = [learner.fit(stream.next_batch())]
    updates += [learner.update(stream.next_batch()) for _ in range(3)]
    assert {u.mode for u in updates} >= {"initial", "incremental"}
    for update in updates:
        artifact = load_result(update.version.path)
        assert update.scaling_factor != 1.0
        assert artifact.meta["embedding_source"] == "fit"
        assert artifact.meta["stop_reason"] in STOP_REASONS
        pairs = sample_node_pairs(artifact.n_nodes, 300, seed=1)
        cold = cold_embedding(artifact.graph, artifact.config)

        def distances(coordinates):
            diffs = coordinates[pairs[:, 0]] - coordinates[pairs[:, 1]]
            return np.einsum("ij,ij->i", diffs, diffs)

        np.testing.assert_allclose(
            distances(artifact.embedding), distances(cold.coordinates), rtol=0.01
        )
