"""Tests for zero-downtime serving: re-save invalidation, registry
references, and the ``follow`` hot-swap loop."""

import asyncio
import threading

import numpy as np
import pytest

from repro.artifacts import ModelRegistry, save_result
from repro.core.sgl import learn_graph
from repro.graphs.generators import grid_2d
from repro.measurements.generator import simulate_measurements
from repro.serve import GraphService


@pytest.fixture(scope="module")
def model_a():
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=0)
    return learn_graph(data, beta=0.05)


@pytest.fixture(scope="module")
def model_b():
    # Same graph family and size, different measurements and beta: a
    # genuinely different learned model (different checksum).
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=7)
    return learn_graph(data, beta=0.1)


def pairs(n=32, seed=0):
    rng = np.random.default_rng(seed)
    first = rng.integers(0, 49, size=n)
    second = (first + 1 + rng.integers(0, 47, size=n)) % 49
    return np.column_stack([first, second])


class TestStaleSessionInvalidation:
    def test_resave_at_same_path_serves_the_new_model(
        self, model_a, model_b, tmp_path
    ):
        # Regression: a model re-saved at the same path used to keep
        # serving the stale cached session forever.
        path = tmp_path / "model.npz"
        save_result(model_a, path)
        service = GraphService()
        first = service.warm(path)
        assert first.checksum == service.warm(path).checksum  # cache hit

        save_result(model_b, path)
        second = service.warm(path)
        assert second.checksum != first.checksum
        assert second.graph == model_b.graph
        # The orphaned stale session is dropped, not leaked.
        assert service.stats()["sessions"]["loaded"] == 1
        assert service.stats()["metrics"]["counters"]["serve.cache.invalidations"] >= 1
        service.close()

    def test_two_paths_one_resaved_keeps_the_other(self, model_a, model_b, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_result(model_a, a)
        save_result(model_a, b)
        service = GraphService()
        service.warm(a)
        service.warm(b)  # same checksum: shared session
        assert service.stats()["sessions"]["loaded"] == 1

        save_result(model_b, a)
        service.warm(a)
        # b still maps to the old checksum, so the old session survives.
        assert service.stats()["sessions"]["loaded"] == 2
        assert service.warm(b).graph == model_a.graph
        service.close()

    def test_explicit_invalidate(self, model_a, tmp_path):
        path = tmp_path / "model.npz"
        save_result(model_a, path)
        service = GraphService()
        service.warm(path)
        assert service.invalidate(path)
        assert service.stats()["sessions"]["loaded"] == 0
        assert not service.invalidate(path)  # second call: nothing to drop
        service.close()


class TestRegistryReferences:
    def test_warm_by_ref_and_version_pinning(self, model_a, model_b, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(model_a, "grid")
        registry.publish(model_b, "grid", parent=v1)
        service = GraphService(registry=registry)
        latest = service.warm("grid@latest")
        pinned = service.warm("grid@1")
        assert latest.checksum != pinned.checksum
        assert latest.graph == model_b.graph
        assert pinned.graph == model_a.graph
        service.close()

    def test_ref_requires_registry(self, model_a, tmp_path):
        from repro.artifacts import ArtifactFormatError

        service = GraphService()
        with pytest.raises(ArtifactFormatError, match="grid@latest"):
            service.warm("grid@latest")  # treated as a (missing) path
        service.close()

    def test_follow_requires_registry(self):
        service = GraphService()
        with pytest.raises(ValueError, match="registry"):
            asyncio.run(service.follow("grid@latest"))
        service.close()

    def test_warm_by_ref_tracks_new_publishes(self, model_a, model_b, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid")
        service = GraphService(registry=registry)
        assert service.warm("grid@latest").graph == model_a.graph
        # A publish from a different registry handle (another process in
        # real life): warm("@latest") must pick it up via reload.
        ModelRegistry(tmp_path / "registry").publish(model_b, "grid")
        assert service.warm("grid@latest").graph == model_b.graph
        service.close()


class TestFollowHotSwap:
    def test_follow_swaps_without_failing_inflight_queries(
        self, model_a, model_b, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(model_a, "grid")
        service = GraphService(registry=registry)
        service.warm("grid@latest")
        swapped = []
        query_pairs = pairs()

        async def scenario():
            stop = asyncio.Event()
            follower = asyncio.create_task(
                service.follow(
                    "grid@latest",
                    poll_interval=0.05,
                    stop=stop,
                    on_swap=lambda session: swapped.append(session.checksum),
                )
            )
            publisher = threading.Timer(
                0.15, registry.publish, (model_b, "grid"), {"parent": v1}
            )
            publisher.start()
            failures = 0
            answered = 0
            deadline = asyncio.get_running_loop().time() + 3.0
            # The follower's first poll counts as the initial swap (to v1);
            # the one we are waiting for is the hot-swap to v2.
            while len(swapped) < 2 and asyncio.get_running_loop().time() < deadline:
                try:
                    results = await asyncio.gather(
                        *(
                            service.query("grid@latest", "resistance", tuple(pair))
                            for pair in query_pairs
                        )
                    )
                    assert np.all(np.asarray(results) >= 0)
                    answered += len(results)
                except Exception:
                    failures += 1
                await asyncio.sleep(0.01)
            # Drain a few more queries after the swap on the new session.
            for pair in query_pairs[:5]:
                await service.query("grid@latest", "resistance", tuple(pair))
                answered += 1
            stop.set()
            await follower
            publisher.join()
            return failures, answered

        failures, answered = asyncio.run(scenario())
        assert failures == 0
        assert answered >= 5
        assert swapped == [
            registry.get("grid@1").checksum,
            registry.get("grid@2").checksum,
        ]
        assert service.stats()["metrics"]["counters"]["serve.follow.swaps"] == 2
        service.close()

    def test_follow_stop_event_terminates_cleanly(self, model_a, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid")
        service = GraphService(registry=registry)

        async def scenario():
            stop = asyncio.Event()
            task = asyncio.create_task(
                service.follow("grid@latest", poll_interval=0.05, stop=stop)
            )
            await asyncio.sleep(0.2)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)

        asyncio.run(scenario())
        assert service.stats()["metrics"]["counters"].get("serve.follow.errors", 0) == 0
        service.close()

    def test_follow_survives_transient_resolve_errors(self, model_a, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        service = GraphService(registry=registry)

        async def scenario():
            stop = asyncio.Event()
            # "grid" does not exist yet: the follower must retry, not die.
            task = asyncio.create_task(
                service.follow("grid@latest", poll_interval=0.05, stop=stop)
            )
            await asyncio.sleep(0.15)
            registry.publish(model_a, "grid")
            deadline = asyncio.get_running_loop().time() + 3.0
            while asyncio.get_running_loop().time() < deadline:
                if service.stats()["metrics"]["counters"].get("serve.follow.swaps", 0):
                    break
                await asyncio.sleep(0.05)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)

        asyncio.run(scenario())
        stats = service.stats()["metrics"]["counters"]
        assert stats.get("serve.follow.errors", 0) >= 1
        assert stats.get("serve.follow.swaps", 0) == 1
        service.close()

    def test_follow_loads_only_new_versions(
        self, model_a, model_b, tmp_path, monkeypatch
    ):
        import repro.serve.service as service_module

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid")
        service = GraphService(registry=registry)
        loads = []
        real_load = service_module.load_result

        def counting_load(path, **kwargs):
            loads.append(str(path))
            return real_load(path, **kwargs)

        monkeypatch.setattr(service_module, "load_result", counting_load)
        polls = []
        real_reload = registry.reload

        def counting_reload():
            polls.append(1)
            real_reload()

        monkeypatch.setattr(registry, "reload", counting_reload)
        swapped = []

        async def scenario():
            stop = asyncio.Event()
            task = asyncio.create_task(
                service.follow(
                    "grid@latest",
                    poll_interval=0.005,
                    stop=stop,
                    on_swap=lambda session: swapped.append(session.checksum),
                )
            )
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(polls) < 20 and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            unchanged_loads = len(loads)
            ModelRegistry(tmp_path / "registry").publish(model_b, "grid")
            while len(swapped) < 2 and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)
            return unchanged_loads

        unchanged_loads = asyncio.run(scenario())
        assert len(polls) >= 20
        # An unchanged reference is loaded once however often it is polled;
        # the new publish is loaded (and validated) once more and swapped in.
        assert unchanged_loads == 1
        assert len(loads) == 2
        assert swapped == [
            registry.get("grid@1").checksum,
            registry.get("grid@2").checksum,
        ]
        assert service.stats()["follow"]["errors"] == {"unresolved": 0, "load": 0}
        service.close()

    def test_follow_errors_keep_a_reason_and_the_last_error(
        self, model_a, tmp_path, monkeypatch
    ):
        import repro.serve.service as service_module
        from repro.artifacts import ArtifactFormatError

        registry = ModelRegistry(tmp_path / "registry")
        service = GraphService(registry=registry)
        real_load = service_module.load_result
        failures = [ArtifactFormatError("torn artifact")]

        def flaky_load(path, **kwargs):
            if failures:
                raise failures.pop()
            return real_load(path, **kwargs)

        monkeypatch.setattr(service_module, "load_result", flaky_load)

        async def scenario():
            stop = asyncio.Event()
            task = asyncio.create_task(
                service.follow("grid@latest", poll_interval=0.02, stop=stop)
            )
            await asyncio.sleep(0.1)  # "grid" is not published yet
            registry.publish(model_a, "grid")
            deadline = asyncio.get_running_loop().time() + 3.0
            while asyncio.get_running_loop().time() < deadline:
                if service.stats()["metrics"]["counters"].get("serve.follow.swaps", 0):
                    break
                await asyncio.sleep(0.02)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)

        asyncio.run(scenario())
        stats = service.stats()
        errors = stats["follow"]["errors"]
        assert errors["unresolved"] >= 1 and errors["load"] == 1
        assert stats["follow"]["last_error"] == {
            "reason": "load",
            "error": "ArtifactFormatError: torn artifact",
        }
        counters = stats["metrics"]["counters"]
        assert counters["serve.follow.errors"] == errors["unresolved"] + 1
        assert counters["serve.follow.errors.load"] == 1
        assert counters["serve.follow.swaps"] == 1
        service.close()


class TestMmapServing:
    def test_service_answers_from_mmapped_artifact(self, model_a, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid", compress=False)
        service = GraphService(registry=registry, mmap_mode="r")
        session = service.warm("grid@latest")

        async def run():
            return await asyncio.gather(
                *(
                    service.query("grid@latest", "resistance", tuple(pair))
                    for pair in pairs(8)
                )
            )

        assert np.all(np.asarray(asyncio.run(run())) > 0)
        assert session.graph == model_a.graph
        service.close()
