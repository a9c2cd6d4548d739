"""The three workloads: what each sets up, runs, times and checks.

Every workload drives ``repro`` only through public calls and a server
process (``server.py``) only over TCP, through the load generator process
(``loadgen.py``).  Inputs come from ``repro.graphs.generators``,
``simulate_measurements`` and ``MeasurementStream``: every workload learns
the same FEM mesh, and the run seed draws everything measured on it
(excitation currents, stream drift, query pairs and request mixes).

Each workload alternates, for the whole measured window, between its
write side (fit -> publish -> served, or a segment of stream updates under
a reader) and short serving phases on one fixed, warmed model.  Every
metric is therefore sampled all through the window, so a slow phase of the
host reaches all of them in the same share instead of landing on one.
"""

from __future__ import annotations

import math
import os
import shutil
import time

import numpy as np

from procs import LoadGen, Server

#: Quality floors every learned (or served) graph must meet.  SGL output is
#: a spanning tree plus few edges, so density sits just above 1.
DENSITY_RANGE = (0.99, 1.5)

#: Resistance correlation is evaluated on one fixed set of node pairs, so
#: that it measures the learned graph and not the pair draw.
EVAL_PAIRS = 2000

def fem_network():
    from repro.graphs.generators import fe_mesh

    # fem/medium: 4,000 points.
    return fe_mesh(4000, seed=3)


def eval_pairs(n: int):
    from repro.metrics.resistance import sample_node_pairs

    return sample_node_pairs(n, EVAL_PAIRS, seed=0)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
class Stack:
    """One set-up: a registry directory, a following server, a load generator.

    ``ref`` is the followed ``name@latest``; ``fixed`` is the pinned
    version every serving phase queries (set by ``serving_model``).
    """

    def __init__(self, run, name: str, rep: int) -> None:
        from repro.artifacts import ModelRegistry

        self.root = os.path.join(run.workdir, f"registry{rep}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.registry = ModelRegistry(self.root)
        self.ref = f"{name}@latest"
        self.fixed = None
        self.fixed_version = None
        # Both helpers start now and import while the set-up goes on.
        self.loadgen: LoadGen | None = None
        self.server = Server(run.src, self.root, self.ref, trace=run.traced)
        run.stacks.append(self)
        self.loadgen = LoadGen(run.src, run.conns)

    def connect(self) -> None:
        self.loadgen.connect(self.server.wait_ready())

    def close(self) -> dict:
        """Stop both helper processes; returns the server's final report."""
        if self.loadgen is not None:
            self.loadgen.close()
        return self.server.close()


def single_specs(pairs) -> list[dict]:
    """Single-pair resistance requests, as JSON lines."""
    return [{"kind": "resistance", "items": [[int(s), int(t)]], "proto": "json"} for s, t in pairs]


def mixed_specs(seed: int, session, count: int = 256) -> list[dict]:
    """Seeded multi-item requests with answers from an in-process session.

    The mix is fixed and the seed draws only the nodes, so that every seed
    asks for the same amount of work: in each run of four requests two are
    resistance, one neighbors and one labels; each kind cycles through 1-16
    items; blocks of 64 requests alternate JSON lines and binary frames.
    """
    rng = np.random.default_rng(seed)
    n = session.n_nodes
    specs = []
    for i in range(count):
        kind = ("resistance", "neighbors", "resistance", "labels")[i % 4]
        size = 1 + (i // 4) % 16
        if kind == "resistance":
            items = rng.integers(0, n, size=(size, 2))
            expect = session.effective_resistance(items).tolist()
        elif kind == "neighbors":
            items = rng.integers(0, n, size=size)
            expect = session.nearest_neighbors(items, k=5)[1].tolist()
        else:
            items = rng.integers(0, n, size=size)
            expect = session.cluster_labels(items, n_clusters=8).tolist()
        specs.append({
            "kind": kind, "items": items.tolist(),
            "proto": "json" if (i // 64) % 2 == 0 else "frame", "expect": expect,
        })
    return specs


def session_for(registry, version):
    from repro.artifacts import load_result
    from repro.serve import GraphSession

    return GraphSession(load_result(registry.resolve(version.ref)))


def warm_up(run, stack, specs) -> None:
    """Build the server's lazy per-model state (kNN index, clusterings).

    It is paid once per loaded model, not per request, so it is kept out
    of the latency samples.  One request of each kind, in turn: the first
    labels request computes the clustering while holding the session lock,
    which stalls every other query on that model for seconds.
    """
    first = {}
    for spec in specs:
        first.setdefault(spec["kind"], spec)
    for spec in first.values():
        result = stack.loadgen.call(
            "open_loop", ref=stack.fixed, rate=1.0, duration=1.0, specs=[spec], timeout=60.0
        )
        run.count_open_loop(result, f"warm-up {spec['kind']} request")


def serving_model(run, stack, version) -> list[dict]:
    """Pin ``version`` as the model every serving phase queries and warm it.

    Returns the seeded mixed request specs with their expected answers.
    """
    stack.fixed = version.ref
    stack.fixed_version = version
    specs = mixed_specs(run.seed, session_for(stack.registry, version))
    warm_up(run, stack, specs)
    return specs


def open_loop_probe(
    run, stack, specs, rate: float, duration: float, offset: int, what: str
) -> None:
    """Open-loop load on the fixed model; its latencies feed ``query_p50_ms``."""
    start = time.perf_counter()
    result = stack.loadgen.call(
        "open_loop", ref=stack.fixed, rate=rate, duration=duration, specs=specs,
        offset=offset, timeout=20.0,
    )
    run.count_open_loop(result, what)
    run.add_latencies(result, start, time.perf_counter())


def throughput_burst(run, stack, specs, duration: float, offset: int) -> None:
    """Closed-loop mixed requests on the fixed model over every connection.

    Each spec keeps its own protocol, so JSON lines and frames interleave.
    One ``throughput_rps`` sample: requests completed per second.
    """
    start = time.perf_counter()
    result = stack.loadgen.call(
        "closed_loop", ref=stack.fixed, specs=specs, duration=duration, offset=offset,
    )
    run.count(result["n"], result["n"] - result["ok"],
              f"throughput burst: {result['n'] - result['ok']} failed")
    run.sample("throughput_rps", result["rps"], (start, time.perf_counter()))


def truth_resistances(truth, pairs, solver=None):
    """Effective resistances of the ground truth on the quality pairs."""
    from repro.metrics.resistance import effective_resistance_batched

    return pairs, effective_resistance_batched(truth, pairs, solver=solver)


def quality(run, reference, session, *, record: bool = True) -> None:
    """Resistance correlation vs the truth on the evaluation pairs, and density.

    ``reference`` is ``truth_resistances(...)``; ``session`` serves the
    learned graph (its resistances are what the server answers with).
    """
    from repro.metrics.resistance import ResistanceComparison

    pairs, original = reference
    learned = session.effective_resistance(np.asarray(pairs))
    corr = ResistanceComparison(pairs, original, learned).correlation
    density = session.graph.density
    run.check(corr >= run.corr_floor, f"resistance correlation {corr:.3f} < {run.corr_floor}")
    low, high = DENSITY_RANGE
    run.check(low <= density <= high, f"density {density:.3f} outside {DENSITY_RANGE}")
    if record:
        run.sample("resistance_corr", corr)
        run.sample("density", density)


def await_served(
    run, stack, pair, old, started: float, published: float, *, record: bool = True
) -> float | None:
    """Wait until the server answers ``pair`` from the new version.

    Records ``time_to_serve_s`` (from ``started``) and
    ``publish_to_serve_s`` (from ``published``) unless ``record`` is off;
    returns the answer.
    """
    reply = stack.loadgen.call(
        "await_change", ref=stack.ref, pair=[int(pair[0]), int(pair[1])], old=old, timeout=60.0
    )
    if not run.check(reply["t"] is not None, "new version never served"):
        return None
    if record:
        run.sample("time_to_serve_s", reply["t"] - started, (started, reply["t"]))
        run.sample("publish_to_serve_s", reply["t"] - published, (published, reply["t"]))
    return reply["value"]


# ----------------------------------------------------------------------
# fit-mesh and fit-sharded: fit -> publish -> served over TCP, repeated
# ----------------------------------------------------------------------
class FitWorkload:
    """Repeated fits of fresh measurement sets on the FEM mesh.

    Each cycle fits one measurement set, publishes it and waits until the
    following server answers from it; then it serves the fixed model (the
    set-up fit): an open-loop mixed probe at ``probe_rate`` and a
    closed-loop throughput burst.
    """

    name = "fit-mesh"
    model = "mesh"
    corr_floor = 0.8
    min_cycles = 3
    probe_rate = 150.0
    probe_seconds = 0.25
    burst_seconds = 0.3

    def learner(self):
        from repro import SGLConfig, SGLearner

        return SGLearner(SGLConfig())

    def setup(self, run, rep: int):
        from repro import simulate_measurements
        from repro.linalg.solvers import LaplacianSolver
        from repro.metrics.resistance import sample_node_pairs

        stack = Stack(run, self.model, rep)
        self.truth = fem_network()
        self.solver = LaplacianSolver(self.truth)
        n = self.truth.n_nodes
        self.reference = truth_resistances(self.truth, eval_pairs(n), self.solver)
        self.check_pair = sample_node_pairs(n, 1, seed=run.seed + 1)[0]
        stack.connect()
        data = simulate_measurements(
            self.truth, 50, seed=run.seed * 1000 + 900 + rep, solver=self.solver
        )
        version = stack.registry.publish(self.learner().fit(data), self.model)
        self.old = await_served(run, stack, self.check_pair, None, 0.0, 0.0, record=False)
        session = session_for(stack.registry, version)
        quality(run, self.reference, session, record=False)
        self.specs = serving_model(run, stack, version)
        return stack

    def measure(self, run, stack) -> None:
        start = time.perf_counter()
        cycle = 0
        while cycle < self.min_cycles or time.perf_counter() - start < run.seconds:
            self.fit_cycle(run, stack, cycle)
            open_loop_probe(run, stack, self.specs, self.probe_rate, self.probe_seconds,
                            53 * cycle, f"cycle {cycle} probe")
            throughput_burst(run, stack, self.specs, self.burst_seconds, 37 * cycle)
            cycle += 1

    def fit_cycle(self, run, stack, cycle: int) -> None:
        from repro import simulate_measurements

        data = simulate_measurements(
            self.truth, 50, seed=run.seed * 1000 + cycle, solver=self.solver
        )
        run.calibrate()
        run.set_tracing(cycle)
        t0 = time.perf_counter()
        result = self.learner().fit(data)
        t_fit = time.perf_counter()
        version = stack.registry.publish(result, self.model)
        t_pub = time.perf_counter()
        run.set_tracing(None)
        run.unit_time(cycle, t_fit - t0)
        run.sample("fit_s", t_fit - t0, (t0, t_fit))
        run.sample("update_s", t_pub - t0, (t0, t_pub))
        run.versions.append(version)
        value = await_served(run, stack, self.check_pair, self.old, t0, t_pub)
        run.calibrate()
        # Checks after the timed part, on the published artifact.
        session = session_for(stack.registry, version)
        quality(run, self.reference, session)
        want = session.effective_resistance(np.asarray([self.check_pair]))[0]
        run.check(value is not None and abs(value - want) <= 1e-6 * want,
                  "first served answer does not match the new version")
        self.old = value


class ShardedWorkload(FitWorkload):
    name = "fit-sharded"
    model = "sharded"

    def learner(self):
        from repro import SGLConfig
        from repro.partition import ShardedSGLearner

        return ShardedSGLearner(SGLConfig(), num_parts=4, jobs=1)


# ----------------------------------------------------------------------
# stream-live: drifting batches -> online updates, each published, under reads
# ----------------------------------------------------------------------
class StreamWorkload:
    """Online updates on the FEM mesh while a single-item reader queries.

    The window is cut into segments.  In each, batches of a seeded drifting
    stream arrive on a fixed schedule, every update publishes a version the
    server follows, and the load generator reads at a fixed low rate the
    whole time; each answer must match a version whose publish had begun by
    the time it was answered.  Between segments a throughput burst runs on
    the fixed model (the last initial fit).
    """

    name = "stream-live"
    model = "online"
    corr_floor = 0.8
    fits_per_setup = 3
    batch_size = 10
    batch_interval = 0.5
    batches_per_segment = 4
    #: The next batch is drawn this long before it is due, outside the
    #: timed update and clear of the previous publish.
    batch_lead = 0.2
    #: The reader runs this long past a segment's last batch, so that the
    #: last version is seen.
    settle = 0.6
    max_window = 100
    reader_rate = 150.0
    burst_seconds = 0.6

    def setup(self, run, rep: int):
        from repro import SGLConfig, simulate_measurements
        from repro.metrics.resistance import sample_node_pairs
        from repro.stream import MeasurementStream, OnlineSGLearner

        stack = Stack(run, self.model, rep)
        self.truth = fem_network()
        n = self.truth.n_nodes
        self.stream = MeasurementStream(
            self.truth, self.batch_size, mode="drift", drift_rate=0.02, seed=run.seed
        )
        self.probe_pairs = sample_node_pairs(n, 64, seed=run.seed + 1)
        self.reader_specs = single_specs(self.probe_pairs)
        stack.connect()
        old = None
        for k in range(self.fits_per_setup):
            # A fresh learner per initial window; the last one is streamed.
            initial = simulate_measurements(
                self.truth, 50, seed=run.seed * 1000 + rep * self.fits_per_setup + k
            )
            self.learner = OnlineSGLearner(
                SGLConfig(), registry=stack.registry, model_name=self.model,
                max_window=self.max_window,
            )
            run.calibrate()
            run.set_tracing(0)
            t0 = time.perf_counter()
            update = self.learner.fit(initial)
            t_pub = time.perf_counter()
            run.set_tracing(None)
            run.sample("fit_s", t_pub - t0, (t0, t_pub))
            old = await_served(run, stack, self.probe_pairs[0], old, t0, t_pub, record=False)
        self.published = [(update.version, t0, t_pub)]
        self.specs = serving_model(run, stack, update.version)
        return stack

    def measure(self, run, stack) -> None:
        start = time.perf_counter()
        self.readers = []  # (reader result, segment start, segment end)
        self.due_times = []
        k = 0
        segment = 0
        while segment < 1 or time.perf_counter() - start < run.seconds:
            k = self.segment(run, stack, k)
            # The stream's pinned model may have left the server's session
            # cache while versions were swapping in; reload it untimed.
            warm_up(run, stack, self.specs)
            run.calibrate()
            throughput_burst(run, stack, self.specs, self.burst_seconds, 37 * segment)
            segment += 1
        self.check_reader(run, stack)
        final = session_for(stack.registry, self.published[-1][0])
        truth = self.stream.truth  # what the last consumed batch was measured on
        quality(run, truth_resistances(truth, eval_pairs(truth.n_nodes)), final)
        run.versions.extend(v for v, _, _ in self.published)

    def segment(self, run, stack, k: int) -> int:
        """One segment of scheduled updates under the reader; returns the
        next batch index."""
        count = self.batches_per_segment
        duration = self.batch_lead + (count - 1) * self.batch_interval + self.settle
        stack.loadgen.submit(
            "open_loop", ref=stack.ref, rate=self.reader_rate, duration=duration,
            specs=self.reader_specs, answers=True, timeout=30.0,
        )
        start = time.perf_counter() + self.batch_lead
        for j in range(count):
            due = start + j * self.batch_interval
            pause = due - self.batch_lead - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            batch = self.stream.next_batch()
            run.calibrate()
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            run.set_tracing(k)
            begun = time.perf_counter()
            update = self.learner.update(batch)
            done = time.perf_counter()
            run.set_tracing(None)
            run.unit_time(k, done - begun)
            run.sample("update_s", done - due, (due, done))
            self.due_times.append(due)
            self.published.append((update.version, begun, done))
            k += 1
        self.readers.append((stack.loadgen.result(), start, time.perf_counter()))
        return k

    def check_reader(self, run, stack) -> None:
        """Match every answer to a version published by then; time the swaps."""
        pairs = np.asarray(self.probe_pairs)
        refs = np.array([
            session_for(stack.registry, v).effective_resistance(pairs)
            for v, _, _ in self.published
        ])
        begun = np.array([b for _, b, _ in self.published])
        first_seen = [math.inf] * len(self.published)
        for reader, start, end in self.readers:
            run.add_latencies(reader, start, end)
            wrong = 0
            for i, answer in enumerate(reader["answers"]):
                t = reader["recv"][i]
                if answer is None:
                    wrong += 1
                    continue
                want = refs[:, i % len(pairs)]
                hits = np.flatnonzero(
                    (np.abs(want - answer[0]) <= 1e-9 * np.abs(want)) & (begun <= t)
                )
                if hits.size == 0:
                    wrong += 1
                    continue
                for v in hits:
                    first_seen[v] = min(first_seen[v], t)
            run.count(reader["n"], wrong,
                      f"reader: {wrong} answers match no published version {reader['errors']}")
        # Updates: entry 0 is the initial fit.
        unseen = 0
        for v in range(1, len(self.published)):
            seen, done, due = first_seen[v], self.published[v][2], self.due_times[v - 1]
            if math.isfinite(seen):
                run.sample("publish_to_serve_s", seen - done, (done, seen))
                run.sample("time_to_serve_s", seen - due, (due, seen))
            else:
                unseen += 1
        print(f"stream versions never seen by the reader: {unseen} of {len(self.published) - 1}")


WORKLOADS = {
    "fit-mesh": FitWorkload,
    "fit-sharded": ShardedWorkload,
    "stream-live": StreamWorkload,
}
