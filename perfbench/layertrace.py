"""Outside-in tracing: time the calls into each layer of ``repro``.

The benchmark never edits the program.  In a traced run it replaces public
functions and methods on the user path with thin wrappers that record one
span per call (name, start, end, parent span) in memory.  Spans are reduced
to per-name call counts, busy time and self time (busy minus the time
covered by child spans) when the run ends.

A wrapper can also inject a fixed delay into every call of the function it
wraps (``Tracer.inject``); the self-test uses that to prove that a slower
layer moves its metrics beyond their bounds.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name).  The attribute path is looked up on
#: the module; a dotted path patches a method on a class.  Functions that a
#: caller imported by name are patched in the caller's namespace, because
#: that is the reference the caller uses.
FIT_TARGETS = [
    ("repro.core.sgl", "knn_graph", "knn.knn_graph"),
    ("repro.core.sgl", "maximum_spanning_tree", "knn.mst"),
    ("repro.core.sgl", "edge_sensitivities", "core.edge_sensitivities"),
    ("repro.core.sgl", "spectral_edge_scaling", "core.spectral_edge_scaling"),
    ("repro.core.sgl", "SGLearner.fit", "core.fit"),
    ("repro.stream.learner", "edge_sensitivities", "core.edge_sensitivities"),
    ("repro.stream.learner", "spectral_edge_scaling", "core.spectral_edge_scaling"),
    ("repro.stream.learner", "OnlineSGLearner.update", "stream.update"),
    ("repro.stream.learner", "OnlineSGLearner.fit", "stream.fit"),
    ("repro.stream.drift", "DriftDetector.assess", "stream.drift_assess"),
    ("repro.partition.sharded", "knn_graph", "knn.knn_graph"),
    ("repro.partition.sharded", "maximum_spanning_tree", "knn.mst"),
    ("repro.partition.sharded", "edge_sensitivities", "core.edge_sensitivities"),
    ("repro.partition.sharded", "spectral_edge_scaling", "core.spectral_edge_scaling"),
    ("repro.partition.sharded", "ShardedSGLearner.fit", "partition.sharded_fit"),
    ("repro.partition.partitioner", "GraphPartitioner.partition", "partition.partition"),
    ("repro.embedding.engine", "EmbeddingEngine.refresh", "embedding.refresh"),
    (
        "repro.embedding.multilevel_engine",
        "MultilevelEmbeddingEngine.refresh",
        "embedding.refresh",
    ),
    ("repro.embedding.spectral", "spectral_embedding_matrix", "embedding.spectral_matrix"),
    ("repro.linalg.solvers", "LaplacianSolver.__init__", "linalg.factorize"),
    ("repro.artifacts.store", "save_artifact", "artifacts.save_artifact"),
    ("repro.artifacts.registry", "save_result", "artifacts.save_result"),
    ("repro.artifacts.registry", "ModelRegistry.publish", "artifacts.publish"),
]

#: What the server process wraps: artifact loads and session builds.
SERVE_TARGETS = [
    ("repro.serve.service", "load_result", "artifacts.load"),
    ("repro.serve.session", "GraphSession.__init__", "serve.session_build"),
    ("repro.linalg.solvers", "LaplacianSolver.__init__", "linalg.factorize"),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder that patches ``repro`` entry points.

    ``enabled`` can be flipped while wrappers stay installed, so one run can
    alternate traced and untraced units of work and report the overhead.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._delays: dict[str, float] = {}
        self._hooks: dict[str, object] = {}

    # ------------------------------------------------------------------
    def inject(self, name: str, seconds: float) -> None:
        """Add a fixed ``seconds`` sleep to every call of span ``name``.

        Call before :meth:`install`.
        """
        self._delays[name] = float(seconds)

    def on_return(self, name: str, hook) -> None:
        """Call ``hook(span_index, args, result)`` after each traced ``name`` call.

        Hooks read what the wrapped call returned or left in public
        attributes (a result's ``timings``, an engine's ``stats``).
        """
        self._hooks[name] = hook

    def install(self, targets) -> None:
        """Replace each ``(module, attribute path, span name)`` target by a wrapper."""
        for module_name, path, name in targets:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))

    def _wrap(self, func, name: str):
        tracer = self

        delay = self._delays.get(name)
        call = func
        if delay:

            def call(*args, **kwargs):
                time.sleep(delay)  # inside the span: the layer got slower
                return func(*args, **kwargs)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return call(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            hook = tracer._hooks.get(name)
            if hook is not None:
                hook(index, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``.

        Nested calls of the same name (a wrapped method calling a wrapped
        function of the same layer) count once in ``busy_s``: only spans
        whose parent has another name add to it.
        """
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            if parent < 0 or self.spans[parent][0] != name:
                entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def within(self, index: int, ancestor) -> bool:
        """Whether span ``index`` ran inside a span named ``ancestor``.

        ``ancestor`` is a span name or a span index.
        """
        parent = self.spans[index][3]
        while parent >= 0:
            if parent == ancestor or self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def busy_within(self, root: int, name: str) -> float:
        """Total duration of ``name`` spans that ran inside span ``root``."""
        total = 0.0
        for index in range(root + 1, len(self.spans)):
            span = self.spans[index]
            if span[0] == name and self.within(index, root):
                total += span[2] - span[1]
        return total
