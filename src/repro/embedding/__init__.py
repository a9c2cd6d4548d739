"""Spectral graph embedding, drawing and clustering.

Step 2 of SGL embeds graph nodes with the first ``r - 1`` nontrivial Laplacian
eigenvectors scaled by ``1 / sqrt(lambda_i + 1/sigma^2)`` (Eq. 12).  Four entry
points compute that embedding:

* :func:`spectral_embedding_matrix` -- stateless, solves the eigenproblem
  from scratch on every call;
* :class:`StatelessEngine` -- the same cold solve behind the engine
  protocol (``refresh(graph, added_edges, timings=None)``, ``exact_grade``)
  that every engine shares;
* :class:`EmbeddingEngine` -- stateful and warm-started, reusing the previous
  call's eigenvectors to refresh the embedding of an incrementally densified
  graph in a few iterations (the default inside the SGL learner's loop);
* :class:`MultilevelEmbeddingEngine` -- stateful coarsen-solve-refine path
  that reuses the coarsening hierarchy across densification iterations (the
  near-linear-time multilevel machinery of the paper, engine mode
  ``"multilevel"``).

The same eigenvectors also drive the paper's visualisation methodology:
spectral graph drawing (u2/u3 as 2-D node coordinates, Koren [6]) and spectral
clustering for node colouring [15].
"""

from repro.embedding.spectral import (
    SpectralEmbedding,
    embedding_from_eigenpairs,
    spectral_embedding_matrix,
)
from repro.embedding.engine import EmbeddingEngine, EngineStats, StatelessEngine
from repro.embedding.multilevel_engine import (
    MultilevelEmbeddingEngine,
    MultilevelEngineStats,
)
from repro.embedding.drawing import spectral_layout
from repro.embedding.kmeans import KMeansResult, kmeans
from repro.embedding.clustering import spectral_clustering

__all__ = [
    "SpectralEmbedding",
    "EmbeddingEngine",
    "EngineStats",
    "StatelessEngine",
    "MultilevelEmbeddingEngine",
    "MultilevelEngineStats",
    "embedding_from_eigenpairs",
    "spectral_embedding_matrix",
    "spectral_layout",
    "KMeansResult",
    "kmeans",
    "spectral_clustering",
]
