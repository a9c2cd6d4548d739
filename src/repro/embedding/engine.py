"""Warm-started incremental spectral engine for the SGL densification loop.

Every iteration of :meth:`repro.core.sgl.SGLearner.fit` needs the spectral
embedding of the *current* graph — but consecutive iterations differ only by
the ``ceil(N beta)`` edges added in between, which is exactly the low-rank
update regime where warm-started eigensolvers converge in a handful of
iterations.  Re-solving from scratch (the stateless
:func:`~repro.embedding.spectral.spectral_embedding_matrix` path) pays a full
sparse factorisation plus a Lanczos run per iteration.

:class:`EmbeddingEngine` owns the eigenpair state across iterations and
refreshes it with an escalation ladder, cheapest first:

1. **Rayleigh-Ritz residual check**: the stored eigenpairs are re-tested
   against the updated Laplacian (``k`` sparse matvecs); tiny or empty edge
   updates are accepted outright.
2. **Warm-started block-Krylov inverse iteration**: an inverse-power tower
   ``[V, L^-1 V, L^-2 V, ...]`` grown from the previous eigenvectors with
   *exact* solves against the current Laplacian, served by a stale grounded
   LU factorisation plus a Woodbury low-rank correction for the edges added
   since (:class:`_IncrementalLaplacianInverse`) — no per-iteration
   refactorisation.  The tower depth is adaptive (remembered across
   refreshes), and one Rayleigh-Ritz projection per convergence check turns
   the tower into eigenpairs plus a built-in Ritz-value-drift estimate.
3. **Cold solve fallback**: the stateless path, also used for the first
   refresh and whenever the warm residuals fail the acceptance test — so a
   convergence failure can never produce a worse embedding than the
   stateless engine, only a slower iteration.

The acceptance test is *eigenvalue-relative* (``||L u - theta u|| <=
warm_tol * theta``), because the embedding scales coordinates by
``1/sqrt(lambda)``: an absolute residual that is small next to ``lambda_max``
can still bias ``lambda_2`` — and hence every embedding distance and edge
sensitivity — enough to derail the densification trajectory.

Per-refresh outcomes are tallied in :class:`EngineStats`, which the learner
attaches to :class:`~repro.core.sgl.SGLResult` and the benchmark harness
embeds in ``BENCH_<tag>.json`` artifacts.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.embedding.spectral import (
    SpectralEmbedding,
    embedding_from_eigenpairs,
    spectral_embedding_matrix,
)
from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import laplacian_eigenpairs
from repro.linalg.solvers import grounded_splu

__all__ = ["EmbeddingEngine", "EngineStats", "StatelessEngine"]

#: Failures the warm ladder treats as "fall back to a cold solve": numerical
#: breakdowns of the factorisation / small dense solves.  Deliberately NOT a
#: blanket Exception, so programming errors surface instead of silently
#: degrading every refresh to the stateless path.
_NUMERICAL_FAILURES = (RuntimeError, ValueError, ArithmeticError, np.linalg.LinAlgError)


def _mean_free(block: np.ndarray) -> np.ndarray:
    return block - block.mean(axis=0, keepdims=True)


class _IncrementalLaplacianInverse:
    """Exact mean-free solves with an incrementally updated Laplacian.

    Holds a grounded sparse LU factorisation of a *base* Laplacian plus a
    Woodbury correction for the rank-``m`` edge update accumulated since:

        (L_base + U diag(w) U^T)^+ b
            = L_base^+ b - Z (diag(1/w) + U^T Z)^{-1} U^T L_base^+ b

    with ``U`` the oriented incidence columns of the updated edges and
    ``Z = L_base^+ U`` cached.  ``update`` appends whatever changed between
    the previous and the current Laplacian (additions, removals or weight
    changes all become signed ``w`` entries), and refactorises from scratch
    once the correction rank exceeds ``max_corrections`` — keeping every
    solve exact while amortising factorisations over many small updates.
    """

    def __init__(self, graph: WeightedGraph, *, max_corrections: int | None = None) -> None:
        n = graph.n_nodes
        if max_corrections is None:
            max_corrections = max(48, n // 48)
        self.max_corrections = int(max_corrections)
        self.n_factorizations = 0
        self._n = n
        self._keep = np.ones(n, dtype=bool)
        self._keep[0] = False
        self._refactorize(graph.laplacian().tocsr())

    # -- base factorisation -------------------------------------------------
    def _refactorize(self, lap: sp.csr_matrix) -> None:
        self._lu = grounded_splu(lap[self._keep][:, self._keep])
        self._current_lap = lap
        # Preallocated correction buffers; only the first `_m` entries are
        # live, so growing by a batch never re-copies the accumulated state.
        cap = self.max_corrections
        self._src = np.empty(cap, dtype=np.int64)
        self._dst = np.empty(cap, dtype=np.int64)
        self._weights = np.empty(cap, dtype=np.float64)
        self._Z = np.empty((self._n, cap), dtype=np.float64)
        self._m = 0
        self._capacitance_lu = None
        self.n_factorizations += 1

    def _base_solve(self, block: np.ndarray, *, project_input: bool = True) -> np.ndarray:
        block = np.asarray(block, dtype=np.float64).reshape(self._n, -1)
        if project_input:
            block = _mean_free(block)
        out = np.zeros_like(block)
        out[self._keep] = self._lu.solve(block[self._keep])
        return _mean_free(out)

    @property
    def n_corrections(self) -> int:
        """Current rank of the Woodbury correction."""
        return self._m

    # -- incremental update -------------------------------------------------
    def update(self, graph: WeightedGraph) -> bool:
        """Absorb the difference between ``graph`` and the last seen graph.

        Additions, removals and weight changes all become signed correction
        columns.  Returns True when a batch was absorbed incrementally;
        False when nothing changed or when the correction budget overflowed
        and a full refactorisation swallowed the difference instead (either
        way, subsequent solves are exact for ``graph``).
        """
        lap = graph.laplacian().tocsr()
        delta = (lap - self._current_lap).tocoo()
        upper = (delta.row < delta.col) & (delta.data != 0)
        src, dst = delta.row[upper].astype(np.int64), delta.col[upper].astype(np.int64)
        weights = -delta.data[upper]  # off-diagonal of L is -w
        if src.size == 0:
            self._current_lap = lap
            return False
        if self._m + src.size > self.max_corrections:
            self._refactorize(lap)
            return False
        self._current_lap = lap
        new_u = np.zeros((self._n, src.size))
        new_u[src, np.arange(src.size)] = 1.0
        new_u[dst, np.arange(src.size)] = -1.0
        lo, hi = self._m, self._m + src.size
        self._src[lo:hi] = src
        self._dst[lo:hi] = dst
        self._weights[lo:hi] = weights
        # Edge-difference columns are mean-free by construction.
        self._Z[:, lo:hi] = self._base_solve(new_u, project_input=False)
        self._m = hi
        # Capacitance matrix S = diag(1/w) + U^T Z; U^T picks endpoint rows.
        live = self._Z[:, :hi]
        capacitance = live[self._src[:hi]] - live[self._dst[:hi]]
        capacitance = capacitance + np.diag(1.0 / self._weights[:hi])
        self._capacitance_lu = scipy.linalg.lu_factor(capacitance)
        return True

    # -- solves -------------------------------------------------------------
    def solve(self, block: np.ndarray, *, project_input: bool = True) -> np.ndarray:
        """Exact mean-free solution of the *current* Laplacian system.

        Pass ``project_input=False`` when the right-hand sides are already
        mean-free (e.g. inside the engine's inverse-power tower, whose
        vectors stay mean-free by construction) to skip a projection pass.
        """
        x0 = self._base_solve(block, project_input=project_input)
        m = self._m
        if m == 0:
            return x0
        rhs_small = x0[self._src[:m]] - x0[self._dst[:m]]
        correction = scipy.linalg.lu_solve(self._capacitance_lu, rhs_small)
        out = x0
        out -= self._Z[:, :m] @ correction
        return _mean_free(out)


@dataclass
class EngineStats:
    """Per-refresh outcome counters of an :class:`EmbeddingEngine`.

    Attributes
    ----------
    cold_solves:
        Full stateless solves (always includes the first refresh).
    warm_rayleigh_ritz:
        Refreshes settled by Rayleigh-Ritz subspace refinement alone.
    warm_inverse:
        Refreshes that needed warm-started inverse-iteration sweeps.
    fallbacks:
        Warm attempts whose residuals failed the acceptance test, forcing a
        cold re-solve (these are counted in ``cold_solves`` too).
    factorizations:
        Sparse LU factorisations performed by the incremental solver.
    """

    cold_solves: int = 0
    warm_rayleigh_ritz: int = 0
    warm_inverse: int = 0
    fallbacks: int = 0
    factorizations: int = 0

    @property
    def refreshes(self) -> int:
        """Total number of :meth:`EmbeddingEngine.refresh` calls recorded."""
        return self.cold_solves + self.warm_rayleigh_ritz + self.warm_inverse

    @property
    def warm_refreshes(self) -> int:
        """Refreshes served from warm state (no full eigensolve)."""
        return self.warm_rayleigh_ritz + self.warm_inverse

    def as_dict(self) -> dict:
        """JSON-ready mapping embedded in benchmark artifacts."""
        return {
            "refreshes": self.refreshes,
            "cold_solves": self.cold_solves,
            "warm_rayleigh_ritz": self.warm_rayleigh_ritz,
            "warm_inverse": self.warm_inverse,
            "fallbacks": self.fallbacks,
            "factorizations": self.factorizations,
        }


class EmbeddingEngine:
    """Stateful spectral-embedding engine with warm-started refreshes.

    Parameters
    ----------
    r:
        Number of eigenvectors as in the paper (the embedding uses the
        ``r - 1`` nontrivial vectors ``u_2 .. u_r``).
    sigma_sq:
        Prior feature variance forwarded to the Eq. (12) scaling.
    method:
        Eigensolver backend for *cold* solves (``"auto"``, ``"dense"``,
        ``"shift-invert"``, ``"lobpcg"`` or ``"multilevel"``); warm refreshes
        always use Rayleigh-Ritz / inverse iteration regardless.
    seed:
        Seed forwarded to the iterative cold backends.
    multilevel_coarse_size:
        Coarse-level size for the ``"multilevel"`` cold backend.
    warm_tol:
        Strict eigenvalue-relative residual acceptance threshold: a tower
        check is accepted outright when ``||L u_i - theta_i u_i|| <=
        warm_tol * theta_i`` for every kept pair.  ``0`` disables warm
        starts entirely.
    drift_tol:
        Ritz-value-stability acceptance threshold: a check is also accepted
        when every kept Ritz value moved by at most ``drift_tol * theta_i``
        relative to the tower's one-level-shallower subspace and the
        residuals stay below ``residual_cap``.  Ritz-value stability is the
        criterion that matters for the embedding: coordinates scale by
        ``1/sqrt(lambda)``, and leftover vector error at a stabilised Ritz
        value is rotation within an eigenvalue cluster, which barely moves
        embedding distances.  The drift estimate lags the true Ritz error
        by roughly an order of magnitude, hence the default an order looser
        than the ~1e-3 accuracy it corresponds to in practice.
    residual_cap:
        Hard eigenvalue-relative residual bound that must hold even when
        accepting on Ritz-value stability (guards against accepting a
        stagnated, not-yet-converged tower).
    cold_tol:
        ARPACK tolerance for the engine's cold solves.  The stateless path
        keeps its machine-precision default; the engine targets
        embedding-grade accuracy throughout, so spending Lanczos restarts
        beyond ``cold_tol`` would buy nothing the warm path preserves.
    guard_vectors:
        Extra trailing eigenpairs tracked beyond the ``r - 1`` the embedding
        needs.  They keep eigenvalue clusters at the block boundary inside
        the iterated subspace, which is what makes the tower converge fast.
    max_depth:
        Deepest inverse-power Krylov tower grown before declaring a
        fallback.  The engine remembers the depth the previous refresh
        needed and lifts straight to it, extending two levels at a time
        when the convergence check fails.
    warm_min_nodes:
        Below this many nodes the engine always solves cold — dense solves
        on tiny graphs are cheaper than bookkeeping.
    max_corrections:
        Woodbury correction rank after which the incremental solver
        refactorises (default ``max(48, n_nodes // 48)``).
    max_consecutive_fallbacks:
        After this many warm failures in a row the engine stops attempting
        warm starts for the rest of its lifetime (automatic degradation to
        the stateless behaviour).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.embedding.engine import EmbeddingEngine
    >>> from repro.graphs.generators import grid_2d
    >>> graph = grid_2d(12, 12)
    >>> engine = EmbeddingEngine(r=3, warm_min_nodes=16)
    >>> first = engine.refresh(graph)          # first refresh is a cold solve
    >>> engine.last_mode
    'cold'
    >>> denser = graph.add_edges([(0, 50)], [1.0])
    >>> second = engine.refresh(denser, added_edges=np.array([[0, 50]]))
    >>> engine.stats.warm_refreshes
    1
    >>> second.n_nodes, second.dimension
    (144, 2)
    """

    #: Refresh outcomes reported by :attr:`last_mode`.
    MODES = ("cold", "warm-rr", "warm-inverse", "fallback")
    #: Refresh outcomes timed under the ``embedding_warm`` stage.
    WARM_MODES = ("warm-rr", "warm-inverse")

    def __init__(
        self,
        r: int = 5,
        *,
        sigma_sq: float = np.inf,
        method: Literal["auto", "dense", "shift-invert", "lobpcg", "multilevel"] = "auto",
        seed: int | None = 0,
        multilevel_coarse_size: int = 200,
        warm_tol: float = 1e-3,
        drift_tol: float = 0.02,
        residual_cap: float = 0.2,
        cold_tol: float = 1e-7,
        guard_vectors: int = 2,
        max_depth: int = 8,
        warm_min_nodes: int = 128,
        max_corrections: int | None = None,
        max_consecutive_fallbacks: int = 3,
    ) -> None:
        if r < 2:
            raise ValueError("r must be at least 2 (at least one nontrivial eigenvector)")
        if warm_tol < 0:
            raise ValueError("warm_tol must be non-negative")
        if drift_tol <= 0:
            raise ValueError("drift_tol must be positive")
        if residual_cap <= 0:
            raise ValueError("residual_cap must be positive")
        if guard_vectors < 0:
            raise ValueError("guard_vectors must be non-negative")
        if max_depth < 2:
            raise ValueError("max_depth must be at least 2")
        self.r = int(r)
        self.sigma_sq = sigma_sq
        self.method = method
        self.seed = seed
        self.multilevel_coarse_size = int(multilevel_coarse_size)
        self.warm_tol = float(warm_tol)
        self.drift_tol = float(drift_tol)
        self.residual_cap = float(residual_cap)
        self.cold_tol = float(cold_tol)
        self.guard_vectors = int(guard_vectors)
        self.max_depth = int(max_depth)
        self.warm_min_nodes = int(warm_min_nodes)
        self.max_corrections = max_corrections
        self.max_consecutive_fallbacks = int(max_consecutive_fallbacks)

        self.stats = EngineStats()
        self.last_mode: str | None = None
        self.exact_grade = True
        self._values: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        self._n_nodes: int | None = None
        self._inverse: _IncrementalLaplacianInverse | None = None
        self._inverse_factorizations_seen = 0
        self._krylov_depth = 2
        self._consecutive_fallbacks = 0
        self._warm_disabled = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all eigenpair state; the next refresh solves cold."""
        self._values = None
        self._vectors = None
        self._n_nodes = None
        self._sync_factorizations()
        self._inverse = None
        self._inverse_factorizations_seen = 0
        self._krylov_depth = 2
        self._consecutive_fallbacks = 0
        self._warm_disabled = False
        self.last_mode = None

    def _sync_factorizations(self) -> None:
        """Fold the live inverse's factorisation count into the stats.

        Accumulates deltas rather than overwriting, so factorisations done
        by inverses later discarded (e.g. replaced after a fallback cold
        solve) stay counted.
        """
        if self._inverse is None:
            return
        delta = self._inverse.n_factorizations - self._inverse_factorizations_seen
        if delta > 0:
            self.stats.factorizations += delta
            self._inverse_factorizations_seen = self._inverse.n_factorizations

    # ------------------------------------------------------------------
    def _relative_residuals(
        self,
        lap: sp.csr_matrix,
        values: np.ndarray,
        vectors: np.ndarray,
        scale: float,
        k: int,
    ) -> np.ndarray:
        """``||L u_i - theta_i u_i|| / theta_i`` for the first ``k`` pairs."""
        values, vectors = values[:k], vectors[:, :k]
        residual = lap @ vectors - vectors * values[None, :]
        norms = np.linalg.norm(residual, axis=0)
        return norms / np.maximum(values, 1e-14 * scale)

    def _cold_solve(
        self, graph: WeightedGraph, k_work: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.method == "multilevel":
            embedding = spectral_embedding_matrix(
                graph,
                k_work + 1,
                sigma_sq=self.sigma_sq,
                method=self.method,
                seed=self.seed,
                multilevel_coarse_size=self.multilevel_coarse_size,
            )
            return embedding.eigenvalues[:k_work], embedding.eigenvectors[:, :k_work]
        # The engine targets embedding-grade accuracy (warm_tol), so its cold
        # solves request a finite ARPACK tolerance instead of the stateless
        # path's machine-precision default — several Lanczos restarts cheaper
        # at identical embedding quality.
        return laplacian_eigenpairs(
            graph,
            k_work,
            method=self.method,
            drop_trivial=True,
            tol=self.cold_tol,
            seed=self.seed,
        )

    def _warm_solve(
        self,
        graph: WeightedGraph,
        lap: sp.csr_matrix,
        k: int,
        k_work: int,
        scale: float,
    ) -> tuple[np.ndarray, np.ndarray, str] | None:
        """Try the warm ladder (Rayleigh-Ritz check, then block-Krylov tower)."""
        try:
            absorbed_batch = self._inverse.update(graph)
        except _NUMERICAL_FAILURES:
            return None

        vectors = _mean_free(self._vectors)
        if not absorbed_batch:
            # Nothing changed (or a refactorisation absorbed the batch): the
            # stored eigenpairs may pass the strict residual test as-is.
            values = self._values
            residuals = self._relative_residuals(lap, values, vectors, scale, k)
            if np.all(np.isfinite(residuals)) and bool(
                (residuals <= self.warm_tol).all()
            ):
                return values, vectors, "warm-rr"

        # Grow one inverse-power Krylov tower [V, L^-1 V_k, L^-2 V_k, ...]
        # and Rayleigh-Ritz over it.  The depth a refresh needs is strongly
        # correlated with the previous refresh's (consecutive batches have
        # similar weight), so lift straight to the remembered depth and only
        # then run the (QR + projection) check — skipping the intermediate
        # checks is what keeps hard refreshes cheap.  Because Householder QR
        # is column-progressive, the projected matrix's leading principal
        # block is the projection onto the tower minus its last level —
        # comparing Ritz values between the two gives a free convergence
        # estimate (Krylov saturation <=> eigenvalues stabilised).  The
        # estimate lags the true error by an order of magnitude (it measures
        # what the last level still contributed), hence drift_tol being
        # looser than warm_tol.
        blocks = [vectors]
        current = vectors[:, :k]
        depth = 0
        target = min(max(2, self._krylov_depth), self.max_depth)
        while True:
            try:
                while depth < target:
                    current = self._inverse.solve(current, project_input=False)
                    # Per-column renormalisation: the inverse-power
                    # recurrence grows columns by ~1/lambda_2 per level, and
                    # the span is scaling-invariant.
                    col_norms = np.linalg.norm(current, axis=0)
                    current = current / np.maximum(col_norms, 1e-300)[None, :]
                    blocks.append(current)
                    depth += 1
            except _NUMERICAL_FAILURES:
                return None
            subspace = _mean_free(np.hstack(blocks))
            q, _ = np.linalg.qr(subspace)
            projected = q.T @ (lap @ q)
            projected = 0.5 * (projected + projected.T)
            inner = subspace.shape[1] - k
            inner_values = np.linalg.eigvalsh(projected[:inner, :inner])[:k]
            all_values, small_vectors = np.linalg.eigh(projected)
            values = all_values[:k_work]
            if not np.all(np.isfinite(values)):
                return None

            drift = np.abs(inner_values - values[:k]) / np.maximum(values[:k], 1e-300)
            candidate = q @ small_vectors[:, :k_work]
            residuals = self._relative_residuals(lap, values, candidate, scale, k)
            if not np.all(np.isfinite(residuals)):
                return None
            by_residual = residuals <= self.warm_tol
            stable = (drift <= self.drift_tol) & (residuals <= self.residual_cap)
            if bool((by_residual | stable).all()):
                # Let the remembered depth decay when the tower was deeper
                # than this batch needed, so easy stretches stay cheap.
                margin = float(np.maximum(drift, residuals / 10.0).max())
                self._krylov_depth = (
                    max(2, depth - 1) if margin <= 0.1 * self.drift_tol else depth
                )
                return values, candidate, "warm-inverse"
            if depth >= self.max_depth:
                self._krylov_depth = 2
                return None
            target = min(depth + 2, self.max_depth)
            self._krylov_depth = target

    # ------------------------------------------------------------------
    def refresh(
        self,
        graph: WeightedGraph,
        added_edges: np.ndarray | None = None,
        *,
        timings=None,
    ) -> SpectralEmbedding:
        """Return the spectral embedding of ``graph``, reusing warm state.

        Parameters
        ----------
        graph:
            The current (connected) graph.  Must keep the node set of the
            previous refresh for warm starts to apply; a changed node count
            resets the engine to a cold solve.
        added_edges:
            Optional ``(m, 2)`` array of the edges added since the previous
            refresh, recorded for bookkeeping.  The warm path does not trust
            it for correctness: the incremental solver diffs the Laplacians
            itself, so removals and weight changes are absorbed exactly too.
        timings:
            Optional :class:`~repro.core.instrumentation.StageTimings`; warm
            refreshes are recorded under ``embedding_warm``, cold solves and
            fallbacks under ``embedding`` (as on the stateless path).

        Returns
        -------
        SpectralEmbedding
            Identical in structure to the stateless
            :func:`~repro.embedding.spectral.spectral_embedding_matrix`
            output.
        """
        start = time.perf_counter()
        embedding = self._refresh(graph)
        if timings is not None:
            # The stage name is only known after the refresh, hence an
            # interval instead of a stage block.
            stage = "embedding_warm" if self.last_mode in self.WARM_MODES else "embedding"
            timings.add_interval(
                stage, start, time.perf_counter(), mode=self.last_mode,
                fallbacks=self.stats.fallbacks, factorizations=self.stats.factorizations,
            )
        return embedding

    def _refresh(self, graph: WeightedGraph) -> SpectralEmbedding:
        n = graph.n_nodes
        k = min(self.r - 1, n - 1)
        if k < 1:
            raise ValueError("graph too small to embed (need at least two nodes)")
        k_work = min(k + self.guard_vectors, n - 1)

        warm_possible = (
            not self._warm_disabled
            and self.warm_tol > 0
            and self._vectors is not None
            and self._n_nodes == n
            and self._vectors.shape[1] == k_work
            and self._inverse is not None
            and n >= self.warm_min_nodes
        )

        mode = "cold"
        values = vectors = None
        if warm_possible:
            lap = graph.laplacian()
            scale = max(float(lap.diagonal().max()), 1e-300)
            warm = self._warm_solve(graph, lap, k, k_work, scale)
            if warm is not None:
                values, vectors, mode = warm
                self._consecutive_fallbacks = 0
            else:
                mode = "fallback"
                self._consecutive_fallbacks += 1
                if self._consecutive_fallbacks >= self.max_consecutive_fallbacks:
                    self._warm_disabled = True

        if values is None:
            values, vectors = self._cold_solve(graph, k_work)
            self.stats.cold_solves += 1
            if mode == "fallback":
                self.stats.fallbacks += 1
            if n >= self.warm_min_nodes and not self._warm_disabled and self.warm_tol > 0:
                self._sync_factorizations()  # count the discarded inverse's work
                try:
                    self._inverse = _IncrementalLaplacianInverse(
                        graph, max_corrections=self.max_corrections
                    )
                except _NUMERICAL_FAILURES:
                    self._inverse = None
                self._inverse_factorizations_seen = 0
        elif mode == "warm-rr":
            self.stats.warm_rayleigh_ritz += 1
        else:
            self.stats.warm_inverse += 1

        self._sync_factorizations()

        self.last_mode = mode
        # A multilevel cold solve ranks candidates well but misses the
        # publish bounds; warm refreshes pass the engine's residual test.
        self.exact_grade = mode in self.WARM_MODES or self.method != "multilevel"
        self._values = values
        self._vectors = vectors
        self._n_nodes = n
        return embedding_from_eigenpairs(values[:k], vectors[:, :k], self.sigma_sq)


class StatelessEngine:
    """The recompute-every-refresh path in the engine protocol.

    Every refresh is one cold
    :func:`~repro.embedding.spectral.spectral_embedding_matrix` solve, timed
    under the ``embedding`` stage when ``timings`` is given.
    """

    #: No refresh counters: a stateless engine reuses nothing.
    stats = None

    def __init__(
        self, r: int = 5, *, sigma_sq: float = np.inf, method: str = "auto",
        seed: int | None = 0, multilevel_coarse_size: int = 200,
    ) -> None:
        self.r = int(r)
        self.method = method
        self._options = dict(sigma_sq=sigma_sq, method=method, seed=seed,
                             multilevel_coarse_size=multilevel_coarse_size)
        #: A multilevel solve is approximate; every other method is exact.
        self.exact_grade = method != "multilevel"

    def refresh(self, graph: WeightedGraph, added_edges=None, *, timings=None) -> SpectralEmbedding:
        """Solve the embedding of ``graph`` from scratch."""
        stage = nullcontext() if timings is None else timings.stage("embedding", method=self.method)
        with stage:
            return spectral_embedding_matrix(graph, self.r, **self._options)
