"""Normalized spectral clustering: symmetric Laplacian, dense
eigendecomposition, row-normalized embedding, seeded k-means with restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ncut

__all__ = [
    "SpectralConfig",
    "ClusteringResult",
    "EigensolverError",
    "normalized_laplacian",
    "smallest_eigenvectors",
    "row_normalize",
    "kmeans_single",
    "kmeans",
    "cluster_graph",
]


class EigensolverError(RuntimeError):
    """Eigendecomposition failed or produced out-of-tolerance residuals."""

    def __init__(self, message: str, residuals: np.ndarray | None = None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class SpectralConfig:
    k: int = 4
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 300
    kmeans_tol: float = 1e-8
    eig_tol: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be at least 1")
        if self.kmeans_tol <= 0 or self.eig_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of clustering one graph.

    ``labels`` has one entry per node of the input graph: a cluster id in
    ``0..n_clusters-1``, or -1 for nodes that were dropped because they had
    zero degree. ``ncut_value`` is the normalized cut of the partition on the
    kept subgraph.
    """

    labels: np.ndarray
    n_clusters: int
    ncut_value: float
    dropped: np.ndarray
    kmeans_cost: float

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels[self.labels >= 0], minlength=self.n_clusters)


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Every node must have positive degree; drop zero-degree nodes before
    calling (see :func:`cluster_graph`).
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError("adjacency is not symmetric")
    deg = a.sum(axis=1)
    if np.any(deg <= 0):
        bad = np.flatnonzero(deg <= 0)
        raise ValueError(f"nodes with zero degree: {bad.tolist()[:10]}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = -(inv_sqrt[:, None] * a * inv_sqrt[None, :])
    np.fill_diagonal(lap, 1.0)
    # exact symmetry keeps eigh's Ritz pairs clean
    return 0.5 * (lap + lap.T)


def smallest_eigenvectors(
    laplacian: np.ndarray, n_vectors: int, eig_tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs for the ``n_vectors`` algebraically smallest eigenvalues.

    Returns ``(eigenvalues, eigenvectors)`` with orthonormal columns. Every
    returned pair is residual-checked: ``||L v - lam v|| <= eig_tol * max(1,
    ||L||_F)``; a violation raises :class:`EigensolverError` carrying the
    residual norms.
    """
    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"matrix must be square, got shape {lap.shape}")
    n = lap.shape[0]
    if not 1 <= n_vectors <= n:
        raise ValueError(f"need 1 <= n_vectors <= {n}, got {n_vectors}")
    asym = float(np.max(np.abs(lap - lap.T))) if n else 0.0
    if asym > 1e-9:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        values, vectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as e:
        raise EigensolverError(f"dense eigendecomposition failed: {e}") from e
    values = values[:n_vectors]
    vectors = vectors[:, :n_vectors]
    scale = max(1.0, float(np.linalg.norm(lap)))
    residuals = np.linalg.norm(lap @ vectors - vectors * values, axis=0)
    if np.any(residuals > eig_tol * scale):
        raise EigensolverError(
            f"eigenpair residuals exceed {eig_tol:g} * max(1, ||L||_F): "
            f"max {residuals.max():.3e}",
            residuals=residuals,
        )
    gram = vectors.T @ vectors
    if np.max(np.abs(gram - np.eye(n_vectors))) > 1e-8:
        raise EigensolverError("eigenvector columns are not orthonormal")
    return values, vectors


def row_normalize(embedding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to unit Euclidean norm.

    All-zero rows are left untouched and flagged in the returned boolean
    mask rather than treated as an error.
    """
    emb = np.asarray(embedding, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1)
    zero_rows = norms == 0.0
    safe = np.where(zero_rows, 1.0, norms)
    return emb / safe[:, None], zero_rows


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        centers[i] = points[idx]
        np.minimum(closest, ((points - centers[i]) ** 2).sum(axis=1), out=closest)
    return centers


def kmeans_single(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    max_iters: int = 300,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One k-means run (k-means++ seeding, Lloyd iterations).

    Returns ``(labels, centers, cost)`` with all clusters nonempty. An empty
    cluster is repaired by reseeding it with the point farthest from its
    assigned centroid. Within-run cost is checked to be non-increasing.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < n_clusters:
        raise ValueError(f"cannot make {n_clusters} clusters from {n} points")
    centers = _kmeans_pp_init(pts, n_clusters, rng)
    prev_cost = np.inf
    labels = np.zeros(n, dtype=np.int64)
    cost = 0.0
    for _ in range(max_iters):
        sq = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(sq, axis=1)
        point_cost = sq[np.arange(n), labels]
        for c in range(n_clusters):
            if not np.any(labels == c):
                far = int(np.argmax(point_cost))
                labels[far] = c
                centers[c] = pts[far]
                point_cost[far] = 0.0
        cost = float(point_cost.sum())
        if cost > prev_cost * (1 + 1e-12) + 1e-12:
            raise ArithmeticError("k-means cost increased between iterations")
        new_centers = np.vstack(
            [pts[labels == c].mean(axis=0) for c in range(n_clusters)]
        )
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        if shift <= tol:
            break
        centers = new_centers
        prev_cost = cost
    return labels, centers, cost


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    restarts: int = 10,
    max_iters: int = 300,
    tol: float = 1e-8,
    rng: np.random.Generator | int | None = 0,
) -> tuple[np.ndarray, float]:
    """Best-of-``restarts`` k-means; deterministic for a fixed seed.

    The restart with the lowest within-cluster sum of squared distances wins;
    cost ties go to the earliest restart.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    best_labels, best_cost = None, np.inf
    for _ in range(restarts):
        labels, _, cost = kmeans_single(points, n_clusters, rng, max_iters, tol)
        if cost < best_cost:
            best_labels, best_cost = labels, cost
    return best_labels, float(best_cost)


def cluster_graph(adjacency: np.ndarray, config: SpectralConfig) -> ClusteringResult:
    """Cluster a graph into ``config.k`` groups and score the partition.

    Zero-degree nodes are removed up front and reported via ``dropped``; the
    remaining subgraph goes through Laplacian -> smallest eigenvectors ->
    row normalization -> k-means, and the resulting partition is scored with
    the exact normalized cut.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    deg = a.sum(axis=1)
    dropped = np.flatnonzero(deg == 0)
    kept = np.flatnonzero(deg > 0)
    if kept.size < config.k:
        raise ValueError(
            f"only {kept.size} nodes with nonzero degree; need at least {config.k}"
        )
    sub = a[np.ix_(kept, kept)]
    lap = normalized_laplacian(sub)
    _, vectors = smallest_eigenvectors(lap, config.k, config.eig_tol)
    embedding, _ = row_normalize(vectors)
    rng = np.random.default_rng(config.rng_seed)
    sub_labels, cost = kmeans(
        embedding,
        config.k,
        restarts=config.kmeans_restarts,
        max_iters=config.kmeans_max_iters,
        tol=config.kmeans_tol,
        rng=rng,
    )
    score = ncut(sub, sub_labels, config.k)
    labels = np.full(a.shape[0], -1, dtype=np.int64)
    labels[kept] = sub_labels
    return ClusteringResult(
        labels=labels,
        n_clusters=config.k,
        ncut_value=score,
        dropped=dropped,
        kmeans_cost=cost,
    )
