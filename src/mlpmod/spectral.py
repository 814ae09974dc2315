"""Normalized spectral clustering: the smallest eigenpairs of the symmetric
normalized Laplacian, row-normalized embedding, seeded k-means with restarts.

A :class:`~mlpmod.graph.LayeredGraph` is bipartite, even layers against odd
layers, so its eigenpairs come from ``eigh`` of the Gram matrix of the smaller
side of its degree-scaled even x odd block (Dhillon, KDD 2001), and no n x n
matrix is formed unless k exceeds that side or the k-th singular value is below
``SIGMA_FLOOR``. A dense adjacency matrix goes through its Laplacian and a
dense symmetric eigendecomposition; that path is also the reference the block
path is tested against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graph import LayeredGraph, ncut
from .mlp import _integer_setting

__all__ = [
    "SpectralConfig",
    "ClusteringResult",
    "EigensolverError",
    "TooFewNodesError",
    "normalized_laplacian",
    "smallest_eigenvectors",
    "bipartite_eigenvectors",
    "row_normalize",
    "kmeans_single",
    "kmeans",
    "cluster_graph",
]


class EigensolverError(RuntimeError):
    """Eigendecomposition failed or produced out-of-tolerance residuals."""


class TooFewNodesError(ValueError):
    """k exceeds the nodes of nonzero degree, none for an edgeless graph."""


# fixed settings of every clustering run
KMEANS_RESTARTS = 10
KMEANS_MAX_ITERS = 300
KMEANS_TOL = 1e-8
EIG_TOL = 1e-9
SIGMA_FLOOR = 1e-3  # the Gram form's S v / s errs by about eps / s^2


@dataclass(frozen=True)
class SpectralConfig:
    k: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("k", "rng_seed"):
            object.__setattr__(self, name, _integer_setting(name, getattr(self, name)))
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    def to_dict(self) -> dict:
        """These fields plus the fixed k-means and eigensolver settings."""
        return dict(
            asdict(self), kmeans_restarts=KMEANS_RESTARTS, kmeans_max_iters=KMEANS_MAX_ITERS,
            kmeans_tol=KMEANS_TOL, eig_tol=EIG_TOL,
        )


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Outcome of clustering one graph.

    ``labels`` has one entry per node of the input graph: a cluster id in
    ``0..k-1``, numbered in the order of their lowest kept node, or -1 for
    nodes that were dropped because they had zero degree. Every one of the
    k clusters holds a kept node. ``ncut_value`` is the normalized cut of
    the partition on the kept subgraph.
    """

    labels: np.ndarray
    ncut_value: float
    kmeans_cost: float


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    ``adjacency`` must be square, symmetric, finite and nonnegative, as
    :func:`cluster_graph` checks, and every node must have positive degree;
    drop zero-degree nodes before calling.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    deg = a.sum(axis=1)
    if np.any(deg <= 0):
        bad = np.flatnonzero(deg <= 0)
        raise ValueError(f"nodes with zero degree: {bad.tolist()[:10]}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = -(inv_sqrt[:, None] * a * inv_sqrt[None, :])
    np.fill_diagonal(lap, 1.0)
    # exact symmetry keeps eigh's Ritz pairs clean
    return 0.5 * (lap + lap.T)


def smallest_eigenvectors(laplacian: np.ndarray, n_vectors: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs for the ``n_vectors`` algebraically smallest eigenvalues.

    ``laplacian`` must be square and symmetric; ``eigh`` reads only its
    lower triangle.
    Returns ``(eigenvalues, eigenvectors)`` with orthonormal columns. Every
    returned pair is residual-checked against the full matrix: ``||L v - lam
    v|| <= EIG_TOL * max(1, ||L||_F)``; a violation, a NaN pair or an
    asymmetric ``laplacian`` raises :class:`EigensolverError`, whose message
    gives the largest residual.
    """
    lap = np.asarray(laplacian, dtype=np.float64)
    n = lap.shape[0]
    if not 1 <= n_vectors <= n:
        raise ValueError(f"need 1 <= n_vectors <= {n}, got {n_vectors}")
    try:
        values, vectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as e:
        raise EigensolverError(f"dense eigendecomposition failed: {e}") from e
    values = values[:n_vectors]
    vectors = vectors[:, :n_vectors]
    residuals = np.linalg.norm(lap @ vectors - vectors * values, axis=0)
    _check_eigenpairs(residuals, float(np.linalg.norm(lap)), vectors)
    return values, vectors


def bipartite_eigenvectors(graph: LayeredGraph, n_vectors: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``graph``'s normalized Laplacian for the ``n_vectors``
    smallest eigenvalues, without forming the n x n matrix.

    With ``B~ = D_e^{-1/2} B D_o^{-1/2}`` the degree-scaled even x odd block
    ``B = graph.block``, the Laplacian is ``I - [[0, B~], [B~^T, 0]]``, so
    each singular triplet ``(s, u, v)`` of ``B~`` gives the eigenvalue
    ``1 - s`` with eigenvector ``[u; v] / sqrt(2)`` (Dhillon, KDD 2001), put
    back in node order. The top ``n_vectors`` triplets come from ``eigh`` of
    ``S^T S``, for ``S`` the one of ``B~`` and ``B~^T`` with fewer columns:
    ``s = sqrt(w)``, and the other side is ``S v / s``. The dense Laplacian of
    ``graph.dense()`` goes through :func:`smallest_eigenvectors` instead when
    ``n_vectors`` exceeds the smaller side (the null space of ``B~`` holds
    wanted eigenvectors) or the ``n_vectors``-th ``s`` is below
    ``SIGMA_FLOOR`` (``S v / s`` loses accuracy).

    Every node must have positive degree. The checks are those of
    :func:`smallest_eigenvectors`, in block form: each pair's residual
    ``||[s u - B~ v; s v - B~^T u]|| / sqrt(2)`` against
    ``EIG_TOL * max(1, ||L||_F)``, where ``||L||_F^2 = n + 2 ||B~||_F^2``,
    and orthonormal columns.
    """
    deg = graph.degrees()
    if np.any(deg <= 0):
        raise ValueError(f"nodes with zero degree: {np.flatnonzero(deg <= 0).tolist()[:10]}")
    even = graph.even
    if not 1 <= n_vectors <= deg.size:
        raise ValueError(f"need 1 <= n_vectors <= {deg.size}, got {n_vectors}")
    inv_sqrt = 1.0 / np.sqrt(deg)
    b = inv_sqrt[even][:, None] * graph.block
    b *= inv_sqrt[~even]
    tall = b.T if b.shape[1] > b.shape[0] else b
    try:
        w, v = np.linalg.eigh(tall.T @ tall)
    except np.linalg.LinAlgError as e:
        raise EigensolverError(f"bipartite Gram eigendecomposition failed: {e}") from e
    if np.isnan(w).any():
        raise EigensolverError("bipartite Gram spectrum has NaN entries")
    sigma = np.sqrt(np.maximum(w[::-1][:n_vectors], 0.0))
    if n_vectors > w.size or sigma[-1] < SIGMA_FLOOR:
        return smallest_eigenvectors(normalized_laplacian(graph.dense()), n_vectors)
    v = v[:, ::-1][:, :n_vectors]
    u, v = (tall @ v / sigma, v) if tall is b else (v, tall @ v / sigma)
    residuals = np.linalg.norm(np.vstack([u * sigma - b @ v, v * sigma - b.T @ u]), axis=0)
    residuals /= np.sqrt(2.0)
    vectors = np.empty((deg.size, n_vectors))
    vectors[even] = u
    vectors[~even] = v
    vectors *= np.sqrt(0.5)
    _check_eigenpairs(residuals, np.sqrt(deg.size + 2 * np.sum(b * b)), vectors)
    return 1.0 - sigma, vectors


def _check_eigenpairs(residuals: np.ndarray, laplacian_norm: float, vectors: np.ndarray) -> None:
    """Raise :class:`EigensolverError` unless every residual is within
    ``EIG_TOL * max(1, ||L||_F)`` and the columns are orthonormal; a NaN
    pair fails both."""
    if not np.all(residuals <= EIG_TOL * max(1.0, laplacian_norm)):
        raise EigensolverError(
            f"eigenpair residuals exceed {EIG_TOL:g} * max(1, ||L||_F): "
            f"max {residuals.max():.3e}"
        )
    gram = vectors.T @ vectors
    if not (np.max(np.abs(gram - np.eye(vectors.shape[1]))) <= 1e-8):
        raise EigensolverError("eigenvector columns are not orthonormal")


def row_normalize(embedding: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; all-zero rows stay zero."""
    emb = np.asarray(embedding, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1)
    return emb / np.where(norms == 0.0, 1.0, norms)[:, None]


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
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """One k-means run (k-means++ seeding, at most ``KMEANS_MAX_ITERS`` Lloyd
    iterations, stopping once no center moves more than ``KMEANS_TOL``).

    Returns ``(labels, cost)`` with all clusters nonempty. An empty cluster
    is repaired by reseeding it with the point farthest from its assigned
    centroid among the clusters that keep another member. Within-run cost is
    checked to be non-increasing.

    The points are held as contiguous coordinate columns. Each iteration
    sums the (k, n) per-coordinate terms ``(col - c_j)**2`` one coordinate
    at a time, in order, so the distances need O(k n) memory for any d, and
    each centroid coordinate is the ``np.bincount`` of its column weighted by
    the labels, divided by the cluster's count.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < n_clusters:
        raise ValueError(f"cannot make {n_clusters} clusters from {n} points")
    centers = _kmeans_pp_init(pts, n_clusters, rng)
    cols = pts.T.copy()
    prev_cost = np.inf
    for _ in range(KMEANS_MAX_ITERS):
        sq = sum(np.square(col - coord[:, None]) for col, coord in zip(cols, centers.T))
        labels = np.argmin(sq, axis=0)
        point_cost = sq.min(axis=0)
        counts = np.bincount(labels, minlength=n_clusters)
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[labels] > 1, point_cost, -np.inf)))
            counts[labels[far]] -= 1
            counts[c] = 1
            labels[far] = c
            centers[c] = pts[far]
            point_cost[far] = 0.0
        cost = float(point_cost.sum())
        if cost > prev_cost * (1 + 1e-12) + 1e-12:
            raise ArithmeticError("k-means cost increased between iterations")
        new_centers = np.column_stack(
            [np.bincount(labels, weights=col, minlength=n_clusters) for col in cols]
        ) / counts[:, None]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        if shift <= KMEANS_TOL:
            break
        centers = new_centers
        prev_cost = cost
    return labels, cost


def kmeans(points: np.ndarray, n_clusters: int, seed: int) -> tuple[np.ndarray, float]:
    """Best of ``KMEANS_RESTARTS`` k-means runs, all drawing from one
    generator seeded with ``seed``.

    The restart with the lowest within-cluster sum of squared distances wins,
    unless an earlier one is within 1e-12 relative of its cost. Clusters are
    numbered in the order of their first point.
    """
    rng = np.random.default_rng(seed)
    best_labels, best_cost = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, cost = kmeans_single(points, n_clusters, rng)
        if cost < best_cost * (1 - 1e-12):
            best_labels, best_cost = labels, cost
    # rank the clusters by their first point; kmeans_single leaves none empty
    first = np.unique(best_labels, return_index=True)[1]
    return np.argsort(np.argsort(first))[best_labels], float(best_cost)


def _check_entries(a: np.ndarray) -> None:
    """The door on edge weights: finite and nonnegative, each test written
    so that a NaN fails it."""
    if not np.isfinite(a.max(initial=0.0)):
        raise ValueError("adjacency has non-finite entries (NaN or inf)")
    if not (a.min(initial=0.0) >= 0.0):
        raise ValueError("adjacency has negative entries")


def cluster_graph(graph: LayeredGraph | np.ndarray, config: SpectralConfig) -> ClusteringResult:
    """Cluster a graph into ``config.k`` groups and score the partition.

    ``graph`` is a :class:`~mlpmod.graph.LayeredGraph`, as the builders
    return, or a dense adjacency matrix, and its type picks the path. It is
    checked once, and a fault raises ``ValueError`` naming it: the even x odd
    block of a ``LayeredGraph``, or the whole dense matrix, must hold finite,
    nonnegative entries, and a dense matrix must also be square and
    symmetric to within 1e-12 (a ``LayeredGraph`` is symmetric by
    construction). Zero-degree nodes are removed up front and labelled -1,
    and a ``config.k`` above the count of kept nodes, 0 for an edgeless
    graph, raises :class:`TooFewNodesError`.
    The kept subgraph's smallest eigenvectors come from
    :func:`bipartite_eigenvectors` for a ``LayeredGraph`` and from
    :func:`normalized_laplacian` and :func:`smallest_eigenvectors` for a
    dense matrix; then row normalization -> k-means, and the partition is
    scored with the exact normalized cut.
    """
    if isinstance(graph, LayeredGraph):
        _check_entries(graph.block)
        deg = graph.degrees()
    else:
        a = np.asarray(graph, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        _check_entries(a)
        # a - a.T is exactly antisymmetric, so its max is its max |entry|
        asym = (a - a.T).max(initial=0.0)
        if not (asym <= 1e-12):
            raise ValueError(f"adjacency is not symmetric (max asymmetry {asym:.3e})")
        deg = a.sum(axis=1)
    kept = np.flatnonzero(deg > 0)
    if kept.size < config.k:
        raise TooFewNodesError(f"k={config.k} exceeds the {kept.size} nodes of nonzero degree")
    if isinstance(graph, LayeredGraph):
        sub = graph.subgraph(deg > 0)
        _, vectors = bipartite_eigenvectors(sub, config.k)
    else:
        sub = a[np.ix_(kept, kept)]
        _, vectors = smallest_eigenvectors(normalized_laplacian(sub), config.k)
    embedding = row_normalize(vectors)
    sub_labels, cost = kmeans(embedding, config.k, config.rng_seed)
    score = ncut(sub, sub_labels, config.k)
    labels = np.full(deg.size, -1, dtype=np.int64)
    labels[kept] = sub_labels
    return ClusteringResult(labels=labels, ncut_value=score, kmeans_cost=cost)
