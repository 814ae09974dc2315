"""Undirected weighted graph view of a feedforward network, plus exact
partition scoring.

Neurons of all layers (input and output included) are numbered
consecutively: layer 0 first, then layer 1, and so on. Edges exist only
between adjacent layers and carry the absolute trained weight; biases do
not appear in the graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "layer_starts",
    "adjacency_from_blocks",
    "build_weight_adjacency",
    "degree",
    "volume",
    "cut_weight",
    "ncut",
]


def layer_starts(layer_widths: Sequence[int]) -> np.ndarray:
    """First global node index of each layer (a trailing total is appended)."""
    widths = np.asarray(layer_widths, dtype=np.int64)
    if widths.ndim != 1 or widths.size < 2:
        raise ValueError("need at least two layer widths")
    if np.any(widths < 1):
        raise ValueError("layer widths must be positive")
    return np.concatenate([[0], np.cumsum(widths)])


def adjacency_from_blocks(
    layer_widths: Sequence[int], blocks: Iterable[np.ndarray]
) -> np.ndarray:
    """Dense symmetric adjacency matrix from its layer-pair blocks.

    ``blocks`` yields one block per adjacent layer pair, in order; block
    ``t`` has shape ``(widths[t], widths[t+1])``, rows in layer ``t`` and
    columns in layer ``t+1``. Every other entry is zero, so the result is
    symmetric with a zero diagonal by construction.
    """
    starts = layer_starts(layer_widths)
    n = int(starts[-1])
    adjacency = np.zeros((n, n), dtype=np.float64)
    for t, block in enumerate(blocks):
        r0, r1 = starts[t], starts[t + 1]
        c0, c1 = starts[t + 1], starts[t + 2]
        adjacency[r0:r1, c0:c1] = block
        adjacency[c0:c1, r0:r1] = block.T
    return adjacency


def build_weight_adjacency(
    layer_weight_matrices: Sequence[np.ndarray],
    layer_widths: Sequence[int],
) -> np.ndarray:
    """Adjacency matrix of the network graph from trained weight matrices.

    ``layer_weight_matrices[t]`` must have shape ``(widths[t+1], widths[t])``
    and connects layer ``t`` to layer ``t+1``. Each edge carries the absolute
    weight; everything else (including the diagonal) is zero. Biases are
    ignored.
    """
    widths = list(layer_widths)
    if len(layer_weight_matrices) != len(widths) - 1:
        raise ValueError(
            f"expected {len(widths) - 1} weight matrices for "
            f"{len(widths)} layers, got {len(layer_weight_matrices)}"
        )
    blocks = []
    for t, w in enumerate(layer_weight_matrices):
        w = np.asarray(w, dtype=np.float64)
        expected = (widths[t + 1], widths[t])
        if w.shape != expected:
            raise ValueError(
                f"weight matrix {t} has shape {w.shape}, expected {expected}"
            )
        blocks.append(np.abs(w).T)  # rows: layer t, cols: layer t+1
    return adjacency_from_blocks(widths, blocks)


def degree(adjacency: np.ndarray, node: int) -> float:
    n = adjacency.shape[0]
    if not 0 <= node < n:
        raise ValueError(f"node index {node} out of range for {n} nodes")
    return float(np.sum(adjacency[node]))


def _as_index_array(nodes: Iterable[int], n: int, what: str) -> np.ndarray:
    idx = np.asarray(sorted(nodes) if isinstance(nodes, (set, frozenset)) else list(nodes))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{what} contains node indices outside 0..{n - 1}")
    return idx.astype(np.intp)


def volume(adjacency: np.ndarray, cluster: Iterable[int]) -> float:
    """Sum of degrees over ``cluster``. Empty clusters are rejected."""
    idx = _as_index_array(cluster, adjacency.shape[0], "cluster")
    if idx.size == 0:
        raise ValueError("volume of an empty cluster is undefined")
    return float(adjacency[idx].sum())


def cut_weight(adjacency: np.ndarray, left: Iterable[int], right: Iterable[int]) -> float:
    """Total edge weight between the node sets ``left`` and ``right``."""
    n = adjacency.shape[0]
    li = _as_index_array(left, n, "left set")
    ri = _as_index_array(right, n, "right set")
    if li.size == 0 or ri.size == 0:
        return 0.0
    return float(adjacency[np.ix_(li, ri)].sum())


def ncut(adjacency: np.ndarray, labels: np.ndarray, n_clusters: int | None = None) -> float:
    """Normalized cut of the partition given by ``labels``.

    ``labels[i]`` is the cluster of node ``i``, in ``0..n_clusters-1``; every
    cluster must be nonempty and have positive volume. Lower values mean the
    clusters are better separated; 0 means no edges cross cluster borders.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    labels = np.asarray(labels)
    n = a.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    k = int(labels.max()) + 1 if n_clusters is None else int(n_clusters)
    if k < 1 or labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in 0..{k - 1}")
    deg = a.sum(axis=1)
    score = 0.0
    for c in range(k):
        mask = labels == c
        if not mask.any():
            raise ValueError(f"cluster {c} is empty")
        vol = float(deg[mask].sum())
        if vol == 0.0:
            raise ValueError(f"cluster {c} has zero volume; ncut is undefined")
        within = float(a[np.ix_(mask.nonzero()[0], mask.nonzero()[0])].sum())
        score += (vol - within) / vol
    return score
