"""Spearman rank correlation and the activation-correlation adjacency.

Edge weights are the absolute Spearman correlation between the two endpoint
neurons' activation vectors over a fixed evaluation set. Ranks use the
average-rank convention for ties; a constant activation vector (a dead unit
or an always-equal input pixel) has no defined rank correlation and
contributes weight 0 by convention.
"""

from __future__ import annotations

import numpy as np

from .graph import adjacency_from_blocks, layer_starts

__all__ = [
    "rank_transform",
    "rank_columns",
    "spearman",
    "standardized_rank_columns",
    "build_correlation_adjacency",
]


def rank_transform(values: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks; tied values share the mean of their ranks.

    The ranks of any length-m vector sum to m(m+1)/2 regardless of ties.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("rank_transform needs a 1-D vector of length >= 2")
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # group boundaries between runs of equal values
    is_start = np.empty(x.size, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_x[1:], sorted_x[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], x.size)
    mean_ranks = (starts + ends + 1) / 2.0  # ranks are 1-based
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(mean_ranks, ends - starts)
    return ranks


def rank_columns(table: np.ndarray) -> np.ndarray:
    """Column-wise :func:`rank_transform` of an (m, n) table."""
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] < 2:
        raise ValueError("rank_columns needs an (m >= 2, n) table")
    out = np.empty_like(t)
    for j in range(t.shape[1]):
        out[:, j] = rank_transform(t[:, j])
    return out


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman correlation: Pearson correlation of the rank vectors.

    The dot product of the two :func:`standardized_rank_columns`, so it is
    0.0 when either input is constant (rank variance zero).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    zx, zy = standardized_rank_columns(np.stack([x, y], axis=1)).T
    return float(zx @ zy)


def standardized_rank_columns(table: np.ndarray) -> np.ndarray:
    """Rank each column, center it, scale to unit norm.

    Constant columns become all-zero so that any dot product with them is 0:
    a constant vector has no defined rank correlation.
    """
    ranks = rank_columns(table)
    ranks -= ranks.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(ranks, axis=0)
    norms[norms == 0.0] = 1.0
    ranks /= norms
    return ranks


def build_correlation_adjacency(table: np.ndarray, architecture) -> np.ndarray:
    """Adjacency matrix with |Spearman correlation| edge weights.

    ``table`` is an (m, N) activation table whose columns follow the graph's
    neuron numbering; ``architecture`` is an ``MlpArchitecture`` or a plain
    sequence of layer widths. Every adjacent-layer neuron pair is an edge of
    the underlying MLP, so each layer-pair block is computed as one matrix
    product of standardized rank columns.
    """
    widths = tuple(getattr(architecture, "layer_widths", architecture))
    starts = layer_starts(widths)
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] != starts[-1]:
        raise ValueError(
            f"activation table has shape {t.shape}; architecture implies "
            f"{starts[-1]} neuron columns"
        )
    if t.shape[0] < 2:
        raise ValueError("need at least two recorded examples")
    z = standardized_rank_columns(t)
    return adjacency_from_blocks(
        widths,
        (
            np.abs(z[:, starts[i] : starts[i + 1]].T @ z[:, starts[i + 1] : starts[i + 2]])
            for i in range(len(widths) - 1)
        ),
    )
