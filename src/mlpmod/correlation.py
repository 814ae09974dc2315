"""Spearman rank correlation and the activation-correlation adjacency.

Edge weights are the absolute Spearman correlation between the two endpoint
neurons' activation vectors over a fixed evaluation set. Ranks use the
average-rank convention for ties; a constant activation vector (a dead unit
or an always-equal input pixel) has no defined rank correlation and
contributes weight 0 by convention.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import adjacency_from_blocks, layer_starts

__all__ = [
    "rank_transform",
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


# columns per transposed copy: the row-major table is read 64 values
# (512 bytes) at a time, and each column is ranked as a contiguous row
_BLOCK_COLUMNS = 64


def standardized_rank_columns(table: np.ndarray) -> np.ndarray:
    """Rank each column, center it, scale to unit norm.

    Constant columns become all-zero so that any dot product with them is 0:
    a constant vector has no defined rank correlation.

    Exact, with no pass over the table beyond the sort: every column's mean
    rank is (m+1)/2, and its sum of squared centered ranks is
    (m^3 - m - sum(t^3 - t))/12 over its tie groups of sizes t (Kendall &
    Gibbons, *Rank Correlation Methods*), computed in integers. Ranks are
    half-integers, so the result equals ranking, centering and normalizing
    in float64 bit for bit.
    """
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] < 2:
        raise ValueError("standardized_rank_columns needs an (m >= 2, n) table")
    out = np.empty(t.shape, dtype=np.float64)
    for start in range(0, t.shape[1], _BLOCK_COLUMNS):
        cols = slice(start, start + _BLOCK_COLUMNS)
        block = np.ascontiguousarray(t[:, cols].T)
        for row in block:
            _standardize_ranks(row)
        out[:, cols] = block.T
    return out


def _standardize_ranks(x: np.ndarray) -> None:
    """Overwrite the contiguous vector ``x`` with its standardized ranks.

    Only the nonzero entries are sorted; the exact zeros (``-0.0`` included)
    form one tie group between the negative and the positive values. The
    sort kind does not matter, because a tie group gets its mean rank
    whatever order the sort leaves it in.
    """
    m = x.size
    nonzero = np.flatnonzero(x != 0.0)  # a bool mask scans several times faster
    order = np.argsort(x[nonzero])
    position = nonzero[order]
    values = x[position]
    n_neg = int(np.searchsorted(values, 0.0))
    n_zero = m - values.size
    # tie groups of the sorted nonzero values; the zero run sits at n_neg
    is_start = np.empty(values.size, dtype=bool)
    is_start[:1] = True
    np.not_equal(values[1:], values[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    sizes = np.diff(starts, append=values.size)
    # twice the centered mean rank of a group spanning [a, b): a + b - m,
    # with the positive groups shifted past the zero run
    twice_centered = 2 * starts + sizes - m
    twice_centered[starts >= n_neg] += 2 * n_zero
    sum_t3_t = int(np.sum(sizes**3 - sizes)) + n_zero**3 - n_zero
    # the sum of squared centered ranks is a multiple of 1/4, so dividing the
    # integer 12 times that sum by 12 is exact
    twelve_ss = m**3 - m - sum_t3_t
    norm = math.sqrt(twelve_ss / 12) if twelve_ss else 1.0
    x[:] = (2 * n_neg + n_zero - m) * 0.5 / norm
    x[position] = np.repeat(twice_centered * 0.5 / norm, sizes)


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
