"""Spearman rank correlation and the activation-correlation adjacency.

Edge weights are the absolute Spearman correlation between the two endpoint
neurons' activation vectors over a fixed evaluation set. Ranks use the
average-rank convention for ties; a constant activation vector (a dead unit
or an always-equal input pixel) has no defined rank correlation and
contributes weight 0 by convention.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import LayeredGraph

__all__ = [
    "spearman",
    "standardize_rank_rows",
    "build_correlation_adjacency",
]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman correlation: Pearson correlation of the rank vectors.

    The dot product of the two :func:`standardize_rank_rows` rows, so it is
    0.0 when either input is constant (rank variance zero).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    z = np.stack([x, y])
    standardize_rank_rows(z)
    return float(z[0] @ z[1])


def standardize_rank_rows(table: np.ndarray) -> None:
    """Overwrite each row of the float64 ``table`` with its ranks, centered
    and scaled to unit norm.

    Constant rows become all-zero so that any dot product with them is 0:
    a constant vector has no defined rank correlation.

    Exact, with no pass over a row beyond the sort: every row's mean rank
    is (m+1)/2, and its sum of squared centered ranks is
    (m^3 - m - sum(t^3 - t))/12 over its tie groups of sizes t (Kendall &
    Gibbons, *Rank Correlation Methods*), computed in integers. Ranks are
    half-integers, so the result equals ranking, centering and normalizing
    in float64 bit for bit.
    """
    if table.dtype != np.float64 or table.ndim != 2 or table.shape[1] < 2:
        raise ValueError("standardize_rank_rows needs a float64 (n, m >= 2) table")
    for row in table:
        _standardize_ranks(row)


def _standardize_ranks(x: np.ndarray) -> None:
    """Overwrite the vector ``x``, a row of any stride, with its standardized
    ranks.

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
    twice_centered[np.searchsorted(starts, n_neg):] += 2 * n_zero  # starts is sorted
    # sum(t^3 - t) over all groups, where the nonzero sizes sum to values.size
    sum_t3_t = int(np.dot(sizes, sizes * sizes)) - values.size + n_zero**3 - n_zero
    # the sum of squared centered ranks is a multiple of 1/4, so dividing the
    # integer 12 times that sum by 12 is exact
    twelve_ss = m**3 - m - sum_t3_t
    norm = math.sqrt(twelve_ss / 12) if twelve_ss else 1.0
    x[:] = (2 * n_neg + n_zero - m) * 0.5 / norm
    x[position] = np.repeat(twice_centered * 0.5 / norm, sizes)


def build_correlation_adjacency(activations: Sequence[np.ndarray]) -> LayeredGraph:
    """The network graph with |Spearman correlation| edge weights, as a
    :class:`~mlpmod.graph.LayeredGraph`; ``.dense()`` gives the n x n matrix.

    ``activations[l]`` is layer ``l``'s ``(w[l], m)`` activations, as
    ``record_activations`` returns them: one row per neuron, one column per
    recorded example. Every adjacent-layer neuron pair is an edge of the
    underlying MLP, so each layer-pair block is one matrix product of
    standardized rank rows.

    Every array is checked before any is ranked: at least two layers, each
    2-D float64 with at least one row, all with the same ``m >= 2`` columns,
    or ``ValueError``. Then each array, of any memory layout, is overwritten
    with its standardized ranks.
    """
    if len(activations) < 2:
        raise ValueError(f"need at least two layers of activations, got {len(activations)}")
    for layer, a in enumerate(activations):
        if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] < 1:
            raise ValueError(f"layer {layer} is {a.dtype} {a.shape}, not float64 (n >= 1, m)")
        if a.shape[1] != activations[0].shape[1]:
            m = activations[0].shape[1]
            raise ValueError(f"layer {layer} has {a.shape[1]} recorded examples, layer 0 has {m}")
    if activations[0].shape[1] < 2:
        raise ValueError("need at least two recorded examples")
    for a in activations:
        standardize_rank_rows(a)
    return LayeredGraph.from_layers([np.abs(a @ b.T) for a, b in zip(activations, activations[1:])])
