"""Spearman rank correlation and the activation-correlation adjacency.

Edge weights are the absolute Spearman correlation between the two endpoint
neurons' activation vectors over a fixed evaluation set: the inputs as the
first layer sees them, hidden post-nonlinearity outputs, or logits. Ranks use
the average-rank convention for ties; a constant activation vector (a dead
unit or an always-equal input pixel) has no defined rank correlation and
contributes weight 0 by convention.
"""

from __future__ import annotations

import math

import numpy as np

from . import mlp
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


def build_correlation_adjacency(
    model: mlp.MlpModel, images: np.ndarray
) -> tuple[LayeredGraph, np.ndarray]:
    """``model``'s graph over ``images`` with |Spearman correlation| edge
    weights, as a :class:`~mlpmod.graph.LayeredGraph`, and the images' logits.

    Each layer is computed from the one before in ``mlp.EVAL_BATCH`` example
    chunks into a fresh ``(w[l], m)`` table, ranked in place and multiplied
    with the table before. A batch of the wrong width raises ``ValueError``
    first, even with no images; so do fewer than two images.
    """
    images = np.asarray(images)
    if len(images) < 2:
        mlp._check_batch(model, images)  # a batch of the wrong width is named first
        raise ValueError("need at least two recorded examples")
    chunks = [slice(s, s + mlp.EVAL_BATCH) for s in range(0, len(images), mlp.EVAL_BATCH)]
    blocks = []
    for t, width in enumerate(model.architecture.layer_widths):
        if t < 2:  # scaled one chunk at a time, and again as the inputs of layer 1
            acts = (mlp._check_batch(model, images[examples]) for examples in chunks)
        if t > 0:
            acts = [mlp._connection(model, t - 1, a) for a in acts]
        layer = np.empty((width, len(images)))
        for examples, a in zip(chunks, acts):
            layer[:, examples] = a.T
        standardize_rank_rows(layer)
        if t > 0:
            blocks.append(np.abs(prev @ layer.T))
        prev = layer
    return LayeredGraph.from_layers(blocks), np.concatenate(acts)
