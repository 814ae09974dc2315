"""Record-then-build: the spearman graph from one table of every neuron's
activations, the oracle that ``correlation.build_correlation_adjacency`` is
checked against bit for bit."""

from typing import Sequence

import numpy as np

from mlpmod import mlp
from mlpmod.correlation import standardize_rank_rows
from mlpmod.graph import LayeredGraph


def record_activations(model: mlp.MlpModel, images: np.ndarray) -> list[np.ndarray]:
    """Activations over ``images``, one ``(w[l], m)`` array per layer ``l``
    (inputs, hidden layers, logits), one column per example. The arrays are
    views of one C-order table, rows in node order, so each neuron's vector
    is contiguous. The images are scaled one ``EVAL_BATCH`` at a time, and
    each scaled chunk fills its columns of the input rows."""
    images = np.asarray(images)
    widths = model.architecture.layer_widths
    table = np.empty((sum(widths), len(images)), dtype=np.float64)
    layers = np.split(table, np.cumsum(widths[:-1]))
    # one chunk even of no examples, so that every input gets its checks;
    # mlp.EVAL_BATCH is read at call time, so a patched value reaches it
    for start in range(0, max(len(images), 1), mlp.EVAL_BATCH):
        examples = slice(start, start + mlp.EVAL_BATCH)
        x = mlp._check_batch(model, images[examples])
        logits, conn_inputs, _, _ = mlp._forward_cached(model, x, None)
        for layer, act in zip(layers, conn_inputs + [logits]):
            layer[:, examples] = act.T
    return layers


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
