"""Undirected weighted graph view of a feedforward network, plus exact
partition scoring.

Neurons of all layers (input and output included) are numbered
consecutively: layer 0 first, then layer 1, and so on. Edges exist only
between adjacent layers and carry the absolute trained weight; biases do
not appear in the graph. Such a graph is bipartite, the even layers against
the odd layers, and is held as a :class:`LayeredGraph`: a per-node parity
mask and the one even x odd weight block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LayeredGraph",
    "build_weight_adjacency",
    "degree",
    "volume",
    "cut_weight",
    "ncut",
]


@dataclass(frozen=True, eq=False)
class LayeredGraph:
    """A graph whose edges join adjacent layers only, held as its even x odd
    block.

    The boolean ``even[i]`` says whether node ``i`` lies in an even layer.
    The float64 ``block[r, c]`` joins the ``r``-th even node to the ``c``-th
    odd node, each side counted in node order, so with the even nodes first
    the adjacency matrix is ``[[0, block], [block.T, 0]]``: symmetric with a
    zero diagonal by construction. The builders go through
    :meth:`from_layers`. Construction checks the shapes;
    :func:`~mlpmod.spectral.cluster_graph` checks the entries.
    """

    even: np.ndarray
    block: np.ndarray

    def __post_init__(self):
        expected = (int(np.count_nonzero(self.even)), int(np.count_nonzero(~self.even)))
        if self.block.shape != expected:
            raise ValueError(f"block has shape {self.block.shape}, expected {expected}")

    @classmethod
    def from_layers(cls, blocks: Sequence[np.ndarray]) -> LayeredGraph:
        """The graph of the layers that ``blocks`` join, numbered layer by layer.

        ``blocks[t]`` joins layer ``t`` (rows) to layer ``t+1`` (columns), so
        the widths are the first block's rows and every block's columns. Each
        block is 2-D with no empty side and has as many rows as the block
        before it has columns.
        """
        shapes = [np.shape(b) for b in blocks]
        if not shapes:
            raise ValueError("need at least one block")
        for t, shape in enumerate(shapes):
            if len(shape) != 2 or 0 in shape:
                raise ValueError(f"block {t} has shape {shape}; a block is 2-D with no empty side")
            if t and shape[0] != shapes[t - 1][1]:
                raise ValueError(
                    f"block {t} has shape {shape} but block {t - 1} has shape "
                    f"{shapes[t - 1]}; its rows must match the columns before it"
                )
        widths = [shapes[0][0]] + [shape[1] for shape in shapes]
        # on its own side, a layer follows the layers of its parity before it
        side = [slice(sum(widths[t % 2 : t : 2]), sum(widths[t % 2 : t + 1 : 2]))
                for t in range(len(widths))]
        block = np.zeros((sum(widths[0::2]), sum(widths[1::2])))
        for t, layer_block in enumerate(blocks):
            if t % 2 == 0:
                block[side[t], side[t + 1]] = layer_block
            else:
                block[side[t + 1], side[t]] = np.transpose(layer_block)
        return cls(np.repeat(np.arange(len(widths)) % 2 == 0, widths), block)

    @property
    def n_nodes(self) -> int:
        return self.even.size

    def degrees(self) -> np.ndarray:
        """Row sums of ``block`` for the even nodes, column sums for the odd."""
        deg = np.empty(self.n_nodes)
        deg[self.even] = self.block.sum(axis=1)
        deg[~self.even] = self.block.sum(axis=0)
        return deg

    def subgraph(self, keep: np.ndarray) -> LayeredGraph:
        """The graph on the nodes where the boolean ``keep`` is True."""
        if keep.all():
            return self
        return LayeredGraph(self.even[keep], self.block[np.ix_(keep[self.even], keep[~self.even])])

    def dense(self) -> np.ndarray:
        """The dense symmetric n x n adjacency matrix: the reference the
        block code is tested against, and the input of the dense path."""
        adjacency = np.zeros((self.n_nodes, self.n_nodes))
        adjacency[np.ix_(self.even, ~self.even)] = self.block
        adjacency[np.ix_(~self.even, self.even)] = self.block.T
        return adjacency

    def within_weights(self, labels: np.ndarray, n_clusters: int) -> np.ndarray:
        """Total weight inside each cluster, both directions of every edge
        counted as in a dense adjacency's ``A[c, c].sum()``."""
        onehot = (labels[:, None] == np.arange(n_clusters)).astype(np.float64)
        return 2.0 * (onehot[self.even] * (self.block @ onehot[~self.even])).sum(axis=0)


def build_weight_adjacency(weights: Sequence[np.ndarray]) -> LayeredGraph:
    """The network graph of trained weight matrices, as a :class:`LayeredGraph`.

    ``weights[t]``, of shape ``(w[t+1], w[t])``, connects layer ``t`` to
    layer ``t+1``; transposed, it is block ``t`` of :meth:`LayeredGraph.from_layers`,
    which checks that the shapes fit together. Each edge carries the
    absolute weight; biases are ignored. ``.dense()`` gives the n x n matrix.
    """
    return LayeredGraph.from_layers([np.abs(np.asarray(w, dtype=np.float64)).T for w in weights])


def degree(adjacency: np.ndarray, node: int) -> float:
    n = adjacency.shape[0]
    if not 0 <= node < n:
        raise ValueError(f"node index {node} out of range for {n} nodes")
    return float(np.sum(adjacency[node]))


def _as_index_array(nodes: Iterable[int], n: int, what: str) -> np.ndarray:
    idx = np.asarray(sorted(nodes) if isinstance(nodes, (set, frozenset)) else list(nodes))
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"{what} must hold integer node indices, got dtype {idx.dtype}")
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


def ncut(graph: LayeredGraph | np.ndarray, labels: np.ndarray, n_clusters: int) -> float:
    """Normalized cut of the partition given by ``labels``.

    ``graph`` is a :class:`LayeredGraph`, whose volumes and within-cluster
    weights come from its blocks, or a dense adjacency matrix.
    ``labels[i]`` is the cluster of node ``i``, in ``0..n_clusters-1``; every
    cluster must be nonempty and have positive volume. Lower values mean the
    clusters are better separated; 0 means every edge stays inside its cluster.
    """
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if isinstance(graph, LayeredGraph):
        n = graph.n_nodes
    else:
        a = np.asarray(graph, dtype=np.float64)
        n = a.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    k = int(n_clusters)
    if k < 1 or labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in 0..{k - 1}")
    if isinstance(graph, LayeredGraph):
        deg, within = graph.degrees(), graph.within_weights(labels, k)
    else:
        deg = a.sum(axis=1)
        within = [a[np.ix_(labels == c, labels == c)].sum() for c in range(k)]
    score = 0.0
    for c in range(k):
        mask = labels == c
        if not mask.any():
            raise ValueError(f"cluster {c} is empty")
        vol = float(deg[mask].sum())
        if vol == 0.0:
            raise ValueError(f"cluster {c} has zero volume; ncut is undefined")
        score += (vol - float(within[c])) / vol
    return score
