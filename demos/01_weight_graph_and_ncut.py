"""A trained MLP as a weighted graph, scored with the exact normalized cut.

Builds the graph of a tiny 1-2-1 network by hand, then shows how the ncut
of a partition reacts to where the boundary is drawn. The graph is held as
a per-node parity mask and its even x odd block; ``.dense()`` gives the
full adjacency matrix.
"""

import numpy as np

from mlpmod import build_weight_adjacency
from mlpmod.graph import cut_weight, ncut, volume

# a 1-2-1 network: one input, two hidden units, one output
weights = [
    np.array([[2.0], [-3.0]]),   # input -> hidden
    np.array([[0.5, 4.0]]),      # hidden -> output
]
graph = build_weight_adjacency(weights)  # the shapes give the layer widths
# layers 0 and 2 are even and layer 1 is odd, so the block joins the input
# and the output (its rows) to the two hidden units (its columns)
print("even layer per node:", graph.even.tolist())
print("even x odd block (rows: nodes 0 and 3, columns: nodes 1 and 2):")
print(graph.block)
adjacency = graph.dense()
print("adjacency (|weight| on adjacent-layer edges, nodes 0..3):")
print(adjacency)
print("degrees from the block:", graph.degrees())

# partition A: input+hidden0 vs hidden1+output
labels_a = np.array([0, 0, 1, 1])
# partition B: cut the strong 4.0 edge instead
labels_b = np.array([0, 0, 1, 0])

for name, labels in (("A", labels_a), ("B", labels_b)):
    parts = [np.flatnonzero(labels == c) for c in (0, 1)]
    print(f"\npartition {name}: {labels.tolist()}")
    for c, part in enumerate(parts):
        others = np.flatnonzero(labels != c)
        print(
            f"  cluster {c}: volume={volume(adjacency, part):.2f} "
            f"cut={cut_weight(adjacency, part, others):.2f}"
        )
    print(f"  ncut = {ncut(graph, labels, 2):.4f}  (dense: {ncut(adjacency, labels, 2):.4f})")

print("\nLower ncut means the boundary crosses less relative weight;")
print("cutting through the 4.0 edge is punished accordingly.")
