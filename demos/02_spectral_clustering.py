"""Normalized spectral clustering on graphs with known structure.

Three stories: perfectly separable components give ncut 0, planted blocks
connected by weak edges are still recovered exactly, and a layered network
graph is clustered from its even x odd block alone, with the same result
as its dense matrix.
"""

import numpy as np

from mlpmod import SpectralConfig, cluster_graph
from mlpmod.graph import LayeredGraph, ncut

rng = np.random.default_rng(0)

# --- four disjoint triangles -> four components, ncut 0 -------------------
n = 12
adjacency = np.zeros((n, n))
for t in range(4):
    for i in range(3):
        for j in range(i + 1, 3):
            adjacency[3 * t + i, 3 * t + j] = adjacency[3 * t + j, 3 * t + i] = 1.0

result = cluster_graph(adjacency, SpectralConfig(k=4, rng_seed=0))
print("four disjoint triangles, k=4:")
print("  labels:", result.labels.tolist())
print(f"  ncut = {result.ncut_value:.6f}  (no edges cross clusters)")

# --- two planted blocks with weak cross edges -----------------------------
sizes = (10, 10)
total = sum(sizes)
truth = np.repeat([0, 1], sizes)
planted = np.zeros((total, total))
for i in range(total):
    for j in range(i + 1, total):
        if truth[i] == truth[j] and rng.random() < 0.9:
            planted[i, j] = planted[j, i] = 1.0
        elif truth[i] != truth[j] and rng.random() < 0.1:
            planted[i, j] = planted[j, i] = 0.01
for start, size in ((0, 10), (10, 10)):  # ring inside each block: no dead nodes
    for step in range(size):
        i, j = start + step, start + (step + 1) % size
        planted[i, j] = planted[j, i] = 1.0

result = cluster_graph(planted, SpectralConfig(k=2, rng_seed=0))
recovered = all(
    len(set(result.labels[truth == block])) == 1 for block in (0, 1)
)
print("\nplanted 2-block graph (within weight 1.0, cross weight 0.01):")
print("  blocks recovered exactly:", recovered)
print(f"  returned ncut = {result.ncut_value:.6f}")
print(f"  planted-partition ncut = {ncut(planted, truth, 2):.6f}")

# --- a layered network with two planted modules ---------------------------
# edges join adjacent layers only, so the graph is bipartite (even layers
# against odd ones): from_layers writes the layer-pair blocks into one even x
# odd block, and cluster_graph takes its eigenvectors from the Gram matrix of
# that block's smaller side instead of the whole n x n Laplacian
widths = (12, 8, 8, 4)
modules = [np.arange(w) % 2 for w in widths]
blocks = [
    rng.uniform(0.5, 1.0, (a, b)) * np.where(ma[:, None] == mb[None, :], 1.0, 0.02)
    for a, b, ma, mb in zip(widths, widths[1:], modules, modules[1:])
]
layered = LayeredGraph.from_layers(blocks)  # block t is (widths[t], widths[t+1])
from_blocks = cluster_graph(layered, SpectralConfig(k=2, rng_seed=0))
from_dense = cluster_graph(layered.dense(), SpectralConfig(k=2, rng_seed=0))
print(f"\nlayered {'-'.join(map(str, widths))} network, two planted modules:")
layered_truth = np.concatenate(modules)
print("  modules recovered exactly:", all(
    len(set(from_blocks.labels[layered_truth == m])) == 1 for m in (0, 1)
))
print("  same labels as the dense path:", np.array_equal(from_blocks.labels, from_dense.labels))
print(f"  ncut from the block = {from_blocks.ncut_value:.6f}, dense = {from_dense.ncut_value:.6f}")
