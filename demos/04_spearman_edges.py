"""Spearman-correlation edge weights, step by step.

Shows a monotone relation, a worked correlation with a tie under the
average-rank convention, the dead-unit convention, and a full correlation
adjacency built from a toy network's activations.
"""

import numpy as np

from mlpmod import build_correlation_adjacency
from mlpmod.correlation import spearman
from mlpmod.mlp import MlpArchitecture, MlpModel

# a monotone relation scores 1 no matter how nonlinear it is
x = np.array([0.5, 1.0, 2.0, 3.5, 9.0])
print("spearman(x, x**3) =", spearman(x, x**3))

# worked example with one tie: the two 7s share rank 3.5, and the
# correlation is 8/sqrt(95)
y = np.array([5.0, 6.0, 7.0, 8.0, 7.0])
print(f"spearman([1..5], {y.tolist()}) = {spearman(np.arange(1.0, 6.0), y):.6f}")
print(f"8/sqrt(95)                     = {8 / np.sqrt(95):.6f}")

# constant activation vectors (dead units) contribute no edge weight
dead = np.zeros(5)
print("spearman(dead unit, anything) =", spearman(dead, y))

# a 1-2-1 relu network over 5 examples of its one input pixel x: hidden0 =
# 2x tracks the input, hidden1 = x - 2 is negative on every input so it
# never fires, and the output -hidden0 + 1 is anti-correlated with hidden0
model = MlpModel(
    architecture=MlpArchitecture(layer_widths=(1, 2, 1), activation="relu"),
    weights=[np.array([[2.0], [1.0]]), np.array([[-1.0, 1.0]])],
    biases=[np.array([0.0, -2.0]), np.array([1.0])],
)
pixels = np.array([[0.1], [0.4], [0.2], [0.9], [0.6]])
graph, _ = build_correlation_adjacency(model, pixels)  # the graph and the logits
print("\ncorrelation adjacency (|spearman| on edges):")
print(np.round(graph.dense(), 3))
print("dead hidden1 (node 2) has only zero-weight edges")
