"""Modularity analysis of trained MLPs.

A trained multilayer perceptron is cast as an undirected weighted graph
(nodes = neurons, edges = adjacent-layer connections) under one of two
edge-weight schemes: the absolute trained weight, or the absolute Spearman
correlation between the endpoint neurons' activations over the test set.
The graph is split into k clusters by normalized spectral clustering and
the partition is scored with the exact normalized cut; lower means more
modular.
"""

from .checkpoint import load_checkpoint
from .correlation import build_correlation_adjacency
from .graph import build_weight_adjacency
from .harness import ExperimentConfig, analyze_checkpoint, run_experiment, run_grid
from .mlp import TrainConfig
from .spectral import SpectralConfig, cluster_graph

__version__ = "0.1.0"
