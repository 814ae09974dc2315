"""Production-shape wiring checks: the full 784-256x4-10 architecture over
real-size splits, with synthetic pixels standing in for the actual datasets."""

import numpy as np
import pytest

from mlpmod.correlation import build_correlation_adjacency
from mlpmod.data import load_splits
from mlpmod.graph import build_weight_adjacency
from mlpmod.harness import ExperimentConfig, run_experiment
from mlpmod.mlp import MlpArchitecture, TrainConfig, init_model, record_activations
from mlpmod.spectral import SpectralConfig, cluster_graph

from test_spectral import forbid_dense_route


@pytest.mark.slow
def test_full_architecture_both_methods(full_shape_mnist_dir, tmp_path):
    cache = {}
    reports = {}
    for method in ("weights", "spearman"):
        cfg = ExperimentConfig(
            dataset="mnist",
            activation="relu",
            dropout=False,
            method=method,
            train=TrainConfig(epochs=1, rng_seed=0),
            spectral=SpectralConfig(k=4, rng_seed=0),
        )
        reports[method] = run_experiment(cfg, full_shape_mnist_dir, tmp_path, cache)
    for method, report in reports.items():
        assert report.layer_widths == [784, 256, 256, 256, 256, 10]
        assert sum(report.cluster_sizes) + report.dropped_nodes == 1818
        assert len(report.cluster_sizes) == 4
        assert min(report.cluster_sizes) >= 1
        assert 0.0 < report.ncut <= 4.0
    # the weights graph keeps every neuron: no trained weight is exactly zero
    assert reports["weights"].dropped_nodes == 0
    # both methods analyzed the very same trained model
    assert reports["weights"].checkpoint == reports["spearman"].checkpoint
    assert (
        reports["weights"].test_accuracy_percent
        == reports["spearman"].test_accuracy_percent
    )


@pytest.mark.slow
def test_full_size_graphs_cluster_as_their_dense_matrices(full_shape_mnist_dir, monkeypatch):
    arch = MlpArchitecture()
    model = init_model(arch, np.random.default_rng(0))
    test = load_splits(full_shape_mnist_dir / "mnist", ["test"])["test"]
    graphs = {
        "weights": build_weight_adjacency(model.weights),
        "spearman": build_correlation_adjacency(record_activations(model, test.images)),
    }
    cfg = SpectralConfig(k=4, rng_seed=0)
    dense = {method: cluster_graph(graph.dense(), cfg) for method, graph in graphs.items()}
    # a guard that sent every graph down the dense route would pass the
    # comparison below, only slower
    forbid_dense_route(monkeypatch)
    for method, graph in graphs.items():
        assert graph.n_nodes == 1818
        block = cluster_graph(graph, cfg)
        np.testing.assert_array_equal(block.labels, dense[method].labels, err_msg=method)
        assert block.ncut_value == pytest.approx(dense[method].ncut_value, rel=1e-10)
        assert block.kmeans_cost == pytest.approx(dense[method].kmeans_cost, rel=1e-10)
