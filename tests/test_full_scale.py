"""Production-shape wiring checks: the full 784-256x4-10 architecture over
real-size splits, with synthetic pixels standing in for the actual datasets."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from mlpmod import harness
from mlpmod.correlation import build_correlation_adjacency
from mlpmod.data import load_splits
from mlpmod.graph import build_weight_adjacency
from mlpmod.harness import ExperimentConfig, analyze_checkpoint, run_experiment, train_and_save
from mlpmod.mlp import MlpArchitecture, TrainConfig, init_model
from mlpmod.report import METHODS
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
        "spearman": build_correlation_adjacency(model, test.images)[0],
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


# measured on planted and 1-epoch trained full-shape models, 1 against 2
# OpenBLAS threads: ncut moved by at most 4.3e-16 relative, kmeans_cost by
# at most 6.9e-14, and no partition changed
CROSS_THREAD_RTOL = 1e-12


def _openblas_thread_functions():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS;
    skips the calling test when numpy's BLAS has none."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # numpy loaded it already: the same handle
        try:
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    pytest.skip("numpy's BLAS has no scipy_openblas_set_num_threads64_ to switch threads")


@pytest.mark.slow
def test_one_checkpoint_gives_one_partition_on_1_and_2_blas_threads(
    full_shape_mnist_dir, tmp_path, monkeypatch
):
    """A smoke-width model is too small for OpenBLAS to split its products,
    so this test analyses a full-shape checkpoint."""
    set_threads, get_threads = _openblas_thread_functions()
    splits = load_splits(full_shape_mnist_dir / "mnist", ["train", "test"])
    cfg = ExperimentConfig(dataset="mnist", train=TrainConfig(epochs=1, rng_seed=0))
    ckpt = tmp_path / "model.mlpc"
    train_and_save(cfg, splits["train"], ckpt)
    labels = []

    def recording_cluster_graph(graph, spectral):
        result = cluster_graph(graph, spectral)
        labels.append(result.labels)
        return result

    monkeypatch.setattr(harness, "cluster_graph", recording_cluster_graph)
    results = {}
    previous = get_threads()
    try:
        for threads in (1, 2):
            set_threads(threads)
            if get_threads() != threads:
                pytest.skip(f"numpy's OpenBLAS runs {get_threads()} threads when set to {threads}")
            for method in METHODS:
                report = analyze_checkpoint(ckpt, method, test_set=splits["test"])
                results[threads, method] = report, labels.pop()
    finally:
        set_threads(previous)
    for method in METHODS:
        (one, one_labels), (two, two_labels) = results[1, method], results[2, method]
        np.testing.assert_array_equal(one_labels, two_labels, err_msg=method)
        for name in ("cluster_sizes", "layer_cluster_counts", "dropped_nodes"):
            assert getattr(one, name) == getattr(two, name), (method, name)
        for name in ("ncut", "kmeans_cost"):
            assert getattr(two, name) == pytest.approx(
                getattr(one, name), rel=CROSS_THREAD_RTOL, abs=0
            ), (method, name)
