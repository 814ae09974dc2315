"""The pipeline against the network's own symmetries.

Two changes to a ReLU network's parameters leave the function it computes
unchanged: permuting the units of a hidden layer, and scaling a hidden
unit's incoming weights and bias by c > 0 and its outgoing weights by 1/c
(non-negative homogeneity; Dinh et al. 2017, "Sharp Minima Can Generalize
For Deep Nets", arXiv 1703.04933). The spearman graph ranks each unit's
activations, and a positive scale moves no rank, so it follows both; the
weights graph follows the permutation but not the rescaling.

The model is a small version of the benchmark's planted checkpoint, with
modules strong enough that k-means has one clear optimum on both graphs.
"""

import numpy as np
import pytest

from mlpmod.checkpoint import save_checkpoint
from mlpmod.correlation import build_correlation_adjacency
from mlpmod.data import LabeledImageSet
from mlpmod.graph import build_weight_adjacency
from mlpmod.harness import analyze_checkpoint
from mlpmod.mlp import MlpArchitecture, MlpModel, forward
from mlpmod.spectral import SpectralConfig, cluster_graph

from test_spectral import same_partition

K = SpectralConfig().k
WIDTHS = (32, 24, 24, 24, 24, 8)
CROSS_SCALE = 0.05  # weight scale of edges between modules
# enough examples that the spearman graph's cross-module edges are weak
# (about 1/sqrt(N_TEST)); with 200 the partition follows depth, not modules
N_TEST = 2000
# measured: permuted and original ncut differ by at most 1.6e-15 relative
# over planted seeds 0-19 under both methods
NCUT_RTOL = 1e-14
SEEDS = (0, 1)


def planted_model(seed):
    """A ReLU model of ``WIDTHS`` with ``K`` planted modules and one dead
    unit per hidden layer, its test set, and each node's module.

    The pixels of a module follow one shared factor, and the weights inside
    a module are positive, so each unit follows its module's factor. Each
    live unit's bias centres its pre-activation on the test images; the
    dead unit's bias lies below any pre-activation they reach, so the
    spearman method drops it.
    """
    rng = np.random.default_rng(seed)
    modules = [np.arange(WIDTHS[0]) % K]
    modules += [rng.permutation(np.arange(w) % K) for w in WIDTHS[1:-1]]
    modules.append(np.arange(WIDTHS[-1]) % K)
    factor = rng.uniform(-100.0, 100.0, (N_TEST, K))
    noise = rng.uniform(-20.0, 20.0, (N_TEST, WIDTHS[0]))
    images = np.round(128.0 + factor[:, modules[0]] + noise).astype(np.uint8)
    a = images / 255.0
    weights, biases = [], []
    for t, (fan_in, fan_out) in enumerate(zip(WIDTHS[:-1], WIDTHS[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        same = modules[t + 1][:, None] == modules[t][None, :]
        cross = CROSS_SCALE * rng.choice([-1.0, 1.0], (fan_out, fan_in))
        w = rng.uniform(0.1 * bound, bound, (fan_out, fan_in)) * np.where(same, 1.0, cross)
        b = np.zeros(fan_out)
        if t + 1 < len(WIDTHS) - 1:
            z = a @ w.T
            b = -np.median(z, axis=0)
            dead = rng.integers(fan_out)
            b[dead] = -(1.0 + np.abs(w[dead]).sum() * a.max())
            a = np.maximum(z + b, 0.0)
        weights.append(w)
        biases.append(b)
    model = MlpModel(architecture=MlpArchitecture(layer_widths=WIDTHS),
                     weights=weights, biases=biases)
    test_set = LabeledImageSet(images, rng.integers(0, WIDTHS[-1], N_TEST), "test")
    return model, test_set, np.concatenate(modules)


def with_hidden_units_mapped(model, perms, scales):
    """``model`` with hidden layer ``l``'s unit ``i`` taken from its unit
    ``perms[l - 1][i]`` and scaled by ``scales[l - 1][i]``: incoming weights
    and bias times the scale, outgoing weights divided by it."""
    perms = [np.arange(WIDTHS[0]), *perms, np.arange(WIDTHS[-1])]
    scales = [np.ones(WIDTHS[0]), *scales, np.ones(WIDTHS[-1])]
    weights, biases = [], []
    for t, (w, b) in enumerate(zip(model.weights, model.biases)):
        rows, cols = perms[t + 1], perms[t]
        weights.append(w[rows][:, cols] * scales[t + 1][:, None] / scales[t][None, :])
        biases.append(b[rows] * scales[t + 1])
    return MlpModel(architecture=model.architecture, weights=weights, biases=biases)


def partitions(model, test_set):
    """Each method's clustering of ``model``, built as the pipeline builds it."""
    graphs = {
        "weights": build_weight_adjacency(model.weights),
        "spearman": build_correlation_adjacency(model, test_set.images)[0],
    }
    return {method: cluster_graph(g, SpectralConfig()) for method, g in graphs.items()}


def power_of_two_scales(rng):
    """Per hidden layer: half of its units scaled by 2^j, j drawn from -3..3,
    the rest by 1."""
    scales = []
    for width in WIDTHS[1:-1]:
        s = np.ones(width)
        s[rng.choice(width, width // 2, replace=False)] = 2.0 ** rng.integers(-3, 4, width // 2)
        scales.append(s)
    return scales


def analyze_both(tmp_path, models, method, test_set):
    """The ``analyze_checkpoint`` report of each model under ``method``,
    without the fields that name the file or time the run."""
    reports = []
    for i, model in enumerate(models):
        path = tmp_path / f"model{i}.mlpc"
        save_checkpoint(model, path)
        report = analyze_checkpoint(path, method, test_set=test_set).to_dict()
        reports.append({k: v for k, v in report.items() if k not in ("wall_times", "checkpoint")})
    return reports


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_hidden_units_permutes_both_partitions(seed):
    model, test_set, modules = planted_model(seed)
    rng = np.random.default_rng([seed, 1])
    perms = [rng.permutation(w) for w in WIDTHS[1:-1]]
    permuted = with_hidden_units_mapped(model, perms, [np.ones(w) for w in WIDTHS[1:-1]])
    # the permuted network's node i is the original's node node_of[i]
    starts = np.cumsum((0,) + WIDTHS[:-1])
    node_of = np.concatenate([np.arange(WIDTHS[0]), *(p + s for p, s in zip(perms, starts[1:])),
                              np.arange(WIDTHS[-1]) + starts[-1]])
    original, mapped = partitions(model, test_set), partitions(permuted, test_set)
    for method in ("weights", "spearman"):
        a, b = original[method], mapped[method]
        kept = a.labels >= 0
        assert same_partition(modules[kept], a.labels[kept]), method  # the one clear optimum
        back = np.empty_like(b.labels)
        back[node_of] = b.labels
        assert np.array_equal(back >= 0, kept), method
        assert same_partition(a.labels, back), method
        assert b.ncut_value == pytest.approx(a.ncut_value, rel=NCUT_RTOL, abs=0.0), method
    assert original["spearman"].labels.min() == -1  # the dead units were dropped


@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_two_rescaling_keeps_the_function_and_the_spearman_report(seed, tmp_path):
    model, test_set, _ = planted_model(seed)
    scales = power_of_two_scales(np.random.default_rng([seed, 2]))
    rescaled = with_hidden_units_mapped(model, [np.arange(w) for w in WIDTHS[1:-1]], scales)
    assert not all(np.array_equal(a, b) for a, b in zip(model.weights, rescaled.weights))
    assert np.array_equal(forward(model, test_set.images), forward(rescaled, test_set.images))
    original, changed = analyze_both(tmp_path, (model, rescaled), "spearman", test_set)
    assert changed == original


@pytest.mark.parametrize("seed", SEEDS)
def test_power_of_two_rescaling_moves_the_weights_ncut(seed, tmp_path):
    # a property of the paper's |W| graph, pinned and not bounded: the
    # rescaled network computes the same function but has another ncut
    model, test_set, _ = planted_model(seed)
    scales = power_of_two_scales(np.random.default_rng([seed, 2]))
    rescaled = with_hidden_units_mapped(model, [np.arange(w) for w in WIDTHS[1:-1]], scales)
    original, changed = analyze_both(tmp_path, (model, rescaled), "weights", test_set)
    assert changed["test_accuracy_percent"] == original["test_accuracy_percent"]
    assert changed["ncut"] != original["ncut"]
