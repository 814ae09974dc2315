"""Acceptance suite.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` line (run pytest with
``-s`` to watch them). Criteria 6-8 need the real MNIST and FashionMNIST IDX
files; point MLPMOD_DATA_DIR at a directory containing ``mnist/`` and
``fashion_mnist/`` subdirectories (default: ``./data``). Without them those
criteria skip with an explicit reason. The trained grid used by criteria 6-8
is built once and cached under MLPMOD_ACCEPTANCE_OUT if set.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mlpmod.correlation import spearman
from mlpmod.data import SPLIT_FILES
from mlpmod.graph import cut_weight, degree, ncut, volume
from mlpmod.harness import run_experiment, run_grid
from mlpmod.mlp import DEFAULT_LAYER_WIDTHS, TrainConfig, loss_and_gradients, sample_dropout_masks
from mlpmod.spectral import (
    SpectralConfig,
    cluster_graph,
    normalized_laplacian,
    smallest_eigenvectors,
)

from conftest import smoke_config
from test_correlation import naive_spearman
from test_graph import naive_cut, naive_degree, naive_ncut, naive_volume, random_adjacency, random_partition
from test_mlp import assert_gradients_close, finite_difference_gradients, make_model
from test_spectral import planted_graph, same_partition

DATA_DIR = Path(os.environ.get("MLPMOD_DATA_DIR", "data"))
SEEDS = tuple(
    int(s) for s in os.environ.get("MLPMOD_ACCEPTANCE_SEEDS", "0,1,2").split(",")
)

TABLE_ACCURACY = {
    ("mnist", "relu", False): 98.0,
    ("mnist", "sigmoid", False): 97.0,
    ("mnist", "relu", True): 96.0,
    ("mnist", "sigmoid", True): 96.0,
    ("fashion_mnist", "relu", False): 88.0,
    ("fashion_mnist", "sigmoid", False): 87.0,
    ("fashion_mnist", "relu", True): 85.0,
    ("fashion_mnist", "sigmoid", True): 85.0,
}

TABLE_NCUT = {
    ("weights", "mnist", "relu", False): 2.37,
    ("weights", "mnist", "sigmoid", False): 2.10,
    ("weights", "mnist", "relu", True): 2.19,
    ("weights", "mnist", "sigmoid", True): 2.13,
    ("weights", "fashion_mnist", "relu", False): 2.13,
    ("weights", "fashion_mnist", "sigmoid", False): 1.95,
    ("weights", "fashion_mnist", "relu", True): 2.11,
    ("weights", "fashion_mnist", "sigmoid", True): 1.90,
    ("spearman", "mnist", "relu", False): 2.23,
    ("spearman", "mnist", "sigmoid", False): 1.97,
    ("spearman", "mnist", "relu", True): 2.07,
    ("spearman", "mnist", "sigmoid", True): 1.89,
    ("spearman", "fashion_mnist", "relu", False): 1.96,
    ("spearman", "fashion_mnist", "sigmoid", False): 1.84,
    ("spearman", "fashion_mnist", "relu", True): 2.01,
    ("spearman", "fashion_mnist", "sigmoid", True): 1.65,
}

# lower bounds / closeness from the acceptance contract
ACCURACY_FLOORS = {
    ("mnist", "relu", False): 97.0,
    ("mnist", "sigmoid", False): 95.5,
    ("mnist", "relu", True): 94.5,
    ("mnist", "sigmoid", True): 94.5,
    ("fashion_mnist", "relu", False): 86.5,
}
FASHION_CLOSENESS = 2.0  # remaining FashionMNIST cells: |acc - table| <= this


def _report_line(number, name, status, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{suffix}")


def _missing_real_files():
    missing = []
    for name in ("mnist", "fashion_mnist"):
        for names in SPLIT_FILES.values():
            for base in names:
                d = DATA_DIR / name
                if not ((d / base).is_file() or (d / (base + ".gz")).is_file()):
                    missing.append(str(d / base))
    return missing


def _skip_real(number, name):
    missing = _missing_real_files()
    if missing:
        _report_line(number, name, "SKIP",
                     f"real datasets not present; first missing: {missing[0]}")
        pytest.skip(
            "MNIST/FashionMNIST IDX files not found under "
            f"{DATA_DIR} (set MLPMOD_DATA_DIR); missing e.g. {missing[0]}"
        )


_REAL_GRID_CACHE = []


def _real_grid(tmp_path):
    """Train/analyze the full grid once over the acceptance seeds."""
    if _REAL_GRID_CACHE:
        return _REAL_GRID_CACHE[0]
    out = os.environ.get("MLPMOD_ACCEPTANCE_OUT")
    out_dir = Path(out) if out else tmp_path / "acceptance-grid"
    result = run_grid(
        DATA_DIR,
        out_dir,
        seeds=SEEDS,
        epochs=20,
    )
    if result.failures:
        raise RuntimeError(f"grid cells failed: {result.failures}")
    _REAL_GRID_CACHE.append(result)
    return result


# ---------------------------------------------------------------------------
# 1. exact-math oracle suite

def test_acceptance_1_exact_math_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        a = random_adjacency(rng, n, density=float(rng.uniform(0.4, 1.0)))
        if a.sum() == 0:
            continue
        try:
            labels = random_partition(rng, a, k)
        except RuntimeError:
            continue
        node = int(rng.integers(n))
        assert degree(a, node) == pytest.approx(naive_degree(a, node), rel=1e-10)
        subset = list(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        assert volume(a, subset) == pytest.approx(naive_volume(a, subset), rel=1e-10)
        other = list(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        got_cut = cut_weight(a, subset, other)
        want_cut = naive_cut(a, subset, other)
        if want_cut == 0.0:
            assert got_cut == 0.0
        else:
            assert got_cut == pytest.approx(want_cut, rel=1e-10)
        assert ncut(a, labels, k) == pytest.approx(naive_ncut(a, labels, k), rel=1e-10)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report_line(1, "exact-math oracle suite", "PASS" if ok else "FAIL",
                 f"1000 graphs in {elapsed:.1f}s")
    assert ok, f"oracle suite took {elapsed:.1f}s, budget 10s"


# ---------------------------------------------------------------------------
# 2. spectral recovery on planted partitions

def test_acceptance_2_spectral_recovery():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(200):
        blocks = int(rng.integers(2, 5))
        sizes = [int(rng.integers(4, 9)) for _ in range(blocks)]
        a, truth = planted_graph(
            rng, sizes, within=1.0, cross=0.02,  # weight ratio 50
            within_density=0.85, cross_density=0.15,
        )
        result = cluster_graph(a, SpectralConfig(k=blocks, rng_seed=7))
        assert same_partition(truth, result.labels), f"trial {trial} failed recovery"
        want = naive_ncut(a, truth, blocks)
        assert result.ncut_value == pytest.approx(want, abs=1e-9)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report_line(2, "spectral recovery on planted partitions",
                 "PASS" if ok else "FAIL", f"200 graphs in {elapsed:.1f}s")
    assert ok, f"recovery suite took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# 3. eigensolver residuals and eigenvalue range

def test_acceptance_3_eigensolver_residuals():
    rng = np.random.default_rng(303)
    worst_residual = 0.0
    worst_value = (0.0, 0.0)
    for trial in range(60):
        if trial % 2 == 0:
            n = int(rng.integers(6, 40))
            a = random_adjacency(rng, n, density=0.7)
            dead = a.sum(axis=1) == 0
            a[dead, 0] = a[0, dead] = 1.0
            np.fill_diagonal(a, 0.0)
        else:
            sizes = [int(rng.integers(3, 8)) for _ in range(int(rng.integers(2, 5)))]
            a, _ = planted_graph(rng, sizes)
        lap = normalized_laplacian(a)
        k = int(rng.integers(1, min(6, a.shape[0])))
        values, vectors = smallest_eigenvectors(lap, k)
        scale = max(1.0, float(np.linalg.norm(lap)))
        residuals = np.linalg.norm(lap @ vectors - vectors * values, axis=0)
        worst_residual = max(worst_residual, float(residuals.max() / scale))
        assert np.all(residuals <= 1e-9 * scale)
        full = np.linalg.eigvalsh(lap)
        worst_value = (min(worst_value[0], float(full.min())),
                       max(worst_value[1], float(full.max())))
        assert full.min() >= -1e-7
        assert full.max() <= 2 + 1e-7
    _report_line(3, "eigensolver residuals", "PASS",
                 f"max residual {worst_residual:.2e}, spectrum "
                 f"[{worst_value[0]:.2e}, {worst_value[1]:.6f}]")


# ---------------------------------------------------------------------------
# 4. gradient checks

def test_acceptance_4_gradient_checks():
    cases = 0
    for activation in ("relu", "sigmoid"):
        model = make_model((6, 4, 3), activation=activation, seed=31, bias_jitter=0.1)
        rng = np.random.default_rng(32)
        x = rng.random((8, 6))
        y = rng.integers(0, 3, size=8)
        _, gw, gb = loss_and_gradients(model, x, y)
        assert_gradients_close(gw + gb, finite_difference_gradients(model, x, y))
        cases += 1

        dropped = make_model(
            (5, 4, 4, 3), activation=activation, dropout=0.5, seed=33, bias_jitter=0.1
        )
        x2 = rng.random((6, 5))
        y2 = rng.integers(0, 3, size=6)
        masks = sample_dropout_masks(dropped.architecture, 6, np.random.default_rng(34))
        _, gw2, gb2 = loss_and_gradients(
            dropped, x2, y2, dropout_masks=masks
        )
        assert_gradients_close(
            gw2 + gb2, finite_difference_gradients(dropped, x2, y2, masks=masks)
        )
        cases += 1
    _report_line(4, "gradient checks vs central differences", "PASS",
                 f"{cases} model configurations at 1e-4 relative")


# ---------------------------------------------------------------------------
# 5. spearman oracle

def test_acceptance_5_spearman_oracle():
    rng = np.random.default_rng(505)
    for trial in range(1000):
        m = int(rng.integers(2, 30))
        style = trial % 4
        if style == 0:
            x = rng.integers(0, 5, size=m).astype(float)
            y = rng.integers(0, 5, size=m).astype(float)
        elif style == 1:
            x = np.full(m, float(rng.integers(0, 3)))
            y = rng.standard_normal(m)
        elif style == 2:
            x = rng.standard_normal(m)
            y = np.round(rng.standard_normal(m), 1)  # some ties
        else:
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
        assert spearman(x, y) == pytest.approx(naive_spearman(x, y), abs=1e-12)
    worked = spearman(
        np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([5.0, 6.0, 7.0, 8.0, 7.0])
    )
    assert worked == pytest.approx(8.0 / np.sqrt(95.0), abs=1e-12)
    _report_line(5, "spearman oracle", "PASS",
                 f"1000 pairs to 1e-12; worked example {worked:.6f}")


# ---------------------------------------------------------------------------
# 6-8. real-data criteria

@pytest.mark.slow
def test_acceptance_6_training_accuracy(tmp_path):
    _skip_real(6, "training accuracy vs table")
    real_grid = _real_grid(tmp_path)
    failures = []
    train_times = []
    for r in real_grid.reports:
        if r.method != "weights":
            continue  # one accuracy per trained model
        key = (r.dataset, r.activation, r.dropout)
        acc = r.test_accuracy_percent
        if key in ACCURACY_FLOORS:
            if acc < ACCURACY_FLOORS[key]:
                failures.append(f"{key} seed {r.seed}: {acc:.2f} < {ACCURACY_FLOORS[key]}")
        else:
            if abs(acc - TABLE_ACCURACY[key]) > FASHION_CLOSENESS:
                failures.append(
                    f"{key} seed {r.seed}: {acc:.2f} not within "
                    f"{FASHION_CLOSENESS} of {TABLE_ACCURACY[key]}"
                )
        trained = r.wall_times.get("train-or-load", 0.0)
        train_times.append(trained)
    ok = not failures and max(train_times) <= 1800.0
    _report_line(6, "training accuracy vs table", "PASS" if ok else "FAIL",
                 f"max train stage {max(train_times):.0f}s"
                 + ("" if not failures else "; " + "; ".join(failures)))
    assert not failures, failures
    assert max(train_times) <= 1800.0


@pytest.mark.slow
def test_acceptance_7_activation_ordering(tmp_path):
    _skip_real(7, "sigmoid-below-relu ordering")
    real_grid = _real_grid(tmp_path)
    ordering = real_grid.summary["activation_ordering"]
    per_seed = ordering["per_seed_counts"]
    mean_count = ordering["mean_count"]
    per_seed_ok = all(count >= 6 for count in per_seed.values())
    mean_ok = mean_count >= 7
    ok = per_seed_ok and mean_ok
    _report_line(7, "sigmoid-below-relu ordering", "PASS" if ok else "FAIL",
                 f"per-seed {per_seed}, mean {mean_count}/8")
    assert per_seed_ok, f"per-seed ordering counts below 6/8: {per_seed}"
    assert mean_ok, f"mean ordering count {mean_count}/8 below 7/8"


@pytest.mark.slow
def test_acceptance_8_ncut_magnitudes(tmp_path):
    _skip_real(8, "absolute ncut magnitudes")
    real_grid = _real_grid(tmp_path)
    cells = {}
    for r in real_grid.reports:
        cells.setdefault((r.method, r.dataset, r.activation, r.dropout), []).append(r.ncut)
    failures = []
    worst = 0.0
    for key, expected in TABLE_NCUT.items():
        got = float(np.mean(cells[key]))
        worst = max(worst, abs(got - expected))
        if abs(got - expected) > 0.40:
            failures.append(f"{key}: mean ncut {got:.3f} vs table {expected:.2f}")
    ok = not failures
    _report_line(8, "absolute ncut magnitudes", "PASS" if ok else "FAIL",
                 f"16 cells, worst |diff| {worst:.3f} (tolerance 0.40)"
                 + ("" if ok else "; " + "; ".join(failures)))
    assert not failures, failures


# ---------------------------------------------------------------------------
# 9. determinism of grid cells

def test_acceptance_9_determinism(smoke_data_dir, tmp_path):
    cfg = smoke_config("spearman", activation="sigmoid", dropout=True, seed=5)
    runs = []
    for sub in ("a", "b"):
        report = run_experiment(cfg, smoke_data_dir, tmp_path / sub)
        payload = report.to_dict()
        payload.pop("wall_times")
        runs.append(json.dumps(payload, indent=2, sort_keys=True))
    ok = runs[0] == runs[1]

    detail = "synthetic cell byte-identical"
    if not _missing_real_files():
        # with real data present, also rerun a short real cell
        from mlpmod.harness import ExperimentConfig

        real_cfg = ExperimentConfig(
            dataset="mnist", activation="relu", dropout=False, method="weights",
            train=TrainConfig(epochs=1, rng_seed=0),
            spectral=SpectralConfig(k=4, rng_seed=0),
        )
        real_runs = []
        for sub in ("ra", "rb"):
            report = run_experiment(real_cfg, DATA_DIR, tmp_path / sub)
            payload = report.to_dict()
            payload.pop("wall_times")
            real_runs.append(json.dumps(payload, sort_keys=True))
        ok = ok and real_runs[0] == real_runs[1]
        detail += "; real 1-epoch cell byte-identical"
    _report_line(9, "grid-cell determinism", "PASS" if ok else "FAIL", detail)
    assert ok


# ---------------------------------------------------------------------------
# 10. smoke path

def test_acceptance_10_smoke(smoke_data_dir, tmp_path):
    start = time.perf_counter()
    cache = {}
    reports = []
    for method in ("weights", "spearman"):
        reports.append(
            run_experiment(smoke_config(method), smoke_data_dir, tmp_path, cache)
        )
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0 and all(r.ncut > 0 for r in reports)
    _report_line(10, "synthetic end-to-end smoke", "PASS" if ok else "FAIL",
                 f"both methods in {elapsed:.1f}s")
    assert elapsed < 30.0
    for r in reports:
        assert sum(r.cluster_sizes) + r.dropped_nodes == sum(DEFAULT_LAYER_WIDTHS)
