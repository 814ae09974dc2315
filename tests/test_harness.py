import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from mlpmod import harness
from mlpmod.data import DataError, load_dataset, make_synthetic_dataset
from mlpmod.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentReport,
    StageError,
    analyze_checkpoint,
    checkpoint_filename,
    config_fingerprint,
    grid_csv_rows,
    load_reports,
    ordering_summary,
    render_method_table,
    report_filename,
    run_experiment,
    run_grid,
)
from mlpmod.mlp import TrainConfig
from mlpmod.spectral import SpectralConfig

from conftest import SMOKE_WIDTHS, smoke_config


def _strip_wall_times(d):
    d = dict(d)
    d.pop("wall_times")
    return d


def test_smoke_experiment_end_to_end(smoke_data_dir, tmp_path):
    report = run_experiment(smoke_config("weights"), smoke_data_dir, tmp_path)
    assert report.ncut > 0.0
    assert sum(report.cluster_sizes) + report.dropped_nodes == sum(SMOKE_WIDTHS)
    assert len(report.cluster_sizes) == 4
    assert min(report.cluster_sizes) >= 1
    # the fixed k-means and eigensolver settings are recorded with the config
    assert report.spectral_config == {
        "k": 4, "rng_seed": 0, "kmeans_restarts": 10, "kmeans_max_iters": 300,
        "kmeans_tol": 1e-8, "eig_tol": 1e-9,
    }
    json_path = tmp_path / "reports" / report_filename(smoke_config("weights"))
    assert json_path.is_file()
    round_trip = ExperimentReport.read_json(json_path)
    assert round_trip.to_dict() == report.to_dict()
    ckpt = tmp_path / "checkpoints" / report.checkpoint
    assert ckpt.is_file()
    # layer composition covers each layer exactly
    composition = np.array(report.layer_cluster_counts)
    assert composition.shape == (len(SMOKE_WIDTHS), 4)
    assert composition.sum() == sum(SMOKE_WIDTHS) - report.dropped_nodes


def test_experiment_is_deterministic(smoke_data_dir, tmp_path):
    cfg = smoke_config("spearman", activation="sigmoid")
    first = run_experiment(cfg, smoke_data_dir, tmp_path / "a")
    second = run_experiment(cfg, smoke_data_dir, tmp_path / "b")
    assert _strip_wall_times(first.to_dict()) == _strip_wall_times(second.to_dict())


def test_methods_share_one_checkpoint(smoke_data_dir, tmp_path):
    cache = {}
    w = run_experiment(smoke_config("weights"), smoke_data_dir, tmp_path, cache)
    s = run_experiment(smoke_config("spearman"), smoke_data_dir, tmp_path, cache)
    assert w.checkpoint == s.checkpoint
    assert w.test_accuracy_percent == s.test_accuracy_percent
    assert w.ncut != s.ncut  # different adjacency constructions
    ckpts = list((tmp_path / "checkpoints").glob("*.mlpc"))
    assert len(ckpts) == 1


def test_spearman_accuracy_comes_from_its_activation_table(
    smoke_data_dir, tmp_path, monkeypatch
):
    cache = {}
    trained = run_experiment(smoke_config("weights"), smoke_data_dir, tmp_path, cache)
    monkeypatch.setattr(
        harness, "evaluate_accuracy", lambda *a: pytest.fail("second test-set pass")
    )
    cached = run_experiment(smoke_config("spearman"), smoke_data_dir, tmp_path, cache)
    analysis = analyze_checkpoint(
        tmp_path / "checkpoints" / trained.checkpoint, "spearman",
        spectral=SpectralConfig(k=4, rng_seed=0),
        test_set=load_dataset("smoke", smoke_data_dir).test,
    )
    assert cached.test_accuracy_percent == trained.test_accuracy_percent
    assert analysis.test_accuracy_percent == trained.test_accuracy_percent


def test_failed_checkpoint_write_retrains_on_rerun(smoke_data_dir, tmp_path, monkeypatch):
    cfg = smoke_config("weights")
    real_write_bytes = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise OSError("killed mid-write")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(StageError, match="killed mid-write"):
            run_experiment(cfg, smoke_data_dir, tmp_path / "run")
    assert list((tmp_path / "run" / "checkpoints").iterdir()) == []
    rerun = run_experiment(cfg, smoke_data_dir, tmp_path / "run")
    fresh = run_experiment(cfg, smoke_data_dir, tmp_path / "fresh")
    assert _strip_wall_times(rerun.to_dict()) == _strip_wall_times(fresh.to_dict())


def test_report_write_onto_a_directory_leaves_no_temporary(tmp_path):
    target = tmp_path / "target.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        _fake_report("weights", "mnist", "relu", False, 0, 1.0).write_json(target)
    assert [p.name for p in tmp_path.iterdir()] == ["target.json"]


def _rerun_matches_clean_run(cfg, smoke_data_dir, tmp_path, caplog):
    """Rerun ``cfg`` over the planted checkpoint under ``tmp_path/run``; it
    must log the file, retrain, and end like a run that never saw it."""
    ckpt = tmp_path / "run" / "checkpoints" / checkpoint_filename(cfg)
    with caplog.at_level(logging.WARNING, logger="mlpmod.harness"):
        rerun = run_experiment(cfg, smoke_data_dir, tmp_path / "run")
    assert ckpt.name in caplog.text
    fresh = run_experiment(cfg, smoke_data_dir, tmp_path / "fresh")
    assert _strip_wall_times(rerun.to_dict()) == _strip_wall_times(fresh.to_dict())
    assert ckpt.read_bytes() == (tmp_path / "fresh" / "checkpoints" / ckpt.name).read_bytes()


def test_truncated_cached_checkpoint_is_retrained(smoke_data_dir, tmp_path, caplog):
    cfg = smoke_config("weights")
    run_experiment(cfg, smoke_data_dir, tmp_path / "run")
    ckpt = tmp_path / "run" / "checkpoints" / checkpoint_filename(cfg)
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    _rerun_matches_clean_run(cfg, smoke_data_dir, tmp_path, caplog)
    assert "truncated checkpoint" in caplog.text


def test_other_activation_cached_checkpoint_is_retrained(smoke_data_dir, tmp_path, caplog):
    cfg = smoke_config("weights")
    other = smoke_config("weights", activation="sigmoid")
    run_experiment(other, smoke_data_dir, tmp_path / "other")
    (tmp_path / "run" / "checkpoints").mkdir(parents=True)
    shutil.copy(
        tmp_path / "other" / "checkpoints" / checkpoint_filename(other),
        tmp_path / "run" / "checkpoints" / checkpoint_filename(cfg),
    )
    _rerun_matches_clean_run(cfg, smoke_data_dir, tmp_path, caplog)
    assert "activation='sigmoid'" in caplog.text


def test_fingerprint_tracks_training_inputs():
    base = smoke_config("weights")
    assert config_fingerprint(base) == config_fingerprint(smoke_config("spearman"))
    changed_seed = smoke_config("weights", seed=1)
    assert config_fingerprint(base) != config_fingerprint(changed_seed)
    changed_data = ExperimentConfig(
        dataset="other", activation="relu", dropout=False, method="weights",
        layer_widths=SMOKE_WIDTHS, train=TrainConfig(epochs=1, rng_seed=0),
    )
    assert config_fingerprint(base) != config_fingerprint(changed_data)
    assert checkpoint_filename(base).endswith(".mlpc")


def test_fingerprint_is_pinned():
    # cached checkpoint file names embed the fingerprint
    assert config_fingerprint(ExperimentConfig()) == "e67097a78732"
    assert config_fingerprint(smoke_config("weights")) == "57f6e7492334"


def test_missing_data_surfaces_stage_and_cause(tmp_path):
    with pytest.raises(StageError, match="load-data") as err:
        run_experiment(smoke_config("weights"), tmp_path / "nowhere", tmp_path)
    assert err.value.stage == "load-data"
    assert isinstance(err.value.__cause__, DataError)


@pytest.mark.parametrize("method", METHODS)
def test_empty_test_split_is_data_error(tmp_path, method):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=0, seed=0)
    with pytest.raises(DataError, match="has 0 example"):
        run_experiment(smoke_config(method), tmp_path, tmp_path / "out")


def test_grid_records_empty_test_split_as_cell_failure(tmp_path):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=0, seed=0)
    result = run_grid(
        tmp_path,
        tmp_path / "out",
        train_cfg=TrainConfig(epochs=1),
        datasets=("smoke",),
        layer_widths=SMOKE_WIDTHS,
    )
    assert result.reports == []
    assert len(result.failures) == 8
    assert all("has 0 example" in f["error"] for f in result.failures)


def test_analyze_checkpoint_round_trip(smoke_data_dir, tmp_path):
    cfg = smoke_config("weights")
    pipeline = run_experiment(cfg, smoke_data_dir, tmp_path)
    ckpt = tmp_path / "checkpoints" / pipeline.checkpoint
    analysis = analyze_checkpoint(ckpt, "weights", spectral=SpectralConfig(k=4, rng_seed=0))
    assert analysis.ncut == pipeline.ncut  # bit-identical
    assert analysis.cluster_sizes == pipeline.cluster_sizes
    assert analysis.test_accuracy_percent is None
    assert analysis.dataset is None


def test_analyze_spearman_requires_test_split(smoke_data_dir, tmp_path):
    cfg = smoke_config("weights")
    pipeline = run_experiment(cfg, smoke_data_dir, tmp_path)
    ckpt = tmp_path / "checkpoints" / pipeline.checkpoint
    with pytest.raises(ValueError, match="test split"):
        analyze_checkpoint(ckpt, "spearman")


def test_analyze_spearman_with_test_split(smoke_data_dir, tmp_path):
    cache = {}
    pipeline = run_experiment(smoke_config("spearman"), smoke_data_dir, tmp_path, cache)
    ckpt = tmp_path / "checkpoints" / pipeline.checkpoint
    dataset = load_dataset("smoke", smoke_data_dir)
    analysis = analyze_checkpoint(
        ckpt, "spearman", spectral=SpectralConfig(k=4, rng_seed=0),
        test_set=dataset.test,
    )
    assert analysis.ncut == pipeline.ncut
    assert analysis.test_accuracy_percent == pipeline.test_accuracy_percent


def test_run_grid_on_synthetic(smoke_data_dir, tmp_path):
    result = run_grid(
        smoke_data_dir,
        tmp_path,
        seeds=(0, 1),
        train_cfg=TrainConfig(epochs=1),
        spectral=SpectralConfig(k=4, rng_seed=0),
        datasets=("smoke",),
        layer_widths=SMOKE_WIDTHS,
    )
    # 1 dataset x 2 activations x 2 dropout x 2 seeds x 2 methods
    assert len(result.reports) == 16
    assert result.failures == []
    # models shared across methods: 8 checkpoints, not 16
    assert len(list((tmp_path / "checkpoints").glob("*.mlpc"))) == 8
    assert (tmp_path / "grid.csv").is_file()
    assert (tmp_path / "table_weights.txt").is_file()
    assert (tmp_path / "table_spearman.txt").is_file()
    assert (tmp_path / "grid_summary.json").is_file()
    summary = json.loads((tmp_path / "grid_summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert set(summary["activation_ordering"]["per_seed"]) == {"0", "1"}
    # per (method, dataset, dropout): 2 x 1 x 2 = 4 comparisons per seed
    assert all(
        len(v) == 4 for v in summary["activation_ordering"]["per_seed"].values()
    )
    loaded = load_reports(tmp_path / "reports")
    assert len(loaded) == 16


def test_grid_continues_after_cell_failures(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="mlpmod.harness"):
        result = run_grid(
            tmp_path / "missing-data",
            tmp_path / "out",
            seeds=(0,),
            train_cfg=TrainConfig(epochs=1),
            datasets=("smoke",),
            layer_widths=SMOKE_WIDTHS,
        )
    assert result.reports == []
    assert len(result.failures) == 8
    assert all(f["stage"] == "load-data" for f in result.failures)
    # each cell logs its start, failed or not
    assert caplog.messages == [f"running {f['cell']}" for f in result.failures]


class _Killed(BaseException):
    """Stands in for a kill: not an ``Exception``, so the grid does not catch it."""


def test_grid_killed_between_checkpoint_and_report_reruns_as_clean(
    smoke_data_dir, tmp_path, monkeypatch
):
    grid = dict(
        seeds=(0,),
        train_cfg=TrainConfig(epochs=1),
        spectral=SpectralConfig(k=4, rng_seed=0),
        datasets=("smoke",),
        layer_widths=SMOKE_WIDTHS,
    )
    real_write_json = ExperimentReport.write_json
    writes = []

    def killed_at_third_report(self, path):
        writes.append(path)
        if len(writes) == 3:  # relu with dropout: its checkpoint is freshly written
            raise _Killed
        real_write_json(self, path)

    with monkeypatch.context() as patch:
        patch.setattr(ExperimentReport, "write_json", killed_at_third_report)
        with pytest.raises(_Killed):
            run_grid(smoke_data_dir, tmp_path / "run", **grid)
    killed_ckpt = tmp_path / "run" / "checkpoints" / checkpoint_filename(
        smoke_config("weights", dropout=True)
    )
    assert killed_ckpt.is_file() and not writes[2].exists()

    rerun = run_grid(smoke_data_dir, tmp_path / "run", **grid)
    clean = run_grid(smoke_data_dir, tmp_path / "clean", **grid)
    assert rerun.failures == [] and len(rerun.reports) == 8
    assert [_strip_wall_times(r.to_dict()) for r in rerun.reports] == [
        _strip_wall_times(r.to_dict()) for r in clean.reports
    ]
    for name in ("reports", "checkpoints"):
        run_files = sorted((tmp_path / "run" / name).iterdir())
        clean_files = sorted((tmp_path / "clean" / name).iterdir())
        assert [f.name for f in run_files] == [f.name for f in clean_files]
        for a, b in zip(run_files, clean_files):
            if name == "reports":
                a, b = (_strip_wall_times(json.loads(f.read_text())) for f in (a, b))
                assert a == b
            else:
                assert a.read_bytes() == b.read_bytes()


def _fake_report(method, dataset, activation, dropout, seed, ncut_value, acc=90.0):
    return ExperimentReport(
        dataset=dataset,
        activation=activation,
        dropout=dropout,
        method=method,
        k=4,
        seed=seed,
        layer_widths=[4, 3, 2],
        test_accuracy_percent=acc,
        ncut=ncut_value,
        cluster_sizes=[3, 2, 2, 2],
        layer_cluster_counts=[[1, 1, 1, 1], [1, 1, 1, 0], [1, 0, 0, 1]],
        dropped_nodes=0,
        kmeans_cost=0.1,
        checkpoint="x.mlpc",
        off_protocol_k=False,
        train_config=None,
        spectral_config={},
    )


def test_ordering_summary_logic():
    reports = [
        _fake_report("weights", "mnist", "relu", False, 0, 2.4),
        _fake_report("weights", "mnist", "sigmoid", False, 0, 2.1),
        _fake_report("weights", "mnist", "relu", True, 0, 2.2),
        _fake_report("weights", "mnist", "sigmoid", True, 0, 2.3),  # violated
        _fake_report("weights", "mnist", "relu", False, 1, 2.0),
        _fake_report("weights", "mnist", "sigmoid", False, 1, 1.8),
    ]
    summary = ordering_summary(reports)
    per_seed = summary["activation_ordering"]["per_seed"]
    assert per_seed["0"]["weights|mnist|False"] is True
    assert per_seed["0"]["weights|mnist|True"] is False
    assert summary["activation_ordering"]["per_seed_counts"] == {"0": 1, "1": 1}
    # mean over seeds: relu (2.4+2.0)/2=2.2 vs sigmoid (2.1+1.8)/2=1.95
    assert summary["activation_ordering"]["mean"]["weights|mnist|False"] is True
    dropout_checks = summary["dropout_lowers_ncut"]["per_seed"]["0"]
    assert dropout_checks["weights|mnist|relu"] is True   # 2.2 < 2.4
    assert dropout_checks["weights|mnist|sigmoid"] is False  # 2.3 > 2.1


def test_render_method_table_layout():
    reports = [
        _fake_report("weights", "mnist", "relu", False, 0, 2.37, acc=98.04),
        _fake_report("weights", "mnist", "sigmoid", False, 0, 2.10, acc=97.0),
        _fake_report("weights", "fashion_mnist", "relu", True, 0, 2.11, acc=85.0),
    ]
    table = render_method_table(reports, "weights")
    lines = table.strip().split("\n")
    header = lines[0]
    for column in ("Data Set", "Activation Function", "Dropout",
                   "Test Accuracy(%)", "N-Cut"):
        assert column in header
    assert "MNIST" in lines[2]
    assert "ReLU" in lines[2] and "98.0" in lines[2] and "2.37" in lines[2]
    assert "Sigmoid" in lines[3] and "No" in lines[3]
    assert "FashionMNIST" in lines[4] and "Yes" in lines[4]


def test_grid_csv_has_per_seed_and_mean_rows():
    reports = [
        _fake_report("weights", "mnist", "relu", False, 0, 2.0),
        _fake_report("weights", "mnist", "relu", False, 1, 2.2),
    ]
    rows = grid_csv_rows(reports)
    assert rows[0][0] == "method"
    seeds = [row[4] for row in rows[1:]]
    assert seeds == [0, 1, "mean"]
    assert rows[3][6] == pytest.approx(2.1)


def test_off_protocol_k_flagged(smoke_data_dir, tmp_path):
    cfg = smoke_config("weights", k=3)
    report = run_experiment(cfg, smoke_data_dir, tmp_path)
    assert report.off_protocol_k is True
    assert report.k == 3
    assert len(report.cluster_sizes) == 3
    analysis = analyze_checkpoint(
        tmp_path / "checkpoints" / report.checkpoint, "weights", spectral=cfg.spectral
    )
    assert (analysis.k, analysis.off_protocol_k) == (3, True)
    assert analysis.cluster_sizes == report.cluster_sizes


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="method"):
        smoke_config("pearson")
