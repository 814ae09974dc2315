import json
import logging
import shutil

import numpy as np
import pytest

from mlpmod import harness
from mlpmod.checkpoint import save_checkpoint
from mlpmod.data import DataError, LabeledImageSet, load_dataset, make_synthetic_dataset
from mlpmod.harness import (
    ExperimentConfig,
    StageError,
    analyze_checkpoint,
    checkpoint_filename,
    config_fingerprint,
    report_filename,
    run_experiment,
    run_grid,
)
from mlpmod.mlp import DEFAULT_LAYER_WIDTHS, MlpArchitecture, TrainConfig, init_model
from mlpmod.report import METHODS, ExperimentReport, load_reports
from mlpmod.spectral import SpectralConfig

from conftest import fail_writes_midway, smoke_config


def _strip_wall_times(d):
    d = dict(d)
    d.pop("wall_times")
    return d


def test_smoke_experiment_end_to_end(smoke_data_dir, tmp_path):
    report = run_experiment(smoke_config("weights"), smoke_data_dir, tmp_path)
    assert report.ncut > 0.0
    assert sum(report.cluster_sizes) + report.dropped_nodes == sum(DEFAULT_LAYER_WIDTHS)
    assert len(report.cluster_sizes) == 4
    assert min(report.cluster_sizes) >= 1
    # the fixed k-means and eigensolver settings are recorded with the config
    assert report.spectral_config == {
        "k": 4, "rng_seed": 0, "kmeans_restarts": 10, "kmeans_max_iters": 300,
        "kmeans_tol": 1e-8, "eig_tol": 1e-9,
    }
    # and so are the fixed Adam settings and the per-epoch shuffle
    assert report.train_config == {
        "epochs": 1, "batch_size": 128, "learning_rate": 1e-3, "rng_seed": 0,
        "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "shuffle_each_epoch": True,
    }
    json_path = tmp_path / "reports" / report_filename(smoke_config("weights"))
    assert json_path.is_file()
    round_trip = ExperimentReport.read_json(json_path)
    assert round_trip.to_dict() == report.to_dict()
    ckpt = tmp_path / "checkpoints" / report.checkpoint
    assert ckpt.is_file()
    # layer composition covers each layer exactly
    composition = np.array(report.layer_cluster_counts)
    assert composition.shape == (len(DEFAULT_LAYER_WIDTHS), 4)
    assert composition.sum() == sum(DEFAULT_LAYER_WIDTHS) - report.dropped_nodes


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
        test_set=load_dataset("smoke", smoke_data_dir)["test"],
    )
    assert cached.test_accuracy_percent == trained.test_accuracy_percent
    assert analysis.test_accuracy_percent == trained.test_accuracy_percent


def test_failed_checkpoint_write_retrains_on_rerun(smoke_data_dir, tmp_path, monkeypatch):
    cfg = smoke_config("weights")
    with monkeypatch.context() as patch:
        fail_writes_midway(patch, "killed mid-write")
        with pytest.raises(StageError, match="killed mid-write"):
            run_experiment(cfg, smoke_data_dir, tmp_path / "run")
    assert list((tmp_path / "run" / "checkpoints").iterdir()) == []
    rerun = run_experiment(cfg, smoke_data_dir, tmp_path / "run")
    fresh = run_experiment(cfg, smoke_data_dir, tmp_path / "fresh")
    assert _strip_wall_times(rerun.to_dict()) == _strip_wall_times(fresh.to_dict())


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
        train=TrainConfig(epochs=1, rng_seed=0),
    )
    assert config_fingerprint(base) != config_fingerprint(changed_data)
    assert checkpoint_filename(base).endswith(".mlpc")


def test_fingerprint_is_pinned():
    # cached checkpoint file names embed the fingerprint
    assert config_fingerprint(ExperimentConfig()) == "e67097a78732"
    assert config_fingerprint(smoke_config("weights")) == "5fe646b001a1"


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


def _train_forbidden(*args, **kwargs):
    pytest.fail("trained before the splits were checked")


@pytest.mark.parametrize(
    "method, n_test",
    [
        pytest.param("weights", 0, id="weights-empty"),
        pytest.param("spearman", 0, id="spearman-empty"),
        pytest.param("spearman", 1, id="spearman-one-example"),
    ],
)
def test_bad_test_split_fails_before_training(tmp_path, monkeypatch, method, n_test):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=n_test, seed=0)
    monkeypatch.setattr(harness, "train", _train_forbidden)
    with pytest.raises(DataError, match=f"has {n_test} example"):
        run_experiment(smoke_config(method), tmp_path, tmp_path / "out")
    assert list((tmp_path / "out" / "checkpoints").iterdir()) == []


def test_empty_training_split_is_data_error_before_training(tmp_path, monkeypatch):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=0, n_test=20, seed=0)
    monkeypatch.setattr(harness, "train", _train_forbidden)
    with pytest.raises(DataError, match="training split has 0 example"):
        run_experiment(smoke_config("weights"), tmp_path, tmp_path / "out")
    assert list((tmp_path / "out" / "checkpoints").iterdir()) == []


def test_grid_records_empty_test_split_as_cell_failure(tmp_path):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=0, seed=0)
    result = run_grid(
        tmp_path,
        tmp_path / "out",
        epochs=1,
        datasets=("smoke",),
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
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        analyze_checkpoint(ckpt, "bogus")


def test_analyze_spearman_with_test_split(smoke_data_dir, tmp_path):
    cache = {}
    pipeline = run_experiment(smoke_config("spearman"), smoke_data_dir, tmp_path, cache)
    ckpt = tmp_path / "checkpoints" / pipeline.checkpoint
    dataset = load_dataset("smoke", smoke_data_dir)
    analysis = analyze_checkpoint(
        ckpt, "spearman", spectral=SpectralConfig(k=4, rng_seed=0),
        test_set=dataset["test"],
    )
    assert analysis.ncut == pipeline.ncut
    assert analysis.test_accuracy_percent == pipeline.test_accuracy_percent


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("label", [-1, 0.5])
def test_labels_that_are_not_class_indices_are_data_error(tmp_path, method, label):
    # such labels match no logit, so unrefused they would score 0% accuracy
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0)), ckpt
    )
    images = np.random.default_rng(1).integers(0, 256, (4, 784), dtype=np.uint8)
    labels = np.full(4, label)
    test_set = LabeledImageSet(images, labels, "test")
    with pytest.raises(
        DataError, match=f"^the test split has {labels.dtype} labels with minimum {label}$"
    ):
        analyze_checkpoint(ckpt, method, test_set=test_set)


def test_run_grid_on_synthetic(smoke_data_dir, tmp_path):
    result = run_grid(
        smoke_data_dir,
        tmp_path,
        seeds=(0, 1),
        epochs=1,
        datasets=("smoke",),
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
            epochs=1,
            datasets=("smoke",),
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
        epochs=1,
        datasets=("smoke",),
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


def test_grid_whose_spearman_cells_all_fail_writes_no_spearman_table(tmp_path):
    # one test example: enough for the weights method, too few for spearman
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=1, seed=0)
    result = run_grid(
        tmp_path,
        tmp_path / "out",
        epochs=1,
        datasets=("smoke",),
    )
    assert {r.method for r in result.reports} == {"weights"}
    assert len(result.failures) == 4
    assert list(result.tables) == ["weights"]
    assert (tmp_path / "out" / "table_weights.txt").is_file()
    assert not (tmp_path / "out" / "table_spearman.txt").exists()


def test_grid_rejects_repeated_seed_before_any_work(smoke_data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "train", _train_forbidden)
    with pytest.raises(ValueError, match=r"^seed 0 is repeated in seeds \[0, 1, 0\]$"):
        run_grid(smoke_data_dir, tmp_path / "out", seeds=(0, 1, 0), datasets=("smoke",))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("datasets, reason", [
    (("smoke", "smoke"), "dataset 'smoke' is repeated in datasets ['smoke', 'smoke']"),
    ((), "the grid is empty: seeds [0], datasets []"),
], ids=["repeated", "empty"])
def test_grid_rejects_repeated_or_no_datasets_before_any_work(
    smoke_data_dir, tmp_path, monkeypatch, datasets, reason
):
    monkeypatch.setattr(harness, "train", _train_forbidden)
    with pytest.raises(ValueError) as raised:
        run_grid(smoke_data_dir, tmp_path / "out", datasets=datasets)
    assert str(raised.value) == reason
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [(), (0, -1)], ids=["empty", "negative"])
def test_grid_rejects_bad_seeds_before_any_file_write(smoke_data_dir, tmp_path, seeds):
    with pytest.raises(ValueError, match="seed"):
        run_grid(smoke_data_dir, tmp_path / "out", seeds=seeds, datasets=("smoke",))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, reason", [
    (dict(datasets="smoke"), "datasets must be a sequence such as a list, got 'smoke'"),
    (dict(seeds=5, datasets=("smoke",)), "seeds must be a sequence such as a list, got 5"),
], ids=["str-datasets", "int-seeds"])
def test_grid_rejects_a_non_sequence_before_any_work(
    smoke_data_dir, tmp_path, monkeypatch, grid, reason
):
    monkeypatch.setattr(harness, "train", _train_forbidden)
    with pytest.raises(ValueError) as raised:
        run_grid(smoke_data_dir, tmp_path / "out", **grid)
    assert str(raised.value) == reason
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, reason", [
    (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
    (dict(seeds=[0.5]), "rng_seed must be an integer, got 0.5"),
    (dict(seeds=[True]), "rng_seed must be an integer, got True"),
], ids=["float-epochs", "float-seed", "bool-seed"])
def test_grid_rejects_a_non_integer_count_before_any_work(
    smoke_data_dir, tmp_path, monkeypatch, grid, reason
):
    monkeypatch.setattr(harness, "train", _train_forbidden)
    with pytest.raises(ValueError) as raised:
        run_grid(smoke_data_dir, tmp_path / "out", datasets=("smoke",), **grid)
    assert str(raised.value) == reason
    assert not (tmp_path / "out").exists()


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
