import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from mlpmod import cli
from mlpmod.checkpoint import save_checkpoint
from mlpmod.data import SPLIT_FILES, write_idx_images, write_idx_labels
from mlpmod.harness import ExperimentReport, run_experiment
from mlpmod.mlp import MlpArchitecture, init_model

from conftest import smoke_config


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mlpmod.cli", *args],
        capture_output=True,
        text=True,
    )


def test_no_arguments_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_unknown_flag_is_usage_error(tmp_path):
    proc = run_cli("train", "--dataset", "mnist", "--frobnicate")
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_bad_dataset_choice_is_usage_error(tmp_path):
    proc = run_cli(
        "train", "--dataset", "imagenet", "--activation", "relu",
        "--data-dir", str(tmp_path), "--out", str(tmp_path),
    )
    assert proc.returncode == 1


def test_bad_seeds_value_is_usage_error(tmp_path):
    proc = run_cli(
        "grid", "--seeds", "one,two", "--data-dir", str(tmp_path),
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "--seeds" in proc.stderr


def test_missing_dataset_files_exit_code_2(tmp_path):
    proc = run_cli(
        "train", "--dataset", "mnist", "--activation", "relu",
        "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 2
    assert "train-images-idx3-ubyte" in proc.stderr


def test_missing_checkpoint_exit_code_2(tmp_path):
    proc = run_cli(
        "analyze", "--checkpoint", str(tmp_path / "absent.mlpc"),
        "--method", "weights", "--out", str(tmp_path),
    )
    assert proc.returncode == 2


def test_spearman_without_data_dir_is_usage_error(tmp_path):
    ckpt = tmp_path / "model.mlpc"
    model = init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0)
    save_checkpoint(model, ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "spearman",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "spearman" in proc.stderr


def test_degenerate_checkpoint_exit_code_3(tmp_path):
    # all-zero weights: every node has zero degree, clustering cannot start
    model = init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0)
    for w in model.weights:
        w[:] = 0.0
    ckpt = tmp_path / "zero.mlpc"
    save_checkpoint(model, ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


def test_non_finite_checkpoint_is_data_error(tmp_path):
    model = init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0)
    model.weights[0][0, 0] = np.nan
    ckpt = tmp_path / "nan.mlpc"
    save_checkpoint(model, ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr and "non-finite" in proc.stderr


@pytest.mark.parametrize("method", ["weights", "spearman"])
def test_checkpoint_data_width_mismatch_is_data_error(smoke_data_dir, tmp_path, method):
    ckpt = tmp_path / "narrow.mlpc"
    save_checkpoint(init_model(MlpArchitecture(layer_widths=(100, 8, 10)), 0), ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", method,
        "--data-dir", str(smoke_data_dir / "smoke"), "--out", str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr
    assert "784 pixels" in proc.stderr and "100 neurons" in proc.stderr


def test_output_path_under_regular_file_is_data_error(tmp_path):
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0), ckpt)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights",
        "--out", str(blocker / "analysis"),
    )
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr


def test_train_output_under_regular_file_fails_before_training(tmp_path, monkeypatch, capsys):
    def too_late(*args, **kwargs):
        pytest.fail("train loaded data or trained before creating --out")

    monkeypatch.setattr(cli, "load_dataset", too_late)
    monkeypatch.setattr(cli, "train", too_late)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = cli.main([
        "train", "--dataset", "mnist", "--activation", "relu",
        "--data-dir", str(tmp_path), "--out", str(blocker / "out"),
    ])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_analyze_output_under_regular_file_fails_before_analysis(
    smoke_data_dir, tmp_path, monkeypatch, capsys
):
    def too_late(*args, **kwargs):
        pytest.fail("analyze loaded data or analysed before creating --out")

    monkeypatch.setattr(cli, "load_splits", too_late)
    monkeypatch.setattr(cli, "analyze_checkpoint", too_late)
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0), ckpt)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = cli.main([
        "analyze", "--checkpoint", str(ckpt), "--method", "spearman",
        "--data-dir", str(smoke_data_dir / "smoke"), "--out", str(blocker / "analysis"),
    ])
    assert code == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("n_test, method", [(0, "weights"), (0, "spearman"), (1, "spearman")])
def test_analyze_too_few_test_examples_is_data_error(tmp_path, capsys, n_test, method):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    images_name, labels_name = SPLIT_FILES["test"]
    rng = np.random.default_rng(0)
    write_idx_images(data_dir / images_name, rng.integers(0, 256, (n_test, 784)))
    write_idx_labels(data_dir / labels_name, rng.integers(0, 10, n_test))
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0), ckpt)
    code = cli.main([
        "analyze", "--checkpoint", str(ckpt), "--method", method,
        "--data-dir", str(data_dir), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "data error" in err and f"has {n_test} example" in err


def test_grid_output_under_regular_file_is_data_error(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    proc = run_cli("grid", "--epochs", "1", "--data-dir", str(tmp_path), "--out", str(blocker / "grid"))
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr


def test_analyze_weights_happy_path(smoke_data_dir, tmp_path):
    report = run_experiment(smoke_config("weights"), smoke_data_dir, tmp_path)
    ckpt = tmp_path / "checkpoints" / report.checkpoint
    out = tmp_path / "analysis"
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    written = list(out.glob("analysis_*.json"))
    assert len(written) == 1
    payload = json.loads(written[0].read_text())
    assert payload["ncut"] == report.ncut  # same clustering seed: bit-identical
    assert f"{report.ncut:.6f}" in proc.stdout


def test_analyze_spearman_with_flat_data_dir(smoke_data_dir, tmp_path):
    cache = {}
    report = run_experiment(smoke_config("spearman"), smoke_data_dir, tmp_path, cache)
    ckpt = tmp_path / "checkpoints" / report.checkpoint
    # analyze expects the t10k files directly inside --data-dir
    flat = smoke_data_dir / "smoke"
    assert (flat / SPLIT_FILES["test"][0]).is_file()
    out = tmp_path / "analysis"
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "spearman",
        "--data-dir", str(flat), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(next(iter(out.glob("analysis_*spearman.json"))).read_text())
    assert payload["ncut"] == report.ncut
    assert payload["test_accuracy_percent"] == report.test_accuracy_percent


def test_report_command_renders_tables(smoke_data_dir, tmp_path):
    cache = {}
    for method in ("weights", "spearman"):
        for activation in ("relu", "sigmoid"):
            run_experiment(
                smoke_config(method, activation=activation),
                smoke_data_dir, tmp_path, cache,
            )
    proc = run_cli("report", "--in", str(tmp_path / "reports"))
    assert proc.returncode == 0, proc.stderr
    assert "Data Set" in proc.stdout
    assert "N-Cut" in proc.stdout
    assert (tmp_path / "reports" / "table_weights.txt").is_file()
    assert (tmp_path / "reports" / "grid.csv").is_file()


def test_well_typed_report_renders(tmp_path):
    (tmp_path / "report_ok.json").write_text(_report_with(ncut=2, test_accuracy_percent=None))
    proc = run_cli("report", "--in", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "2.00" in proc.stdout


def test_k_below_two_is_usage_error(tmp_path):
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(init_model(MlpArchitecture(layer_widths=(784, 8, 10)), 0), ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights", "--k", "1",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr and "k must be at least 2" in proc.stderr


def test_negative_seed_is_usage_error(tmp_path):
    proc = run_cli(
        "grid", "--seeds", "0,-1", "--data-dir", str(tmp_path), "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "--seeds" in proc.stderr


def test_value_error_inside_training_is_numerical_failure(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("bad value deep in training")

    monkeypatch.setattr(cli, "load_dataset", lambda name, data_dir: SimpleNamespace(train=None))
    monkeypatch.setattr(cli, "train", fail)
    code = cli.main([
        "train", "--dataset", "mnist", "--activation", "relu",
        "--data-dir", str(tmp_path), "--out", str(tmp_path),
    ])
    assert code == 3
    assert "numerical failure: bad value deep in training" in capsys.readouterr().err


def test_report_command_empty_dir_is_data_error(tmp_path):
    proc = run_cli("report", "--in", str(tmp_path))
    assert proc.returncode == 2


def _report_with(**values):
    report = ExperimentReport(
        dataset="mnist", activation="relu", dropout=False, method="weights", k=4,
        seed=0, layer_widths=[784, 10], test_accuracy_percent=97.5, ncut=1.25,
        cluster_sizes=[400, 394], layer_cluster_counts=[[400, 384], [0, 10]],
        dropped_nodes=0, kmeans_cost=0.5, checkpoint="model.mlpc",
        off_protocol_k=False, train_config=None, spectral_config={},
    )
    return json.dumps({**report.to_dict(), **values})


@pytest.mark.parametrize(
    "content, fault",
    [
        ("{not json", "not a JSON report"),
        ('{"method": "weights"}', "lacks keys"),
        pytest.param(_report_with(ncut="high"), "wrong type: ncut", id="ncut-string"),
        pytest.param(
            _report_with(cluster_sizes=3, kmeans_cost=True),
            "wrong type: cluster_sizes (expected list, got int), kmeans_cost",
            id="size-int-cost-bool",
        ),
    ],
)
def test_report_command_malformed_report_is_data_error(tmp_path, content, fault):
    (tmp_path / "report_bad.json").write_text(content)
    proc = run_cli("report", "--in", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr
    assert "report_bad.json" in proc.stderr
    assert fault in proc.stderr


@pytest.mark.slow
def test_train_cli_full_shape(full_shape_mnist_dir, tmp_path):
    # full-size synthetic stand-in so the mnist split-size contract holds
    out = tmp_path / "out"
    proc = run_cli(
        "train", "--dataset", "mnist", "--activation", "relu",
        "--epochs", "1", "--seed", "0",
        "--data-dir", str(full_shape_mnist_dir), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    ckpts = list(out.glob("*.mlpc"))
    assert len(ckpts) == 1
    summary = json.loads(next(iter(out.glob("*.json"))).read_text())
    assert summary["epochs"] == 1
    assert 0.0 <= summary["test_accuracy_percent"] <= 100.0
    # random labels: accuracy should hover near chance
    assert summary["test_accuracy_percent"] < 30.0
