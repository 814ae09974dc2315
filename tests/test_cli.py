import functools
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mlpmod import cli, harness, spectral
from mlpmod.checkpoint import save_checkpoint
from mlpmod.data import (
    SPLIT_FILES,
    LabeledImageSet,
    load_dataset,
    make_synthetic_dataset,
    write_idx_images,
    write_idx_labels,
)
from mlpmod.harness import ExperimentConfig, run_experiment, run_grid
from mlpmod.mlp import MlpArchitecture, TrainConfig, init_model
from mlpmod.report import ExperimentReport
from mlpmod.spectral import SpectralConfig

from conftest import smoke_config


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "mlpmod.cli", *args],
        capture_output=True,
        text=True,
    )


def test_parser_defaults_are_the_protocol_configs():
    parser = cli._build_parser()
    train = parser.parse_args(
        ["train", "--dataset", "mnist", "--activation", "relu", "--data-dir", "d", "--out", "o"]
    )
    assert (train.epochs, train.seed) == (TrainConfig().epochs, TrainConfig().rng_seed)
    analyze = parser.parse_args(["analyze", "--checkpoint", "c", "--method", "weights", "--out", "o"])
    assert (analyze.k, analyze.seed) == (SpectralConfig().k, SpectralConfig().rng_seed)
    grid = parser.parse_args(["grid", "--data-dir", "d", "--out", "o"])
    assert (grid.seeds, grid.epochs) == (str(TrainConfig().rng_seed), TrainConfig().epochs)


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
    model = init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0))
    save_checkpoint(model, ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "spearman",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "spearman" in proc.stderr


EDGELESS = "data error: stage 'cluster' failed: k=4 exceeds the 0 nodes of nonzero degree\n"


def test_edgeless_checkpoint_is_data_error(tmp_path):
    # all-zero weights: every node has zero degree, so no node is left to cluster
    model = init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0))
    for w in model.weights:
        w[:] = 0.0
    ckpt = tmp_path / "zero.mlpc"
    save_checkpoint(model, ckpt)
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == EDGELESS


@pytest.mark.parametrize(
    "method, k, n_kept",
    # 810 nodes; under spearman 5 constant pixels of the smoke split drop out
    [("weights", 900, 810), ("spearman", 808, 805)],
)
def test_k_above_the_kept_nodes_is_data_error(smoke_data_dir, tmp_path, method, k, n_kept):
    ckpt = tmp_path / "small.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 8, 10)), np.random.default_rng(0)), ckpt
    )
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", method, "--k", str(k),
        "--data-dir", str(smoke_data_dir / "smoke"), "--out", str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert (
        f"data error: stage 'cluster' failed: k={k} exceeds the {n_kept} nodes of nonzero degree"
        in proc.stderr
    )


def test_non_finite_checkpoint_is_data_error(tmp_path):
    model = init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0))
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
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(100, 8, 10)), np.random.default_rng(0)), ckpt
    )
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", method,
        "--data-dir", str(smoke_data_dir / "smoke"), "--out", str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr
    assert "784 pixels" in proc.stderr and "100 neurons" in proc.stderr


@pytest.mark.parametrize("method", ["weights", "spearman"])
def test_labels_beyond_the_output_layer_are_data_error(smoke_data_dir, tmp_path, method):
    # the smoke test split holds labels 0..9, more than 5 output neurons can name
    ckpt = tmp_path / "five_classes.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 5)), np.random.default_rng(0)), ckpt
    )
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", method,
        "--data-dir", str(smoke_data_dir / "smoke"), "--out", str(tmp_path),
    )
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr
    assert "test split has label" in proc.stderr and "output layer has 5 neurons" in proc.stderr
    assert not list(tmp_path.glob("analysis_*.json"))


def test_an_eigensolver_failure_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(init_model(MlpArchitecture(), np.random.default_rng(0)), ckpt)
    # an impossible tolerance makes the residual check refuse every eigenpair
    monkeypatch.setattr(spectral, "EIG_TOL", 1e-18)
    code = cli.main([
        "analyze", "--checkpoint", str(ckpt), "--method", "weights", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL, err
    assert err.startswith("numerical failure: stage 'cluster' failed: eigenpair residuals exceed")
    # the message ends in the largest residual
    assert re.search(r": max \d\.\d{3}e[-+]\d+\n$", err)
    assert not list(tmp_path.rglob("analysis_*.json"))


def test_output_path_under_regular_file_is_data_error(tmp_path):
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0)), ckpt
    )
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

    monkeypatch.setattr(harness, "load_dataset", too_late)
    monkeypatch.setattr(harness, "train", too_late)
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
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0)), ckpt
    )
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
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0)), ckpt
    )
    code = cli.main([
        "analyze", "--checkpoint", str(ckpt), "--method", method,
        "--data-dir", str(data_dir), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "data error" in err and f"has {n_test} example" in err


def test_spearman_on_images_that_are_all_alike_is_data_error(tmp_path, capsys):
    # alike images give every unit a constant activation, so no correlation edge is left
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    images_name, labels_name = SPLIT_FILES["test"]
    write_idx_images(data_dir / images_name, np.zeros((4, 784)))
    write_idx_labels(data_dir / labels_name, np.arange(4))
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0)), ckpt
    )
    code = cli.main([
        "analyze", "--checkpoint", str(ckpt), "--method", "spearman",
        "--data-dir", str(data_dir), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == EDGELESS
    assert not list(tmp_path.rglob("analysis_*.json"))


def test_grid_output_under_regular_file_is_data_error(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    proc = run_cli("grid", "--epochs", "1", "--data-dir", str(tmp_path), "--out", str(blocker / "grid"))
    assert proc.returncode == 2, proc.stderr
    assert "data error" in proc.stderr


def test_grid_prints_its_tables_and_failed_cells(tmp_path, monkeypatch, capsys):
    # one test example: the weights cells run, every spearman cell fails
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=1, seed=0)
    monkeypatch.setattr(cli, "run_grid", functools.partial(harness.run_grid, datasets=("smoke",)))
    out = tmp_path / "grid"
    code = cli.main(["grid", "--epochs", "1", "--data-dir", str(tmp_path), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.startswith("\n[weights]\n" + (out / "table_weights.txt").read_text())
    assert "[spearman]" not in stdout
    failed = [
        f"  smoke/{activation}/{dropout}/spearman/seed0: stage 'load-data' failed: "
        "the test split has 1 example(s); spearman needs at least 2"
        for activation in ("relu", "sigmoid") for dropout in ("nodropout", "dropout")
    ]
    assert "\n".join(["\n4 cell(s) failed:", *failed]) in stdout
    assert stdout.endswith(f"\nwrote grid outputs under {out}\n")
    summary = json.loads((out / "grid_summary.json").read_text())
    assert [f["stage"] for f in summary["failures"]] == ["load-data"] * 4
    assert all(f["cell"].endswith("/spearman/seed0") for f in summary["failures"])


def test_grid_in_which_no_cell_reports_is_data_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_grid", functools.partial(harness.run_grid, datasets=("smoke",)))
    out = tmp_path / "grid"
    code = cli.main([
        "grid", "--epochs", "1", "--data-dir", str(tmp_path / "missing"), "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA, captured.err
    assert "\n8 cell(s) failed:\n" in captured.out
    assert "wrote grid outputs" not in captured.out
    summary_path = out / "grid_summary.json"
    assert f"data error: all 8 cells failed; {summary_path} lists them" in captured.err
    summary = json.loads(summary_path.read_text())
    assert [f["stage"] for f in summary["failures"]] == ["load-data"] * 8


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


@pytest.mark.parametrize("k, dense_calls", [(16, 0), (17, 1), (19, 1)])
def test_analyze_with_k_above_the_block_rank_takes_the_dense_route(
    tmp_path, monkeypatch, capsys, k, dense_calls
):
    # a 784-8-8-10 graph: 792 even-layer nodes and 18 odd-layer ones, but the
    # 10 output columns meet only 8 rows, so the scaled block has rank 16; a
    # 17th singular value of 0 is below SIGMA_FLOOR, and k = 19 exceeds the side
    calls = []
    real = spectral.smallest_eigenvectors

    def recording(laplacian, n_vectors):
        calls.append(n_vectors)
        return real(laplacian, n_vectors)

    monkeypatch.setattr(spectral, "smallest_eigenvectors", recording)
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 8, 10)), np.random.default_rng(0)), ckpt
    )
    out = tmp_path / "analysis"
    code = cli.main([
        "analyze", "--checkpoint", str(ckpt), "--method", "weights",
        "--k", str(k), "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert calls == [k] * dense_calls
    payload = json.loads(next(iter(out.glob("analysis_*.json"))).read_text())
    sizes = payload["cluster_sizes"]
    assert len(sizes) == k and min(sizes) > 0 and sum(sizes) == 810
    assert payload["off_protocol_k"] is True


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


@pytest.mark.parametrize("n_test", [20, 1], ids=["all-cells", "spearman-cells-fail"])
def test_report_rewrites_the_grid_tables_byte_for_byte(tmp_path, capsys, n_test):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=n_test, seed=0)
    grid = tmp_path / "grid"
    run_grid(tmp_path, grid, seeds=(0, 1), epochs=1, datasets=("smoke",))
    assert cli.main(["report", "--in", str(grid / "reports")]) == 0, capsys.readouterr().err
    written = sorted(p.name for p in grid.iterdir() if p.suffix in (".txt", ".csv"))
    rewritten = sorted(p.name for p in (grid / "reports").iterdir() if p.suffix in (".txt", ".csv"))
    assert written == rewritten
    for name in written:
        assert (grid / "reports" / name).read_bytes() == (grid / name).read_bytes()


def test_well_typed_report_renders(tmp_path):
    (tmp_path / "report_ok.json").write_text(_report_with(ncut=2, test_accuracy_percent=None))
    proc = run_cli("report", "--in", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "2.00" in proc.stdout


def test_report_without_a_dataset_renders_a_dash(tmp_path):
    (tmp_path / "report_analysis.json").write_text(_report_with(dataset=None))
    proc = run_cli("report", "--in", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[3].split()
    assert row[:3] == ["-", "ReLU", "No"]
    assert "weights,,relu,False,0,97.5,1.25" in (tmp_path / "grid.csv").read_text()


def test_k_below_two_is_usage_error(tmp_path):
    ckpt = tmp_path / "model.mlpc"
    save_checkpoint(
        init_model(MlpArchitecture(layer_widths=(784, 8, 10)), np.random.default_rng(0)), ckpt
    )
    proc = run_cli(
        "analyze", "--checkpoint", str(ckpt), "--method", "weights", "--k", "1",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr and "k must be at least 2" in proc.stderr


def test_negative_seed_is_usage_error(tmp_path):
    proc = run_cli(
        "grid", "--seeds", "0,-1", "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 1
    assert "--seeds '0,-1'" in proc.stderr and "rng_seed must be non-negative" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_repeated_seed_is_usage_error(tmp_path, capsys):
    code = cli.main([
        "grid", "--seeds", "0,1,1", "--data-dir", str(tmp_path), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err and "--seeds" in err and "seed 1 is repeated" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, reason", [
    (["--seeds", ","], "the grid is empty"),
    (["--epochs", "0"], "epochs must be at least 1"),
], ids=["empty-seeds", "zero-epochs"])
def test_grid_request_the_library_rejects_is_usage_error(tmp_path, capsys, argv, reason):
    code = cli.main(["grid", *argv, "--data-dir", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error: bad --seeds" in err and "--epochs" in err and reason in err
    assert not (tmp_path / "out").exists()


def test_interrupt_exits_130_without_traceback(tmp_path, monkeypatch, capsys):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_grid", interrupt)
    code = cli.main(["grid", "--data-dir", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"


def _train_on_smoke(smoke_data_dir, out_dir, monkeypatch, **changes):
    """``mlpmod train`` on the smoke splits, with ``changes`` made to them,
    standing in for an mnist directory."""
    smoke = {**load_dataset("smoke", smoke_data_dir), **changes}
    monkeypatch.setattr(harness, "load_dataset", lambda name, data_dir: smoke)
    return cli.main([
        "train", "--dataset", "mnist", "--activation", "relu",
        "--data-dir", str(smoke_data_dir), "--out", str(out_dir),
    ])


def test_value_error_inside_training_is_numerical_failure(
    smoke_data_dir, tmp_path, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise ValueError("bad value deep in training")

    monkeypatch.setattr(harness, "train", fail)
    assert _train_on_smoke(smoke_data_dir, tmp_path, monkeypatch) == 3
    assert "numerical failure: bad value deep in training" in capsys.readouterr().err


def test_train_refuses_an_empty_training_split(smoke_data_dir, tmp_path, monkeypatch, capsys):
    smoke_train = load_dataset("smoke", smoke_data_dir)["train"]
    empty = LabeledImageSet(smoke_train.images[:0], smoke_train.labels[:0], "train")
    assert _train_on_smoke(smoke_data_dir, tmp_path / "out", monkeypatch, train=empty) == 2
    assert (
        "data error: stage 'load-data' failed: the training split has 0 example(s)"
        in capsys.readouterr().err
    )
    assert list((tmp_path / "out").iterdir()) == []


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
        pytest.param("[]", "top level is not an object", id="top-level-array"),
        pytest.param(_report_with(ncut="high"), "wrong type: ncut", id="ncut-string"),
        pytest.param(
            _report_with(cluster_sizes=3, kmeans_cost=True),
            "wrong type: cluster_sizes (expected list, got int), kmeans_cost",
            id="size-int-cost-bool",
        ),
        pytest.param(
            _report_with(method="pearson"), "method 'pearson' is not one of", id="method"
        ),
        pytest.param(
            _report_with(activation="tanh"), "activation 'tanh' is not one of", id="activation"
        ),
        pytest.param(
            _report_with(ncut=float("nan")), "ncut is not a finite float", id="ncut-nan"
        ),
        pytest.param(_report_with(ncut=10**400), "ncut is not a finite float", id="ncut-huge"),
        pytest.param(
            _report_with(test_accuracy_percent=float("inf")),
            "test_accuracy_percent is not a finite float",
            id="accuracy-inf",
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


def test_report_command_on_grids_of_two_protocols_is_data_error(smoke_data_dir, tmp_path):
    # the grid runs one network, so the second protocol is a copy of its
    # reports with other layer widths
    run_grid(smoke_data_dir, tmp_path / "g" / "a", seeds=[0], epochs=1, datasets=["smoke"])
    shutil.copytree(tmp_path / "g" / "a" / "reports", tmp_path / "g" / "b" / "reports")
    for path in (tmp_path / "g" / "b" / "reports").glob("report_*.json"):
        report = json.loads(path.read_text())
        path.write_text(json.dumps({**report, "layer_widths": [784, 32, 10]}))
    proc = run_cli("report", "--in", str(tmp_path / "g"))
    assert proc.returncode == 2, proc.stderr
    first = "report_smoke_relu_dropout_spearman_seed0.json"
    a, b = (tmp_path / "g" / name / "reports" / first for name in "ab")
    assert f"data error: {a} and {b} differ in layer_widths" in proc.stderr
    assert not (tmp_path / "g" / "grid.csv").exists()


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
    # the grid's path trains the same model from the same config
    cfg = ExperimentConfig(dataset="mnist", activation="relu", train=TrainConfig(epochs=1))
    report = run_experiment(cfg, full_shape_mnist_dir, tmp_path / "experiment")
    assert report.checkpoint == ckpts[0].name
    grid_ckpt = tmp_path / "experiment" / "checkpoints" / report.checkpoint
    assert grid_ckpt.read_bytes() == ckpts[0].read_bytes()
    assert report.test_accuracy_percent == summary["test_accuracy_percent"]
