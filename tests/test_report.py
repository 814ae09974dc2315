import json
import shutil
from dataclasses import fields, replace
from pathlib import Path

import pytest

from mlpmod import cli
from mlpmod.data import DataError, make_synthetic_dataset
from mlpmod.harness import run_grid
from mlpmod.mlp import TrainConfig
from mlpmod.report import (
    METHODS,
    TABLE_COLUMNS,
    ExperimentReport,
    grid_csv_rows,
    load_reports,
    ordering_summary,
    render_method_table,
    write_tables,
)


README = Path(__file__).parents[1] / "README.md"

# run_grid's output for seeds 0 and 1, 1 epoch, widths 784-16x4-10 on the
# 20-image smoke dataset, written by commit 39d1cb9: a report set from an
# earlier commit must still render to the same bytes. Checkpoints are left
# out, since rendering reads only the reports
GOLDEN = Path(__file__).parent / "data" / "golden_grid"


def test_a_report_set_from_an_earlier_commit_renders_unchanged(tmp_path):
    shutil.copytree(GOLDEN / "reports", tmp_path / "reports")
    assert cli.main(["report", "--in", str(tmp_path)]) == cli.EXIT_OK
    for name in ("table_weights.txt", "table_spearman.txt", "grid.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    reports = load_reports(tmp_path)
    assert len(reports) == 16
    summary = json.loads((GOLDEN / "grid_summary.json").read_text())
    assert ordering_summary(reports) == {
        key: summary[key] for key in ("activation_ordering", "dropout_lowers_ncut")
    }


def test_report_write_onto_a_directory_leaves_no_temporary(tmp_path):
    target = tmp_path / "target.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        _fake_report("weights", "mnist", "relu", False, 0, 1.0).write_json(target)
    assert [p.name for p in tmp_path.iterdir()] == ["target.json"]


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


def _write_report_set(root, reports):
    """Write each report to its own subdirectory ``<i>/`` of ``root``."""
    for i, report in enumerate(reports):
        (root / str(i)).mkdir(parents=True)
        report.write_json(root / str(i) / f"report_{i}.json")


def _trained_report(seed, **changes):
    train_config = TrainConfig(epochs=1, rng_seed=seed).to_dict()
    report = _fake_report("weights", "mnist", "relu", False, seed, 2.0)
    return replace(report, **{"train_config": train_config, **changes})


@pytest.mark.parametrize(
    "field, value",
    [
        ("layer_widths", [4, 2]),
        ("k", 3),
        ("spectral_config", {"k": 4, "rng_seed": 1}),
        ("train_config", TrainConfig(epochs=3, rng_seed=1).to_dict()),
    ],
)
def test_load_reports_rejects_a_set_of_two_protocols(tmp_path, field, value):
    # runs of two seeds share one protocol, though their train_config differs in rng_seed
    _write_report_set(tmp_path / "same", [_trained_report(0), _trained_report(1)])
    assert [r.seed for r in load_reports(tmp_path / "same")] == [0, 1]
    mixed = [_trained_report(0), _trained_report(1, **{field: value})]
    _write_report_set(tmp_path / "mixed", mixed)
    fault = rf"0.report_0.json and \S+1.report_1.json differ in {field};"
    with pytest.raises(DataError, match=fault):
        load_reports(tmp_path / "mixed")


def test_load_reports_rejects_a_run_held_twice(tmp_path):
    _write_report_set(tmp_path, [_trained_report(0), _trained_report(1), _trained_report(0)])
    with pytest.raises(
        DataError,
        match=r"0.report_0.json and \S+2.report_2.json both hold the run "
        r"\('weights', 'mnist', 'relu', False, 0\)$",
    ):
        load_reports(tmp_path)


def test_report_writes_the_table_bytes_of_a_grid_over_datasets_out_of_order(tmp_path):
    # the grid is given its datasets against the table's order; the tables
    # must not depend on the order a report set arrives in
    for seed, name in enumerate(("zeta", "alpha")):
        make_synthetic_dataset(tmp_path / "data", name=name, n_train=20, n_test=20, seed=seed)
    grid = tmp_path / "grid"
    run_grid(tmp_path / "data", grid, seeds=(0,), epochs=1, datasets=["zeta", "alpha"])
    shutil.copytree(grid / "reports", tmp_path / "copy")
    assert cli.main(["report", "--in", str(tmp_path / "copy")]) == cli.EXIT_OK
    names = ("table_weights.txt", "table_spearman.txt", "grid.csv")
    for name in names:
        assert (tmp_path / "copy" / name).read_bytes() == (grid / name).read_bytes(), name
    for method in METHODS:
        rows = (grid / f"table_{method}.txt").read_text().splitlines()
        assert [row.split()[0] for row in rows[2:]] == ["alpha"] * 4 + ["zeta"] * 4
    reversed_set = load_reports(tmp_path / "copy")[::-1]
    (tmp_path / "reversed").mkdir()
    write_tables(reversed_set, tmp_path / "reversed")
    for name in names:
        assert (tmp_path / "reversed" / name).read_bytes() == (grid / name).read_bytes(), name


def test_the_paper_datasets_lead_the_table_whatever_the_arrival_order():
    reports = [
        _fake_report("weights", name, "relu", False, 0, 2.0)
        for name in ("zeta", "fashion_mnist", "alpha", "mnist")
    ]
    rows = render_method_table(reports, "weights").splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["MNIST", "FashionMNIST", "alpha", "zeta"]


def test_readme_names_every_report_field_table_column_and_grid_csv_column():
    readme = " ".join(README.read_text().split())
    missing = [f"`{f.name}`" for f in fields(ExperimentReport) if f"`{f.name}`" not in readme]
    missing += [c for c in TABLE_COLUMNS if c not in readme]
    missing += [f"`{c}`" for c in grid_csv_rows([])[0] if f"`{c}`" not in readme]
    assert missing == [], f"README.md does not name {missing}"


def test_readme_names_every_grid_summary_key_and_failure_field(tmp_path):
    # a grid without its dataset files fails every cell and still writes the summary
    run_grid(tmp_path / "missing", tmp_path, epochs=1, datasets=("smoke",))
    summary = json.loads((tmp_path / "grid_summary.json").read_text())
    readme = " ".join(README.read_text().split())
    names = [*summary, *summary["failures"][0]]
    missing = [f"`{name}`" for name in names if f"`{name}`" not in readme]
    assert missing == [], f"README.md does not name {missing}"
