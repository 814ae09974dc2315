"""The report format and the report set: one experiment's JSON record, and
the tables, grid CSV and ordering summary rendered from a set of them.

A report set is every ``report_*.json`` under one directory; it holds one
protocol, and each run (method, dataset, activation, dropout, seed) once.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic, write_json
from .data import KNOWN_DATASETS, DataError
from .mlp import ACTIVATIONS

__all__ = [
    "METHODS",
    "ExperimentReport",
    "render_method_table",
    "grid_csv_rows",
    "write_tables",
    "ordering_summary",
    "load_reports",
]

METHODS = ("weights", "spearman")

CONVENTIONS = {
    "edge_weights": "absolute trained weight",
    "correlation": "absolute spearman; constant vectors give 0",
    "activation_recording": "inputs=pixels; hidden=post-nonlinearity; outputs=logits",
}

TABLE_COLUMNS = ("Data Set", "Activation Function", "Dropout", "Test Accuracy(%)", "N-Cut")

_ACTIVATION_DISPLAY = {"relu": "ReLU", "sigmoid": "Sigmoid"}

# table row order within one dataset: (activation, dropout)
_ROW_ORDER = (("relu", False), ("sigmoid", False), ("relu", True), ("sigmoid", True))


@dataclass
class ExperimentReport:
    """One experiment's record; serializes to a fixed-key JSON document."""

    dataset: str | None
    activation: str
    dropout: bool
    method: str
    k: int
    seed: int | None
    layer_widths: list
    test_accuracy_percent: float | None
    ncut: float
    cluster_sizes: list
    layer_cluster_counts: list
    dropped_nodes: int
    kmeans_cost: float
    checkpoint: str | None
    off_protocol_k: bool
    train_config: dict | None
    spectral_config: dict
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))
    wall_times: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def read_json(cls, path) -> "ExperimentReport":
        """Parse a report file; ``DataError`` names the file and its fault."""
        try:
            d = json.loads(Path(path).read_text())
        except ValueError as e:
            raise DataError(f"{path}: not a JSON report: {e}") from e
        if not isinstance(d, dict):
            raise DataError(f"{path}: not a JSON report: top level is not an object")
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise DataError(f"{path}: report lacks keys {', '.join(missing)}")
        wrong = [
            f"{f.name} (expected {f.type}, got {type(d[f.name]).__name__})"
            for f in fields(cls)
            if not _is_json_type(d[f.name], f.type)
        ]
        if wrong:
            raise DataError(f"{path}: report values of the wrong type: {', '.join(wrong)}")
        # the tables have a row for each method and activation, and show only finite numbers
        for name, allowed in (("method", METHODS), ("activation", ACTIVATIONS)):
            if d[name] not in allowed:
                raise DataError(f"{path}: report {name} {d[name]!r} is not one of {allowed}")
        for name in ("ncut", "test_accuracy_percent"):  # NaN fails the comparison too
            if d[name] is not None and not abs(d[name]) <= sys.float_info.max:
                raise DataError(f"{path}: report {name} is not a finite float")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


# JSON value types of the report's field annotations; a float may be
# written as an integer, but a bool is a number only to Python
_JSON_TYPES = {
    "str": (str,),
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "list": (list,),
    "dict": (dict,),
    "None": (type(None),),
}


def _is_json_type(value, annotation: str) -> bool:
    allowed = tuple(t for name in annotation.split(" | ") for t in _JSON_TYPES[name])
    return isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool))


def _cell_key(r: ExperimentReport):
    return (r.method, r.dataset, r.activation, r.dropout)


def _run_key(r: ExperimentReport):
    """The run a report holds: its cell and seed, one ``grid.csv`` row."""
    return (*_cell_key(r), r.seed)


def _cell_means(reports) -> dict:
    cells: dict = {}
    for r in reports:
        cells.setdefault(_cell_key(r), []).append(r)
    means = {}
    for key, rs in cells.items():
        accs = [r.test_accuracy_percent for r in rs if r.test_accuracy_percent is not None]
        means[key] = {
            "test_accuracy_percent": float(np.mean(accs)) if accs else None,
            "ncut": float(np.mean([r.ncut for r in rs])),
            "n_seeds": len(rs),
        }
    return means


def render_method_table(reports, method: str) -> str:
    """Aligned text table for one method, means over seeds per cell."""
    means = _cell_means([r for r in reports if r.method == method])
    datasets = list(dict.fromkeys(key[1] for key in means))
    rows = [list(TABLE_COLUMNS)]
    for dataset in datasets:
        for activation, dropout in _ROW_ORDER:
            cell = means.get((method, dataset, activation, dropout))
            if cell is None:
                continue
            acc = cell["test_accuracy_percent"]
            rows.append(
                [
                    "-" if dataset is None else KNOWN_DATASETS.get(dataset, dataset),
                    _ACTIVATION_DISPLAY.get(activation, activation),
                    "Yes" if dropout else "No",
                    "-" if acc is None else f"{acc:.1f}",
                    f"{cell['ncut']:.2f}",
                ]
            )
    widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def grid_csv_rows(reports) -> list[list]:
    """Per-seed rows plus per-cell mean rows (seed column 'mean')."""
    header = [
        "method", "dataset", "activation", "dropout", "seed",
        "test_accuracy_percent", "ncut",
    ]
    rows = [header]
    for r in sorted(reports, key=lambda r: tuple(map(str, _run_key(r)))):
        rows.append([*_run_key(r), r.test_accuracy_percent, r.ncut])
    means = _cell_means(reports)
    if any(cell["n_seeds"] > 1 for cell in means.values()):
        for key in sorted(means, key=lambda k: tuple(map(str, k))):
            cell = means[key]
            rows.append([*key, "mean", cell["test_accuracy_percent"], cell["ncut"]])
    return rows


def write_tables(reports, out_dir) -> dict:
    """Write ``table_<method>.txt`` for each method that has reports, and
    ``grid.csv``, under ``out_dir``; returns the rendered tables by method."""
    out_dir = Path(out_dir)
    tables = {}
    for method in METHODS:
        if any(r.method == method for r in reports):
            tables[method] = render_method_table(reports, method)
            write_atomic(out_dir / f"table_{method}.txt", tables[method].encode())
    text = io.StringIO()
    csv.writer(text).writerows(grid_csv_rows(reports))
    write_atomic(out_dir / "grid.csv", text.getvalue().encode())
    return tables


def ordering_summary(reports) -> dict:
    """Activation-ordering and dropout-effect checks over grid reports.

    ``activation_ordering`` records, for every (method, dataset, dropout)
    cell, whether the sigmoid run produced a lower ncut than the relu run;
    ``dropout_lowers_ncut`` records, for every (method, dataset, activation),
    whether enabling dropout lowered the ncut. Both are reported per seed
    and on per-cell means, with no claim asserted.
    """
    # ncuts come as {_cell_key: ncut}; these index the varied key part
    activation, dropout = 2, 3

    def _pairs(ncuts, vary, lo_value, hi_value):
        index = {}
        for key, ncut in ncuts.items():
            index.setdefault(key[:vary] + key[vary + 1 :], {})[key[vary]] = ncut
        out = {}
        for key, vals in sorted(index.items(), key=lambda kv: tuple(map(str, kv[0]))):
            if lo_value in vals and hi_value in vals:
                name = "|".join(str(x) for x in key)
                out[name] = bool(vals[lo_value] < vals[hi_value])
        return out

    by_seed: dict = {}
    for r in reports:
        by_seed.setdefault(r.seed, {})[_cell_key(r)] = r.ncut
    ordering_per_seed = {}
    dropout_per_seed = {}
    for seed, ncuts in sorted(by_seed.items(), key=lambda kv: str(kv[0])):
        ordering_per_seed[str(seed)] = _pairs(ncuts, activation, "sigmoid", "relu")
        dropout_per_seed[str(seed)] = _pairs(ncuts, dropout, True, False)

    mean_ncuts = {key: cell["ncut"] for key, cell in _cell_means(reports).items()}
    ordering_mean = _pairs(mean_ncuts, activation, "sigmoid", "relu")
    dropout_mean = _pairs(mean_ncuts, dropout, True, False)
    return {
        "activation_ordering": {
            "per_seed": ordering_per_seed,
            "per_seed_counts": {
                s: sum(v.values()) for s, v in ordering_per_seed.items()
            },
            "mean": ordering_mean,
            "mean_count": sum(ordering_mean.values()),
        },
        "dropout_lowers_ncut": {
            "per_seed": dropout_per_seed,
            "mean": dropout_mean,
        },
    }


def _protocol(r: ExperimentReport) -> list:
    """What the reports of one set share, as (field, value) pairs: every
    setting but the training seed."""
    train = r.train_config and {**r.train_config, "rng_seed": None}
    return [("layer_widths", r.layer_widths), ("k", r.k),
            ("spectral_config", r.spectral_config), ("train_config", train)]


def load_reports(reports_dir) -> list[ExperimentReport]:
    """Read every report_*.json under a directory (recursively).

    The files must make one report set: a ``DataError`` names two files
    that differ in ``layer_widths``, ``k``, ``spectral_config`` or
    ``train_config`` apart from its ``rng_seed``, or that hold the same
    run, the same (method, dataset, activation, dropout, seed).
    """
    paths = sorted(Path(reports_dir).rglob("report_*.json"))
    reports = [ExperimentReport.read_json(p) for p in paths]
    path_of_run: dict = {}
    for path, r in zip(paths, reports):
        differ = [a for a, b in zip(_protocol(reports[0]), _protocol(r)) if a != b]
        if differ:
            raise DataError(f"{paths[0]} and {path} differ in {differ[0][0]}; "
                            "a report set holds one protocol")
        first_path = path_of_run.setdefault(_run_key(r), path)
        if first_path != path:
            raise DataError(f"{first_path} and {path} both hold the run {_run_key(r)}")
    return reports
