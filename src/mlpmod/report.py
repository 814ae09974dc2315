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


def _in_run_order(reports) -> list:
    """The one order of a report set: by run key, each part compared as a
    string, so seed 10 comes before seed 2. Every renderer reads the set in it."""
    return sorted(reports, key=lambda r: tuple(map(str, _run_key(r))))


def _cell_means(reports) -> dict:
    """The one grouping over seeds: each cell's mean accuracy and ncut and its
    count of seeds, keyed by cell in run order."""
    cells: dict = {}
    for r in _in_run_order(reports):
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
    """Aligned text table for one method, means over seeds per cell.

    A dataset's rows form one block; the paper's datasets come first, in
    ``KNOWN_DATASETS`` order, then any other name by string.
    """
    means = _cell_means([r for r in reports if r.method == method])
    place = {name: i for i, name in enumerate(KNOWN_DATASETS)}
    datasets = sorted({key[1] for key in means}, key=lambda d: (place.get(d, len(place)), str(d)))
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
    """Per-seed rows in run order, then per-cell mean rows (seed column
    'mean') when some cell has more than one seed."""
    header = [
        "method", "dataset", "activation", "dropout", "seed",
        "test_accuracy_percent", "ncut",
    ]
    rows = [header]
    rows += [[*_run_key(r), r.test_accuracy_percent, r.ncut] for r in _in_run_order(reports)]
    means = _cell_means(reports)
    if any(cell["n_seeds"] > 1 for cell in means.values()):
        rows += [[*key, "mean", c["test_accuracy_percent"], c["ncut"]] for key, c in means.items()]
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


def _lower_ncut(ncuts: dict, part: int, lo, hi) -> dict:
    """The one comparison: ``ncuts`` maps cell keys to ncuts. For each two
    cells whose keys differ only at ``part``, one holding ``lo`` there and
    the other ``hi``, whether ``lo`` gave the lower ncut; each result is
    named by the other key parts joined by '|'."""
    pairs: dict = {}
    for key, ncut in ncuts.items():
        pairs.setdefault(key[:part] + key[part + 1 :], {})[key[part]] = ncut
    return {"|".join(map(str, key)): bool(v[lo] < v[hi])
            for key, v in pairs.items() if lo in v and hi in v}


def ordering_summary(reports) -> dict:
    """Activation-ordering and dropout-effect checks over grid reports.

    ``activation_ordering`` records, for every (method, dataset, dropout)
    cell, whether the sigmoid run produced a lower ncut than the relu run;
    ``dropout_lowers_ncut`` records, for every (method, dataset, activation),
    whether enabling dropout lowered the ncut. Both are reported per seed
    and on per-cell means, with no claim asserted.
    """
    by_seed: dict = {}
    for r in _in_run_order(reports):
        by_seed.setdefault(str(r.seed), {})[_cell_key(r)] = r.ncut
    mean_ncuts = {key: cell["ncut"] for key, cell in _cell_means(reports).items()}
    activation, dropout = 2, 3  # the cell key part each check varies
    ordering = {s: _lower_ncut(n, activation, "sigmoid", "relu") for s, n in by_seed.items()}
    ordering_mean = _lower_ncut(mean_ncuts, activation, "sigmoid", "relu")
    return {
        "activation_ordering": {
            "per_seed": ordering,
            "per_seed_counts": {s: sum(v.values()) for s, v in ordering.items()},
            "mean": ordering_mean,
            "mean_count": sum(ordering_mean.values()),
        },
        "dropout_lowers_ncut": {
            "per_seed": {s: _lower_ncut(n, dropout, True, False) for s, n in by_seed.items()},
            "mean": _lower_ncut(mean_ncuts, dropout, True, False),
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
