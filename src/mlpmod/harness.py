"""Experiment orchestration: train/load models, build both adjacency kinds,
cluster, and emit machine-readable reports plus rendered tables.

The full grid is 2 datasets x 2 activations x dropout on/off, each analyzed
under both edge-weight methods; one trained model (checkpointed under a
config fingerprint) is shared by the two methods of the same cell and seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_atomic
from .correlation import build_correlation_adjacency
from .data import DataError, LabeledImageSet, load_dataset
from .graph import build_weight_adjacency
from .mlp import (
    DEFAULT_LAYER_WIDTHS,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    evaluate_accuracy,
    logit_accuracy,
    record_activations,
    train,
)
from .spectral import SpectralConfig, cluster_graph

__all__ = [
    "METHODS",
    "DROPOUT_RATE",
    "StageError",
    "ExperimentConfig",
    "ExperimentReport",
    "GridResult",
    "config_fingerprint",
    "checkpoint_filename",
    "report_filename",
    "run_experiment",
    "analyze_checkpoint",
    "run_grid",
    "render_method_table",
    "grid_csv_rows",
    "write_grid_csv",
    "ordering_summary",
    "load_reports",
]

log = logging.getLogger(__name__)

METHODS = ("weights", "spearman")
DROPOUT_RATE = 0.5  # rate used whenever dropout is enabled

CONVENTIONS = {
    "edge_weights": "absolute trained weight",
    "correlation": "absolute spearman; constant vectors give 0",
    "activation_recording": "inputs=pixels; hidden=post-nonlinearity; outputs=logits",
}

TABLE_COLUMNS = ("Data Set", "Activation Function", "Dropout", "Test Accuracy(%)", "N-Cut")

_DATASET_DISPLAY = {"mnist": "MNIST", "fashion_mnist": "FashionMNIST"}
_ACTIVATION_DISPLAY = {"relu": "ReLU", "sigmoid": "Sigmoid"}

# table row order within one dataset: (activation, dropout)
_ROW_ORDER = (("relu", False), ("sigmoid", False), ("relu", True), ("sigmoid", True))


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name, chains the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str, wall_times: dict):
    start = time.perf_counter()
    try:
        yield
    except Exception as e:
        raise StageError(name, e) from e
    finally:
        wall_times[name] = time.perf_counter() - start


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "mnist"
    activation: str = "relu"
    dropout: bool = False
    method: str = "weights"
    layer_widths: tuple[int, ...] = DEFAULT_LAYER_WIDTHS
    train: TrainConfig = field(default_factory=TrainConfig)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")

    @property
    def architecture(self) -> MlpArchitecture:
        return MlpArchitecture(
            layer_widths=self.layer_widths,
            activation=self.activation,
            dropout_rate=DROPOUT_RATE if self.dropout else 0.0,
        )


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
        write_atomic(path, _json_bytes(self.to_dict()))

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


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Hash of everything that determines the trained model."""
    payload = json.dumps(
        {
            "dataset": cfg.dataset,
            "layer_widths": list(cfg.layer_widths),
            "activation": cfg.activation,
            "dropout_rate": DROPOUT_RATE if cfg.dropout else 0.0,
            "train": asdict(cfg.train),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def checkpoint_filename(cfg: ExperimentConfig) -> str:
    drop = "dropout" if cfg.dropout else "nodropout"
    return (
        f"{cfg.dataset}_{cfg.activation}_{drop}_seed{cfg.train.rng_seed}"
        f"_{config_fingerprint(cfg)}.mlpc"
    )


def report_filename(cfg: ExperimentConfig) -> str:
    drop = "dropout" if cfg.dropout else "nodropout"
    return (
        f"report_{cfg.dataset}_{cfg.activation}_{drop}_{cfg.method}"
        f"_seed{cfg.train.rng_seed}.json"
    )


def _build_adjacency(method: str, model: MlpModel, test_set: LabeledImageSet | None):
    """``model``'s graph under ``method``, with the test-set logits when the
    build ran the test set through the model (spearman), else None."""
    if method == "weights":
        return build_weight_adjacency(model.weights, model.architecture.layer_widths), None
    if method == "spearman":
        table = record_activations(model, test_set.images)
        # copied out before the adjacency build ranks the table in place
        logits = table[-model.architecture.n_classes :].T.copy()
        return build_correlation_adjacency(table, model.architecture), logits
    raise ValueError(f"unknown method {method!r}")


def _analyze_model(
    model: MlpModel,
    method: str,
    test_set: LabeledImageSet | None,
    spectral: SpectralConfig,
    wall_times: dict,
    **provenance,
) -> ExperimentReport:
    """Build ``model``'s graph under ``method``, cluster it and assemble the
    report; ``provenance`` supplies the fields the model does not determine
    (dataset, seed, checkpoint name, training config).

    This is where the test split comes in, and it is checked here once: the
    spearman method needs one (``ValueError``); a given split needs at least
    1 example, 2 under spearman, and images as wide as the model's input
    layer (``DataError``). Test accuracy is measured whenever ``test_set``
    is given, from the logits the spearman graph build recorded, so each
    method runs the test set through the model once.
    """
    needed = 2 if method == "spearman" else 1
    n_inputs = model.architecture.layer_widths[0]
    if test_set is None:
        if method == "spearman":
            raise ValueError("the spearman method requires the test split")
    elif len(test_set) < needed:
        raise DataError(
            f"the test split has {len(test_set)} example(s); {method} needs at least {needed}"
        )
    elif test_set.images.shape[1] != n_inputs:
        raise DataError(
            f"test images have {test_set.images.shape[1]} pixels but the "
            f"model's input layer has {n_inputs} neurons"
        )
    with _stage("adjacency", wall_times):
        adjacency, logits = _build_adjacency(method, model, test_set)
    accuracy = None
    if test_set is not None:
        with _stage("accuracy", wall_times):
            if logits is None:
                accuracy = evaluate_accuracy(model, test_set.images, test_set.labels)
            else:
                accuracy = logit_accuracy(logits, test_set.labels)
    with _stage("cluster", wall_times):
        result = cluster_graph(adjacency, spectral)
    arch = model.architecture
    sizes = result.cluster_sizes().tolist()
    kept = result.labels >= 0
    layer_of = np.repeat(np.arange(len(arch.layer_widths)), arch.layer_widths)
    layer_counts = np.zeros((len(arch.layer_widths), result.n_clusters), dtype=np.int64)
    np.add.at(layer_counts, (layer_of[kept], result.labels[kept]), 1)
    return ExperimentReport(
        activation=arch.activation,
        dropout=arch.dropout_rate > 0,
        method=method,
        k=spectral.k,
        test_accuracy_percent=None if accuracy is None else 100.0 * accuracy,
        layer_widths=list(arch.layer_widths),
        ncut=float(result.ncut_value),
        cluster_sizes=sizes,
        layer_cluster_counts=layer_counts.tolist(),
        dropped_nodes=int(result.dropped.size),
        kmeans_cost=float(result.kmeans_cost),
        off_protocol_k=spectral.k != 4,  # the paper clusters into 4
        spectral_config=spectral.to_dict(),
        wall_times=wall_times,
        **provenance,
    )


def _load_cached(path: Path, arch: MlpArchitecture) -> MlpModel | None:
    """The model cached at ``path``, or None when there is none to reuse.

    A corrupt checkpoint or one of another architecture is logged and
    treated as absent, so the caller retrains and overwrites it.
    """
    if not path.is_file():
        return None
    try:
        model = load_checkpoint(path)
    except CheckpointError as e:
        cause = str(e)
    else:
        if model.architecture == arch:
            return model
        cause = f"it holds {model.architecture}, expected {arch}"
    log.warning("retraining over unusable cached checkpoint %s: %s", path, cause)
    return None


def run_experiment(
    cfg: ExperimentConfig,
    data_dir,
    out_dir,
    dataset_cache: dict | None = None,
) -> ExperimentReport:
    """Run one experiment end to end and persist its artifacts.

    Trains the model unless a checkpoint for the same config fingerprint
    already exists under ``out_dir/checkpoints``; a corrupt or mismatched
    cached checkpoint is retrained and overwritten. Writes the report JSON to
    ``out_dir/reports``. Deterministic for fixed seeds.
    """
    out_dir = Path(out_dir)
    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    wall_times: dict = {}

    with _stage("load-data", wall_times):
        key = (cfg.dataset, str(data_dir))
        if dataset_cache is not None and key in dataset_cache:
            dataset = dataset_cache[key]
        else:
            dataset = load_dataset(cfg.dataset, data_dir)
            if dataset_cache is not None:
                dataset_cache[key] = dataset

    ckpt_path = out_dir / "checkpoints" / checkpoint_filename(cfg)
    with _stage("train-or-load", wall_times):
        model = _load_cached(ckpt_path, cfg.architecture)
        if model is None:
            model = train(dataset.train, cfg.architecture, cfg.train)
            save_checkpoint(model, ckpt_path)

    report = _analyze_model(
        model,
        cfg.method,
        dataset.test,
        cfg.spectral,
        wall_times,
        dataset=cfg.dataset,
        seed=cfg.train.rng_seed,
        checkpoint=ckpt_path.name,
        train_config=asdict(cfg.train),
    )
    report.write_json(out_dir / "reports" / report_filename(cfg))
    return report


def analyze_checkpoint(
    checkpoint_path,
    method: str,
    spectral: SpectralConfig | None = None,
    test_set: LabeledImageSet | None = None,
) -> ExperimentReport:
    """Re-run the graph analysis of a stored model without retraining.

    The weights method needs no data; the spearman method requires the test
    split the activations are recorded over. Test accuracy is filled in
    whenever a test set is supplied, whose image width must match the
    model's input layer (``DataError`` otherwise).
    """
    wall_times: dict = {}
    with _stage("load-checkpoint", wall_times):
        model = load_checkpoint(checkpoint_path)
    return _analyze_model(
        model,
        method,
        test_set,
        spectral if spectral is not None else SpectralConfig(),
        wall_times,
        dataset=None,
        seed=None,
        checkpoint=Path(checkpoint_path).name,
        train_config=None,
    )


@dataclass
class GridResult:
    reports: list
    failures: list
    tables: dict
    summary: dict


def run_grid(
    data_dir,
    out_dir,
    seeds=(0,),
    train_cfg: TrainConfig | None = None,
    spectral: SpectralConfig | None = None,
    datasets=("mnist", "fashion_mnist"),
    layer_widths=DEFAULT_LAYER_WIDTHS,
) -> GridResult:
    """All dataset x activation x dropout cells, both methods, every seed.

    A failing cell is recorded and skipped; the rest of the grid continues.
    Writes per-experiment JSON, a grid CSV, one rendered table per method,
    and a summary JSON with the activation-ordering and dropout-effect
    checks.
    """
    train_cfg = train_cfg if train_cfg is not None else TrainConfig()
    spectral = spectral if spectral is not None else SpectralConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: list[ExperimentReport] = []
    failures: list[dict] = []
    cache: dict = {}
    for dataset in datasets:
        for activation in ("relu", "sigmoid"):
            for dropout in (False, True):
                for seed in seeds:
                    for method in METHODS:
                        cfg = ExperimentConfig(
                            dataset=dataset,
                            activation=activation,
                            dropout=dropout,
                            method=method,
                            layer_widths=tuple(layer_widths),
                            train=replace(train_cfg, rng_seed=seed),
                            spectral=spectral,
                        )
                        label = (
                            f"{dataset}/{activation}/"
                            f"{'dropout' if dropout else 'nodropout'}/"
                            f"{method}/seed{seed}"
                        )
                        log.info("running %s", label)
                        try:
                            reports.append(
                                run_experiment(cfg, data_dir, out_dir, cache)
                            )
                        except Exception as e:
                            failures.append(
                                {
                                    "cell": label,
                                    "stage": getattr(e, "stage", None),
                                    "error": str(e),
                                }
                            )
    tables = {}
    for method in METHODS:
        rendered = render_method_table(reports, method)
        tables[method] = rendered
        write_atomic(out_dir / f"table_{method}.txt", rendered.encode())
    write_grid_csv(reports, out_dir / "grid.csv")
    summary = ordering_summary(reports)
    summary["failures"] = failures
    summary["seeds"] = list(seeds)
    write_atomic(out_dir / "grid_summary.json", _json_bytes(summary))
    return GridResult(reports=reports, failures=failures, tables=tables, summary=summary)


def _cell_key(r: ExperimentReport):
    return (r.method, r.dataset, r.activation, r.dropout)


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
    datasets = []
    for key in means:
        if key[1] not in datasets:
            datasets.append(key[1])
    rows = [list(TABLE_COLUMNS)]
    for dataset in datasets:
        for activation, dropout in _ROW_ORDER:
            cell = means.get((method, dataset, activation, dropout))
            if cell is None:
                continue
            acc = cell["test_accuracy_percent"]
            rows.append(
                [
                    _DATASET_DISPLAY.get(dataset, dataset),
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
    ordered = sorted(
        reports,
        key=lambda r: (r.method, str(r.dataset), r.activation, r.dropout, str(r.seed)),
    )
    for r in ordered:
        rows.append(
            [
                r.method, r.dataset, r.activation, r.dropout, r.seed,
                r.test_accuracy_percent, r.ncut,
            ]
        )
    means = _cell_means(reports)
    if any(cell["n_seeds"] > 1 for cell in means.values()):
        for key in sorted(means, key=lambda k: tuple(str(x) for x in k)):
            method, dataset, activation, dropout = key
            cell = means[key]
            rows.append(
                [
                    method, dataset, activation, dropout, "mean",
                    cell["test_accuracy_percent"], cell["ncut"],
                ]
            )
    return rows


def write_grid_csv(reports, path) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(grid_csv_rows(reports))
    write_atomic(path, text.getvalue().encode())


def ordering_summary(reports) -> dict:
    """Activation-ordering and dropout-effect checks over grid reports.

    ``activation_ordering`` records, for every (method, dataset, dropout)
    cell, whether the sigmoid run produced a lower ncut than the relu run;
    ``dropout_lowers_ncut`` records, for every (method, dataset, activation),
    whether enabling dropout lowered the ncut. Both are reported per seed
    and on per-cell means, with no claim asserted.
    """
    # rows are (method, dataset, activation, dropout, ncut) tuples, the cell
    # key of _cell_key followed by the ncut
    activation, dropout = 2, 3

    def _pairs(rows, vary, lo_value, hi_value):
        index = {}
        for row in rows:
            fixed = row[:vary] + row[vary + 1 : 4]
            index.setdefault(fixed, {})[row[vary]] = row[4]
        out = {}
        for key, vals in sorted(index.items(), key=lambda kv: tuple(map(str, kv[0]))):
            if lo_value in vals and hi_value in vals:
                name = "|".join(str(x) for x in key)
                out[name] = bool(vals[lo_value] < vals[hi_value])
        return out

    by_seed: dict = {}
    for r in reports:
        by_seed.setdefault(r.seed, []).append((*_cell_key(r), r.ncut))
    ordering_per_seed = {}
    dropout_per_seed = {}
    for seed, rows in sorted(by_seed.items(), key=lambda kv: str(kv[0])):
        ordering_per_seed[str(seed)] = _pairs(rows, activation, "sigmoid", "relu")
        dropout_per_seed[str(seed)] = _pairs(rows, dropout, True, False)

    mean_rows = [(*key, cell["ncut"]) for key, cell in _cell_means(reports).items()]
    ordering_mean = _pairs(mean_rows, activation, "sigmoid", "relu")
    dropout_mean = _pairs(mean_rows, dropout, True, False)
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


def load_reports(reports_dir) -> list[ExperimentReport]:
    """Read every report_*.json under a directory (recursively)."""
    paths = sorted(Path(reports_dir).rglob("report_*.json"))
    return [ExperimentReport.read_json(p) for p in paths]
