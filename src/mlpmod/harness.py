"""Experiment running: load and check the data, train or reuse a
checkpointed model, build both adjacency kinds, cluster, and write each
experiment's report; ``report`` renders the tables from them.

The full grid is 2 datasets x 2 activations x dropout on/off, each analyzed
under both edge-weight methods; one trained model (checkpointed under a
config fingerprint) is shared by the two methods of the same cell and seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_json
from .correlation import build_correlation_adjacency
from .data import KNOWN_DATASETS, DataError, LabeledImageSet, load_dataset
from .graph import build_weight_adjacency
from .mlp import (
    ACTIVATIONS,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    evaluate_accuracy,
    logit_accuracy,
    train,
)
from .report import METHODS, ExperimentReport, ordering_summary, write_tables
from .spectral import SpectralConfig, cluster_graph

__all__ = [
    "DROPOUT_RATE",
    "StageError",
    "ExperimentConfig",
    "GridResult",
    "config_fingerprint",
    "checkpoint_filename",
    "report_filename",
    "load_experiment_data",
    "train_and_save",
    "run_experiment",
    "analyze_checkpoint",
    "run_grid",
]

log = logging.getLogger(__name__)

DROPOUT_RATE = 0.5  # rate used whenever dropout is enabled


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
    dataset: str = next(iter(KNOWN_DATASETS))
    activation: str = "relu"
    dropout: bool = False
    method: str = "weights"
    train: TrainConfig = field(default_factory=TrainConfig)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        self.architecture  # built, and so checked, with the config

    @property
    def architecture(self) -> MlpArchitecture:
        return MlpArchitecture(
            activation=self.activation, dropout_rate=DROPOUT_RATE if self.dropout else 0.0
        )


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Hash of everything that determines the trained model."""
    payload = json.dumps(
        {"dataset": cfg.dataset, **asdict(cfg.architecture), "train": cfg.train.to_dict()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _cell_parts(cfg: ExperimentConfig) -> tuple[str, str, str]:
    """The grid cell of ``cfg`` as (dataset, activation, dropout) name parts."""
    return cfg.dataset, cfg.activation, "dropout" if cfg.dropout else "nodropout"


def checkpoint_filename(cfg: ExperimentConfig) -> str:
    return (
        f"{'_'.join(_cell_parts(cfg))}_seed{cfg.train.rng_seed}"
        f"_{config_fingerprint(cfg)}.mlpc"
    )


def report_filename(cfg: ExperimentConfig) -> str:
    return f"report_{'_'.join(_cell_parts(cfg))}_{cfg.method}_seed{cfg.train.rng_seed}.json"


def _check_split(split: LabeledImageSet, name: str, use: str, needed: int, widths: tuple) -> None:
    """Raise ``DataError`` naming the ``name`` split unless it has at least
    ``needed`` examples for ``use``, images as wide as the input layer of a
    model of layer ``widths`` and non-negative integer labels below the
    width of its output layer."""
    if len(split) < needed:
        raise DataError(
            f"the {name} split has {len(split)} example(s); {use} needs at least {needed}"
        )
    if split.images.shape[1] != widths[0]:
        raise DataError(
            f"{name} images have {split.images.shape[1]} pixels but the "
            f"model's input layer has {widths[0]} neurons"
        )
    labels = split.labels
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0:
        raise DataError(f"the {name} split has {labels.dtype} labels with minimum {labels.min()}")
    if labels.max() >= widths[-1]:
        raise DataError(
            f"the {name} split has label {labels.max()} but the model's output "
            f"layer has {widths[-1]} neurons"
        )


def _check_test_split(method: str, test_set: LabeledImageSet | None, widths: tuple) -> None:
    """Raise unless ``test_set`` can be analysed under ``method`` by a model
    of layer ``widths``.

    The method must be known and the spearman method needs a split
    (``ValueError``); a given split must pass ``_check_split`` with at
    least 1 example, 2 under spearman (``DataError``).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if test_set is not None:
        _check_split(test_set, "test", method, 2 if method == "spearman" else 1, widths)
    elif method == "spearman":
        raise ValueError("the spearman method requires the test split")


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

    The caller has passed ``method`` and ``test_set`` through
    ``_check_test_split``. Test accuracy is measured whenever ``test_set``
    is given; under spearman it comes from the logits that the graph build
    returns, so each method runs the test set through the model once.
    """
    arch = model.architecture
    accuracy = None
    with _stage("adjacency", wall_times):
        if method == "weights":
            graph = build_weight_adjacency(model.weights)
        else:
            graph, logits = build_correlation_adjacency(model, test_set.images)
            accuracy = logit_accuracy(logits, test_set.labels)
    if method == "weights" and test_set is not None:
        with _stage("accuracy", wall_times):
            accuracy = evaluate_accuracy(model, test_set.images, test_set.labels)
    with _stage("cluster", wall_times):
        result = cluster_graph(graph, spectral)
    kept = result.labels >= 0
    layer_of = np.repeat(np.arange(len(arch.layer_widths)), arch.layer_widths)
    layer_counts = np.zeros((len(arch.layer_widths), spectral.k), dtype=np.int64)
    np.add.at(layer_counts, (layer_of[kept], result.labels[kept]), 1)
    sizes = layer_counts.sum(axis=0).tolist()
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
        dropped_nodes=int(np.count_nonzero(~kept)),
        kmeans_cost=float(result.kmeans_cost),
        off_protocol_k=spectral.k != SpectralConfig.k,  # the paper's k is the default
        spectral_config=spectral.to_dict(),
        wall_times=wall_times,
        **provenance,
    )


def load_experiment_data(
    cfg: ExperimentConfig, data_dir, wall_times: dict, dataset_cache: dict | None = None
) -> dict[str, LabeledImageSet]:
    """The dataset ``cfg`` names under ``data_dir``, with both splits checked
    for ``cfg``.

    The load runs as the ``load-data`` stage, timed in ``wall_times``; it
    takes the dataset from ``dataset_cache`` when that holds it, and stores
    a fresh load there. A training split that ``_check_split`` rejects, or
    a test split that ``_check_test_split`` rejects, raises ``DataError``.
    """
    with _stage("load-data", wall_times):
        cache = {} if dataset_cache is None else dataset_cache
        key = (cfg.dataset, str(data_dir))
        if key not in cache:
            cache[key] = load_dataset(cfg.dataset, data_dir)
        dataset = cache[key]
    widths = cfg.architecture.layer_widths
    _check_split(dataset["train"], "training", "training", 1, widths)
    _check_test_split(cfg.method, dataset["test"], widths)
    return dataset


def train_and_save(cfg: ExperimentConfig, train_set: LabeledImageSet, path) -> MlpModel:
    """Train ``cfg.architecture`` on ``train_set`` under ``cfg.train`` and
    write the model's checkpoint to ``path``."""
    model = train(train_set, cfg.architecture, cfg.train)
    save_checkpoint(model, path)
    return model


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

    Both splits are checked by ``load_experiment_data`` before any
    training. Trains the model with ``train_and_save`` unless a checkpoint for
    the same config fingerprint already exists under ``out_dir/checkpoints``;
    a corrupt or mismatched cached checkpoint is retrained and overwritten.
    Writes the report JSON to ``out_dir/reports``. Deterministic for fixed
    seeds.
    """
    out_dir = Path(out_dir)
    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)
    wall_times: dict = {}
    dataset = load_experiment_data(cfg, data_dir, wall_times, dataset_cache)

    ckpt_path = out_dir / "checkpoints" / checkpoint_filename(cfg)
    with _stage("train-or-load", wall_times):
        model = _load_cached(ckpt_path, cfg.architecture)
        if model is None:
            model = train_and_save(cfg, dataset["train"], ckpt_path)

    report = _analyze_model(
        model,
        cfg.method,
        dataset["test"],
        cfg.spectral,
        wall_times,
        dataset=cfg.dataset,
        seed=cfg.train.rng_seed,
        checkpoint=ckpt_path.name,
        train_config=cfg.train.to_dict(),
    )
    report.write_json(out_dir / "reports" / report_filename(cfg))
    return report


def analyze_checkpoint(
    checkpoint_path,
    method: str,
    spectral: SpectralConfig = SpectralConfig(),
    test_set: LabeledImageSet | None = None,
) -> ExperimentReport:
    """Re-run the graph analysis of a stored model without retraining.

    The weights method needs no data; the spearman method requires the test
    split the activations are recorded over. Test accuracy is filled in
    whenever a test set is supplied, whose image width and labels must fit
    the model's input and output layers (``DataError`` otherwise).
    """
    wall_times: dict = {}
    with _stage("load-checkpoint", wall_times):
        model = load_checkpoint(checkpoint_path)
    _check_test_split(method, test_set, model.architecture.layer_widths)
    return _analyze_model(
        model,
        method,
        test_set,
        spectral,
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
    seeds=(TrainConfig.rng_seed,),
    epochs: int = TrainConfig.epochs,
    datasets=tuple(KNOWN_DATASETS),
) -> GridResult:
    """All dataset x activation x dropout cells, both methods, every seed.

    Each cell trains for ``epochs`` with its seed and clusters under the
    default ``SpectralConfig``, whose k is the paper's. A failing cell is
    recorded and skipped; the rest of the grid continues. Writes
    per-experiment JSON, the tables and grid CSV of ``write_tables``, and a
    summary JSON with the activation-ordering and dropout-effect checks.
    ``seeds`` and ``datasets`` are sequences such as lists or tuples; a
    string or any other non-sequence, an empty grid, a seed or dataset named
    twice, a negative seed or a bad ``epochs`` raises ``ValueError`` before
    any training or file write.
    """
    for name, values in (("seeds", seeds), ("datasets", datasets)):
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ValueError(f"{name} must be a sequence such as a list, got {values!r}")
    seeds, datasets = list(seeds), list(datasets)
    cells = itertools.product(datasets, ACTIVATIONS, (False, True), seeds, METHODS)
    configs = [  # all built, and so checked, before the first file write
        ExperimentConfig(
            dataset=dataset, activation=activation, dropout=dropout, method=method,
            train=TrainConfig(epochs=epochs, rng_seed=seed),
        )
        for dataset, activation, dropout, seed, method in cells
    ]
    if not configs:
        raise ValueError(f"the grid is empty: seeds {seeds}, datasets {datasets}")
    for name, values in (("seed", seeds), ("dataset", datasets)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{name} {repeated[0]!r} is repeated in {name}s {values}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: list[ExperimentReport] = []
    failures: list[dict] = []
    cache: dict = {}
    for cfg in configs:
        label = "/".join((*_cell_parts(cfg), cfg.method, f"seed{cfg.train.rng_seed}"))
        log.info("running %s", label)
        try:
            reports.append(run_experiment(cfg, data_dir, out_dir, cache))
        except Exception as e:
            failures.append({"cell": label, "stage": getattr(e, "stage", None), "error": str(e)})
    tables = write_tables(reports, out_dir)
    summary = ordering_summary(reports)
    summary["failures"] = failures
    summary["seeds"] = list(seeds)
    write_json(out_dir / "grid_summary.json", summary)
    return GridResult(reports=reports, failures=failures, tables=tables, summary=summary)
