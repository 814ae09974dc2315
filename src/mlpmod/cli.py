"""Command-line interface.

Subcommands: ``train``, ``analyze``, ``grid``, ``report``. Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical failure, 130 interrupted.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .checkpoint import CheckpointError, write_json
from .data import KNOWN_DATASETS, DataError, load_splits
from .harness import (
    ExperimentConfig, StageError, analyze_checkpoint, checkpoint_filename,
    load_experiment_data, run_grid, train_and_save,
)
from .mlp import ACTIVATIONS, TrainConfig, evaluate_accuracy
from .report import METHODS, load_reports, write_tables
from .spectral import SpectralConfig, TooFewNodesError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is exit code 1
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlpmod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one MLP and write a checkpoint")
    p_train.add_argument("--dataset", required=True, choices=list(KNOWN_DATASETS))
    p_train.add_argument("--activation", required=True, choices=ACTIVATIONS)
    p_train.add_argument("--dropout", action="store_true")
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--seed", type=int, default=TrainConfig.rng_seed)
    p_train.add_argument("--data-dir", required=True)
    p_train.add_argument("--out", required=True)

    p_an = sub.add_parser("analyze", help="cluster a stored checkpoint")
    p_an.add_argument("--checkpoint", required=True)
    p_an.add_argument("--method", required=True, choices=METHODS)
    p_an.add_argument("--data-dir", default=None,
                      help="directory holding the t10k-* IDX files (spearman/accuracy)")
    p_an.add_argument("--k", type=int, default=SpectralConfig.k)
    p_an.add_argument("--seed", type=int, default=SpectralConfig.rng_seed,
                      help="clustering rng seed")
    p_an.add_argument("--out", required=True)

    p_grid = sub.add_parser("grid", help="run the full experiment grid")
    p_grid.add_argument("--seeds", default=str(TrainConfig.rng_seed),
                        help="comma-separated training seeds (default: %(default)s)")
    p_grid.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_grid.add_argument("--data-dir", required=True)
    p_grid.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="render tables from stored report JSON")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    return parser


def _config(factory, **values):
    """``factory(**values)`` for command-line values; the ``ValueError`` of a
    config's validation becomes a usage error."""
    try:
        return factory(**values)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _cmd_train(args) -> int:
    cfg = ExperimentConfig(
        dataset=args.dataset,
        activation=args.activation,
        dropout=args.dropout,
        train=_config(TrainConfig, epochs=args.epochs, rng_seed=args.seed),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before training
    dataset = load_experiment_data(cfg, args.data_dir, wall_times={})
    ckpt = out_dir / checkpoint_filename(cfg)
    model = train_and_save(cfg, dataset["train"], ckpt)
    accuracy = evaluate_accuracy(model, dataset["test"].images, dataset["test"].labels)
    summary = {
        "dataset": args.dataset,
        "activation": args.activation,
        "dropout": args.dropout,
        "epochs": args.epochs,
        "seed": args.seed,
        "test_accuracy_percent": 100.0 * accuracy,
        "checkpoint": ckpt.name,
    }
    write_json(out_dir / (ckpt.stem + ".json"), summary)
    print(f"wrote {ckpt}")
    print(f"test accuracy: {100.0 * accuracy:.2f}%")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.method == "spearman" and args.data_dir is None:
        raise UsageError("--method spearman requires --data-dir with the test split")
    spectral = _config(SpectralConfig, k=args.k, rng_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before analysis
    test_set = None
    if args.data_dir is not None:
        test_set = load_splits(args.data_dir, ["test"])["test"]
    report = analyze_checkpoint(args.checkpoint, args.method, spectral, test_set)
    out_path = out_dir / f"analysis_{Path(args.checkpoint).stem}_{args.method}.json"
    report.write_json(out_path)
    print(f"wrote {out_path}")
    print(f"ncut: {report.ncut:.6f}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as e:
        raise UsageError(f"bad --seeds value {args.seeds!r}") from e
    logging.basicConfig(level=logging.INFO, format="%(message)s")  # progress on stderr
    try:  # run_grid raises ValueError only before it trains or writes anything
        result = run_grid(args.data_dir, args.out, seeds=seeds, epochs=args.epochs)
    except ValueError as e:
        raise UsageError(f"bad --seeds {args.seeds!r} or --epochs {args.epochs}: {e}") from e
    for method, table in result.tables.items():
        print(f"\n[{method}]")
        print(table, end="")
    if result.failures:
        print(f"\n{len(result.failures)} cell(s) failed:")
        for failure in result.failures:
            print(f"  {failure['cell']}: {failure['error']}")
    if not result.reports:
        summary = Path(args.out) / "grid_summary.json"
        raise DataError(f"all {len(result.failures)} cells failed; {summary} lists them")
    print(f"\nwrote grid outputs under {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    reports = load_reports(args.in_dir)
    if not reports:
        raise DataError(f"no report_*.json files under {args.in_dir}")
    for method, table in write_tables(reports, args.in_dir).items():
        print(f"[{method}]")
        print(table)
    print(f"wrote tables and grid.csv under {args.in_dir}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "grid": _cmd_grid,
    "report": _cmd_report,
}

# OSError covers missing inputs and unwritable or invalid output paths alike
_DATA_ERRORS = (DataError, CheckpointError, OSError, TooFewNodesError)


def _classify(exc: BaseException) -> int:
    """Exit code of an uncaught error: data errors give 2, all else 3."""
    if isinstance(exc, StageError) and exc.__cause__ is not None:
        return _classify(exc.__cause__)
    return EXIT_DATA if isinstance(exc, _DATA_ERRORS) else EXIT_NUMERICAL


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # the shell's code for a process stopped by SIGINT
    except Exception as e:
        code = _classify(e)
        kind = "data error" if code == EXIT_DATA else "numerical failure"
        print(f"{kind}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
