"""The benchmark's workloads and metrics, and the writer of BENCHMARK.json.

Run ``python3 perfbench/manifest.py`` from the repository root to rewrite
``BENCHMARK.json`` from the lists below; ``run.py`` reports exactly these
metrics.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = {
    "cell-relu": "One ReLU grid cell, 1 epoch, weights then spearman on one checkpoint; "
                 "the relu training path dominates, plus IDX parse and checkpoint write and read",
    "cell-sigmoid-dropout": "The same cell with sigmoid and dropout 0.5: covers the sigmoid "
                            "kernel and the dropout-mask draws that cell-relu bypasses",
    "analyze": "mlpmod analyze on a stored planted checkpoint under both methods, no training: "
               "ranking, eigensolve and graph build dominate",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("cell_s", "s", "lower", 0.24),
    ("weights_s", "s", "lower", 0.24),
    ("spearman_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

# module.function.kind, where kind is s (summed busy time), self_s (minus
# traced children), calls, ms_p50 or ms_p95 (per call); all per round
PER_LAYER = [
    ("data.load_dataset.s", "s"),
    ("data.load_split_files.s", "s"),
    ("mlp.train.s", "s"),
    ("mlp.train.self_s", "s"),
    ("mlp.loss_and_gradients.calls", "count"),
    ("mlp.loss_and_gradients.ms_p50", "ms"),
    ("mlp.loss_and_gradients.ms_p95", "ms"),
    ("mlp.adam_step.calls", "count"),
    ("mlp.adam_step.ms_p50", "ms"),
    ("mlp.adam_step.ms_p95", "ms"),
    ("mlp.evaluate_accuracy.calls", "count"),
    ("mlp.evaluate_accuracy.s", "s"),
    ("mlp.record_activations.s", "s"),
    ("checkpoint.save_checkpoint.calls", "count"),
    ("checkpoint.save_checkpoint.s", "s"),
    ("checkpoint.load_checkpoint.calls", "count"),
    ("checkpoint.load_checkpoint.s", "s"),
    ("checkpoint.bytes", "B"),
    ("correlation.standardized_rank_columns.s", "s"),
    ("correlation.build_correlation_adjacency.self_s", "s"),
    ("graph.build_weight_adjacency.s", "s"),
    ("graph.validate_adjacency.s", "s"),
    ("graph.ncut.s", "s"),
    ("spectral.normalized_laplacian.s", "s"),
    ("spectral.smallest_eigenvectors.s", "s"),
    ("spectral.kmeans.s", "s"),
    ("spectral.kmeans_single.calls", "count"),
    ("spectral.cluster_graph.self_s", "s"),
    ("spectral.eig_order", "count"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.analyze_checkpoint.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_pct", "%"),
]

KINDS = ("s", "self_s", "calls", "ms_p50", "ms_p95")


def traced_functions() -> list[str]:
    """``module.function`` of every span the per-layer metrics need."""
    names = []
    for metric, _ in PER_LAYER:
        function, _, kind = metric.rpartition(".")
        if kind in KINDS and function not in names:
            names.append(function)
    return names


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path}")
