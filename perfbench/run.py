"""mlpmod benchmark: run one workload for a fixed time and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload cell-relu --seed 1 --seconds 30 --trace 0

The inputs (an MNIST-shaped image set and a planted checkpoint) are
generated from ``--seed`` under ``.bench_work/`` and removed afterwards.
Work is measured in rounds: one model taken through both edge-weight
methods. Rounds repeat while the next one would end near ``--seconds``.
Every operation's output is checked. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it records the machine, the
input figures and a digest of the outputs. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, so that runs compare
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import manifest  # noqa: E402
import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
METHODS = ("weights", "spearman")
SETUP_REPEATS = 3
CELLS = {"cell-relu": ("relu", False), "cell-sigmoid-dropout": ("sigmoid", True)}
# one epoch on the generated images reached 100% on every seed tried, so a
# miss means training broke (see README)
ACCURACY_FLOOR = {"relu": 90.0, "sigmoid": 80.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(manifest.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One run: the generated inputs, the program's modules and the op log."""

    def __init__(self, args, work: Path):
        self.args = args
        self.seed = args.seed
        self.work = work
        self.data_dir = work / "data"
        self.checkpoint = work / "planted.mlpc"
        self.round_index = 0
        self.first_digest = None
        self.first_outputs = None

    def setup(self) -> float:
        start = time.perf_counter()
        from mlpmod import checkpoint, cli, harness, mlp, spectral

        import inputs

        import_s = time.perf_counter() - start
        self.cli, self.harness = cli, harness
        self.mlp, self.spectral, self.inputs = mlp, spectral, inputs
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            splits = inputs.make_images(self.seed)
            inputs.write_dataset(splits, self.data_dir / "mnist")
            model, modules, dead = inputs.make_planted_model(self.seed, splits["test"][0])
            checkpoint.save_checkpoint(model, self.checkpoint)
            times.append(time.perf_counter() - start)
        self.facts = {
            "images": inputs.check_images(splits),
            "model": inputs.check_model(model, modules, dead, splits["test"][0]),
        }
        return import_s + statistics.median(times)

    # -- workloads --------------------------------------------------------

    def cell_round(self, out: Path) -> list[dict]:
        activation, dropout = CELLS[self.args.workload]
        cache: dict = {}
        ops = []
        for method in METHODS:
            cfg = self.harness.ExperimentConfig(
                dataset="mnist",
                activation=activation,
                dropout=dropout,
                method=method,
                train=self.mlp.TrainConfig(epochs=1, rng_seed=self.seed),
                spectral=self.spectral.SpectralConfig(rng_seed=self.seed),
            )
            start = time.perf_counter()
            try:
                report, error = self.harness.run_experiment(cfg, self.data_dir, out, cache), None
            except Exception as e:  # counted as a failed op, the run goes on
                report, error = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - start
            ops.append(self.check_cell(method, activation, report, error, seconds))
        weights, spearman = ops
        stored = sorted(p.name for p in (out / "checkpoints").glob("*.mlpc"))
        if weights["result"] and spearman["result"]:
            if not (stored == [weights["result"]["checkpoint"]] == [spearman["result"]["checkpoint"]]):
                spearman["errors"].append(f"methods do not share one checkpoint: {stored}")
            if weights["result"]["accuracy"] != spearman["result"]["accuracy"]:
                spearman["errors"].append("the two methods report different accuracies")
        return ops

    def check_cell(self, method, activation, report, error, seconds) -> dict:
        if report is None:
            return {"method": method, "seconds": seconds, "result": None, "errors": [error]}
        result = {
            "ncut": report.ncut,
            "cluster_sizes": list(report.cluster_sizes),
            "dropped": report.dropped_nodes,
            "accuracy": report.test_accuracy_percent,
            "checkpoint": report.checkpoint,
        }
        errors = self.check_partition(result)
        if result["accuracy"] is None or result["accuracy"] < ACCURACY_FLOOR[activation]:
            errors.append(f"accuracy {result['accuracy']} below {ACCURACY_FLOOR[activation]}")
        if method == "weights" and result["dropped"] != 0:
            errors.append(f"weights dropped {result['dropped']} nodes, expected 0")
        if method == "spearman" and result["dropped"] < self.inputs.N_CONSTANT_PIXELS:
            errors.append(f"spearman dropped {result['dropped']} nodes, fewer than the "
                          f"{self.inputs.N_CONSTANT_PIXELS} constant pixels")
        return {"method": method, "seconds": seconds, "result": result, "errors": errors}

    def analyze_round(self, out: Path) -> list[dict]:
        ops = []
        for method in METHODS:
            argv = [
                "analyze", "--checkpoint", str(self.checkpoint), "--method", method,
                "--data-dir", str(self.data_dir / "mnist"), "--seed", str(self.seed),
                "--out", str(out),
            ]
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(captured), redirect_stderr(captured):
                    code, error = self.cli.main(argv), None
            except Exception as e:  # counted as a failed op, the run goes on
                code, error = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - start
            ops.append(self.check_analysis(method, out, code, error, captured.getvalue(), seconds))
        return ops

    def check_analysis(self, method, out, code, error, output, seconds) -> dict:
        op = {"method": method, "seconds": seconds, "result": None, "errors": []}
        if code != 0:
            op["errors"].append(error or f"exit code {code}: {output.strip()}")
            return op
        path = out / f"analysis_{self.checkpoint.stem}_{method}.json"
        try:
            report = json.loads(path.read_text())
            result = {k: report[k] for k in ("ncut", "cluster_sizes")}
            result["dropped"] = report["dropped_nodes"]
        except (OSError, ValueError, KeyError) as e:
            op["errors"].append(f"unreadable analysis report {path.name}: {e}")
            return op
        op["result"] = result
        errors = self.check_partition(result)
        model = self.facts["model"]
        if method == "weights":
            if result["dropped"] != 0:
                errors.append(f"weights dropped {result['dropped']} nodes, expected 0")
            if result["ncut"] > model["planted_ncut"] * (1 + 1e-9):
                errors.append(f"ncut {result['ncut']} worse than the planted {model['planted_ncut']}")
        elif result["dropped"] != model["constant_columns"]:
            errors.append(f"spearman dropped {result['dropped']} nodes, but "
                          f"{model['constant_columns']} activation columns are constant")
        op["errors"] = errors
        return op

    def check_partition(self, result: dict) -> list[str]:
        sizes = result["cluster_sizes"]
        errors = []
        n_nodes = self.inputs.N_NODES
        if sum(sizes) + result["dropped"] != n_nodes:
            errors.append(f"cluster sizes {sizes} plus {result['dropped']} dropped != {n_nodes}")
        if len(sizes) != 4 or min(sizes) <= 0:
            errors.append(f"expected 4 nonempty clusters, got {sizes}")
        if not 0.0 < result["ncut"] < 4.0:
            errors.append(f"ncut {result['ncut']} outside (0, 4)")
        return errors

    def run_round(self) -> list[dict]:
        out = self.work / f"round{self.round_index}"
        self.round_index += 1
        try:
            if self.args.workload in CELLS:
                ops = self.cell_round(out)
            else:
                ops = self.analyze_round(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        digest = [(op["method"], op["result"] and op_digest(op["result"])) for op in ops]
        if self.first_digest is None:
            self.first_digest = digest
            self.first_outputs = [{"method": op["method"], **(op["result"] or {})} for op in ops]
        elif digest != self.first_digest:
            for op in ops:
                op["errors"].append("results differ from the first round of this run")
        return ops


def op_digest(result: dict) -> list:
    return [repr(float(result["ncut"])), list(result["cluster_sizes"]), int(result["dropped"])]


def machine_record(seed: int) -> dict:
    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def per_layer_metrics(tracer, traced_rounds: int, overhead_pct: float) -> dict:
    metrics = {}
    for name, unit in manifest.PER_LAYER:
        function, _, kind = name.rpartition(".")
        durations = tracer.durations(function)
        if kind == "s":
            value = durations.sum() / traced_rounds
        elif kind == "self_s":
            value = tracer.self_time(function) / traced_rounds
        elif kind == "calls":
            value = durations.size / traced_rounds
        elif kind in ("ms_p50", "ms_p95"):
            q = 50 if kind == "ms_p50" else 95
            value = 1e3 * float(np.percentile(durations, q)) if durations.size else 0.0
        elif name == "checkpoint.bytes":
            sizes = tracer.probes("checkpoint.save_checkpoint") + tracer.probes("checkpoint.load_checkpoint")
            value = sum(sizes) / traced_rounds
        elif name == "spectral.eig_order":
            orders = tracer.probes("spectral.smallest_eigenvectors")
            value = sum(orders) / len(orders) if orders else 0.0
        elif name == "trace.overhead_pct":
            value = overhead_pct
        else:
            raise KeyError(name)
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def run(args, work: Path) -> int:
    bench = Bench(args, work)
    setup_s = bench.setup()
    tracer = Tracer(manifest.traced_functions())
    rounds = []  # (traced, ops, seconds)
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            with tracer.installed():
                ops = bench.run_round()
        else:
            ops = bench.run_round()
        round_s = sum(op["seconds"] for op in ops)
        rounds.append((traced, ops, round_s))
        # stop when one more round would overshoot by more than half of it
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + round_s / 2 > args.seconds:
            break
    ops = [op for _, round_ops, _ in rounds for op in round_ops]
    failed = [op for op in ops if op["errors"]]
    for op in failed:
        print(f"perfbench: {op['method']} op failed: {'; '.join(op['errors'])}", file=sys.stderr)
    plain = [s for traced, _, s in rounds if not traced]
    if args.trace:
        with_spans = [s for traced, _, s in rounds if traced]
        overhead = 100.0 * (statistics.median(with_spans) / statistics.median(plain) - 1.0)
        metrics = per_layer_metrics(tracer, len(with_spans), overhead)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
    else:
        metrics = {
            "cell_s": statistics.median(plain),
            "weights_s": statistics.median(op["seconds"] for op in ops if op["method"] == "weights"),
            "spearman_s": statistics.median(op["seconds"] for op in ops if op["method"] == "spearman"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _, _ in manifest.END_TO_END}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    record = {
        "workload": args.workload,
        "machine": machine_record(args.seed),
        "inputs": bench.facts,
        "round_seconds": [round(s, 4) for _, _, s in rounds],
        "digest": hashlib.sha256(json.dumps(bench.first_digest).encode()).hexdigest()[:16],
        "outputs": bench.first_outputs,
        "missing_functions": tracer.missing,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlpmod" / "__init__.py").is_file():
        print(f"perfbench: no mlpmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
