"""End-to-end smoke run: train the protocol's 784-256x4-10 MLP for one epoch
on 20 synthetic images, then measure its modularity under both edge-weight
schemes.

Everything happens in a temporary directory; runs in a couple of seconds.
"""

import tempfile
from pathlib import Path

from mlpmod import ExperimentConfig, SpectralConfig, TrainConfig, run_experiment
from mlpmod.data import make_synthetic_dataset

workdir = Path(tempfile.mkdtemp(prefix="mlpmod-demo-"))
data_dir = workdir / "data"
out_dir = workdir / "out"
make_synthetic_dataset(data_dir, name="smoke", n_train=20, n_test=20, seed=0)
print(f"synthetic 20-image dataset under {data_dir}/smoke")

cache = {}
for method in ("weights", "spearman"):
    cfg = ExperimentConfig(
        dataset="smoke",
        activation="relu",
        dropout=False,
        method=method,
        train=TrainConfig(epochs=1, rng_seed=0),
        spectral=SpectralConfig(k=4, rng_seed=0),
    )
    report = run_experiment(cfg, data_dir, out_dir, cache)
    print(f"\nmethod={method}")
    print(f"  test accuracy: {report.test_accuracy_percent:.1f}% (random labels)")
    print(f"  ncut: {report.ncut:.4f}")
    print(f"  cluster sizes: {report.cluster_sizes}")
    print(f"  zero-degree neurons dropped: {report.dropped_nodes}")
    print(f"  checkpoint: {report.checkpoint}")

print(f"\nreports and the shared checkpoint live under {out_dir}")
print("the second method reused the first method's trained model")
