"""The full experiment grid: 2 datasets x 2 activations x dropout on/off,
each trained once per seed and analyzed under both edge-weight methods.

Needs the real MNIST and FashionMNIST IDX files on disk (see README for the
expected layout); prints instructions and exits if they are missing. Expect
roughly 20 minutes per seed on a desktop CPU.
"""

import logging
import sys
from pathlib import Path

from mlpmod.data import SPLIT_FILES
from mlpmod.harness import run_grid

DATA_DIR = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("data")
OUT_DIR = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("grid-out")
SEEDS = (0,)

missing = [
    str(DATA_DIR / name / base)
    for name in ("mnist", "fashion_mnist")
    for names in SPLIT_FILES.values()
    for base in names
    if not (DATA_DIR / name / base).is_file()
    and not (DATA_DIR / name / (base + ".gz")).is_file()
]
if missing:
    print("dataset files missing, e.g.:", missing[0])
    print(f"\nplace the IDX files (optionally gzipped) under {DATA_DIR}/mnist/")
    print(f"and {DATA_DIR}/fashion_mnist/, then rerun:")
    print(f"  python demos/05_full_grid.py {DATA_DIR} {OUT_DIR}")
    sys.exit(0)

logging.basicConfig(level=logging.INFO, format="%(message)s")  # progress on stderr
result = run_grid(DATA_DIR, OUT_DIR, seeds=SEEDS)

for method, table in result.tables.items():
    print(f"\n=== {method} ===")
    print(table)

ordering = result.summary["activation_ordering"]
print("sigmoid-below-relu cells per seed:", ordering["per_seed_counts"])
print("dropout-lowers-ncut per seed:", result.summary["dropout_lowers_ncut"]["per_seed"])
print(f"\nreports, tables, grid.csv and grid_summary.json under {OUT_DIR}")
