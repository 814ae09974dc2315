"""The package's public surface: every exported name imports, every demo
and the README's Library example run, and the README's demo table names
every demo."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlpmod
from mlpmod.checkpoint import save_checkpoint
from mlpmod.mlp import MlpArchitecture, init_model

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_exported_name_imports():
    """Each module's ``__all__`` names exist; the package root has no
    ``__all__``, and importing it above already resolves its re-exports."""
    for info in pkgutil.iter_modules(mlpmod.__path__):
        module = importlib.import_module(f"mlpmod.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"mlpmod.{info.name}.__all__ lists missing {name!r}"


def run_demo(demo, tmp_path):
    # demo 03 works in a mkdtemp directory, so TMPDIR keeps it under tmp_path
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_spearman_demo_prints_the_toy_adjacency(tmp_path):
    # input-hidden0 and hidden0-output correlate perfectly; the dead hidden1
    # has no weight
    stdout = run_demo(REPO / "demos" / "04_spearman_edges.py", tmp_path)
    matrix = "[[0. 1. 0. 0.]\n [1. 0. 0. 1.]\n [0. 0. 0. 0.]\n [0. 1. 0. 0.]]\n"
    assert "(|spearman| on edges):\n" + matrix in stdout


def test_readme_library_example_runs(tmp_path):
    readme = (REPO / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"^```python\n(.*?)^```$", library, flags=re.MULTILINE | re.DOTALL).group(1)
    path = tmp_path / re.search(r'load_checkpoint\("([^"]+)"\)', block).group(1)
    path.parent.mkdir(parents=True)
    save_checkpoint(init_model(MlpArchitecture(), np.random.default_rng(0)), path)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_demo_table_names_exactly_the_demos():
    readme = (REPO / "README.md").read_text()
    listed = re.findall(r"^\| `([^`]+\.py)` \|", readme, flags=re.MULTILINE)
    assert listed == [d.name for d in DEMOS]
