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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demo 03 works in a mkdtemp directory, so TMPDIR keeps it under tmp_path
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
