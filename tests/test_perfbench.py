"""The benchmark's per-layer metrics trace functions by ``module.function``
name; a renamed function would silently zero its metrics."""

import importlib
import importlib.util
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[1] / "perfbench" / "manifest.py"

# traced by the benchmark but gone from the package; the benchmark's next
# re-baseline drops them from its list, and this test passes either way
KNOWN_MISSING = {"correlation.standardized_rank_columns", "graph.validate_adjacency"}


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_manifest", MANIFEST)
    manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(manifest)
    missing = set()
    for name in manifest.traced_functions():
        module_name, function = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(f"mlpmod.{module_name}"), function):
            missing.add(name)
    assert missing <= KNOWN_MISSING, f"traced but not in mlpmod: {sorted(missing - KNOWN_MISSING)}"
