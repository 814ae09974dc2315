"""The benchmark's per-layer metrics trace functions by ``module.function``
name; a renamed function would silently zero its metrics, and a renamed
name that the benchmark imports or calls would stop it at its first use."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MANIFEST = PERFBENCH / "manifest.py"

# traced by the benchmark but gone from the package; the benchmark's next
# re-baseline drops them from its list, and this test passes either way
KNOWN_MISSING = {
    "correlation.standardized_rank_columns", "graph.validate_adjacency", "mlp.record_activations",
}


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


def _package_names(source: str) -> set:
    """``(module, name)`` pairs a benchmark file takes from ``mlpmod``: the
    names of its ``from mlpmod.<module> import`` lines, and the attributes it
    reads of a module from ``from mlpmod import``, bound to a local name or
    to ``self``."""
    tree = ast.parse(source)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mlpmod":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mlpmod."):
            names.update((node.module.removeprefix("mlpmod."), a.name) for a in node.names)
    on_self = {}  # self.<attr> = <module>, also as tuple assignments
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            pairs = zip(node.targets[0].elts, getattr(node.value, "elts", ()))
        elif isinstance(node, ast.Assign):
            pairs = [(node.targets[0], node.value)]
        else:
            continue
        for target, value in pairs:
            if (isinstance(target, ast.Attribute) and isinstance(value, ast.Name)
                    and value.id in modules):
                on_self[target.attr] = modules[value.id]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in modules:
            names.add((modules[owner.id], node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                and owner.value.id == "self" and owner.attr in on_self):
            names.add((on_self[owner.attr], node.attr))
    return names


def test_every_name_the_benchmark_takes_from_the_package_resolves():
    names = set().union(*(_package_names(p.read_text()) for p in PERFBENCH.glob("*.py")))
    # the scan finds what run.py and inputs.py are known to use
    assert {
        ("harness", "run_experiment"), ("harness", "ExperimentConfig"), ("mlp", "TrainConfig"),
        ("spectral", "SpectralConfig"), ("checkpoint", "save_checkpoint"), ("cli", "main"),
        ("data", "write_idx_images"), ("mlp", "MlpModel"),
    } <= names
    missing = sorted(
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"mlpmod.{module}"), name)
    )
    assert not missing, f"the benchmark uses names mlpmod lacks: {missing}"
