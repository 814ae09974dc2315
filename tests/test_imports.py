"""numpy is the package's one runtime dependency: every import under
``src/mlpmod`` is of the standard library, of numpy or relative. Every
name a module imports is used, and the modules import each other in
layers."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mlpmod"
ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.partition(".")[0] not in ALLOWED
            ]
    assert not outside, outside


def test_every_module_uses_the_names_it_imports():
    """A name a module imports and never reads is left over from a removal.
    The package root is exempt: its imports are its re-exports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} imports {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert not unused, unused


def test_the_cli_trains_through_the_harness():
    """``mlpmod train`` loads, trains and saves through the functions
    ``run_experiment`` uses, so the command imports none of their parts."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"load_dataset", "train", "save_checkpoint"}


def _relative_imports() -> dict:
    """Each module of the package, by name, with the set of package
    modules it imports."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imports = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import name
                    imports.update(alias.name for alias in node.names)
                else:
                    imports.add(node.module.partition(".")[0])
        graph[path.stem] = imports
    return graph


def test_the_modules_import_each_other_in_layers():
    """The package has no import cycle. ``report`` holds the report format
    and renders tables without running anything, so it imports neither the
    runner nor the command line; and only the command line and the package
    root import the runner."""
    graph = _relative_imports()
    assert {"harness", "report", "cli"} <= graph.keys(), sorted(graph)
    done, on_path = set(), []

    def visit(module):
        if module in on_path:
            raise AssertionError(f"import cycle: {' -> '.join(on_path + [module])}")
        if module not in done:
            on_path.append(module)
            for imported in sorted(graph.get(module, ())):
                visit(imported)
            on_path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    assert not graph["report"] & {"harness", "cli"}, graph["report"]
    importers = {module for module, imports in graph.items() if "harness" in imports}
    assert importers <= {"cli", "__init__"}, importers
