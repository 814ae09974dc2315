"""numpy is the package's one runtime dependency: every import under
``src/mlpmod`` is of the standard library, of numpy or relative."""

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
