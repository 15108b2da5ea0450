"""Package layout: every name is imported from its defining module, and `import tvdbn` loads nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvdbn"


def modules_after(statement: str) -> set[str]:
    """The tvdbn and numpy modules a fresh interpreter holds after running `statement`."""
    code = f"{statement}; import sys; print(*(m for m in sys.modules if m.startswith(('tvdbn.', 'numpy'))))"
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.split())


def test_no_facade_and_no_name_lists():
    """The top level imports nothing, and no module keeps an `__all__` that can drift from its names."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))]
    listed = {
        module.relative_to(PACKAGE).as_posix()
        for module in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(module.read_text(), str(module)))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    }
    assert listed == set()


def test_importing_the_package_loads_nothing():
    assert modules_after("import tvdbn") == set()


@pytest.mark.parametrize("entry", ["tvdbn.cli", "tvdbn.constraint", "tvdbn.dgcpm"])
def test_entry_points_apply_the_malloc_settings(entry):
    """Importing `numerics.memory` applies the malloc settings, so every entry point must load it."""
    assert "tvdbn.numerics.memory" in modules_after(f"import {entry}")
