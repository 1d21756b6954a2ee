"""The demos import only names that spdm has.

The suite does not run the demos, so a removed or renamed name would
otherwise break them unnoticed; this parses each one instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def spdm_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from spdm... import name`` and (module, None)
    for each ``import spdm...`` in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spdm":
            found += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "spdm"]
    return found


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert all(spdm_imports(p) for p in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = []
    for module, name in spdm_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names spdm lacks: {missing}"
