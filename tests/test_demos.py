"""The demos import only names that spdm has, and each runs to exit 0.

The import check names a removed or renamed name at once; the run test
catches everything else a demo can trip over.
"""

import ast
import importlib
import os
import shutil
import subprocess
import sys
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


def test_demos_run(tmp_path):
    # Each demo writes next to itself, so the copies keep the checkout's
    # demos/out untouched.  All of them start at once and run side by side.
    shutil.copytree(DEMOS[0].parent, tmp_path / "demos",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = {p.name: subprocess.Popen([sys.executable, p.name], cwd=tmp_path / "demos",
                                      env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
             for p in DEMOS}
    errors = {name: proc.communicate(timeout=600)[1] for name, proc in procs.items()}
    failed = {name: errors[name][-2000:] for name, proc in procs.items()
              if proc.returncode != 0}
    assert not failed, failed
