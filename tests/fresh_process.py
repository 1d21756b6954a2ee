"""Code run in a fresh interpreter that imports spdm from this checkout.

``run_fresh(code, *args, env=...)`` runs the Python source ``code`` with
``sys.argv[1:]`` set to ``args`` and the given environment variables
added, and returns its completed process; a non-zero exit fails the
caller.  A process started so reads variables such as
``OPENBLAS_NUM_THREADS`` before numpy loads.

``usage(setup, call)`` runs the Python source ``setup`` and then ``call``
in a new interpreter that imports spdm from this checkout's ``src/``.  It
returns the process's peak resident set in MB (``ru_maxrss``), the minor
page faults (``ru_minflt``) taken while ``call`` ran, and how far ``call``
raised the peak above the one ``setup`` had reached.  A fresh
process is what a CLI user starts, and its allocator thresholds and peak
are not shaped by whatever the test session ran before.  Tests that use
it are marked ``needs_resource``: the ``resource`` module is POSIX-only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

needs_resource = pytest.mark.skipif(importlib.util.find_spec("resource") is None,
                                    reason="the resource module is POSIX-only")

_BEFORE = """
import resource as _resource
_start = _resource.getrusage(_resource.RUSAGE_SELF)
"""

_AFTER = """
import json as _json
import sys as _sys
_use = _resource.getrusage(_resource.RUSAGE_SELF)
_scale = 2**20 if _sys.platform == "darwin" else 2**10  # bytes there, KiB on Linux
print(_json.dumps({"maxrss_mb": _use.ru_maxrss / _scale,
                   "minflt": _use.ru_minflt - _start.ru_minflt,
                   "growth_mb": (_use.ru_maxrss - _start.ru_maxrss) / _scale}))
"""


class Usage(NamedTuple):
    maxrss_mb: float  # peak resident set of the whole process
    minflt: int       # minor page faults taken during the call
    growth_mb: float  # how far the call raised the peak set by the setup


def run_fresh(code: str, *args, env: dict | None = None,
              timeout: float = 300.0) -> subprocess.CompletedProcess:
    """Run ``code`` with arguments ``args`` in a fresh interpreter."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
                          capture_output=True, text=True, timeout=timeout, check=False,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})
    if proc.returncode != 0:
        raise AssertionError(f"fresh process failed:\n{proc.stderr}")
    return proc


def usage(setup: str, call: str, timeout: float = 300.0) -> Usage:
    """Resource use of ``call`` after ``setup`` in a fresh interpreter."""
    code = "\n".join([textwrap.dedent(setup), _BEFORE, textwrap.dedent(call), _AFTER])
    proc = run_fresh(code, timeout=timeout)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return Usage(out["maxrss_mb"], out["minflt"], out["growth_mb"])
