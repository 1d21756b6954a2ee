"""The benchmark's tracer still finds every callable it wraps.

``bench/tracing.py`` reports a probe whose target is gone as absent and
prints ``None`` for the per-layer metrics that need it, so a renamed
function or parameter would blank those metrics without failing a run.
The module is loaded read-only from its file; nothing is installed.
"""

import importlib.util

from fresh_process import ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_resolves():
    tracing = load_tracing()
    absent = [f"{module}:{path}" for _, module, path, _ in tracing.PROBES
              if tracing._resolve(module, path) is None]
    assert absent == []


def test_every_unit_reader_finds_its_parameters():
    # the probes whose spans are scaled by chains, points, steps or bytes
    tracing = load_tracing()
    unread = [path for _, module, path, _ in tracing.PROBES
              if path in ("reverse_sde_sample", "ddbm_reverse_sample", "pf_ode_solve",
                          "pf_ode_nll", "train", "write_spdt", "write_json",
                          "write_csv", "svg_scatter")
              and tracing._units(path, tracing._resolve(module, path)[2]) is None]
    assert unread == []
