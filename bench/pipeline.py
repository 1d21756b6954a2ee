"""The pipeline process: set-up, then rounds of a workload's commands.

Usage: python3 bench/pipeline.py <workload> <seed> <dir> <mode>

``<mode>`` is ``setup``, ``plain`` or ``traced``.  First the set-up every
CLI invocation pays: ``import spdm``, then load and validate the
workload's config and build its schedule, group and mixture.  A line
``ready {...}`` marks its end; in ``setup`` mode the process stops there.

Otherwise it reads commands from standard input, one a line.  ``unit``
runs one unit and answers ``unit {}``: a round of the workload's commands
through ``spdm.cli.main`` in this process, each command timed; in
``traced`` mode it is followed by a traced round, in which every probe in
``tracing.PROBES`` records spans.  ``end`` checks the first round's
outputs, compares every later round's data outputs with them, prints one
JSON object as the last line and ends the process.
"""

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def calibration_ms() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not spdm."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def setup(config: Path) -> None:
    """Config load and validation, then the CLI's object builders."""
    import spdm
    from spdm import cli

    cfg = spdm.load_config(config)
    cli.build_schedule(cfg)
    cli.build_mixture(cfg, cli.build_group(cfg))


def run_round(w, cli_main, out: Path, tracer=None, roots=None) -> dict:
    """The workload's commands once, in a fresh directory."""
    out.mkdir(parents=True)
    w.write_configs(out)
    walls, failed = {}, 0
    t0 = time.perf_counter()
    for command, cfg_name in w.commands:
        argv = [command, "--config", str(out / cfg_name), "--out", str(out)]
        call = cli_main if tracer is None else tracer.span(roots[command], cli_main)
        t = time.perf_counter()
        try:
            code = call(argv)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            code = 1
        walls[command] = time.perf_counter() - t
        if code != 0:
            print(f"{w.name}: {command} exited {code}", file=sys.stderr)
            failed += 1
    return {"pipeline_s": time.perf_counter() - t0, "walls": walls,
            "failed": failed, "dir": out.name}


def data_outputs(d: Path) -> dict:
    """Bytes of every output except the timestamped run.log."""
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())
            if p.is_file() and p.name != "run.log"}


def check_outputs(w, base: Path, seed: int, names: list) -> list:
    """The workload's checks on the first round, then byte-identity of the rest."""
    try:
        results = [c.as_dict() for c in workloads.run_checks(w, base / names[0], seed)]
        first = data_outputs(base / names[0])
        for name in names[1:]:
            same = data_outputs(base / name) == first
            results.append({"name": f"identical_outputs_{name}",
                            "observed": 0.0 if same else 1.0,
                            "tolerance": 0.0, "passed": same})
    except Exception as exc:  # a check that cannot run counts as failed
        traceback.print_exc(file=sys.stderr)
        results = [{"name": f"checks_ran: {exc!r}", "observed": 1.0,
                    "tolerance": 0.0, "passed": False}]
    return results


def main(argv) -> int:
    name, seed, base, mode = argv
    seed, base = int(seed), Path(base)
    w = workloads.WORKLOADS[name](seed)
    base.mkdir(parents=True, exist_ok=True)
    w.write_configs(base)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from spdm.cli import main as cli_main

    import_s = time.perf_counter() - t0
    setup(base / "config.json")
    print("ready " + json.dumps({"import_s": import_s}), flush=True)
    if mode == "setup":
        return 0

    tracer = roots = None
    if mode == "traced":
        tracer = tracing.Tracer()
        roots = {c: tracer.add_probe("cli", f"main:{c}", "command")
                 for c, _ in w.commands}
    plain, traced, layers, calib = [], [], [], []
    for line in sys.stdin:
        if line.strip() != "unit":
            break
        calib.append(calibration_ms())
        plain.append(run_round(w, cli_main, base / f"round{len(plain)}"))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(w, cli_main, base / f"traced{len(traced)}",
                                        tracer, roots))
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(
                tracer, roots["sample"], w.sample_chain_steps, w.event_dim))
        print("unit {}", flush=True)
    if not plain:
        print("error: no unit was asked for", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(base / "trace_spans.csv")
    names = [r["dir"] for r in plain + traced]
    checks = check_outputs(w, base, seed, names)
    for stale in names[1:]:
        shutil.rmtree(base / stale)
    print(json.dumps({"plain": plain, "traced": traced, "layers": layers,
                      "calibration_ms": calib, "peak_rss_mb": peak_rss_mb,
                      "absent": tracer.absent if tracer else [],
                      "checks": checks}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
