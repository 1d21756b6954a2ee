"""End-to-end and per-layer benchmark of the spdm command-line pipelines.

Usage, from the repository root:

    python3 bench/run.py --workload point_en --seed 1 --seconds 55 --trace 0

A run starts one pipeline process (see pipeline.py) and then alternates
two things until ``--seconds`` would be passed: a fresh set-up-only
pipeline process, timed from its start to its ``ready`` line, and one
unit of the pipeline process, a whole round of the workload's command
sequence.  The set-up samples are so spread over the whole run.  Then the
pipeline process checks the outputs and reports the figures of every
round.  This script prints one JSON line last: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Scratch output
goes to ``.bench_out/<workload>/``.  See README.md for what every figure
means.
"""

import os
import sys

# Steadiness: one BLAS/OpenMP thread, and no thread count from the caller's
# environment.  Pipeline processes inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPDM_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TIMEOUT_S = 170


def spawn(w, seed: int, base: Path, mode: str, live: list):
    """Start a pipeline process; return it, its ``ready`` record and the
    seconds from its start to that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "pipeline.py"), w.name, str(seed),
         str(base), mode],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    live.append(proc)
    ready = expect(proc, "ready")
    return proc, ready, time.perf_counter() - t0


def expect(proc, tag: str) -> dict:
    """The next line of a pipeline process, which must be ``<tag> {...}``."""
    line = proc.stdout.readline()
    if not line.startswith(tag + " "):
        raise RuntimeError(f"pipeline process gave {line.strip()!r}, "
                           f"not a {tag!r} line (exit {proc.poll()})")
    return json.loads(line[len(tag) + 1:])


def send(proc, command: str) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()


def on_alarm(signum, frame):
    raise TimeoutError(f"run did not end within {TIMEOUT_S} s")


def measure(w, seed: int, run_dir: Path, seconds: float, trace: bool,
            live: list):
    """Set-up samples spread over the run, units in one pipeline process."""
    t_start = time.perf_counter()
    proc, ready, ready_s = spawn(w, seed, run_dir,
                                 "traced" if trace else "plain", live)
    setups, imports = [ready_s], [ready["import_s"]]
    while True:
        sp, sready, s_s = spawn(w, seed, run_dir / f"setup{len(setups)}",
                                "setup", live)
        if sp.wait() != 0:
            raise RuntimeError(f"set-up process exited {sp.returncode}")
        setups.append(s_s)
        imports.append(sready["import_s"])
        t_unit = time.perf_counter()
        send(proc, "unit")
        expect(proc, "unit")
        now = time.perf_counter()
        if now - t_start + s_s + (now - t_unit) > seconds:
            break
    send(proc, "end")
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups, imports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spdm" / "__init__.py").is_file():
        print(f"error: no spdm package under {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = OUT / w.name
    if run_dir.exists():
        shutil.rmtree(run_dir)

    live = []
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TIMEOUT_S)
    try:
        res, setups, imports = measure(w, args.seed, run_dir, args.seconds,
                                       bool(args.trace), live)
    except (RuntimeError, TimeoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    med = statistics.median
    plain, traced = res["plain"], res["traced"]
    rounds = plain + traced
    attempted = len(rounds) * len(w.commands)
    failed = sum(r["failed"] for r in rounds)
    checks = res["checks"]
    correct = all(c["passed"] for c in checks)
    for c in checks:
        if not c["passed"]:
            print(f"check failed: {c['name']} observed {c['observed']:.3e} "
                  f"tolerance {c['tolerance']:g}", file=sys.stderr)
    ok = [r for r in plain if r["failed"] == 0]
    good = [lr for r, lr in zip(traced, res["layers"]) if r["failed"] == 0]
    if not ok or (args.trace and not good):
        print("error: no round completed", file=sys.stderr)
        return 1

    # Throughputs are the work of all rounds over their summed time, and
    # pipeline_s the mean round: the host switches between two speeds every
    # few seconds, and a median of a handful of rounds jumps between them.
    mean = statistics.fmean
    if not args.trace:
        metrics = {
            "setup_s": (med(setups), "s"),
            "pipeline_s": (mean(r["pipeline_s"] for r in ok), "s"),
            "sample_chain_steps_per_s": (w.sample_chain_steps * len(ok) / sum(
                r["walls"]["sample"] for r in ok), "1/s"),
            "nll_point_steps_per_s": (w.nll_point_steps * len(ok) / sum(
                r["walls"]["nll"] for r in ok), "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    else:
        extra = {
            "setup.import_s": med(imports),
            "trace.overhead_s": mean(r["pipeline_s"] for r in traced
                                     if r["failed"] == 0)
            - mean(r["pipeline_s"] for r in ok),
        }
        metrics = {}
        for name, unit in tracing.METRICS:
            if name in extra:
                value = extra[name]
            else:
                values = [lr[name] for lr in good]
                value = None if values[0] is None else med(values)
            metrics[name] = (value, unit)

    reference = {"calibration_ms": med(res["calibration_ms"]),
                 "rounds": len(plain), "traced_rounds": len(traced),
                 "absent_probes": res["absent"]}
    (run_dir / "result.json").write_text(json.dumps(
        dict(res, workload=w.name, seed=args.seed, setup_s=setups,
             import_s=imports), indent=2), "utf-8")
    print("reference " + json.dumps(reference))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
