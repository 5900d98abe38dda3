"""One workload process for perfbench/run.py.

    --mode setup   write the generated inputs and report when that was done
    --mode run     set up, run timed rounds, save their outputs
    --mode check   check the saved outputs in a process of their own

Run from the root of a checkout; the program is imported from its `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("moons_serial", "moons_parallel", "drift_diagnostics")


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gradshift
    from gradshift import cli  # noqa: F401  (imports every module)
    where = Path(gradshift.__file__).resolve().parent
    if where != (src / "gradshift").resolve():
        raise SystemExit(f"gradshift imported from {where}, not from {src}")


def make_workload(name: str, work: Path, seed: int):
    from workloads import Drift, Moons
    if name == "drift_diagnostics":
        return Drift(work, seed, ROOT)
    threads = 1 if name == "moons_serial" else min(2, os.cpu_count() or 1)
    return Moons(work, seed, threads)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed_round(wl):
    wl.prepare()
    t0 = time.perf_counter()
    result = wl.run()
    dt = time.perf_counter() - t0
    return wl.capture(result), dt


def timed_run(wl, seconds: float):
    """Whole rounds until another round would take the timed total past
    `seconds`; at least one."""
    rounds, outputs = [], []
    while True:
        out, dt = timed_round(wl)
        rounds.append(dt)
        outputs.append(out)
        if sum(rounds) + statistics.median(rounds) > seconds:
            break
    return rounds, outputs, {}


def traced_run(wl, name: str, seed: int, work: Path):
    """One untraced round, then set-up and the same round traced; returns
    the per-layer metrics."""
    from tracing import Tracer, layer_metrics
    cpu0 = cpu_seconds()
    first, untraced = timed_round(wl)
    cpu = cpu_seconds() - cpu0
    tracer = Tracer(work / "trace_workers").install()
    try:
        wl.setup()  # rewrites the same inputs, so set-up layers show too
        second, traced = timed_round(wl)
    finally:
        tracer.uninstall()
    trace = tracer.collect()
    path = ROOT / ".perfbench" / "trace" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))
    metrics = layer_metrics(trace, workers=getattr(wl, "threads", 1),
                            cpu_s=cpu)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return [untraced, traced], [first, second], metrics


def check(wl, outputs) -> dict:
    wl.params()
    outcomes = [wl.outcome(out) for out in outputs]
    return {"metrics": outcomes[0].metrics,
            "attempted": sum(oc.attempted for oc in outcomes),
            "failures": [f for oc in outcomes for f in oc.failures],
            "problems": [p for oc in outcomes for p in oc.problems]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--mode", choices=("setup", "run", "check"), required=True)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    import_program()
    wl = make_workload(args.workload, args.work, args.seed)
    saved = args.work / "outputs.pickle"
    if args.mode == "check":
        # written by this benchmark's own run process just before
        result = check(wl, pickle.loads(saved.read_bytes()))
    else:
        wl.setup()
        result = {"ready": time.monotonic()}
        if args.mode == "run":
            if args.trace:
                rounds, outputs, metrics = traced_run(wl, args.workload,
                                                      args.seed, args.work)
            else:
                rounds, outputs, metrics = timed_run(wl, args.seconds)
            saved.write_bytes(pickle.dumps(outputs))
            result.update(rounds=rounds, metrics=metrics)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
