"""Benchmark of gradshift: training and drift-diagnostic workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own process
(perfbench/child.py), which imports the program from `src/`; another
process checks the outputs afterwards. With
`--trace 0` the last line of standard output is one JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced round. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("moons_serial", "moons_parallel", "drift_diagnostics")
DEFAULT_SEED = 0
SETUP_LAUNCHES = 6          # set-up-only processes besides the measured one
CHILD_TIMEOUT_S = 150


def launch(root: Path, work: Path, mode: str, argv: list[str]) -> dict:
    """Run perfbench/child.py in one mode; return its result with the time
    from the start of the process to the end of its set-up."""
    work.mkdir(parents=True, exist_ok=True)
    result = work / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--work", str(work), "--result", str(result)] + argv
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    out = json.loads(result.read_text())
    if "ready" in out:
        out["setup_s"] = out["ready"] - spawned
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "gradshift" / "__init__.py").is_file():
        print("perfbench: run from the root of a gradshift checkout "
              "(src/gradshift not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_LAUNCHES):
                setups.append(launch(root, work / f"setup{i}", "setup",
                                     common)["setup_s"])
        res = launch(root, work / "run", "run", common)
        setups.append(res["setup_s"])
        # read before the check process starts: the checks' memory is not
        # the program's
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        checked = launch(root, work / "run", "check", common)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench: round times " + " ".join(f"{r:.3f}" for r in res["rounds"])
          + " s", file=sys.stderr)
    for what, count in sorted(Counter(checked["failures"]).items()):
        print(f"perfbench: failed {count}x: {what}", file=sys.stderr)
    for problem in checked["problems"]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    if args.trace:
        metrics = res["metrics"]
        # the moons workloads report the trained classifiers' accuracy
        metrics["target_acc"] = checked["metrics"].get("target_acc",
                                                       (0.0, "fraction"))
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (statistics.median(res["rounds"]), "s"),
                   "peak_rss_mb": (peak_kb / 1024.0, "MB")}
    print(json.dumps({
        "correct": not checked["problems"],
        "attempted": checked["attempted"],
        "failed": len(checked["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
