"""Record one BENCH_<label>.json: end-to-end benchmark results and
in-process layer timings of the checkout this script sits in.

    python3 scripts/bench_record.py --label L

The file holds:
  - a header: commit, Python and numpy versions, core count and the line
    count of src/gradshift;
  - end_to_end: for each workload in BENCHMARK.json, the result line of an
    unchanged `python3 perfbench/run.py --workload W --seed 0`, at its own
    default length, and the number of rounds it timed;
  - layers: one critic step, one model step without its critic, and one
    `gradual` stage epoch at batch 64, each the median (with quartiles) of
    15 blocks in process time; the three alternate block by block.

Compare two files only when the same command made both on the same
machine: to measure another commit, put this script into that checkout
and run it there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCH = 64
K_CRITIC = 5
BLOCKS = 15
STAGE_ROWS = 375       # a moons benchmark domain's training rows (n = 500,
                       # holdout 0.25): 6 batches per epoch at batch 64


def header() -> dict:
    import numpy as np
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "gradshift").glob("*.py")))
    return {"commit": commit, "src_modified": bool(dirty),
            "python": platform.python_version(), "numpy": np.__version__,
            "cores": os.cpu_count(), "src_gradshift_lines": lines}


def end_to_end() -> dict:
    """One perfbench/run.py subprocess per workload at seed 0."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    out = {}
    for w in workloads:
        cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"],
               "--seed", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        rounds = [line.split()[3:-1] for line in proc.stderr.splitlines()
                  if line.startswith("perfbench: round times ")]
        out[w["name"]] = {
            "command": " ".join(cmd[1:]), "exit": proc.returncode,
            "result": (json.loads(proc.stdout.strip().splitlines()[-1])
                       if proc.returncode == 0 else None),
            "rounds": len(rounds[-1]) if rounds else 0}
    return out


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "blocks": len(xs)}


def layers(blocks: int = BLOCKS, scale: float = 1.0, batch: int = BATCH,
           rows: int = STAGE_ROWS) -> dict:
    """Layer timings in process time. `scale` shrinks the work per block
    (the tests run a tiny size); each block times a fresh copy of the
    same model, so every block does the same arithmetic."""
    sys.path.insert(0, str(ROOT / "src"))
    from gradshift import diffcore as dc
    from gradshift import domains as dom
    from gradshift import objectives as ob

    seq = dom.make_rotating_moons(2, rows, total_degrees=24.0,
                                  noise_sigma=0.1, seed=0)
    source, target = seq.domains
    cfg = ob.TrainConfig(batch_size=batch, epochs_per_domain=1,
                         k_critic=K_CRITIC)
    model = ob.build_model(ob.ModelSpec(), seq.d, seq.k, seed=0)
    fa = dc.rng_normal(dc.substream(0, "fa"), (batch, model.critic.in_dim))
    fb = dc.rng_normal(dc.substream(0, "fb"), (batch, model.critic.in_dim),
                       0.5, 1.0)
    seeds = [dc.substream(0, "gp", kk) for kk in range(K_CRITIC)]
    n_batches = -(-rows // batch)
    real_ascent = ob.critic_ascent

    def no_critic(*args, **kwargs):
        return 0.0, 0.0

    def critic_step(reps):
        critic = model.critic.copy()
        opt = ob._Opt([critic.flat], "adam", cfg.lr_critic)
        # as in a stage, the calls share one bound critic loop; commits
        # from before the loop was bound take no `work`
        kw = {"work": ob._StageWork()} if hasattr(ob, "_StageWork") else {}
        t = time.process_time()
        for _ in range(reps):
            real_ascent(critic, opt, fa, fb, cfg.gp_factor, seeds, "bench",
                        **kw)
        return (time.process_time() - t) / (reps * K_CRITIC) * 1e6

    def stage_epoch(reps):
        m = model.copy()
        t = time.process_time()
        for _ in range(reps):
            ob._run_stage(m, source, target, cfg, align=True, stage=0,
                          loss_spec=ob.LossSpec(), eval_batch=None)
        return (time.process_time() - t) / reps

    def model_step(reps):
        ob.critic_ascent = no_critic
        try:
            return stage_epoch(reps) / n_batches * 1e6
        finally:
            ob.critic_ascent = real_ascent

    plan = [("critic_step_us", critic_step, max(1, int(200 * scale))),
            ("model_step_us", model_step, max(1, int(10 * scale))),
            ("stage_epoch_ms", lambda r: stage_epoch(r) * 1e3,
             max(1, int(3 * scale)))]
    for _, fn, _ in plan:                 # warm caches and lazy set-up
        fn(1)
    times = {name: [] for name, _, _ in plan}
    for b in range(blocks):
        order = plan if b % 2 == 0 else plan[::-1]
        for name, fn, reps in order:
            times[name].append(fn(reps))
    out = {name: _quartiles(xs) for name, xs in times.items()}
    out["shape"] = {"batch": batch, "stage_rows": rows,
                    "batches_per_epoch": n_batches, "k_critic": K_CRITIC,
                    "critic": "8-16-16-1 tanh/tanh/identity, zero head, adam"}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    record = {"label": args.label, "header": header(), "layers": layers(),
              "end_to_end": end_to_end()}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
