"""Record one BENCH_<label>.json: end-to-end benchmark results and
layer timings of the checkout this script sits in and, with --against, of
the checkout in DIR, measured in the same run.

    python3 scripts/bench_record.py --label L [--against DIR]

The file holds, for this checkout and, under "against", for DIR:
  - a header: commit, Python and numpy versions, core count and the line
    count of src/gradshift, in all and per module;
  - end_to_end: for each workload in BENCHMARK.json, the result line of an
    unchanged `python3 perfbench/run.py --workload W --seed 0` in that
    checkout, at its own default length, and the number of rounds it
    timed; the checkouts take turns, workload by workload;
  - layers: one critic step, one model step without its critic loop, and
    one `gradual` stage epoch at batch 64; the exact assignment's auction
    and its search timed apart at n = 256 and n = 1024; and one Sinkhorn
    solve at n = 256 with the default epsilon and max_iters 2000. Each is
    the median (with quartiles) of 15 blocks in process time. One worker
    process per checkout imports that checkout's src and times them; the
    workers take turns block by block, and the layers alternate their
    order. The W1 layers solve the drift benchmark's pair: n standard
    normal 2-D points against n more shifted by 0.5 in x.

The critic step is timed through its one entry,
`objectives._CriticLoop(critic, 64).run(...)`, bound once before the timer
as a stage binds it, so DIR is a checkout whose critic loop takes the
steps' interpolation draws, whose `_Opt(params, lr)` is Adam alone and
whose `_run_stage` aligns exactly when it is given a target; the
assignment is timed through `transport._auction_prices(C)`, which consumes
C, and `transport._solve_assignment(C, prices)`. Two checkouts
timed in one run share the state of the machine; two files recorded one
after the other do not, so compare commits with --against.
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
W1_SIZES = (256, 1024)
SINKHORN_ITERS = 2000
LAYERS = ("critic_step_us", "model_step_us", "stage_epoch_ms",
          "auction_256_ms", "search_256_ms", "auction_1024_ms",
          "search_1024_ms", "sinkhorn_256_ms")
# blocks' repetitions per layer at scale 1
REPS = (200, 10, 3, 10, 10, 1, 1, 2)


def header(root: Path) -> dict:
    import numpy as np
    git = ["git", "-C", str(root)]
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    modules = {p.name: len(p.read_text().splitlines())
               for p in sorted((root / "src" / "gradshift").glob("*.py"))}
    return {"commit": commit, "src_modified": bool(dirty),
            "python": platform.python_version(), "numpy": np.__version__,
            "cores": os.cpu_count(),
            "src_gradshift_lines": sum(modules.values()),
            "src_gradshift_module_lines": modules}


def end_to_end(roots: list[Path]) -> list[dict]:
    """One perfbench/run.py subprocess per workload and checkout at seed 0;
    the checkouts take turns, the first one first on even workloads."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    out = [{} for _ in roots]
    for i, w in enumerate(workloads):
        cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"],
               "--seed", "0"]
        turns = range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))
        for r in turns:
            proc = subprocess.run(cmd, cwd=roots[r], capture_output=True,
                                  text=True)
            rounds = [line.split()[3:-1] for line in proc.stderr.splitlines()
                      if line.startswith("perfbench: round times ")]
            out[r][w["name"]] = {
                "command": " ".join(cmd[1:]), "exit": proc.returncode,
                "result": (json.loads(proc.stdout.strip().splitlines()[-1])
                           if proc.returncode == 0 else None),
                "rounds": len(rounds[-1]) if rounds else 0}
    return out


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "blocks": len(xs)}


class Layers:
    """The layer timers of the gradshift on the import path, in process
    time, each on a fresh copy of one model unless given a model to train
    in place, and each W1 solve on the same pair, so every block does the
    same arithmetic."""

    def __init__(self, batch: int = BATCH, rows: int = STAGE_ROWS):
        import numpy as np
        from gradshift import diffcore as dc
        from gradshift import domains as dom
        from gradshift import objectives as ob
        from gradshift import transport as tp
        self.ob, self.tp = ob, tp
        seq = dom.make_rotating_moons(2, rows, total_degrees=24.0,
                                      noise_sigma=0.1, seed=0)
        self.source, self.target = seq.domains
        self.cfg = ob.TrainConfig(batch_size=batch, epochs_per_domain=1,
                                  k_critic=K_CRITIC)
        self.model = ob.build_model(ob.ModelSpec(), seq.d, seq.k, seed=0)
        width = self.model.critic.in_dim
        self.fa = dc.rng_normal(dc.substream(0, "fa"), (batch, width))
        self.fb = dc.rng_normal(dc.substream(0, "fb"), (batch, width), 0.5,
                                1.0)
        self.draws = dc.uniform_rows(
            [dc.substream(dc.substream(0, "gp", kk), "gp_u")
             for kk in range(K_CRITIC)], batch)
        self.n_batches = -(-rows // batch)
        # per W1 size: the drift benchmark's pair, its cost matrix and the
        # auction's prices, which start the search
        self.pairs, self.costs, self.prices = {}, {}, {}
        for n in W1_SIZES:
            rng = np.random.default_rng([0, 1])
            self.pairs[n] = (rng.standard_normal((n, 2)),
                             rng.standard_normal((n, 2)) + [0.5, 0.0])
            self.costs[n] = tp.cost_matrix(*self.pairs[n])
            self.prices[n] = tp._auction_prices(self.costs[n].copy())

    def critic_step_us(self, reps: int) -> float:
        ob = self.ob
        critic = self.model.critic.copy()
        opt = ob._Opt([critic.flat], self.cfg.lr_critic)
        # as in a stage, one bound loop for every call
        loop = ob._CriticLoop(critic, len(self.fa))
        t = time.process_time()
        for _ in range(reps):
            loop.run(opt, self.fa, self.fb, self.cfg.gp_factor, self.draws,
                     "bench")
        return (time.process_time() - t) / (reps * K_CRITIC) * 1e6

    def stage_epoch_ms(self, reps: int, model=None) -> float:
        m = self.model.copy() if model is None else model
        t = time.process_time()
        for _ in range(reps):
            self.ob._run_stage(m, self.source, self.target, self.cfg,
                               stage=0, loss_spec=self.ob.LossSpec(),
                               eval_batch=None)
        return (time.process_time() - t) / reps * 1e3

    def _assignment_ms(self, n: int, reps: int, search: bool) -> float:
        """The auction on a fresh copy of the cost matrix, which it
        consumes, or the search from the auction's prices."""
        total = 0.0
        for _ in range(reps):
            C = self.costs[n].copy()
            t = time.process_time()
            if search:
                self.tp._solve_assignment(C, self.prices[n])
            else:
                self.tp._auction_prices(C)
            total += time.process_time() - t
        return total / reps * 1e3

    def auction_256_ms(self, reps: int) -> float:
        return self._assignment_ms(256, reps, search=False)

    def search_256_ms(self, reps: int) -> float:
        return self._assignment_ms(256, reps, search=True)

    def auction_1024_ms(self, reps: int) -> float:
        return self._assignment_ms(1024, reps, search=False)

    def search_1024_ms(self, reps: int) -> float:
        return self._assignment_ms(1024, reps, search=True)

    def sinkhorn_256_ms(self, reps: int) -> float:
        """One solve at transport.w1's default epsilon, a hundredth of the
        pair's mean cost."""
        a, b = self.pairs[256]
        eps = 0.01 * float(self.costs[256].mean())
        t = time.process_time()
        for _ in range(reps):
            self.tp.sinkhorn(a, b, eps, max_iters=SINKHORN_ITERS)
        return (time.process_time() - t) / reps * 1e3

    def model_step_us(self, reps: int, model=None) -> float:
        """A stage epoch's time per batch with the critic loop stubbed out
        (a model step reaches the critic through the bound loop's run)."""
        loop = self.ob._CriticLoop
        real = loop.run
        loop.run = lambda *args, **kwargs: (0.0, 0.0)
        try:
            return self.stage_epoch_ms(reps, model) / self.n_batches * 1e3
        finally:
            loop.run = real


def _worker(root: str, batch: int, rows: int) -> int:
    """Serve timing requests for the checkout at root: each stdin line is a
    JSON list of [layer, reps], answered with one JSON list of times."""
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    timers = Layers(batch, rows)
    if Path(timers.ob.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported {timers.ob.__file__}, not from {src}")
    for line in sys.stdin:
        times = [getattr(timers, name)(reps) for name, reps in json.loads(line)]
        print(json.dumps(times), flush=True)
    return 0


def layers(roots: list[Path], blocks: int = BLOCKS, scale: float = 1.0,
           batch: int = BATCH, rows: int = STAGE_ROWS) -> list[dict]:
    """Each checkout's layer timings, one worker process per checkout.
    `scale` shrinks the work per block (the tests run a tiny size)."""
    reps = {name: max(1, int(r * scale)) for name, r in zip(LAYERS, REPS)}
    workers = [subprocess.Popen(
        [sys.executable, __file__, "--worker", str(root), "--batch",
         str(batch), "--rows", str(rows)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True) for root in roots]

    def ask(w, plan):
        w.stdin.write(json.dumps(plan) + "\n")
        w.stdin.flush()
        line = w.stdout.readline()
        if not line:
            raise RuntimeError(f"layer worker {w.args[3]} exited")
        return json.loads(line)

    times = [{name: [] for name in LAYERS} for _ in roots]
    try:
        for w in workers:                 # warm caches and lazy set-up
            ask(w, [[name, 1] for name in LAYERS])
        for b in range(blocks):
            order = LAYERS if b % 2 == 0 else LAYERS[::-1]
            plan = [[name, reps[name]] for name in order]
            turns = range(len(roots)) if b % 2 == 0 else reversed(range(len(roots)))
            for r in turns:
                for name, t in zip(order, ask(workers[r], plan)):
                    times[r][name].append(t)
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    n_batches = -(-rows // batch)
    shape = {"batch": batch, "stage_rows": rows, "batches_per_epoch": n_batches,
             "k_critic": K_CRITIC,
             "critic": "8-16-16-1 tanh/tanh/identity, zero head, adam",
             "w1_pair": "n N(0, I) points in 2-D against n N((0.5, 0), I)",
             "sinkhorn": f"epsilon 0.01 x mean cost, {SINKHORN_ITERS} "
                         "iterations at most"}
    return [{**{name: _quartiles(xs) for name, xs in t.items()}, "shape": shape}
            for t in times]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--label")
    p.add_argument("--against", type=Path, metavar="DIR",
                   help="a second checkout, timed in the same run")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    p.add_argument("--batch", type=int, default=BATCH, help=argparse.SUPPRESS)
    p.add_argument("--rows", type=int, default=STAGE_ROWS,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        return _worker(args.worker, args.batch, args.rows)
    if not args.label:
        p.error("--label is required")
    roots = [ROOT] + ([args.against.resolve()] if args.against else [])
    lay, e2e = layers(roots), end_to_end(roots)
    runs = [{"header": header(r), "layers": l, "end_to_end": e}
            for r, l, e in zip(roots, lay, e2e)]
    record = {"label": args.label, **runs[0]}
    if args.against:
        record["against"] = runs[1]
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
