"""The benchmark's workloads: inputs, one round of program operations, and
the checks on a round's outputs.

`setup` writes the generated inputs; `prepare` clears what a round writes
(untimed); `run` is the timed round; `capture` turns its result into a
picklable record (untimed). The checks run in another process, so that
neither scipy nor the checks' arrays count in the program's peak memory:
there `params` rebuilds the inputs' parameters and `outcome` counts a
round's operations and failures and, for the first round, checks every
output against computations made apart from the program. Later rounds must
reproduce the first round's outputs exactly: the program is deterministic.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

SCHEDULES = ("no_adaptation", "direct", "gradual", "gradual_temporal")
ADAPTING = ("direct", "gradual", "gradual_temporal")
FIXED_SEED = 2204   # inputs of the two known faults; never the workload seed


def cli_json(cli, argv):
    """Run one CLI command in-process; return (exit code, last JSON line)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]) if lines else None


class Outcome:
    """One round's operations (attempted, and why each failed one failed)
    and its wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.metrics: dict = {}

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# rotating moons: `gradshift run` on a generated config

class Moons:
    """Rotating two-moons, all four schedules, two run seeds."""

    T = 6
    N = 500
    EPOCHS = 5
    RUN_SEEDS = (1, 2)
    HOLDOUT = 0.25
    DEGREES = 120.0
    NOISE = 0.1
    HIDDEN = 16
    FEATURE_DIM = 8

    def __init__(self, work: Path, seed: int, threads: int):
        self.work = work
        self.seed = seed
        self.threads = threads
        self.config = work / "moons.toml"
        self.out = work / "out"
        self.first = None
        self.metrics = {}

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        seeds = ", ".join(str(s) for s in self.RUN_SEEDS)
        schedules = ", ".join(f'"{s}"' for s in SCHEDULES)
        self.config.write_text(
            f'output_dir = "{self.out}"\n'
            f"seeds = [{seeds}]\n"
            f"schedules = [{schedules}]\n"
            f"holdout = {self.HOLDOUT}\n\n"
            "[generator]\n"
            'kind = "rotating_moons"\n'
            f"T = {self.T}\nn = {self.N}\nseed = {self.seed}\n"
            f"total_degrees = {self.DEGREES}\nnoise_sigma = {self.NOISE}\n\n"
            "[train]\n"
            f"epochs_per_domain = {self.EPOCHS}\n\n"
            "[model]\n"
            f"feature_dim = {self.FEATURE_DIM}\nhidden = {self.HIDDEN}\n")

    def params(self):
        pass

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        from gradshift import cli
        os.environ["GRADSHIFT_THREADS"] = str(self.threads)
        return cli_json(cli, ["run", str(self.config)])

    def capture(self, result) -> dict:
        rc, line = result
        files = {}
        if self.out.exists():
            files = {str(p.relative_to(self.out)): p.read_bytes()
                     for p in sorted(self.out.rglob("*")) if p.is_file()}
        return {"rc": rc, "line": line, "files": files}

    def outcome(self, got) -> Outcome:
        res = Outcome()
        for _ in range(len(SCHEDULES) * len(self.RUN_SEEDS)):
            res.op(got["rc"] == 0, f"gradshift run exited {got['rc']}")
        if got["rc"] != 0:
            return res
        if self.first is None:
            self._check(got, res)
            self.first = got
        else:
            res.check(got["files"] == self.first["files"],
                      "a rerun of the same config changed the artifacts")
        res.metrics = self.metrics
        return res

    def _expected_stages(self, schedule):
        if schedule == "no_adaptation":
            return [0]
        if schedule == "direct":
            return [self.T - 1]
        return list(range(1, self.T))

    def _check(self, got, res: Outcome):
        files = got["files"]
        res.check(got["line"] == {"output_dir": str(self.out),
                                  "runs": len(SCHEDULES) * len(self.RUN_SEEDS)},
                  f"unexpected summary line {got['line']}")
        digest = hashlib.sha256(self.config.read_bytes()).digest()
        rows = list(csv.reader(io.StringIO(files["metrics.csv"].decode())))
        res.check(rows[0] == ["run_id", "seed", "schedule", "t", "epoch",
                              "class_loss", "alignment", "gp", "target_acc",
                              "wall_ms"], f"metrics header {rows[0]}")
        want = [(f"{s}-s{seed}", str(seed), s, str(t))
                for s in SCHEDULES for seed in self.RUN_SEEDS
                for t in self._expected_stages(s)]
        res.check([tuple(r[:4]) for r in rows[1:]] == want,
                  "metrics.csv rows do not follow the schedules")
        finals = {}
        for r in rows[1:]:
            res.check(r[4] == str(self.EPOCHS - 1), f"epoch column {r[4]}")
            vals = [float(v) for v in r[5:9]]
            res.check(all(math.isfinite(v) for v in vals), f"non-finite {r}")
            res.check(0.0 <= vals[3] <= 1.0, f"accuracy out of range {r}")
            if r[2] == "no_adaptation":
                res.check(vals[1] == 0.0 and vals[2] == 0.0,
                          f"critic terms without adaptation {r}")
            finals[(r[2], int(r[1]))] = vals[3]

        report = json.loads(files["report.json"])
        res.check(report["config_digest"] == digest.hex(), "report digest")
        res.check(sorted(report["schedules"]) == sorted(SCHEDULES),
                  "report schedules")
        for s in SCHEDULES:
            accs = [finals[(s, seed)] for seed in self.RUN_SEEDS]
            rep = report["schedules"].get(s, {})
            mean = math.fsum(accs) / len(accs)
            std = math.sqrt(math.fsum((a - mean) ** 2 for a in accs) / len(accs))
            res.check(rep.get("final_target_acc") == accs
                      and rep.get("runs") == len(accs)
                      and ref.close(rep.get("mean_target_acc", -1), mean)
                      and ref.close(rep.get("std_target_acc", -1), std),
                      f"report.json for {s} disagrees with the final rows")

        self._check_checkpoints(files, digest, finals, res)
        med = {s: statistics.median(finals[(s, seed)] for seed in self.RUN_SEEDS)
               for s in SCHEDULES}
        res.check(med["gradual"] - med["no_adaptation"] >= 0.10,
                  f"gradual median {med['gradual']:.3f} is not 0.10 above "
                  f"no_adaptation {med['no_adaptation']:.3f}")
        adapting = [finals[(s, seed)] for s in ADAPTING for seed in self.RUN_SEEDS]
        self.metrics = {
            "target_acc": (math.fsum(adapting) / len(adapting), "fraction")}

    def _check_checkpoints(self, files, digest, finals, res: Outcome):
        from gradshift import diffcore as dc
        from gradshift import domains as dom
        h, m = self.HIDDEN, self.FEATURE_DIM
        # feature map g: 2 -> h -> m, classifier: m -> h -> 2 (relu, identity)
        shapes = [(2, h), (h,), (h, m), (m,), (m, h), (h,), (h, 2), (2,)]
        for s in SCHEDULES:
            for seed in self.RUN_SEEDS:
                name = f"checkpoints/{s}-s{seed}.ckpt"
                if name not in files:
                    res.check(False, f"missing {name}")
                    continue
                path = self.out / name
                version, arrays, ck_digest = ref.read_checkpoint(path)
                res.check(version == 1 and ck_digest == digest,
                          f"{name}: version {version} or digest mismatch")
                res.check(list(arrays[0]) == [self.T - 1, 0.0],
                          f"{name}: position {arrays[0]}")
                params = arrays[1:9]
                if [a.shape for a in params] != shapes:
                    res.check(False, f"{name}: parameter shapes "
                              f"{[a.shape for a in params]}")
                    continue
                g = [(params[0], params[1], "relu"),
                     (params[2], params[3], "identity")]
                hh = [(params[4], params[5], "relu"),
                      (params[6], params[7], "identity")]
                seq = dom.make_rotating_moons(
                    self.T, self.N, total_degrees=self.DEGREES,
                    noise_sigma=self.NOISE,
                    seed=dc.substream(self.seed, "data", seed))
                _, held = dom.split_holdout(seq, self.HOLDOUT,
                                            dc.substream(seed, "holdout"))
                batch = held.domains[-1]
                logits = ref.mlp_forward(ref.mlp_forward(batch.features, g), hh)
                acc = float(np.mean(np.argmax(logits, axis=1) == batch.labels))
                res.check(abs(acc - finals[(s, seed)]) <= 5e-9,
                          f"{name}: target_acc {finals[(s, seed)]} but its "
                          f"parameters give {acc}")


# ---------------------------------------------------------------------------
# drift and bound diagnostics

class _Recorder:
    """Keeps the inputs and results of transport's solvers during a round,
    as (phase, name, args, result) in `calls`.

    It rebinds `transport.w1_exact` and `transport.sinkhorn`, the names
    `class_conditional_delta` and `cli.cmd_w1` look up at call time.
    """

    NAMES = ("w1_exact", "sinkhorn")

    def __init__(self, tp):
        self.tp = tp
        self.calls: list[tuple] = []
        self.phase = None

    def __enter__(self):
        self.saved = {n: getattr(self.tp, n) for n in self.NAMES}
        for name, fn in self.saved.items():
            def rec(*args, _fn=fn, _name=name, **kwargs):
                out = _fn(*args, **kwargs)
                # the result without its coupling, which the checks never use
                self.calls.append((self.phase, _name, args, SimpleNamespace(
                    distance=out.distance, converged=out.converged)))
                return out
            rec.__name__ = rec.__qualname__ = fn.__name__
            rec.__module__ = fn.__module__
            setattr(self.tp, name, rec)
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.tp, name, fn)


def solves(calls, phase, name):
    return [(args, out) for p, n, args, out in calls
            if p == phase and n == name]


class Drift:
    """Class-conditional drift with both estimators, 1-D exact drift, one
    n=1024 `w1` solve and the bound diagnostics."""

    T = 4
    N = 500            # per domain, two classes: about 250 points per class
    N_1D = 4000        # about 2000 points per class
    SHIFT = 0.3
    SIGMA = 0.5
    N_W1 = 1024
    SINKHORN_TOL = 1e-6     # transport.sinkhorn's default tolerance
    DISC = dict(T=5, n=2000, shift=0.3, rho=1.0)
    SEQRAD_DEPTH = 3

    def __init__(self, work: Path, seed: int, root: Path):
        self.work = work
        self.seed = seed
        self.root = root
        self.first = None
        self.exact_1d = None

    def _gaussians(self, path, n, means, seed):
        from gradshift import domains as dom
        seq = dom.make_shifting_gaussians(
            self.T, n, shift_per_step=self.SHIFT, class_means=means,
            sigma=self.SIGMA, seed=seed)
        dom.save_sequence(seq, path)

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        means2 = [[-2.0, 0.0], [2.0, 0.0]]
        self._gaussians(self.work / "drift2d.csv", self.N, means2, self.seed)
        self._gaussians(self.work / "sinkhorn2d.csv", self.N, means2, FIXED_SEED)
        self._gaussians(self.work / "drift1d.csv", self.N_1D, [[-2.0], [2.0]],
                        FIXED_SEED)
        self.params()
        for name, pts in zip(("w1_a.csv", "w1_b.csv"), self.points):
            (self.work / name).write_text(
                "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))

    def params(self):
        rng = np.random.default_rng([self.seed, 1])
        self.points = (rng.standard_normal((self.N_W1, 2)),
                       rng.standard_normal((self.N_W1, 2)) + [0.5, 0.0])
        rng = np.random.default_rng([self.seed, 2])
        self.bound = {"T": int(rng.integers(2, 60)),
                      "n": int(rng.integers(10, 2000)),
                      "M": float(rng.uniform(0.5, 2.0)),
                      "rho": float(rng.uniform(0.5, 2.0)),
                      "Delta": float(rng.uniform(0.0, 0.05)),
                      "delta": float(rng.uniform(0.01, 0.5)),
                      "vc": float(rng.uniform(1.0, 20.0)),
                      "rseq_c": 1.0, "c_online": 1.0}
        self.sweep = json.loads(
            (self.root / "configs" / "sweep_interior.json").read_text())

    def prepare(self):
        pass

    def _cli_args(self):
        b = self.bound
        bound = ["bound"] + [f"--{k.replace('_', '-')}={v!r}"
                             for k, v in b.items()]
        s = self.sweep
        i = s["inputs"]
        sweep = ["sweep", f"--T-min={s['T_min']}", f"--T-max={s['T_max']}"] + \
            [f"--{k.replace('_', '-')}={i[k]!r}" for k in
             ("n", "M", "rho", "Delta", "delta", "vc", "rseq_c", "c_online")]
        d = self.DISC
        return {
            "w1": ["w1", str(self.work / "w1_a.csv"),
                   str(self.work / "w1_b.csv"), "--method", "exact"],
            "disc": ["disc", f"--T={d['T']}", f"--n={d['n']}",
                     f"--shift={d['shift']}", f"--rho={d['rho']}",
                     f"--seed={self.seed}"],
            "seqrad_two": ["seqrad", "--preset", "two_constants",
                           f"--T={self.SEQRAD_DEPTH}"],
            "seqrad_one": ["seqrad", "--fsize=1", f"--T={self.SEQRAD_DEPTH}",
                           f"--seed={self.seed}"],
            "lemma1": ["lemma1", f"--seed={self.seed}"],
            "bound": bound,
            "sweep": sweep,
        }

    def run(self):
        from gradshift import cli
        from gradshift import domains as dom
        from gradshift import transport as tp
        out = {}
        with _Recorder(tp) as rec:
            for phase, file, est in (("exact2d", "drift2d.csv", "exact"),
                                     ("sinkhorn", "sinkhorn2d.csv", "sinkhorn"),
                                     ("exact1d", "drift1d.csv", "exact")):
                rec.phase = phase
                seq = dom.load_sequence(self.work / file)
                out[phase] = tp.class_conditional_delta(seq, estimator=est)
            for phase, argv in self._cli_args().items():
                rec.phase = phase
                out[phase] = cli_json(cli, argv)
        out["calls"] = rec.calls
        return out

    def capture(self, out):
        return out

    # -- checks -----------------------------------------------------------

    def outcome(self, out) -> Outcome:
        res = Outcome()
        steps = self.T - 1
        # (F1) a Sinkhorn solve that did not converge fails
        sk = solves(out["calls"], "sinkhorn", "sinkhorn")
        for args, r in sk:
            res.op(bool(r.converged), "F1: a Sinkhorn solve did not converge")
        # (F2) a 1-D drift step that differs from the exact unequal-size W1
        exact_1d = self._exact_1d()
        for t in range(steps):
            got = out["exact1d"].per_step[t]
            res.op(abs(got - exact_1d[t]) <= 1e-9 * max(1.0, exact_1d[t]),
                   "F2: a 1-D drift step differs from the exact W1")
        for _ in range(steps):
            res.op(True, "exact 2-D drift step")
        for key in ("w1", "disc", "seqrad_two", "seqrad_one", "lemma1", "bound",
                    "sweep"):
            rc, line = out[key]
            res.op(rc == 0 and line is not None, f"{key} exited {rc}: {line}")
        if self.first is None:
            self.first = self._summary(out)
            self._check(out, res)
        else:
            res.check(self._summary(out) == self.first,
                      "a rerun on the same inputs gave different outputs")
        return res

    def _summary(self, out):
        s = {k: (v.per_step, v.delta_hat) for k, v in out.items()
             if k in ("exact2d", "sinkhorn", "exact1d")}
        s.update({k: v for k, v in out.items()
                  if k not in ("exact2d", "sinkhorn", "exact1d", "calls")})
        s["converged"] = [r.converged for _, r in
                          solves(out["calls"], "sinkhorn", "sinkhorn")]
        return s

    def _class_sets(self, file):
        data = np.loadtxt(self.work / file, delimiter=",", skiprows=1, ndmin=2)
        t, y, x = data[:, 0].astype(int), data[:, 1].astype(int), data[:, 2:]
        return {(tt, yy): x[(t == tt) & (y == yy)]
                for tt in range(self.T) for yy in (0, 1)}

    def _exact_1d(self):
        if self.exact_1d is None:
            sets = self._class_sets("drift1d.csv")
            self.exact_1d = [max(ref.w1_quantile_1d(sets[(t, y)], sets[(t + 1, y)])
                                 for y in (0, 1)) for t in range(self.T - 1)]
        return self.exact_1d

    def _check(self, out, res: Outcome):
        shift = np.array([self.SHIFT, 0.0])
        # exact 2-D drift: equals an independent optimal matching on the
        # pairs the estimator solved, and lies within the band around
        # delta_true derived in the README
        pairs = solves(out["calls"], "exact2d", "w1_exact")
        res.check(len(pairs) == 2 * (self.T - 1), f"{len(pairs)} exact solves")
        dists = []
        for (A, B, *_), r in pairs:
            exact, _ = ref.optimal_matching(A, B)
            half_width, _ = ref.optimal_matching(A, B - shift)
            res.check(abs(r.distance - exact) <= 1e-9,
                      f"w1_exact {r.distance} != optimal matching {exact}")
            res.check(abs(exact - self.SHIFT) <= half_width + 1e-12,
                      f"drift {exact} outside delta_true {self.SHIFT} "
                      f"+- {half_width}")
            dists.append(r.distance)
        want = [max(dists[2 * t], dists[2 * t + 1]) for t in range(self.T - 1)]
        res.check(out["exact2d"].per_step == want,
                  "exact per-step drift is not the max over classes")
        # Sinkhorn: a converged value is within the entropic tolerance of
        # the exact value of the same pair
        sk = solves(out["calls"], "sinkhorn", "sinkhorn")
        res.check(len(sk) == 2 * (self.T - 1), f"{len(sk)} sinkhorn solves")
        for (A, B, eps, *_), r in sk:
            if not r.converged:
                continue
            exact, _ = ref.optimal_matching(A, B)
            slack = 2 * self.SINKHORN_TOL * float(ref.cost_matrix(A, B).max())
            gap = r.distance - exact
            res.check(-slack <= gap <= eps * math.log(len(A)) + slack,
                      f"converged sinkhorn {r.distance} vs exact {exact}")
        # n=1024 `w1`: between a sliced lower bound and a matching's cost
        _, w1 = out["w1"]
        A, B = self.points
        lower = ref.sliced_lower_bound(A, B)
        _, col = ref.optimal_matching(A, B)
        upper = ref.matching_cost(A, B, col)
        res.check(w1["n"] == self.N_W1 and not w1["resampled"]
                  and lower - 1e-12 <= w1["distance"] <= upper + 1e-9,
                  f"w1 {w1['distance']} outside [{lower}, {upper}]")
        # discrepancy within T * rho * Delta + 0.15
        _, disc = out["disc"]
        d = self.DISC
        res.check(disc["disc"] <= d["T"] * d["rho"] * d["shift"] + 0.15,
                  f"disc {disc['disc']}")
        # sequential Rademacher: two constants give E|sum eps|/T, one gives 0
        _, two = out["seqrad_two"]
        _, one = out["seqrad_one"]
        trees = 2 ** (2 ** self.SEQRAD_DEPTH - 1)
        res.check(two["value"] == ref.mean_abs_rademacher_sum(self.SEQRAD_DEPTH)
                  and two["tree_count"] == trees, f"two-constants {two}")
        res.check(one["value"] == 0.0 and one["tree_count"] == trees,
                  f"singleton {one}")
        # two-domain loss gap
        _, lem = out["lemma1"]
        res.check(lem["violation_rate"] <= 0.01
                  and ref.close(lem["bound"], lem["inputs"]["rho"]
                                * lem["inputs"]["shift"]), f"lemma1 {lem}")
        # bound terms and the horizon sweep against their closed forms
        _, bnd = out["bound"]
        want = ref.bound_terms(**self.bound)
        res.check(all(ref.close(bnd[k], want[k]) for k in ("e1", "e2", "e3",
                                                           "total"))
                  and all(ref.close(bnd["parts"][k], v)
                          for k, v in want["parts"].items()),
                  f"bound terms {bnd} != closed forms {want}")
        _, sw = out["sweep"]
        i = self.sweep["inputs"]
        totals = []
        for row in sw["rows"]:
            want = ref.bound_terms(row["T"], i["n"], i["M"], i["rho"],
                                   i["Delta"], i["delta"], i["vc"],
                                   i["rseq_c"], i["c_online"])
            res.check(all(ref.close(row[k], want[k])
                          for k in ("e1", "e2", "e3", "total")),
                      f"sweep row T={row['T']}")
            totals.append((want["total"], row["T"]))
        best_T = min(totals)[1]
        res.check(sw["argmin_T"] == best_T
                  and self.sweep["T_min"] < best_T < self.sweep["T_max"],
                  f"sweep argmin {sw['argmin_T']} (closed form {best_T})")
