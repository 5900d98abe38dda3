"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The rotating-moons experiment criteria share one reference run.
"""

import csv
import io
import itertools
import json
import math
import os
import shutil
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gradshift import cli
from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import models as md
from gradshift import objectives as ob
from gradshift import theory as th
from gradshift import transport as tp
from critic_training import train_critic
from tape_oracle import gradient_penalty

REPO = Path(__file__).resolve().parent.parent


def report(num, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    assert ok, line


def fd_scalar(build, params, h=1e-5):
    grads = []
    for pi in range(len(params)):
        g = np.zeros_like(params[pi])
        for i in range(params[pi].size):
            plus = [p.copy() for p in params]
            minus = [p.copy() for p in params]
            plus[pi].ravel()[i] += h
            minus[pi].ravel()[i] -= h
            g.ravel()[i] = (build(plus) - build(minus)) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    fa = np.concatenate([x.ravel() for x in a])
    fb = np.concatenate([x.ravel() for x in b])
    return np.linalg.norm(fa - fb) / max(np.linalg.norm(fb), 1e-12)


# ---------------------------------------------------------------------------
# shared reference experiment (criteria 8, 9, 12)

@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    os.environ["GRADSHIFT_THREADS"] = "1"
    workdir = tmp_path_factory.mktemp("reference")
    outdir = workdir / "out"
    text = (REPO / "configs" / "moons_reference.toml").read_text()
    text = text.replace('output_dir = "runs/moons_reference"',
                        f'output_dir = "{outdir}"')
    cfg_path = workdir / "moons_reference.toml"
    cfg_path.write_text(text)
    started = time.perf_counter()
    rc = cli.run_experiment(cfg_path)
    elapsed = time.perf_counter() - started
    assert rc == 0
    metrics = (outdir / "metrics.csv").read_bytes()
    finals = {}
    rows = list(csv.reader(io.StringIO(metrics.decode())))
    for row in rows[1:]:
        run_id, seed, schedule = row[0], int(row[1]), row[2]
        finals[(schedule, seed)] = float(row[8])   # last row per run wins
    per_schedule = {}
    for (schedule, seed), acc in finals.items():
        per_schedule.setdefault(schedule, []).append(acc)
    return SimpleNamespace(cfg_path=cfg_path, outdir=outdir, elapsed=elapsed,
                           metrics=metrics,
                           report=json.loads((outdir / "report.json").read_text()),
                           medians={k: statistics.median(v)
                                    for k, v in per_schedule.items()})


def test_criterion_01_ot_exactness():
    started = time.perf_counter()
    for trial in range(100):
        s = dc.substream(101, trial)
        n = 2 + trial % 5
        d = 1 + trial % 3
        a = dc.rng_normal(dc.substream(s, 0), (n, d))
        b = dc.rng_normal(dc.substream(s, 1), (n, d), 0.4, 1.2)
        got = tp.w1_exact(a, b).distance
        C = tp.cost_matrix(a, b)
        brute = min(sum(C[i, p[i]] for i in range(n)) / n
                    for p in itertools.permutations(range(n)))
        assert abs(got - brute) < 1e-9, f"instance {trial}: {got} vs {brute}"
    for trial in range(100):
        s = dc.substream(102, trial)
        a = dc.rng_normal(dc.substream(s, 0), (32,))
        b = dc.rng_normal(dc.substream(s, 1), (32,), 0.7, 0.8)
        assert abs(tp.w1_exact(a, b).distance
                   - tp.wp_sorted_1d(a, b, 1).distance) < 1e-9
    elapsed = time.perf_counter() - started
    report(1, "OT exactness", elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_02_sinkhorn_fidelity():
    started = time.perf_counter()
    a = dc.rng_normal(dc.substream(201, "a"), (50, 2), 0.0, 1.0)
    b = dc.rng_normal(dc.substream(201, "b"), (50, 2), 1.0, 1.0)
    eps = 0.005 * float(tp.cost_matrix(a, b).mean())
    res = tp.sinkhorn(a, b, eps, max_iters=100000, tol=1e-6)
    exact = tp.w1_exact(a, b).distance
    relerr = abs(res.distance - exact) / exact
    elapsed = time.perf_counter() - started
    report(2, "Sinkhorn fidelity", relerr <= 0.05 and elapsed < 5.0,
           f"rel err {relerr:.2%}, {elapsed:.1f}s")


def test_criterion_03_autodiff_correctness():
    worst_mlp = 0.0
    for trial in range(100):
        s = dc.substream(301, trial)
        sizes = [(3, 6), (6, 6), (6, 2)]
        params = []
        for li, (fi, fo) in enumerate(sizes):
            params.append(dc.rng_normal(dc.substream(s, "w", li), (fi, fo), 0, 0.6))
            params.append(dc.rng_normal(dc.substream(s, "b", li), (fo,), 0, 0.2))
        x = dc.rng_normal(dc.substream(s, "x"), (4, 3))
        tgt = dc.rng_normal(dc.substream(s, "t"), (4, 2))

        def build(ps, record=False):
            t = dc.Tape()
            h = t.input(x)
            pids = []
            for li in range(3):
                w, bnode = t.input(ps[2 * li]), t.input(ps[2 * li + 1])
                pids += [w, bnode]
                z = dc.forward(t, "matmul", (h, w))
                z = dc.forward(t, "add", (z, dc.forward(
                    t, "broadcast", bnode, shape=t.shape(z), axis=0)))
                h = dc.forward(t, "tanh", z) if li < 2 else z
            diff = dc.forward(t, "sub", (h, t.input(tgt)))
            loss = dc.forward(t, "mean", dc.forward(t, "square", diff))
            return (t, loss, pids) if record else float(t.val(loss))

        t, loss, pids = build(params, record=True)
        grads = dc.backward(t, loss, pids)
        err = rel_err([grads[p] for p in pids], fd_scalar(build, params))
        worst_mlp = max(worst_mlp, err)
    assert worst_mlp < 1e-5, f"worst mlp grad rel err {worst_mlp}"

    worst_gp = 0.0
    for trial in range(20):
        s = dc.substream(302, trial)
        fa = dc.rng_normal(dc.substream(s, "fa"), (5, 2))
        fb = dc.rng_normal(dc.substream(s, "fb"), (5, 2), 0.5, 1.0)
        base = md.init_mlp(dc.substream(s, "c"), [2, 5, 1], ["tanh", "identity"])

        def build_gp(arrays):
            c = md.MlpParams([arrays[0], arrays[2]], [arrays[1], arrays[3]],
                             ["tanh", "identity"])
            t = dc.Tape()
            bd = md.BoundMlp(t, c)
            pen = gradient_penalty(c, fa, fb, t, seed=trial, bound=bd)
            return t, pen, bd

        t, pen, bd = build_gp(base.arrays())
        grads = dc.backward(t, pen, bd.param_ids())
        fd = fd_scalar(lambda ps: (lambda r: float(r[0].val(r[1])))(build_gp(ps)),
                       base.arrays())
        err = rel_err([grads[i] for i in bd.param_ids()], fd)
        worst_gp = max(worst_gp, err)
    report(3, "Autodiff correctness", worst_gp < 1e-4,
           f"mlp {worst_mlp:.2e}, gp {worst_gp:.2e}")


def test_criterion_04_lemma1_gap_bound():
    started = time.perf_counter()
    rep = th.check_lemma1(th.gaussian_sampler(0.0, 1.0),
                          th.gaussian_sampler(0.3, 1.0),
                          true_w1=0.3, loss=th.clamp_loss(-5.0, 5.0), rho=1.0,
                          trials=1000, n=2000, seed=401)
    elapsed = time.perf_counter() - started
    report(4, "Two-domain loss gap", rep.violation_rate <= 0.01
           and elapsed < 60.0,
           f"violations {rep.violations}/1000, max gap {rep.max_gap:.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_05_discrepancy_vs_proof_bound():
    started = time.perf_counter()
    seq = dom.make_shifting_gaussians(5, 2000, shift_per_step=0.3,
                                      class_means=[[-2.0], [2.0]],
                                      sigma=0.5, seed=501)
    pool = th.make_hypothesis_pool(seq, 64, 8, seed=502,
                                   spec=ob.ModelSpec(feature_dim=4, hidden=8))
    disc = th.estimate_discrepancy(
        seq, pool, ob.LossSpec("cross_entropy_bounded", bound=5.0))
    bound = 5 * 1.0 * 0.3 + 0.15
    elapsed = time.perf_counter() - started
    report(5, "Discrepancy vs T*rho*Delta", disc <= bound and elapsed < 120.0,
           f"disc {disc:.4f} <= {bound}, pool {len(pool)}, {elapsed:.1f}s")


def test_criterion_06_sequential_rademacher():
    for trial in range(20):
        s = dc.substream(601, trial)
        # dyadic tables keep every enumeration step exact in floats
        z = 2 + trial % 2
        T = 1 + trial % 3
        table = np.round(dc.rng_uniform(s, (1, z), -1, 1) * 64) / 64
        assert th.seq_rademacher_exact(th.FiniteInstance(table, T)) == 0.0
    two_const = th.FiniteInstance(np.array([[1.0, 1.0], [-1.0, -1.0]]), 1)
    assert th.seq_rademacher_exact(two_const) == 1.0
    from test_theory import brute_force_seqrad
    for trial in range(20):
        table = dc.rng_normal(dc.substream(602, trial), (3, 2))
        got = th.seq_rademacher_exact(th.FiniteInstance(table, 2))
        want = brute_force_seqrad(table, 2)
        assert got == want, f"instance {trial}: {got} != {want}"
    report(6, "Sequential Rademacher enumeration", True,
           "singleton=0, two-constants=1, 20 brute-force matches")


def test_criterion_07_bound_evaluator():
    rep = th.evaluate_bound(th.BoundInputs(T=10, n=100, M=1.0, delta=0.1))
    independent_e1 = 3.0 / 10 + (3.0 * 1.0 / 10) * math.sqrt(8.0 * math.log(10.0))
    ok_e1 = abs(rep.e1 - independent_e1) < 1e-9
    rep2 = th.evaluate_bound(th.BoundInputs(T=10, n=100, rho=1.0, drift=0.01))
    ok_drift = rep2.parts["e3_drift"] == 3 * 10 * 1.0 * 0.01
    sweep = th.sweep_horizon(th.BoundInputs(T=2, n=100, rho=1.0, drift=0.02),
                             range(2, 60))
    drifts = [3 * t * 0.02 for t, *_ in sweep.rows]
    e1s = [r[1] for r in sweep.rows]
    ok_mono = all(a < b for a, b in zip(drifts, drifts[1:])) and \
        all(a > b for a, b in zip(e1s, e1s[1:]))
    shipped = json.loads((REPO / "configs" / "sweep_interior.json").read_text())
    i = shipped["inputs"]
    interior = th.sweep_horizon(
        th.BoundInputs(T=2, n=int(i["n"]), M=i["M"], rho=i["rho"],
                       drift=i["Delta"], delta=i["delta"], vc=i["vc"],
                       rseq_c=i["rseq_c"], c_online=i["c_online"]),
        range(shipped["T_min"], shipped["T_max"] + 1))
    ok_interior = shipped["T_min"] < interior.argmin_T < shipped["T_max"]
    report(7, "Bound evaluator and horizon sweep",
           ok_e1 and ok_drift and ok_mono and ok_interior,
           f"e1 {rep.e1:.6f}, argmin_T {interior.argmin_T}")


def test_criterion_08_trend_analog(reference_run):
    med = reference_run.medians
    gap_no = med["gradual"] - med["no_adaptation"]
    gap_direct = med["gradual"] - med["direct"]
    sched = reference_run.report["schedules"]
    mean_gap = sched["gradual"]["mean_target_acc"] \
        - sched["no_adaptation"]["mean_target_acc"]
    ok = gap_no >= 0.10 and gap_direct >= -0.02 and mean_gap >= 0.10 and \
        reference_run.elapsed < 300.0
    report(8, "Schedule ordering on rotating moons", ok,
           f"gradual {med['gradual']:.3f}, direct {med['direct']:.3f}, "
           f"no_adapt {med['no_adaptation']:.3f}, {reference_run.elapsed:.0f}s")


def test_criterion_09_temporal_trend(reference_run):
    med = reference_run.medians
    gap = med["gradual_temporal"] - med["gradual"]
    ok = gap >= -0.01 and reference_run.elapsed < 420.0
    report(9, "Temporal variant tracks gradual", ok,
           f"temporal {med['gradual_temporal']:.3f} vs "
           f"gradual {med['gradual']:.3f}")


def test_criterion_10_horizon_saturation():
    started = time.perf_counter()
    med = {}
    for T in (3, 5, 9, 11):
        accs = []
        for seed in (1, 2, 3, 4, 5):
            seq = dom.make_rotating_moons(T, 500, total_degrees=120.0,
                                          noise_sigma=0.1, seed=seed)
            cfg = ob.TrainConfig(seed=seed, epochs_per_domain=40)
            _, trace = ob.train_schedule("gradual", seq, cfg)
            accs.append(trace[-1].target_acc)
        med[T] = statistics.median(accs)
    gain_early = med[9] - med[3]
    gain_late = med[11] - med[9]
    elapsed = time.perf_counter() - started
    report(10, "Horizon saturation", gain_early >= 0.01
           and gain_late <= gain_early,
           f"T3 {med[3]:.3f} T5 {med[5]:.3f} T9 {med[9]:.3f} "
           f"T11 {med[11]:.3f}, {elapsed:.0f}s")


def test_criterion_11_critic_dual_sanity():
    feats_a = dc.rng_normal(dc.substream(11, "a"), (512, 1), 0.0, 0.1)
    feats_b = dc.rng_normal(dc.substream(11, "b"), (512, 1), 1.0, 0.1)
    model = ob.build_model(ob.ModelSpec(feature_dim=1, critic_hidden=16), 1, 2,
                           seed=dc.substream(11, "c"))
    gap = train_critic(model.critic, feats_a, feats_b, steps=2000,
                       gp_factor=5.0, seed=11)
    exact = tp.w1_exact(feats_a, feats_b).distance
    ok = 0.7 * exact <= gap <= 1.05 * exact
    report(11, "Critic dual sanity", ok,
           f"gap {gap:.4f}, w1 {exact:.4f}, ratio {gap / exact:.3f}")


def test_criterion_12_determinism(reference_run, tmp_path):
    # rerun the reference config: byte-identical artifacts
    first_metrics = reference_run.metrics
    first_report = (reference_run.outdir / "report.json").read_bytes()
    rc = cli.run_experiment(reference_run.cfg_path)
    assert rc == 0
    ok_rerun = (reference_run.outdir / "metrics.csv").read_bytes() == first_metrics
    ok_report = (reference_run.outdir / "report.json").read_bytes() == first_report
    # halt mid-schedule, resume, compare to the uninterrupted metrics
    out2 = tmp_path / "resume_out"
    text = reference_run.cfg_path.read_text().replace(
        str(reference_run.outdir), str(out2))
    cfg2 = tmp_path / "resume.toml"
    cfg2.write_text(text)
    assert cli.run_experiment(cfg2, halt_after=1) == 0
    assert (out2 / "state").exists()
    assert cli.run_experiment(cfg2) == 0
    ok_resume = (out2 / "metrics.csv").read_bytes() == first_metrics
    report(12, "Determinism and resume",
           ok_rerun and ok_report and ok_resume,
           f"rerun={ok_rerun}, report={ok_report}, resume={ok_resume}")
