"""Span tracing from outside the program.

`Tracer.install` wraps every public function of the traced gradshift modules
and rebinds each wrapper wherever a module holds the original under any name,
so `from .diffcore import forward` bindings are traced as well as
`dc.forward` lookups. A few methods on hot classes are wrapped on the class.

Each wrapped call adds to its span's count, total time and self time (total
minus the time of traced calls made inside it). Spans and counts stay in
memory. A process forked while tracing (the run pool's workers) starts from
empty tables and writes them to `dump_dir` whenever its outermost span ends;
the parent merges those files in `collect`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter
from pathlib import Path

MODULES = ("cli", "domains", "objectives", "models", "diffcore", "transport",
           "theory")
# (module, class, method) wrapped on the class itself
METHODS = (("diffcore", "Tape", "__init__"), ("diffcore", "Tape", "input"),
           ("models", "BoundMlp", "__call__"))
# spans kept one by one (with a tag) besides the per-name totals
KEPT = {"objectives.train_schedule", "transport.class_conditional_delta",
        "cli.run_experiment", "cli.cmd_w1"}


class Tracer:
    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.saved: list[tuple] = []
        self._reset()
        self.root_pid = self.pid

    def _reset(self):
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.spans: list[list] = []          # [name, tag, start, end, pid]
        self.counts: Counter = Counter()
        self.stack: list[list] = []          # child time of each open span

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        keep = name in KEPT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                self.stack.pop()
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if keep:
                    self.spans.append([name, _tag(name, args, kwargs), t0, t1,
                                       self.pid])
                if self.stack:
                    self.stack[-1][0] += dt
            if hook is not None:
                after(result, dt - frame[0])
            if not self.stack and self.pid != self.root_pid:
                self.dump()
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"gradshift.{m}") for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self._wrap(name, obj)
                    for key, (obj, name) in originals.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and originals[id(obj)][0] is obj:
                    self.saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self.saved.append((cls, meth, orig))
            label = {"__init__": "tape", "__call__": "call"}.get(meth, meth)
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{label}", orig))
        os.register_at_fork(after_in_child=self._reset)
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self.saved):
            setattr(owner, attr, obj)
        self.saved.clear()

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"pid": self.pid, "stats": self.stats, "spans": self.spans,
                "counts": dict(self.counts)}

    def dump(self):
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(path)

    def collect(self) -> dict:
        """Merge this process's tables with every worker's last dump."""
        merged = {"stats": {}, "spans": [], "counts": Counter()}
        parts = [self.snapshot()]
        if self.dump_dir.exists():
            parts += [json.loads(p.read_text())
                      for p in sorted(self.dump_dir.glob("worker-*.json"))]
        for part in parts:
            for name, (calls, total, own) in part["stats"].items():
                st = merged["stats"].setdefault(name, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += own
            merged["spans"] += part["spans"]
            merged["counts"].update(part["counts"])
        merged["counts"] = dict(merged["counts"])
        return merged


def _tag(name, args, kwargs):
    if name == "objectives.train_schedule":
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        return [args[0], cfg.seed]
    if name == "transport.class_conditional_delta":
        return kwargs.get("estimator", args[2] if len(args) > 2 else "exact")
    return None


# ---------------------------------------------------------------------------
# per-call hooks: (tracer, args, kwargs) -> (args, kwargs, after(result, self_s))

def _add_coupling(tr, res):
    if res.coupling is not None:
        tr.counts["transport.coupling_bytes"] += int(res.coupling.nbytes)


def _coupling_hook(tr, args, kwargs):
    return args, kwargs, lambda res, own: _add_coupling(tr, res)


def _w1_exact_hook(tr, args, kwargs):
    n = len(args[0])

    def after(res, own):
        _add_coupling(tr, res)
        if n == 1024:
            tr.counts["transport.assignment_n1024_s"] += own
    return args, kwargs, after


def _sinkhorn_hook(tr, args, kwargs):
    def after(res, own):
        _add_coupling(tr, res)
        tr.counts["transport.sinkhorn_iterations"] += int(res.iterations)
        tr.counts["transport.sinkhorn_converged"] += int(bool(res.converged))
    return args, kwargs, after


def _seqrad_hook(tr, args, kwargs):
    trees = args[0].tree_count()

    def after(res, own):
        tr.counts["theory.seqrad_trees"] += trees
    return args, kwargs, after


def _save_checkpoint_hook(tr, args, kwargs):
    path = args[0]

    def after(res, own):
        tr.counts["cli.checkpoint_bytes"] += os.path.getsize(path)
    return args, kwargs, after


def _train_schedule_hook(tr, args, kwargs):
    """Time each stage from the public stage_callback: the span between two
    callbacks (or the schedule's start and the first one) is one stage."""
    kind = args[0]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    user_cb = kwargs.get("stage_callback")
    last = [time.perf_counter()]

    def on_stage(idx, model, metrics):
        now = time.perf_counter()
        tr.spans.append(["objectives.stage", [kind, cfg.epochs_per_domain],
                         last[0], now, tr.pid])
        if user_cb is not None:
            user_cb(idx, model, metrics)
        last[0] = time.perf_counter()

    kwargs = dict(kwargs, stage_callback=on_stage)
    return args, kwargs, lambda res, own: None


HOOKS = {
    "transport.w1_exact": _w1_exact_hook,
    "transport.wp_sorted_1d": _coupling_hook,
    "transport.sinkhorn": _sinkhorn_hook,
    "theory.seq_rademacher_exact": _seqrad_hook,
    "cli.save_checkpoint": _save_checkpoint_hook,
    "objectives.train_schedule": _train_schedule_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(trace: dict, *, workers: int, cpu_s: float) -> dict:
    """Reduce merged tables to the per-layer metrics, as {name: (value, unit)}."""
    stats = trace["stats"]
    counts = trace["counts"]
    spans = trace["spans"]

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0, 0))[2] for n in names)

    def span_total(name, pred=lambda tag: True):
        return sum(s[3] - s[2] for s in spans if s[0] == name and pred(s[1]))

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    # diffcore
    nodes = calls("diffcore.forward", "diffcore.Tape.input")
    dc_s = own("diffcore.forward", "diffcore.Tape.input", "diffcore.array",
               "diffcore.backward", "diffcore.input_gradient")
    put("diffcore.tapes", calls("diffcore.Tape.tape"), "count")
    put("diffcore.nodes", nodes, "count")
    for key, span in (("forward", "diffcore.forward"),
                      ("backward", "diffcore.backward"),
                      ("input_gradient", "diffcore.input_gradient")):
        put(f"diffcore.{key}_calls", calls(span), "count")
        put(f"diffcore.{key}_s", own(span), "s")
    # a leaf's finite check runs in diffcore.array, called from Tape.input
    put("diffcore.input_calls", calls("diffcore.Tape.input"), "count")
    put("diffcore.input_s", own("diffcore.Tape.input", "diffcore.array"), "s")
    put("diffcore.us_per_node", 1e6 * dc_s / nodes if nodes else 0.0, "us")

    # models
    for key, span in (("bound_mlp", "models.BoundMlp.call"),
                      ("mlp_eval", "models.mlp_eval"),
                      ("summarize_step", "models.summarize_step")):
        put(f"models.{key}_calls", calls(span), "count")
        put(f"models.{key}_s", own(span), "s")
    put("models.accuracy_s", own("models.accuracy", "models.predict"), "s")

    # objectives
    runs = [s for s in spans if s[0] == "objectives.train_schedule"]
    for kind in ("no_adaptation", "direct", "gradual", "gradual_temporal"):
        put(f"objectives.schedule_s.{kind}",
            sum(s[3] - s[2] for s in runs if s[1][0] == kind), "s")
    stage_ms = sorted(1e3 * (s[3] - s[2]) / s[1][1] for s in spans
                      if s[0] == "objectives.stage" and s[1][0] == "gradual")
    put("objectives.stage_epoch_ms",
        stage_ms[len(stage_ms) // 2] if stage_ms else 0.0, "ms")
    for key in ("gradient_penalty", "loss_eval"):
        put(f"objectives.{key}_calls", calls(f"objectives.{key}"), "count")
        put(f"objectives.{key}_s", own(f"objectives.{key}"), "s")
    put("objectives.alignment_gap_s", own("objectives.alignment_gap"), "s")
    put("objectives.train_erm_s", own("objectives.train_erm"), "s")

    # cli
    wall = span_total("cli.run_experiment")
    busy = sum(s[3] - s[2] for s in runs)
    put("cli.load_config_s", own("cli.load_config", "cli.parse_config_text",
                                 "cli.validate_config"), "s")
    put("cli.checkpoint_writes", calls("cli.save_checkpoint"), "count")
    put("cli.checkpoint_write_s", own("cli.save_checkpoint"), "s")
    put("cli.checkpoint_bytes", counts.get("cli.checkpoint_bytes", 0), "B")
    put("cli.run_critical_path_s", max((s[3] - s[2] for s in runs), default=0.0),
        "s")
    put("cli.pool_capacity_s", workers * wall, "s")
    put("cli.pool_idle_s", workers * wall - busy if runs else 0.0, "s")
    put("cli.cpu_s", cpu_s, "s")
    put("cli.w1_s", span_total("cli.cmd_w1"), "s")

    # domains
    put("domains.generate_s", own("domains.make_rotating_moons",
                                  "domains.make_shifting_gaussians"), "s")
    put("domains.split_holdout_s", own("domains.split_holdout"), "s")

    # transport
    for key, span in (("cost_matrix", "transport.cost_matrix"),
                      ("assignment", "transport.w1_exact"),
                      ("sinkhorn", "transport.sinkhorn"),
                      ("sorted_1d", "transport.wp_sorted_1d"),
                      ("resample", "transport.resample_to_equal")):
        put(f"transport.{key}_calls", calls(span), "count")
        put(f"transport.{key}_s", own(span), "s")
    put("transport.assignment_n1024_s",
        counts.get("transport.assignment_n1024_s", 0.0), "s")
    put("transport.sinkhorn_iterations",
        counts.get("transport.sinkhorn_iterations", 0), "count")
    put("transport.sinkhorn_converged",
        counts.get("transport.sinkhorn_converged", 0), "count")
    for est in ("exact", "sinkhorn"):
        put(f"transport.drift_{est}_s",
            span_total("transport.class_conditional_delta",
                       lambda tag, est=est: tag == est), "s")
    put("transport.coupling_bytes", counts.get("transport.coupling_bytes", 0),
        "B")

    # theory
    for key, span in (("hypothesis_pool", "theory.make_hypothesis_pool"),
                      ("discrepancy", "theory.estimate_discrepancy"),
                      ("seqrad", "theory.seq_rademacher_exact"),
                      ("lemma1", "theory.check_lemma1"),
                      ("sweep", "theory.sweep_horizon")):
        put(f"theory.{key}_s", own(span), "s")
    put("theory.seqrad_trees", counts.get("theory.seqrad_trees", 0), "count")
    return out
