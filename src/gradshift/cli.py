"""Experiment driver: config parsing, schedule runs with deterministic
artifacts (metrics.csv, report.json, checkpoints), and theory/transport
subcommands emitting JSON.

Outputs are byte-reproducible per config: metrics rows are merged in run-id
order, floats print with 9 significant digits, and files land via
write-to-temp-then-rename.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import struct
import sys
import tomllib
from array import array
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import domains as dom
from . import models as md
from . import objectives as ob
from . import theory as th
from . import transport as tp

CHECKPOINT_MAGIC = b"GSHIFT01"
CHECKPOINT_VERSION = 1
METRICS_HEADER = ("run_id,seed,schedule,t,epoch,class_loss,alignment,gp,"
                  "target_acc,wall_ms")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config file: TOML with flat tables

_TOP_KEYS = {"output_dir", "seeds", "schedules", "holdout"}
# [train] and [model] keys are the fields of TrainConfig, LossSpec and
# ModelSpec, renamed where the config spells them differently; the run sets
# `seed` (and gradual_temporal adds the summarizer, see initial_model)
_KEY_OF_FIELD = {"lam": "lambda", "kind": "loss", "bound": "loss_bound"}
_UNSET_FIELDS = {"seed"}


def _boolean(value):
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _integer(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"could not convert {value!r} to an integer")
    return value


def _real(value):
    """A float from a TOML integer or float (a boolean is not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"could not convert {value!r} to a float")
    return float(value)


def _string(value):
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _class_means(means):
    if not means:
        raise ValueError("needs at least one class mean")
    return [[_real(v)] for v in means]


_COERCE = {"int": _integer, "float": _real, "str": _string, "bool": _boolean}


# kind -> (builder(seed=data seed, **keys), required keys, optional keys),
# each key with its coercion; `seed` is the generator's base seed, and a
# config's class means are 1-D with a default of its own
_GENERATORS = {
    "rotating_moons": (dom.make_rotating_moons, {"T": _integer, "n": _integer},
                       {"seed": _integer, "total_degrees": _real,
                        "noise_sigma": _real}),
    "shifting_gaussians": (
        functools.partial(dom.make_shifting_gaussians,
                          class_means=((-2.0,), (2.0,))),
        {"T": _integer, "n": _integer},
        {"seed": _integer, "shift_per_step": _real, "sigma": _real,
         "class_means": _class_means}),
    "file": (lambda seed, path: dom.load_sequence(path), {"path": _string},
             {}),
}


@dataclass
class ExperimentConfig:
    output_dir: str
    seeds: list[int]
    schedules: list[str]
    holdout: float
    generator: dict             # coerced [generator] keys, `kind` included
    train: ob.TrainConfig       # seed 0: each run replaces it with its own
    model: ob.ModelSpec
    loss_spec: ob.LossSpec
    digest: bytes = b""

    def sequence_for(self, run_seed: int) -> dom.DomainSequence:
        keys = dict(self.generator)
        build = _GENERATORS[keys.pop("kind")][0]
        data_seed = dc.substream(keys.pop("seed", 0), "data", run_seed)
        return build(seed=data_seed, **keys)


def _checked(name: str, fn, value):
    """fn(value) for a flat table's value, its errors named after the key."""
    if isinstance(value, dict) or isinstance(value, list) and \
            any(isinstance(v, dict) for v in value):
        raise ConfigError(f"{name}: only flat tables with scalar or array "
                          "values are supported")
    try:
        return fn(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{name}: {e}") from None


def _coerced(table: dict, coercions: dict, where: str) -> dict:
    unknown = set(table) - set(coercions)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    return {key: _checked(f"{where} {key}", coercions[key], value)
            for key, value in table.items()}


def _build(classes, table: dict, where: str) -> list:
    """One instance of each dataclass from a config table. Each key is coerced
    by its field's type and checked on its own against the other fields'
    defaults, so an error names the key at fault."""
    fields_of = {_KEY_OF_FIELD.get(f.name, f.name): (cls, f)
                 for cls in classes for f in fields(cls)
                 if f.name not in _UNSET_FIELDS}
    values = _coerced(table, {key: _COERCE[f.type]
                              for key, (_, f) in fields_of.items()}, where)
    kwargs: dict = {cls: {} for cls in classes}
    for key, value in values.items():
        cls, f = fields_of[key]
        _checked(f"{where} {key}", lambda v: cls(**{f.name: v}), value)
        kwargs[cls][f.name] = value
    return [cls(**kw) for cls, kw in kwargs.items()]


def _generator_keys(gen: dict) -> dict:
    kind = gen.get("kind")
    if kind is None:
        raise ConfigError("generator.kind: required")
    if not isinstance(kind, str) or kind not in _GENERATORS:
        raise ConfigError(f"generator.kind: unknown kind {kind!r}")
    _, required, optional = _GENERATORS[kind]
    out = _coerced(gen, {"kind": _string, **required, **optional},
                   "[generator]")
    for key in required:
        if key not in gen:
            raise ConfigError(f"generator.{key}: required for kind={kind}")
    for key, low in (("T", 2), ("n", 1)):
        if out.get(key, low) < low:
            raise ConfigError(f"[generator] {key}: must be >= {low}, "
                              f"got {out[key]}")
    return out


def validate_config(data: dict, digest: bytes) -> ExperimentConfig:
    tables = {k: v for k, v in data.items() if isinstance(v, dict)}
    top = {k: v for k, v in data.items() if not isinstance(v, dict)}
    unknown = set(top) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"top level: unknown key(s) {sorted(unknown)}")
    unknown_tables = set(tables) - {"generator", "train", "model"}
    if unknown_tables:
        raise ConfigError(f"unknown table(s) {sorted(unknown_tables)}")
    if "generator" not in tables:
        raise ConfigError("missing [generator] table")
    if "output_dir" not in top:
        raise ConfigError("output_dir: required")
    if not isinstance(top["output_dir"], str):
        raise ConfigError("output_dir: must be a string")
    seeds = top.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: must be a non-empty array of integers")
    seeds = [_checked("seeds", _integer, s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicates not allowed")
    schedules = top.get("schedules", ["gradual"])
    if not isinstance(schedules, list) or not schedules:
        raise ConfigError("schedules: must be a non-empty array")
    for s in schedules:
        if s not in ob.SCHEDULES:
            raise ConfigError(f"schedules: unknown schedule {s!r} "
                              f"(expected one of {list(ob.SCHEDULES)})")
    if len(set(schedules)) != len(schedules):
        raise ConfigError("schedules: duplicates not allowed")
    holdout = _checked("holdout", _real, top.get("holdout", 0.25))
    if not 0 < holdout < 1:
        raise ConfigError("holdout: must be in (0, 1)")
    generator = _generator_keys(tables["generator"])
    train_cfg, loss_spec = _build((ob.TrainConfig, ob.LossSpec),
                                  tables.get("train", {}), "[train]")
    model_spec, = _build((ob.ModelSpec,), tables.get("model", {}), "[model]")
    return ExperimentConfig(
        output_dir=top["output_dir"], seeds=list(seeds),
        schedules=list(schedules), holdout=holdout, generator=generator,
        train=train_cfg, model=model_spec, loss_spec=loss_spec, digest=digest)


def load_config(path) -> ExperimentConfig:
    raw = Path(path).read_bytes()
    try:
        data = tomllib.loads(raw.decode("utf-8"))
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(str(e)) from None
    return validate_config(data, hashlib.sha256(raw).digest())


# ---------------------------------------------------------------------------
# checkpoint binary format

class CheckpointError(Exception):
    pass


class TruncatedCheckpoint(CheckpointError):
    pass


class DigestMismatch(CheckpointError):
    pass


class ShapeMismatch(CheckpointError):
    pass


class UnsupportedVersion(CheckpointError):
    pass


class InvalidValue(CheckpointError):
    """A non-finite payload value, or a training position that is not a pair
    of non-negative integers: values no saved checkpoint holds."""


@dataclass
class Checkpoint:
    arrays: list[np.ndarray]
    domain_index: int
    epoch: int
    config_digest: bytes


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    # training position rides as the first payload array
    arrays = [np.array([float(ckpt.domain_index), float(ckpt.epoch)])]
    arrays += [np.asarray(a, dtype=np.float64) for a in ckpt.arrays]
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<II", CHECKPOINT_VERSION, len(arrays)))
    for a in arrays:
        if a.ndim == 2:
            buf.write(struct.pack("<II", a.shape[0], a.shape[1]))
        elif a.ndim == 1:
            buf.write(struct.pack("<II", a.shape[0], 0))
        else:
            raise ValueError(f"checkpoint arrays must be 1-D or 2-D, got {a.shape}")
    for a in arrays:
        buf.write(a.astype("<f8").tobytes(order="C"))
    if len(ckpt.config_digest) != 32:
        raise ValueError("config digest must be 32 bytes")
    buf.write(ckpt.config_digest)
    _atomic_write_bytes(Path(path), buf.getvalue())


def load_checkpoint(path, expect_digest: bytes | None = None) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise TruncatedCheckpoint(f"{path}: truncated header")
    if raw[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:8]!r}")
    version, count = struct.unpack_from("<II", raw, 8)
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersion(f"{path}: version {version} not supported")
    ofs = 16
    shapes = []
    for _ in range(count):
        if ofs + 8 > len(raw):
            raise TruncatedCheckpoint(f"{path}: truncated shape table")
        d0, d1 = struct.unpack_from("<II", raw, ofs)
        ofs += 8
        shapes.append((d0, d1))
    arrays = []
    for d0, d1 in shapes:
        size = d0 * (d1 if d1 else 1)
        nbytes = size * 8
        if ofs + nbytes > len(raw):
            raise TruncatedCheckpoint(f"{path}: truncated payload")
        a = np.frombuffer(raw, dtype="<f8", count=size, offset=ofs).copy()
        ofs += nbytes
        arrays.append(a.reshape((d0, d1)) if d1 else a)
    if ofs + 32 > len(raw):
        raise TruncatedCheckpoint(f"{path}: truncated payload")
    digest = raw[ofs:ofs + 32]
    if ofs + 32 != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after digest")
    if expect_digest is not None and digest != expect_digest:
        raise DigestMismatch(f"{path}: checkpoint was produced by a different "
                             "config")
    if not arrays or arrays[0].shape != (2,):
        raise ShapeMismatch(f"{path}: missing training-position record")
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidValue(f"{path}: non-finite value in the payload")
    pos = arrays[0]
    if np.any(pos < 0) or np.any(pos != np.floor(pos)):
        raise InvalidValue(f"{path}: training position {pos.tolist()} is not "
                           "a pair of non-negative integers")
    return Checkpoint(arrays[1:], int(pos[0]), int(pos[1]), digest)


def model_to_arrays(model: ob.AdaptationModel) -> list[np.ndarray]:
    arrays = model.g.arrays() + model.h.arrays() + model.critic.arrays()
    if model.summarizer is not None:
        arrays += model.summarizer.arrays()
        arrays += list(model.summary_state.hidden)
        arrays.append(np.array([float(model.summary_state.count)]))
    return arrays


def arrays_to_model(template: ob.AdaptationModel, arrays: list[np.ndarray]):
    """Fill a freshly built model's parameters from checkpoint arrays."""
    slots = model_to_arrays(template)
    if len(slots) != len(arrays):
        raise ShapeMismatch(f"expected {len(slots)} arrays, got {len(arrays)}")
    for slot, a in zip(slots, arrays):
        if slot.shape != a.shape:
            raise ShapeMismatch(f"array shape {a.shape} does not match "
                                f"model slot {slot.shape}")
        slot[...] = a
    if template.summarizer is not None:
        template.summary_state.count = int(arrays[-1][0])
    return template


# ---------------------------------------------------------------------------
# experiment runs

def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(x: float) -> str:
    return "%.9g" % (float(x) + 0.0)


class _Halted(Exception):
    pass


def _run_one(cfg: ExperimentConfig, schedule: str, seed: int,
             halt_after: int | None):
    """Execute one (schedule, seed) run with stage-boundary state saving.

    With halt_after set, the run saves its state and halts after that stage,
    or after its last stage if it has fewer. Returns the run's metrics-CSV
    rows, as field tuples.
    """
    run_id = f"{schedule}-s{seed}"
    outdir = Path(cfg.output_dir)
    state_ckpt = outdir / "state" / f"{run_id}.ckpt"
    state_rows = outdir / "state" / f"{run_id}.rows.csv"
    seq = cfg.sequence_for(seed)
    tcfg = replace(cfg.train, seed=seed)

    start_model = None
    start_stage = 0
    rows: list[tuple] = []
    if state_ckpt.exists():
        ck = load_checkpoint(state_ckpt, expect_digest=cfg.digest)
        start_model = arrays_to_model(
            ob.initial_model(schedule, seq, cfg.model, seed), ck.arrays)
        start_stage = ck.domain_index + 1
        with open(state_rows, newline="", encoding="utf-8") as fh:
            rows = [tuple(r) for r in csv.reader(fh)]

    def on_stage(idx, model, metrics):
        rows.append((run_id, str(seed), schedule, str(metrics.t),
                     str(tcfg.epochs_per_domain - 1), _fmt(metrics.class_loss),
                     _fmt(metrics.alignment), _fmt(metrics.gp),
                     _fmt(metrics.target_acc), "0"))
        if halt_after is not None and idx >= halt_after:
            raise _Halted(idx, model)

    try:
        model, trace = ob.train_schedule(
            schedule, seq, tcfg, cfg.model, holdout=cfg.holdout,
            loss_spec=cfg.loss_spec, start_model=start_model,
            start_stage=start_stage, stage_callback=on_stage)
        last_stage = start_stage + len(trace) - 1
    except _Halted as e:
        last_stage, model = e.args
    except ob.TrainingDiverged as e:
        raise ob.TrainingDiverged(f"run {run_id}: {e}") from e
    if halt_after is not None:
        # a run with fewer stages halts after its last one
        save_checkpoint(state_ckpt, Checkpoint(
            model_to_arrays(model), last_stage, tcfg.epochs_per_domain,
            cfg.digest))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        _atomic_write_text(state_rows, buf.getvalue())
        return rows
    ckpt = Checkpoint(model_to_arrays(model), seq.T - 1, 0, cfg.digest)
    save_checkpoint(outdir / "checkpoints" / f"{run_id}.ckpt", ckpt)
    for p in (state_ckpt, state_rows):
        p.unlink(missing_ok=True)
    with contextlib.suppress(OSError):     # the state directory, once empty
        state_ckpt.parent.rmdir()
    return rows


def _pool_worker(args):
    return _run_one(*args)


def run_experiment(config_path, halt_after: int | None = None) -> int:
    """Execute every (schedule, seed) combination and write artifacts.

    Returns the process exit code (0 ok, 2 config error, 3 divergence)."""
    return _emit(_run_experiment, config_path, halt_after)


def _run_experiment(config_path, halt_after: int | None) -> dict:
    cfg = load_config(config_path)
    outdir = Path(cfg.output_dir)
    runs = [(schedule, seed) for schedule in cfg.schedules for seed in cfg.seeds]
    threads = os.environ.get("GRADSHIFT_THREADS")
    workers = int(threads) if threads else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(runs)))
    results: dict[tuple, list] = {}
    if workers == 1:
        for schedule, seed in runs:
            results[(schedule, seed)] = _run_one(cfg, schedule, seed,
                                                 halt_after)
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            futs = {pool.submit(_pool_worker,
                                (cfg, schedule, seed, halt_after)):
                    (schedule, seed) for schedule, seed in runs}
            for fut in concurrent.futures.as_completed(futs):
                if fut.exception() is not None:
                    # leaving the pool waits for its runs: drop the queued
                    pool.shutdown(cancel_futures=True)
                results[futs[fut]] = fut.result()
    if halt_after is not None:
        return {"halted": True, "output_dir": str(outdir)}

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(METRICS_HEADER.split(","))
    for schedule, seed in runs:
        w.writerows(results[(schedule, seed)])
    _atomic_write_text(outdir / "metrics.csv", buf.getvalue())

    report: dict = {"config_digest": cfg.digest.hex(), "schedules": {}}
    for schedule in cfg.schedules:
        finals = []
        for seed in cfg.seeds:
            rows = results[(schedule, seed)]
            finals.append(float(rows[-1][8]))
        report["schedules"][schedule] = {
            "mean_target_acc": float(np.mean(finals)),
            "std_target_acc": float(np.std(finals)),
            "runs": len(finals),
            "final_target_acc": finals,
        }
    _atomic_write_text(outdir / "report.json",
                       json.dumps(report, sort_keys=True, indent=1) + "\n")
    return {"output_dir": str(outdir), "runs": len(runs)}


# ---------------------------------------------------------------------------
# subcommands

def _load_points(path) -> np.ndarray:
    coords, widths = array("d"), set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from None
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ConfigError(f"{path}:{ln}: cannot parse point row") from None
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}:{ln}: non-finite coordinate")
        widths.add(len(row))
        coords.extend(row)
    if not coords:
        raise ConfigError(f"{path}: no points")
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent row widths {sorted(widths)}")
    return np.frombuffer(coords, dtype=np.float64).reshape(-1, widths.pop())


def cmd_w1(args) -> dict:
    a = _load_points(args.file_a)
    b = _load_points(args.file_b)
    res, resampled = tp.w1(a, b, args.method, seed=args.seed,
                           epsilon=args.epsilon, max_iters=args.max_iters,
                           tol=args.tol)
    return {"distance": res.distance, "method": res.method,
            "iterations": res.iterations, "converged": res.converged,
            "n": min(len(a), len(b)) if resampled else len(a),
            "resampled": resampled}


# bound flag (as its argparse dest) -> BoundInputs field, whose default the
# flag shares
_BOUND_FLAGS = {"M": "M", "rho": "rho", "Delta": "drift", "delta": "delta",
                "vc": "vc", "rseq": "rseq", "rseq_c": "rseq_c",
                "c_online": "c_online"}


def _bound_inputs(args, T: int) -> th.BoundInputs:
    return th.BoundInputs(T=T, n=args.n, **{name: getattr(args, dest)
                                            for dest, name in _BOUND_FLAGS.items()})


def cmd_bound(args) -> dict:
    rep = th.evaluate_bound(_bound_inputs(args, args.T))
    return {"inputs": _bound_echo(args), "e1": rep.e1, "e2": rep.e2,
            "e3": rep.e3, "total": rep.total, "parts": rep.parts}


def _bound_echo(args) -> dict:
    out = {"n": args.n, **{dest: getattr(args, dest) for dest in _BOUND_FLAGS}}
    if hasattr(args, "T"):
        out["T"] = args.T
    return out


def cmd_sweep(args) -> dict:
    res = th.sweep_horizon(_bound_inputs(args, args.T_min), range(args.T_min, args.T_max + 1, args.T_step))
    return {"inputs": {**_bound_echo(args), "T_min": args.T_min,
                       "T_max": args.T_max, "T_step": args.T_step},
            "argmin_T": res.argmin_T,
            "rows": [{"T": t, "e1": e1, "e2": e2, "e3": e3, "total": tot}
                     for t, e1, e2, e3, tot in res.rows]}


def cmd_disc(args) -> dict:
    seq = dom.make_shifting_gaussians(
        args.T, args.n, shift_per_step=args.shift,
        class_means=[[-2.0], [2.0]], sigma=args.sigma, seed=args.seed)
    spec = ob.ModelSpec(feature_dim=args.feature_dim, hidden=args.hidden)
    pool = th.make_hypothesis_pool(seq, args.pool_random, args.pool_snapshots,
                                   seed=args.seed, spec=spec)
    loss = ob.LossSpec("cross_entropy_bounded", bound=args.M)
    disc = th.estimate_discrepancy(seq, pool, loss)
    return {"inputs": {"T": args.T, "n": args.n, "shift": args.shift,
                       "sigma": args.sigma, "seed": args.seed,
                       "pool_random": args.pool_random,
                       "pool_snapshots": args.pool_snapshots,
                       "M": args.M, "rho": args.rho},
            "disc": disc, "pool_size": len(pool),
            "t_rho_delta": args.T * args.rho * args.shift}


def cmd_seqrad(args) -> dict:
    if args.preset == "two_constants":
        table = np.array([[1.0] * args.zsize, [-1.0] * args.zsize])
    else:
        table = dc.rng_normal(args.seed, (args.fsize, args.zsize))
    inst = th.FiniteInstance(table, args.T)
    value = th.seq_rademacher_exact(inst)
    return {"inputs": {"fsize": int(table.shape[0]), "zsize": args.zsize,
                       "T": args.T, "seed": args.seed,
                       "preset": args.preset},
            "tree_count": inst.tree_count(), "value": value}


def cmd_lemma1(args) -> dict:
    rep = th.check_lemma1(
        th.gaussian_sampler(0.0, args.sigma), args.shift,
        loss=th.clamp_loss(-args.clamp, args.clamp),
        rho=args.rho, trials=args.trials, n=args.n, seed=args.seed)
    return {"inputs": {"shift": args.shift, "sigma": args.sigma,
                       "trials": args.trials, "n": args.n, "seed": args.seed,
                       "rho": args.rho, "clamp": args.clamp},
            "bound": rep.bound, "max_gap": rep.max_gap,
            "violations": rep.violations, "violation_rate": rep.violation_rate}


# ---------------------------------------------------------------------------
# entry point

def _emit(command, *args) -> int:
    """Run one command and print its result, or its error, as one sorted-keys
    JSON line; returns the exit code (0 ok, 2 bad input, 3 divergence)."""
    code = EXIT_OK
    try:                      # a NaN or inf left in the result is an error
        line = json.dumps(command(*args), sort_keys=True, allow_nan=False)
    except ob.TrainingDiverged as e:
        error, code = f"training diverged: {e}", EXIT_DIVERGED
    except (ConfigError, CheckpointError, ValueError, FileNotFoundError) as e:
        error, code = str(e), EXIT_CONFIG
    if code != EXIT_OK:
        line = json.dumps({"error": error}, sort_keys=True)
    print(line)
    return code


class _JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}, sort_keys=True))
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    p = _JsonArgumentParser(prog="gradshift",
                            description="gradual domain adaptation laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config")
    run.add_argument("--halt-after", type=int, default=None,
                     help="stop each run after this stage index, or after "
                          "its last stage if it has fewer (state is saved; "
                          "rerun to resume)")

    w1 = sub.add_parser("w1", help="Wasserstein-1 between two point files")
    w1.add_argument("file_a")
    w1.add_argument("file_b")
    w1.add_argument("--method", choices=["exact", "sorted_1d", "sinkhorn"],
                    default="exact")
    w1.add_argument("--epsilon", type=float, default=None)
    w1.add_argument("--max-iters", type=int, default=5000)
    w1.add_argument("--tol", type=float, default=1e-6)
    w1.add_argument("--seed", type=int, default=0)
    w1.set_defaults(handler=cmd_w1)

    bound_defaults = {f.name: f.default for f in fields(th.BoundInputs)}

    def add_bound_flags(sp, with_T=True):
        if with_T:
            sp.add_argument("--T", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        for dest, name in _BOUND_FLAGS.items():
            sp.add_argument("--" + dest.replace("_", "-"), type=float,
                            default=bound_defaults[name])

    bound = sub.add_parser("bound", help="evaluate the excess-risk bound terms")
    add_bound_flags(bound)
    bound.set_defaults(handler=cmd_bound)

    sweep = sub.add_parser("sweep", help="bound terms across horizons")
    add_bound_flags(sweep, with_T=False)
    sweep.add_argument("--T-min", type=int, default=2)
    sweep.add_argument("--T-max", type=int, required=True)
    sweep.add_argument("--T-step", type=int, default=1)
    sweep.set_defaults(handler=cmd_sweep)

    disc = sub.add_parser("disc", help="discrepancy estimate on drifting "
                                       "gaussians")
    disc.add_argument("--T", type=int, default=5)
    disc.add_argument("--n", type=int, default=2000)
    disc.add_argument("--shift", type=float, default=0.3)
    disc.add_argument("--sigma", type=float, default=0.5)
    disc.add_argument("--seed", type=int, default=0)
    disc.add_argument("--pool-random", type=int, default=64)
    disc.add_argument("--pool-snapshots", type=int, default=8)
    disc.add_argument("--M", type=float, default=5.0)
    disc.add_argument("--rho", type=float, default=1.0)
    disc.add_argument("--feature-dim", type=int, default=4)
    disc.add_argument("--hidden", type=int, default=8)
    disc.set_defaults(handler=cmd_disc)

    seqrad = sub.add_parser("seqrad", help="exact sequential complexity on a "
                                           "finite instance")
    seqrad.add_argument("--T", type=int, default=2)
    seqrad.add_argument("--zsize", type=int, default=2)
    seqrad.add_argument("--fsize", type=int, default=3)
    seqrad.add_argument("--seed", type=int, default=0)
    seqrad.add_argument("--preset", choices=["two_constants"], default=None)
    seqrad.set_defaults(handler=cmd_seqrad)

    lem = sub.add_parser("lemma1", help="two-domain loss-gap bound check")
    lem.add_argument("--shift", type=float, default=0.3)
    lem.add_argument("--sigma", type=float, default=1.0)
    lem.add_argument("--trials", type=int, default=1000)
    lem.add_argument("--n", type=int, default=2000)
    lem.add_argument("--seed", type=int, default=0)
    lem.add_argument("--rho", type=float, default=1.0)
    lem.add_argument("--clamp", type=float, default=5.0)
    lem.set_defaults(handler=cmd_lemma1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command == "run":
        return run_experiment(args.config, halt_after=args.halt_after)
    return _emit(args.handler, args)


if __name__ == "__main__":
    sys.exit(main())
