"""Smoke test of scripts/bench_record.py's in-process layer timings."""

import importlib.util
from pathlib import Path

from gradshift import objectives as ob

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_timings_tiny():
    real = ob.critic_ascent
    got = _load().layers(blocks=3, scale=0.01, batch=8, rows=20)
    assert ob.critic_ascent is real        # the model-step stub is undone
    for name in ("critic_step_us", "model_step_us", "stage_epoch_ms"):
        t = got[name]
        assert t["blocks"] == 3
        assert 0.0 <= t["q1"] <= t["median"] <= t["q3"]
    assert got["shape"]["batches_per_epoch"] == 3
