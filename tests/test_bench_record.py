"""Smoke test of scripts/bench_record.py's layer timings."""

import importlib.util
from pathlib import Path

from gradshift import objectives as ob

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_timings_tiny():
    # two workers on this checkout stand in for a checkout and the one
    # given by --against
    got = _load().layers([ROOT, ROOT], blocks=3, scale=0.01, batch=8, rows=20)
    assert len(got) == 2
    names = {"critic_step_us", "model_step_us", "stage_epoch_ms",
             "auction_256_ms", "search_256_ms", "auction_1024_ms",
             "search_1024_ms", "sinkhorn_256_ms"}
    for timings in got:
        assert set(timings) == names | {"shape"}
        for name in names:
            t = timings[name]
            assert t["blocks"] == 3
            assert 0.0 <= t["q1"] <= t["median"] <= t["q3"]
        assert timings["shape"]["batches_per_epoch"] == 3


def test_model_step_leaves_the_critic():
    # the model step's stub holds off the critic loop: the critic's bytes
    # do not change across it, and a stage epoch with the loop moves them
    real = ob._CriticLoop.run
    timers = _load().Layers(batch=8, rows=20)
    model = timers.model.copy()
    before = model.critic.flat.tobytes()
    timers.model_step_us(1, model)
    assert ob._CriticLoop.run is real      # the stub is undone
    assert model.critic.flat.tobytes() == before
    timers.stage_epoch_ms(1, model)
    assert model.critic.flat.tobytes() != before
