import argparse
import hashlib
import json
import math
import os
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradshift import cli
from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import models as md
from gradshift import objectives as ob

SMALL_CONFIG = """\
output_dir = "{out}"
seeds = [1, 2]
schedules = ["no_adaptation", "gradual"]
holdout = 0.25

[generator]
kind = "rotating_moons"
T = 3
n = 80
seed = 0
total_degrees = 60.0
noise_sigma = 0.1

[train]
lambda = 1.0
epochs_per_domain = 3
batch_size = 32

[model]
feature_dim = 4
hidden = 8
critic_hidden = 8
"""


def write_config(tmp_path, text=None, name="exp.toml"):
    p = tmp_path / name
    p.write_text(text or SMALL_CONFIG.format(out=tmp_path / "out"))
    return p


def state_dir(config_path) -> Path:
    """The folder where runs of the config at config_path keep their
    stage-boundary state."""
    return cli._state_dir(cli.load_config(config_path))


# data rows of a valid two-domain, two-class sequence file
TWO_DOMAINS = "0,0,0.5\n0,1,1.5\n1,0,0.5\n1,1,1.5\n"

# `gradshift w1` output for test_w1_json_pinned's generated point files,
# without the echo of its inputs
W1_LINES = {
    ("exact", (12, 12)):
        '{"converged": true, "distance": 0.7490556486630826, "iterations": 0, '
        '"method": "exact_assignment", "n": 12, "resampled": false}',
    ("exact", (12, 9)):
        '{"converged": true, "distance": 1.1236935393884584, "iterations": 0, '
        '"method": "exact_assignment", "n": 9, "resampled": true}',
    ("sorted_1d", (12, 12)):
        '{"converged": true, "distance": 0.750247876776347, "iterations": 0, '
        '"method": "sorted_1d", "n": 12, "resampled": false}',
    ("sorted_1d", (12, 9)):
        '{"converged": true, "distance": 0.9119264570238583, "iterations": 0, '
        '"method": "sorted_1d", "n": 12, "resampled": false}',
    ("sinkhorn", (12, 12)):
        '{"converged": false, "distance": 0.75212826335934, "iterations": 5000, '
        '"method": "sinkhorn", "n": 12, "resampled": false}',
    ("sinkhorn", (12, 9)):
        '{"converged": false, "distance": 1.1266828025709559, "iterations": '
        '5000, "method": "sinkhorn", "n": 9, "resampled": true}',
}

MINIMAL = 'output_dir = "x"\n[generator]\nkind = "rotating_moons"\nT = 3\nn = 10\n'

# (replace in SMALL_CONFIG, with, expected error)
BAD_VALUES = [
    pytest.param("lambda = 1.0", 'loss = "bogus"',
                 r"\[train\] loss: unknown loss kind", id="loss"),
    pytest.param("lambda = 1.0", "loss_bound = 0", r"\[train\] loss_bound:",
                 id="loss_bound"),
    pytest.param("lambda = 1.0", 'lr_model = "fast"',
                 r"\[train\] lr_model: could not", id="lr_model"),
    pytest.param("lambda = 1.0", "k_critic = 0", r"\[train\] k_critic:",
                 id="k_critic"),
    pytest.param("T = 3", "T = 1", r"\[generator\] T: must be >= 2", id="T"),
    pytest.param("hidden = 8", "hidden = nan", r"\[model\] hidden:",
                 id="hidden"),
    pytest.param('"gradual"]', '"direct, gradual"]',
                 "unknown schedule 'direct, gradual'", id="comma_in_string"),
    pytest.param("[model]", "[model.hidden]",
                 r"\[model\] hidden: only flat tables", id="nested_table"),
    pytest.param("lambda = 1.0", "lambda = {value = 1.0}",
                 r"\[train\] lambda: only flat", id="inline_table"),
    pytest.param("[model]", "[[model.hidden]]",
                 r"\[model\] hidden: only flat tables", id="array_of_tables"),
    pytest.param('kind = "rotating_moons"', "kind = []",
                 r"generator.kind: unknown kind \[\]", id="kind"),
    pytest.param("hidden = 8", "hidden = 0", r"\[model\] hidden: model sizes",
                 id="hidden_zero"),
    pytest.param("lambda = 1.0", 'labeled_target = "false"',
                 r"\[train\] labeled_target: must be true or false",
                 id="labeled_target_string"),
    pytest.param('kind = "rotating_moons"\nT = 3\nn = 80\nseed = 0\n'
                 "total_degrees = 60.0\nnoise_sigma = 0.1",
                 'kind = "shifting_gaussians"\nT = 3\nn = 80\nclass_means = []',
                 r"\[generator\] class_means: needs at least one",
                 id="class_means_empty"),
    pytest.param("hidden = 8", "hidden = 8.7",
                 r"\[model\] hidden: could not convert 8.7 to an integer",
                 id="hidden_float"),
    pytest.param("hidden = 8", 'hidden = "8"',
                 r"\[model\] hidden: could not convert '8' to an integer",
                 id="hidden_string"),
    pytest.param("hidden = 8", "hidden = true",
                 r"\[model\] hidden: could not convert True to an integer",
                 id="hidden_bool"),
    pytest.param("T = 3", "T = 3.9",
                 r"\[generator\] T: could not convert 3.9 to an integer",
                 id="T_float"),
    pytest.param("lambda = 1.0", "lr_model = true",
                 r"\[train\] lr_model: could not convert True to a float",
                 id="lr_model_bool"),
    pytest.param("seeds = [1, 2]", "seeds = [true]",
                 "seeds: could not convert True to an integer", id="seeds_bool"),
    # a non-finite float is the key's error, not a divergence or a
    # generator's complaint
    pytest.param("lambda = 1.0", "lambda = nan",
                 r"^\[train\] lambda: must be finite, got nan$", id="lambda_nan"),
    pytest.param("lambda = 1.0", "lr_model = nan",
                 r"^\[train\] lr_model: must be finite, got nan$",
                 id="lr_model_nan"),
    pytest.param("lambda = 1.0", "gp_factor = inf",
                 r"^\[train\] gp_factor: must be finite, got inf$",
                 id="gp_factor_inf"),
    pytest.param("noise_sigma = 0.1", "noise_sigma = nan",
                 r"^\[generator\] noise_sigma: must be finite, got nan$",
                 id="noise_sigma_nan"),
    pytest.param('kind = "rotating_moons"\nT = 3\nn = 80\nseed = 0\n'
                 "total_degrees = 60.0\nnoise_sigma = 0.1",
                 'kind = "shifting_gaussians"\nT = 3\nn = 80\nsigma = nan',
                 r"^\[generator\] sigma: must be finite, got nan$",
                 id="sigma_nan"),
    pytest.param('kind = "rotating_moons"\nT = 3\nn = 80\nseed = 0\n'
                 "total_degrees = 60.0\nnoise_sigma = 0.1",
                 'kind = "shifting_gaussians"\nT = 3\nn = 80\n'
                 "class_means = [-1.0, inf]",
                 r"^\[generator\] class_means: must be finite, got inf$",
                 id="class_means_inf"),
    pytest.param("holdout = 0.25", "holdout = -inf",
                 r"^holdout: must be finite, got -inf$", id="holdout_inf"),
]

# bytes spliced into a valid config, or values swapped for other TOML literals
LITERALS = ["0", "-3", "nan", "inf", "1e400", "2.5", "true", '"x"', '"0.5"',
            "[]", '[1, "a"]', "[[1.0]]", "{a = 1}", "1979-05-27"]
VALID = SMALL_CONFIG.format(out="out")


def _swap_values(choices):
    lines = VALID.splitlines()
    return "\n".join(l.split("=")[0] + "= " + LITERALS[c]
                     if c is not None and "=" in l else l
                     for l, c in zip(lines, choices)).encode()


CONFIG_BYTES = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda i, junk: VALID.encode()[:i] + junk + VALID.encode()[i:],
              st.integers(0, len(VALID)), st.binary(min_size=1, max_size=8)),
    st.builds(_swap_values,
              st.lists(st.none() | st.integers(0, len(LITERALS) - 1),
                       min_size=len(VALID.splitlines()),
                       max_size=len(VALID.splitlines()))))


_POINTS = b"0.0,1.5\n-2.25,1e-3\n\n3.0,4.0\n"
# a valid point file with junk spliced in, or any bytes
POINT_BYTES = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda i, junk: _POINTS[:i] + junk + _POINTS[i:],
              st.integers(0, len(_POINTS)), st.binary(min_size=1, max_size=6)))


class TestConfigParse:
    def test_round_trip_types(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, MINIMAL.replace(
            'output_dir = "x"', 'output_dir = "hi"\nseeds = [1, 2]\n'
            "holdout = 0.5") + "[train]\nlabeled_target = false\n"
            "lambda = 2\nk_critic = 3\n"))
        assert (cfg.output_dir, cfg.seeds, cfg.holdout) == ("hi", [1, 2], 0.5)
        assert cfg.generator == {"kind": "rotating_moons", "T": 3, "n": 10}
        assert cfg.train == ob.TrainConfig(lam=2.0, k_critic=3,
                                           labeled_target=False)
        assert cfg.model == ob.ModelSpec() and cfg.loss_spec == ob.LossSpec()

    def test_comments_and_blanks(self, tmp_path):
        text = "# top\n\n" + MINIMAL.replace(
            'output_dir = "x"', 'output_dir = "runs/#1"  # trailing')
        cfg = cli.load_config(write_config(tmp_path, text))
        assert cfg.output_dir == "runs/#1"

    def test_error_carries_line(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.load_config(write_config(tmp_path, "a = 1\nbogus line\n"))

    def test_unknown_key_rejected(self, tmp_path):
        base = SMALL_CONFIG.format(out=tmp_path)
        for text, key in [
                (base + "\nwhatever = 3\n", "whatever"),
                (base.replace("noise_sigma", "sigma = 0.5\nnoise_sigma"),
                 "sigma"),
                (base.replace("lambda", "seed = 3\nlambda"), "seed"),
                (base.replace("lambda", "rho = 2.0\nlambda"), "rho"),
                (base.replace("critic_hidden", "summarizer = true\n"
                              "critic_hidden"), "summarizer"),
                (base.replace("lambda", 'optimizer = "adam"\nlambda'),
                 "optimizer"),
                (base.replace("critic_hidden", "summarizer_layers = 1\n"
                              "critic_hidden"), "summarizer_layers")]:
            with pytest.raises(cli.ConfigError, match=key):
                cli.load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("old,new,error", BAD_VALUES)
    def test_bad_value_rejected(self, tmp_path, old, new, error):
        text = SMALL_CONFIG.format(out=tmp_path)
        assert old in text
        with pytest.raises(cli.ConfigError, match=error):
            cli.load_config(write_config(tmp_path, text.replace(old, new, 1)))

    @settings(max_examples=150, deadline=None)
    @given(raw=CONFIG_BYTES)
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("fuzz") / "c.toml"
        p.write_bytes(raw)
        try:
            cfg = cli.load_config(p)
        except cli.ConfigError:
            return
        assert isinstance(cfg, cli.ExperimentConfig)

    def test_unknown_schedule_rejected(self, tmp_path):
        text = SMALL_CONFIG.format(out=tmp_path).replace(
            '"gradual"', '"sideways"')
        p = write_config(tmp_path, text)
        with pytest.raises(cli.ConfigError, match="sideways"):
            cli.load_config(p)

    def test_missing_generator(self, tmp_path):
        p = write_config(tmp_path, 'output_dir = "x"\nseeds = [1]\n')
        with pytest.raises(cli.ConfigError, match="generator"):
            cli.load_config(p)


class TestGeneratorTable:
    def sequence(self, tmp_path, generator, run_seed=0):
        text = MINIMAL.split("[generator]")[0] + "[generator]\n" + generator
        return cli.load_config(write_config(tmp_path, text)).sequence_for(run_seed)

    def test_dispatch(self, tmp_path):
        seq = self.sequence(tmp_path, 'kind = "rotating_moons"\nT = 3\nn = 20\n'
                            "seed = 4\ntotal_degrees = 90.0\n")
        assert seq.T == 3 and seq.meta["total_degrees"] == 90.0
        seq2 = self.sequence(tmp_path, 'kind = "shifting_gaussians"\nT = 2\n'
                             "n = 10\nseed = 4\nshift_per_step = 0.2\n")
        assert seq2.delta_true == 0.2
        assert seq2.meta["class_means"] == [[-2.0], [2.0]]

    def test_file_dispatch(self, tmp_path):
        seq = dom.make_shifting_gaussians(2, 8, seed=1)
        p = tmp_path / "s.csv"
        dom.save_sequence(seq, p)
        assert self.sequence(tmp_path, f'kind = "file"\npath = "{p}"\n').T == 2

    def test_invalid(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="T: must be >= 2"):
            self.sequence(tmp_path, 'kind = "rotating_moons"\nT = 1\nn = 10\n')
        with pytest.raises(cli.ConfigError, match="unknown kind"):
            self.sequence(tmp_path, 'kind = "bogus"\nT = 2\nn = 10\n')
        with pytest.raises(cli.ConfigError, match="generator.n: required"):
            self.sequence(tmp_path, 'kind = "shifting_gaussians"\nT = 2\n')
        with pytest.raises(cli.ConfigError, match=r"unknown key\(s\) \['T'\]"):
            self.sequence(tmp_path, 'kind = "file"\npath = "x.csv"\nT = 2\n')


def _valid_checkpoint_bytes(tmp_path) -> bytes:
    p = tmp_path / "valid.ckpt"
    cli.save_checkpoint(p, TestCheckpointFormat().make())
    return p.read_bytes()


# the valid file above: 16-byte header, four shape records, then the float64
# payload (the 2 position values, then 12 + 4 + 4 parameter values)
CKPT_PAYLOAD = 16 + 4 * 8
CKPT_FLOATS = 2 + 12 + 4 + 4
ODD_VALUES = [np.nan, np.inf, -np.inf, -3.5, 2.5, -1.0, 1e300, 0.0]


def _set_float(raw: bytes, slot: int, value: float) -> bytes:
    ofs = CKPT_PAYLOAD + 8 * slot
    return raw[:ofs] + np.float64(value).astype("<f8").tobytes() + raw[ofs + 8:]


CHECKPOINT_EDITS = st.one_of(
    st.builds(lambda junk: lambda raw: junk, st.binary(max_size=300)),
    st.builds(lambda i, j, junk: lambda raw: raw[:i] + junk + raw[j:],
              st.integers(0, 240), st.integers(0, 240), st.binary(max_size=16)),
    st.builds(lambda slot, v: lambda raw: _set_float(raw, slot, v),
              st.integers(0, CKPT_FLOATS - 1), st.sampled_from(ODD_VALUES)))


class TestCheckpointFormat:
    def make(self):
        arrays = [dc.rng_normal(1, (3, 4)), dc.rng_normal(2, (4,)),
                  dc.rng_normal(3, (2, 2))]
        return cli.Checkpoint(arrays, domain_index=2, epoch=7,
                              config_digest=bytes(range(32)))

    @pytest.mark.parametrize("slot,value", [
        (0, np.nan), (0, np.inf), (1, -np.inf), (0, -3.5), (1, 2.5), (0, -1.0),
        (2, np.nan), (CKPT_FLOATS - 1, np.inf)])
    def test_invalid_value_rejected(self, tmp_path, slot, value):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(_set_float(_valid_checkpoint_bytes(tmp_path), slot, value))
        with pytest.raises(cli.InvalidValue, match=f"^{p}: "):
            cli.load_checkpoint(p)

    @settings(max_examples=200, deadline=None)
    @given(edit=CHECKPOINT_EDITS)
    def test_corrupted_file_raises_checkpoint_error(self, tmp_path_factory,
                                                    edit):
        tmp = tmp_path_factory.mktemp("ckpt")
        p = tmp / "fuzz.ckpt"
        p.write_bytes(edit(_valid_checkpoint_bytes(tmp)))
        try:
            ck = cli.load_checkpoint(p)
        except cli.CheckpointError as e:
            assert str(e).startswith(f"{p}: ")
            return
        assert ck.domain_index >= 0 and ck.epoch >= 0
        assert all(np.isfinite(a).all() for a in ck.arrays)

    def test_round_trip(self, tmp_path):
        ck = self.make()
        p = tmp_path / "m.ckpt"
        cli.save_checkpoint(p, ck)
        back = cli.load_checkpoint(p)
        assert back.domain_index == 2 and back.epoch == 7
        assert back.config_digest == bytes(range(32))
        for a, b in zip(ck.arrays, back.arrays):
            assert np.array_equal(a, b)

    def test_truncated_by_one_byte(self, tmp_path):
        ck = self.make()
        p = tmp_path / "m.ckpt"
        cli.save_checkpoint(p, ck)
        raw = p.read_bytes()
        p.write_bytes(raw[:-1])
        with pytest.raises(cli.TruncatedCheckpoint, match="truncated"):
            cli.load_checkpoint(p)

    def test_digest_mismatch(self, tmp_path):
        ck = self.make()
        p = tmp_path / "m.ckpt"
        cli.save_checkpoint(p, ck)
        with pytest.raises(cli.DigestMismatch):
            cli.load_checkpoint(p, expect_digest=bytes(32))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"NOTMAGIC" + bytes(100))
        with pytest.raises(cli.CheckpointError, match="magic"):
            cli.load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        ck = self.make()
        p = tmp_path / "m.ckpt"
        cli.save_checkpoint(p, ck)
        raw = bytearray(p.read_bytes())
        raw[8] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(cli.UnsupportedVersion):
            cli.load_checkpoint(p)

    def test_model_array_round_trip(self, tmp_path):
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8,
                            summarizer_hidden=8)
        seq = dom.make_rotating_moons(2, 10)
        model = ob.initial_model("gradual_temporal", seq, spec, seed=5)
        model.summary_state[:] = dc.rng_normal(6, (8,))
        ck = cli.Checkpoint(cli.model_to_arrays(model), 1, 0, bytes(32))
        p = tmp_path / "model.ckpt"
        cli.save_checkpoint(p, ck)
        back = cli.load_checkpoint(p)
        template = ob.initial_model("gradual_temporal", seq, spec, seed=99)
        restored = cli.arrays_to_model(template, back.arrays)
        assert len(back.arrays) == 14 + 8 + 1
        for a, b in zip(cli.model_to_arrays(model), cli.model_to_arrays(restored)):
            assert np.array_equal(a, b)
        assert np.array_equal(restored.summary_state, model.summary_state)


# every schedule on a tiny task; output_dir is relative, so the config's
# digest, and with it report.json, does not depend on where the test runs
PINNED_CONFIG = """\
output_dir = "out"
seeds = [1, 2]
schedules = ["no_adaptation", "direct", "gradual", "gradual_temporal"]

[generator]
kind = "rotating_moons"
T = 3
n = 60
total_degrees = 60.0

[train]
epochs_per_domain = 2
batch_size = 16
k_critic = 2
{extra}
[model]
feature_dim = 4
hidden = 8
critic_hidden = 8
summarizer_hidden = 6
"""

# labeled_target -> (metrics.csv, sha256 of report.json) of PINNED_CONFIG
PINNED_ARTIFACTS = {
    True: ("""\
run_id,seed,schedule,t,epoch,class_loss,alignment,gp,target_acc,wall_ms
no_adaptation-s1,1,no_adaptation,0,1,0.645896729,0,0,0.466666667,0
no_adaptation-s2,2,no_adaptation,0,1,0.645864178,0,0,0.5625,0
direct-s1,1,direct,2,1,0.67661511,0.00536503961,0.939279039,0.666666667,0
direct-s2,2,direct,2,1,0.65467845,7.22656158e-05,0.950407694,0.5625,0
gradual-s1,1,gradual,1,1,0.656874366,0.0018588649,0.973939062,0.466666667,0
gradual-s1,1,gradual,2,1,0.67822909,0.00359996043,0.932364537,0.6,0
gradual-s2,2,gradual,1,1,0.651406177,0.000736449693,0.975467037,0.625,0
gradual-s2,2,gradual,2,1,0.655689658,-0.0010940785,0.934935459,0.625,0
gradual_temporal-s1,1,gradual_temporal,1,1,0.656877212,0.00240929882,0.971694332,0.466666667,0
gradual_temporal-s1,1,gradual_temporal,2,1,0.678224248,0.00636594655,0.927683649,0.6,0
gradual_temporal-s2,2,gradual_temporal,1,1,0.651418963,0.000514917208,0.979059452,0.625,0
gradual_temporal-s2,2,gradual_temporal,2,1,0.655732245,0.00333438926,0.941791243,0.625,0
""", "cde076cbc03a4312b06b074178f5574c43992c0ea7f6a35294bf85efcda8d190"),
    False: ("""\
run_id,seed,schedule,t,epoch,class_loss,alignment,gp,target_acc,wall_ms
no_adaptation-s1,1,no_adaptation,0,1,0.645896729,0,0,0.466666667,0
no_adaptation-s2,2,no_adaptation,0,1,0.645864178,0,0,0.5625,0
direct-s1,1,direct,2,1,0.642219589,0.00550433852,0.939960005,0.466666667,0
direct-s2,2,direct,2,1,0.647739043,4.83219977e-05,0.950392531,0.5,0
gradual-s1,1,gradual,1,1,0.64589787,0.00186129079,0.973949931,0.466666667,0
gradual-s1,1,gradual,2,1,0.646835242,0.00357495318,0.932828532,0.466666667,0
gradual-s2,2,gradual,1,1,0.645864552,0.00073894518,0.975449075,0.5625,0
gradual-s2,2,gradual,2,1,0.653695821,-0.00113713569,0.934887964,0.5625,0
gradual_temporal-s1,1,gradual_temporal,1,1,0.645898883,0.00241831661,0.971703399,0.466666667,0
gradual_temporal-s1,1,gradual_temporal,2,1,0.646892818,0.00649940341,0.928000016,0.466666667,0
gradual_temporal-s2,2,gradual_temporal,1,1,0.645870041,0.000513490406,0.979060547,0.5625,0
gradual_temporal-s2,2,gradual_temporal,2,1,0.653824083,0.00330494704,0.941814177,0.625,0
""", "b6aa2c4209f9bd6f3b7907fd728d9caf58ee889404e108eb10c0ea95f00a2373"),
}

# labeled_target -> sha256 of each checkpoints/*.ckpt of PINNED_CONFIG; a
# gradual_temporal checkpoint ends with the summarizer and its state
PINNED_CHECKPOINTS = {
    True: {
        "direct-s1.ckpt":
            "10498c55bc28a4a0e74898173e821fd3200e41997c55be133d91e779201de417",
        "direct-s2.ckpt":
            "b59fe1f255518bfeabdf4cab072630b0bee9d5977338224b76ff493cbfed718b",
        "gradual-s1.ckpt":
            "16d2d557820c0b2417b651743431db6f717e4d4ea61b4aee2bfa3664db636580",
        "gradual-s2.ckpt":
            "7d12f9b40951039e182113d5da02e825d37a39ca5d6fb8393bca6a84bd343c74",
        "gradual_temporal-s1.ckpt":
            "48f466b956b9c0030253575cea4abfb9c815580556ab38b16bc16a67c0c519e1",
        "gradual_temporal-s2.ckpt":
            "3d1c227619055ae943c99c94ecb9869110cbc331a2a0a4b016b2f5f2daef187d",
        "no_adaptation-s1.ckpt":
            "3a197e22a4e47e986d97c3930ee3ccec5e2a05471de0ba20284eaacb440d634c",
        "no_adaptation-s2.ckpt":
            "67158de7ed4163058334f3fbc6ec6918de44b9286dbd6be4e6f8d20bdb896a9e",
    },
    False: {
        "direct-s1.ckpt":
            "be004782e4051127387724ecc3599162a6a8ea7d3a97827a3ad164d4ed7e5ff3",
        "direct-s2.ckpt":
            "0840b87f1be4d9ec54b09ea01f80ba255fd0a8269b01bb97e6b37e4cab6d04bd",
        "gradual-s1.ckpt":
            "1b39ce88c6aaddfbf7c4375d866ba0e6c8983413a3392fd8e85312f0aaf7cd7a",
        "gradual-s2.ckpt":
            "fe3f8834dbcfa4a2dabd200ef4ba5bf0b962b29631d9bda18545a9919ae61d84",
        "gradual_temporal-s1.ckpt":
            "96433a419e1ee8fde029459d02a517689fce47bd86b33b6fe32d7745e7e37a1c",
        "gradual_temporal-s2.ckpt":
            "ee14e0ad5da259ad396165cb2f0537f0eecd03c7860d60441f7c16d20eafa99c",
        "no_adaptation-s1.ckpt":
            "9a8f0f5f6519ba6d89b2df9bf41b0a900ceef64b6d304489dd489a9e12a0c1a3",
        "no_adaptation-s2.ckpt":
            "418126f3e767c60dbfd1157487a1eb4a263cd3b5901453c32ef8123f429a62cb",
    },
}


def _diverging_run_one(cfg, schedule, seed, halt_after):
    """A stand-in for cli._run_one in pool workers, at module level so the
    pool can pickle it: marks its run started, and seed 1 diverges."""
    (Path(cfg.output_dir).parent / "started" / str(seed)).touch()
    if seed == 1:
        raise ob.TrainingDiverged("injected")
    time.sleep(0.5)
    return []


@pytest.fixture(autouse=True)
def serial_runs(monkeypatch):
    monkeypatch.setenv("GRADSHIFT_THREADS", "1")


class TestRunExperiment:
    @pytest.mark.parametrize("labeled", [True, False],
                             ids=["labeled", "unlabeled"])
    def test_training_bytes_pinned(self, tmp_path, monkeypatch, capsys,
                                   labeled):
        # the artifacts of every schedule, byte for byte, at one worker:
        # the model bits in each final checkpoint too
        monkeypatch.chdir(tmp_path)
        extra = "" if labeled else "labeled_target = false\n"
        (tmp_path / "exp.toml").write_text(PINNED_CONFIG.format(extra=extra))
        assert cli.run_experiment("exp.toml") == 0
        metrics, report_sha = PINNED_ARTIFACTS[labeled]
        assert (tmp_path / "out" / "metrics.csv").read_text() == metrics
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == report_sha
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted((tmp_path / "out" / "checkpoints").glob(
                    "*.ckpt"))} == PINNED_CHECKPOINTS[labeled]

    def test_artifacts_and_bookkeeping(self, tmp_path, capsys):
        p = write_config(tmp_path)
        assert cli.run_experiment(p) == 0
        out = tmp_path / "out"
        metrics = (out / "metrics.csv").read_text()
        lines = metrics.strip().split("\n")
        assert lines[0] == cli.METRICS_HEADER
        # no_adaptation: 1 row per seed; gradual: T-1=2 rows per seed
        assert len(lines) - 1 == 2 * 1 + 2 * 2
        report = json.loads((out / "report.json").read_text())
        assert set(report["schedules"]) == {"no_adaptation", "gradual"}
        for entry in report["schedules"].values():
            assert entry["runs"] == 2
        assert (out / "checkpoints" / "gradual-s1.ckpt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        p = write_config(tmp_path)
        assert cli.run_experiment(p) == 0
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        first_report = (tmp_path / "out" / "report.json").read_bytes()
        assert cli.run_experiment(p) == 0
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first
        assert (tmp_path / "out" / "report.json").read_bytes() == first_report

    def test_halt_resume_matches_uninterrupted(self, tmp_path):
        p = write_config(tmp_path)
        assert cli.run_experiment(p) == 0
        base = (tmp_path / "out" / "metrics.csv").read_bytes()
        # fresh output dir: halt mid-schedule, then resume
        text = SMALL_CONFIG.format(out=tmp_path / "out2")
        p2 = write_config(tmp_path, text, name="exp2.toml")
        assert cli.run_experiment(p2, halt_after=0) == 0
        assert (state_dir(p2) / "gradual-s1.ckpt").exists()
        assert not (tmp_path / "out2" / "metrics.csv").exists()
        assert cli.run_experiment(p2) == 0
        resumed = (tmp_path / "out2" / "metrics.csv").read_bytes()
        assert resumed == base
        assert not (tmp_path / "out2" / "state").exists()

    def test_halt_resume_trains_each_stage_once(self, tmp_path, monkeypatch):
        calls = []
        run_stage = ob._run_stage

        def counted(*args, **kwargs):
            calls.append(kwargs["stage"])
            return run_stage(*args, **kwargs)

        monkeypatch.setattr(ob, "_run_stage", counted)
        text = SMALL_CONFIG.replace(
            '"gradual"]', '"direct", "gradual", "gradual_temporal"]')
        p = write_config(tmp_path, text.format(out=tmp_path / "out"))
        assert cli.run_experiment(p) == 0
        uninterrupted = sorted(calls)
        calls.clear()
        p2 = write_config(tmp_path, text.format(out=tmp_path / "out2"),
                          name="exp2.toml")
        assert cli.run_experiment(p2, halt_after=0) == 0
        assert not (tmp_path / "out2" / "metrics.csv").exists()
        assert len(list(state_dir(p2).glob("*.ckpt"))) == 8
        assert cli.run_experiment(p2) == 0
        assert sorted(calls) == uninterrupted
        assert len(uninterrupted) == 12
        assert (tmp_path / "out2" / "metrics.csv").read_bytes() == \
               (tmp_path / "out" / "metrics.csv").read_bytes()

    def test_parallel_halt_resume_matches_serial(self, tmp_path, monkeypatch):
        # the same config file (and so the same digest) for both runs
        text = SMALL_CONFIG.replace(
            '"gradual"]', '"direct", "gradual", "gradual_temporal"]').replace(
            "T = 3", "T = 4")
        p = write_config(tmp_path, text.format(out=tmp_path / "out"))
        out = tmp_path / "out"

        def artifacts():
            return {str(f.relative_to(out)): f.read_bytes()
                    for f in sorted(out.rglob("*")) if f.is_file()}

        monkeypatch.setenv("GRADSHIFT_THREADS", "1")
        assert cli.run_experiment(p) == 0
        serial = artifacts()
        assert len(serial) == 2 + 8
        shutil.rmtree(out)
        monkeypatch.setenv("GRADSHIFT_THREADS", "2")
        assert cli.run_experiment(p, halt_after=1) == 0
        assert len(list(state_dir(p).glob("*.ckpt"))) == 8
        assert not (out / "metrics.csv").exists()
        assert cli.run_experiment(p) == 0
        assert artifacts() == serial
        assert not (out / "state").exists()

    def test_interrupt_resumes_unfinished_stages(self, tmp_path, monkeypatch):
        # 16 stages in all; an interrupt inside the 7th (gradual-s1's third)
        # leaves the state of the 6 finished ones, and the rerun trains the
        # other 10
        text = SMALL_CONFIG.replace(
            '"gradual"]', '"direct", "gradual", "gradual_temporal"]').replace(
            "T = 3", "T = 4")
        p = write_config(tmp_path, text.format(out=tmp_path / "out"))
        out = tmp_path / "out"
        calls = []
        run_stage = ob._run_stage

        def interrupted_on(n):
            def stand_in(*args, **kwargs):
                calls.append(kwargs["stage"])
                if len(calls) == n:
                    raise KeyboardInterrupt
                return run_stage(*args, **kwargs)
            return stand_in

        def artifacts():
            return {str(f.relative_to(out)): f.read_bytes()
                    for f in sorted(out.rglob("*")) if f.is_file()}

        monkeypatch.setattr(ob, "_run_stage", interrupted_on(None))
        assert cli.run_experiment(p) == 0
        uninterrupted = artifacts()
        assert len(calls) == 16
        shutil.rmtree(out)
        calls.clear()
        monkeypatch.setattr(ob, "_run_stage", interrupted_on(7))
        with pytest.raises(KeyboardInterrupt):
            cli.run_experiment(p)
        assert len(list(state_dir(p).glob("*.ckpt"))) == 5
        calls.clear()
        monkeypatch.setattr(ob, "_run_stage", interrupted_on(None))
        assert cli.run_experiment(p) == 0
        assert len(calls) == 10 and calls[0] == 2
        assert artifacts() == uninterrupted
        assert not (out / "state").exists()

    def test_divergence_resumes_at_diverged_stage(self, tmp_path, monkeypatch,
                                                  capsys):
        # gradual-s1 diverges in stage 2: its state stays at stage 1, and a
        # rerun trains from stage 2
        text = SMALL_CONFIG.replace('"no_adaptation", ', "").replace(
            "T = 3", "T = 4")
        p = write_config(tmp_path, text.format(out=tmp_path / "out"))
        calls = []
        run_stage = ob._run_stage

        def diverging(*args, **kwargs):
            calls.append(kwargs["stage"])
            if kwargs["stage"] == 2:
                raise ob.TrainingDiverged("injected")
            return run_stage(*args, **kwargs)

        monkeypatch.setattr(ob, "_run_stage", diverging)
        lines = []
        for stages in ([0, 1, 2], [2]):
            assert cli.run_experiment(p) == 3
            lines.append(capsys.readouterr().out)
            assert calls == stages
            calls.clear()
            state = state_dir(p) / "gradual-s1.ckpt"
            assert cli.load_checkpoint(state).domain_index == 1
        assert lines[0] == lines[1]
        assert "run gradual-s1: injected" in lines[0]

    def test_edited_config_reruns_after_divergence(self, tmp_path,
                                                   monkeypatch, capsys):
        # the usual reply to exit 3, a smaller lr_model, starts the runs
        # afresh: the state of the diverged config stays where it was, and
        # the edited config's own state is removed once its runs finish
        text = SMALL_CONFIG.replace('"no_adaptation", ', "").replace(
            "T = 3", "T = 4").format(out=tmp_path / "out")
        p = write_config(tmp_path, text)
        old_state = state_dir(p)
        calls = []
        run_stage = ob._run_stage

        def diverging(*args, **kwargs):
            calls.append(kwargs["stage"])
            if kwargs["stage"] == 2:
                raise ob.TrainingDiverged("injected")
            return run_stage(*args, **kwargs)

        monkeypatch.setattr(ob, "_run_stage", diverging)
        assert cli.run_experiment(p) == 3
        assert (old_state / "gradual-s1.ckpt").exists()
        p.write_text(text.replace("lambda = 1.0",
                                  "lambda = 1.0\nlr_model = 0.0005"))
        assert state_dir(p) != old_state
        calls.clear()
        monkeypatch.setattr(ob, "_run_stage", lambda *a, **k: (
            calls.append(k["stage"]), run_stage(*a, **k))[1])
        capsys.readouterr()
        assert cli.run_experiment(p) == 0
        assert json.loads(capsys.readouterr().out) == {
            "output_dir": str(tmp_path / "out"), "runs": 2}
        assert calls == [0, 1, 2, 0, 1, 2]
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert not state_dir(p).exists()
        assert [f.name for f in old_state.iterdir()] == ["gradual-s1.ckpt"]

    @pytest.mark.parametrize("table,stage", [(None, 0), (np.zeros((1, 5)), 1)],
                             ids=["no_table", "table_rows_not_stages"])
    def test_malformed_state_exit_2(self, tmp_path, monkeypatch, capsys,
                                    table, stage):
        # a state file of the model's arrays alone, or whose table does not
        # hold a row per saved stage, is named in the error before any stage
        # trains or any artifact is written
        p = write_config(tmp_path, SMALL_CONFIG.replace(
            '"no_adaptation", ', "").format(out=tmp_path / "out"))
        cfg = cli.load_config(p)
        model = ob.initial_model("gradual", cfg.sequence_for(1), cfg.model, 1)
        state = cli._state_dir(cfg) / "gradual-s1.ckpt"
        arrays = cli.model_to_arrays(model) + ([] if table is None else [table])
        cli.save_checkpoint(state, cli.Checkpoint(arrays, stage, 3, cfg.digest))
        calls = []
        monkeypatch.setattr(ob, "_run_stage", lambda *a, **k: calls.append(k))
        assert cli.run_experiment(p) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(f"{state}: ")
        assert calls == []
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pool"])
    def test_state_before_digest_folders_exit_2(self, tmp_path, monkeypatch,
                                                capsys, threads):
        # state at output_dir/state/<run_id>.ckpt, where runs kept it before
        # it was keyed by config digest, was neither read nor removed: the
        # run retrained from stage 0, exited 0 and left state/ behind; now
        # every run is checked first, and the file is named and left as it is
        monkeypatch.setenv("GRADSHIFT_THREADS", threads)
        p = write_config(tmp_path)
        old = tmp_path / "out" / "state" / "gradual-s2.ckpt"
        old.parent.mkdir(parents=True)
        old.write_bytes(b"GSHIFT01 state of an older layout")
        assert cli.run_experiment(p) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(f"{old}: ")
        assert old.read_bytes() == b"GSHIFT01 state of an older layout"
        assert sorted((tmp_path / "out").rglob("*")) == [old.parent, old]

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3", "+2", " 2"])
    def test_bad_thread_count_exit_2(self, tmp_path, capsys, monkeypatch,
                                     value):
        # named and rejected before anything is written
        monkeypatch.setenv("GRADSHIFT_THREADS", value)
        assert cli.run_experiment(write_config(tmp_path)) == 2
        error = f"GRADSHIFT_THREADS must be a positive integer, got {value!r}"
        assert capsys.readouterr().out.splitlines() == [
            json.dumps({"error": error})]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value,cap", [(None, None), ("", None),
                                           ("3", 3), ("007", 7)],
                             ids=["unset", "empty", "three", "leading_zeros"])
    def test_thread_count(self, monkeypatch, value, cap):
        # unset or empty: the core count
        if value is None:
            monkeypatch.delenv("GRADSHIFT_THREADS")
        else:
            monkeypatch.setenv("GRADSHIFT_THREADS", value)
        assert cli._thread_cap() == (cap or os.cpu_count() or 1)

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.toml"
        p.write_text("output_dir = \n")
        assert cli.run_experiment(p) == 2
        err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert "error" in err

    @pytest.mark.parametrize("rows,sidecar,error", [
        (None, None, "No such file or directory"),
        ("0,0,0.5\n0,1,1.5\n", None, "schedules need T >= 2 domains"),
        (TWO_DOMAINS, '{"k": "2"}', "k must be an int"),
        (TWO_DOMAINS, "[2]", "not a JSON object")],
        ids=["missing_file", "one_domain", "sidecar_k_str", "sidecar_list"])
    def test_file_dataset_error_exit_2(self, tmp_path, capsys, rows, sidecar,
                                       error):
        # answered as `gradshift run` answers it, not raised
        data = tmp_path / "seq.csv"
        if rows is not None:
            data.write_text("t,y,x0\n" + rows)
        if sidecar is not None:
            (tmp_path / "seq.meta.json").write_text(sidecar)
        text = (f'output_dir = "{tmp_path / "out"}"\n[generator]\n'
                f'kind = "file"\npath = "{data}"\n')
        assert cli.run_experiment(write_config(tmp_path, text)) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert list(out) == ["error"] and error in out["error"]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        p = write_config(tmp_path)
        assert cli.run_experiment(p) == 0
        serial = (tmp_path / "out" / "metrics.csv").read_bytes()
        text = SMALL_CONFIG.format(out=tmp_path / "outp")
        p2 = write_config(tmp_path, text, name="par.toml")
        monkeypatch.setenv("GRADSHIFT_THREADS", "2")
        assert cli.run_experiment(p2) == 0
        assert (tmp_path / "outp" / "metrics.csv").read_bytes() == serial

    def test_parallel_divergence_stops_early(self, tmp_path, monkeypatch):
        started = tmp_path / "started"
        started.mkdir()
        monkeypatch.setattr(cli, "_run_one", _diverging_run_one)
        monkeypatch.setenv("GRADSHIFT_THREADS", "2")
        text = SMALL_CONFIG.format(out=tmp_path / "out").replace(
            "seeds = [1, 2]", "seeds = [1, 2, 3, 4, 5, 6, 7, 8]").replace(
            ', "gradual"]', "]")
        assert cli.run_experiment(write_config(tmp_path, text)) == 3
        assert len(list(started.iterdir())) < 8

    def test_divergence_exit_3(self, tmp_path, capsys):
        text = SMALL_CONFIG.format(out=tmp_path / "outd").replace(
            "lambda = 1.0", "lambda = 1.0\nlr_model = 1e160")
        p = write_config(tmp_path, text, name="div.toml")
        # the run overflows on purpose; a mark cannot lift the module's
        # error filter, since pytest applies the module's mark last
        with np.errstate(all="ignore"):
            assert cli.run_experiment(p) == 3
        err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert "diverged" in err["error"]


def _subcommands():
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def _valid_and_rejected(tmp_path, command):
    """One valid and one rejected `gradshift` argv for the subcommand."""
    pts = tmp_path / "p.csv"
    pts.write_text("0.0\n1.0\n")
    missing = str(tmp_path / "missing")
    return {
        "run": (["run", str(write_config(tmp_path))], ["run", missing]),
        "w1": (["w1", str(pts), str(pts)], ["w1", str(pts), missing]),
        "bound": (["bound", "--T", "2", "--n", "10"],
                  ["bound", "--T", "1", "--n", "10"]),
        "sweep": (["sweep", "--n", "10", "--T-max", "3"],
                  ["sweep", "--n", "10", "--T-min", "3", "--T-max", "2"]),
        "disc": (["disc", "--T", "2", "--n", "20", "--pool-random", "2",
                  "--pool-snapshots", "1"], ["disc", "--T", "1"]),
        "seqrad": (["seqrad", "--preset", "two_constants", "--T", "1"],
                   ["seqrad", "--T", "9"]),
        "lemma1": (["lemma1", "--trials", "5", "--n", "20"],
                   ["lemma1", "--trials", "many"]),
    }[command]


def _float_flags():
    """(subcommand, flag) for every flag whose value is a float."""
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return [(name, a.option_strings[0]) for name, sp in sub.choices.items()
            for a in sp._actions if getattr(a.type, "__name__", "") == "float"]


class TestSubcommands:
    @pytest.mark.parametrize("command", _subcommands())
    def test_one_json_line(self, tmp_path, capsys, command):
        # success and rejection alike print one sorted-keys JSON line
        valid, rejected = _valid_and_rejected(tmp_path, command)
        for argv, code in ((valid, 0), (rejected, 2)):
            assert cli.main(argv) == code
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1
            out = json.loads(lines[0])
            assert lines[0] == json.dumps(out, sort_keys=True)
            assert ("error" in out) == (code == 2)

    @pytest.mark.parametrize("case", ["config_dir", "points_dir",
                                      "output_below_file"])
    def test_os_error_exit_2(self, tmp_path, capsys, case):
        # each once ended in an OSError traceback and exit 1, with no line
        (tmp_path / "file").write_text("")
        below_file = SMALL_CONFIG.format(out=tmp_path / "file" / "out")
        argv = {"config_dir": ["run", str(tmp_path)],
                "points_dir": ["w1", str(tmp_path), str(tmp_path)],
                "output_below_file": [
                    "run", str(write_config(tmp_path, below_file))]}[case]
        assert cli.main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["error"]

    def test_disc_inputs_echo_every_flag(self, capsys):
        # --hidden changes the estimate, and once left the echo unchanged
        outs = []
        for hidden in ("4", "8"):
            assert cli.main(["disc", "--T", "3", "--n", "200", "--pool-random",
                             "4", "--pool-snapshots", "0", "--hidden",
                             hidden]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0]["disc"] != outs[1]["disc"]
        assert outs[0]["inputs"] != outs[1]["inputs"]
        assert [o["inputs"]["hidden"] for o in outs] == [4, 8]

    def test_w1_identical_files(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0.0,0.0\n1.0,2.0\n")
        assert cli.main(["w1", str(pts), str(pts)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] == 0.0

    def test_w1_two_point_example(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0.0,0.0\n1.0,0.0\n")
        b.write_text("0.0,1.0\n1.0,1.0\n")
        assert cli.main(["w1", str(a), str(b)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["distance"] - 1.0) < 1e-12

    def test_w1_sinkhorn_identical(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        rows = dc.rng_normal(4, (16, 2))
        pts.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert cli.main(["w1", str(pts), str(pts), "--method", "sinkhorn",
                         "--epsilon", "1e-3", "--max-iters", "20000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] <= 1e-2

    def test_w1_sorted_1d_unequal_sizes_not_resampled(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0.0\n1.0\n")
        b.write_text("0.0\n0.5\n1.0\n")
        assert cli.main(["w1", str(a), str(b), "--method", "sorted_1d"]) == 0
        out = json.loads(capsys.readouterr().out)
        # quantile pieces of width 1/3, 1/6, 1/6, 1/3 at |0-0|, |0-0.5|,
        # |1-0.5|, |1-1|
        assert abs(out["distance"] - 1.0 / 6.0) < 1e-15
        assert out["resampled"] is False

    def test_w1_sorted_1d_multi_dimensional_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        assert cli.main(["w1", str(a), str(a), "--method", "sorted_1d"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"].startswith("sorted_1d requires 1-D points")

    @pytest.mark.parametrize("sizes", [(12, 12), (12, 9)],
                             ids=["equal", "unequal"])
    @pytest.mark.parametrize("method", ["exact", "sorted_1d", "sinkhorn"])
    def test_w1_json_pinned(self, tmp_path, capsys, method, sizes):
        # the exact output line, n included: the smaller count when the
        # sets were resampled to equal size, otherwise the first file's
        d = 1 if method == "sorted_1d" else 2
        files = []
        for name, x in (("a.csv", dc.rng_normal(11, (sizes[0], d))),
                        ("b.csv", dc.rng_normal(12, (sizes[1], d)) + 0.5)):
            files.append(tmp_path / name)
            files[-1].write_text("".join(",".join(repr(v) for v in r) + "\n"
                                         for r in x.tolist()))
        assert cli.main(["w1", *map(str, files), "--method", method]) == 0
        line = json.loads(W1_LINES[method, sizes])
        line["inputs"] = {"file_a": str(files[0]), "file_b": str(files[1]),
                          "method": method, "epsilon": None,
                          "max_iters": 5000, "tol": 1e-6, "seed": 0}
        assert capsys.readouterr().out == json.dumps(line, sort_keys=True) + "\n"

    @pytest.mark.parametrize("method", ["exact", "sinkhorn"])
    def test_w1_overflow_exit_2(self, tmp_path, capsys, method):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,0\n1e200,0\n2,1\n")
        b.write_text("1,0\n-1e200,1\n3,3\n")
        assert cli.main(["w1", str(a), str(b), "--method", method]) == 2
        assert capsys.readouterr().out == \
            '{"error": "pairwise distances overflow float64"}\n'

    def test_w1_sorted_1d_overflow_exit_2(self, tmp_path, capsys):
        # the line once read "distance": Infinity, which is not JSON
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1e308\n0\n")
        b.write_text("-1e308\n1\n")
        assert cli.main(["w1", str(a), str(b), "--method", "sorted_1d"]) == 2
        assert capsys.readouterr().out == \
            '{"error": "pairwise distances overflow float64"}\n'

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_w1_sinkhorn_non_finite_epsilon_exit_2(self, tmp_path, capsys,
                                                   epsilon):
        # epsilon nan once printed "distance": NaN
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,0\n1,1\n")
        b.write_text("1,0\n2,2\n")
        assert cli.main(["w1", str(a), str(b), "--method", "sinkhorn",
                         "--epsilon", epsilon]) == 2
        assert capsys.readouterr().out == json.dumps(
            {"error": f"argument --epsilon: must be finite, got {epsilon!r}"}
        ) + "\n"

    @pytest.mark.parametrize("argv, error", [
        (["bound", "--T", "5", "--n", "10", "--M", "1e308"],
         "bound terms overflow float64"),
        (["bound", "--T", "5", "--n", "10", "--M", "inf"],
         "argument --M: must be finite, got 'inf'"),
        (["sweep", "--T-min", "2", "--T-max", "5", "--n", "10", "--M", "nan"],
         "argument --M: must be finite, got 'nan'"),
    ], ids=["bound_overflow", "bound_inf", "sweep_nan"])
    def test_bound_non_finite_exit_2(self, capsys, argv, error):
        # these once printed Infinity or NaN terms, which are not JSON
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == json.dumps({"error": error}) + "\n"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_w1_sinkhorn_bad_tol_exit_2(self, tmp_path, capsys, tol):
        # tol nan ran all 5,000 iterations and exited 0 unconverged
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,0\n1,1\n")
        b.write_text("1,0\n2,2\n")
        assert cli.main(["w1", str(a), str(b), "--method", "sinkhorn",
                         "--tol", tol]) == 2
        error = (f"argument --tol: must be finite, got {tol!r}" if tol == "nan"
                 else f"tol must be positive and finite, got {float(tol)}")
        assert capsys.readouterr().out.splitlines() == [json.dumps(
            {"error": error})]

    def test_sweep_wide_range_exit_2_unbuilt(self, capsys):
        # the guard once ran after sorting a set of every horizon in range
        tracemalloc.start()
        try:
            code = cli.main(["sweep", "--n", "10", "--T-max", "2000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [json.dumps(
            {"error": "horizon range must lie within [2, 1e6]"})]
        assert peak < 2 ** 20

    @pytest.mark.parametrize("flag,value,low", [
        ("--halt-after", "-1", 0), ("--pool-random", "-1", 0),
        ("--pool-snapshots", "-1", 0), ("--T-step", "0", 1),
        ("--n", "0", 1), ("--T", "1", 2), ("--zsize", "0", 1),
        ("--fsize", "0", 1)])
    def test_count_below_minimum_exit_2(self, tmp_path, capsys, flag, value,
                                        low):
        # --halt-after -1 halted after stage 0 and saved state,
        # --pool-snapshots -3 echoed -3 beside a pool without snapshots,
        # --T-step 0 printed {"error": "range() arg 3 must not be zero"},
        # and disc --n 0 named neither the flag nor the command's input
        argv = {"--halt-after": ["run", str(write_config(tmp_path))],
                "--T-step": ["sweep", "--n", "10", "--T-max", "5"],
                "--zsize": ["seqrad"], "--fsize": ["seqrad"]}.get(
                    flag, ["disc", "--T", "2", "--n", "20"])
        assert cli.main(argv + [flag, value]) == 2
        assert capsys.readouterr().out.splitlines() == [json.dumps(
            {"error": f"argument {flag}: must be >= {low}, got {value}"})]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", _float_flags())
    def test_non_finite_float_flag_exit_2(self, monkeypatch, capsys, command,
                                          flag):
        # every float flag took nan and inf: lemma1 --sigma nan and disc
        # --rho nan failed only on the JSON echo, disc after building its
        # pool, and with a message that named no flag; now argparse rejects
        # the value before the command runs
        monkeypatch.setattr(cli, "_emit", None)
        argv = {"w1": ["w1", "a.csv", "b.csv"],
                "bound": ["bound", "--T", "2", "--n", "10"],
                "sweep": ["sweep", "--n", "10", "--T-max", "3"]}.get(
                    command, [command])
        for value in ("nan", "inf", "-inf", "NaN"):
            assert cli.main(argv + [f"{flag}={value}"]) == 2
            assert capsys.readouterr().out.splitlines() == [json.dumps(
                {"error": f"argument {flag}: must be finite, got {value!r}"})]

    def test_non_finite_result_exit_2(self, capsys):
        # a NaN or inf that reaches the printed line is an error, not JSON
        for value in (math.nan, math.inf):
            assert cli._emit(lambda: {"distance": value}) == 2
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"].startswith(
                "Out of range float values are not JSON compliant")

    def test_w1_undecodable_points_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_bytes(b"0.0,0.0\n1.0,\xff0.0\n")
        assert cli.main(["w1", str(a), str(a)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert "can't decode byte 0xff" in out["error"]

    @pytest.mark.parametrize("text", ["0.0,1.5\n\n-2.25,1e-3\n",
                                      "0.0,1.5\n1.0\n", "0.0,1.5\n\nx,1\n"],
                             ids=["valid", "widths", "parse"])
    def test_points_crlf_as_lf(self, tmp_path, text):
        # \r\n line ends read as \n ones: the same points, or the same
        # error on the same line
        outcomes = []
        for end in ("\n", "\r\n"):
            p = tmp_path / f"{len(end)}.csv"
            p.write_bytes(text.replace("\n", end).encode())
            try:
                outcomes.append(cli._load_points(p).tobytes())
            except cli.ConfigError as e:
                outcomes.append(str(e).replace(str(p), "PATH"))
        assert outcomes[0] == outcomes[1]

    def test_points_peak_memory(self, tmp_path):
        # 16,000 2-D points (254 KB), read one line at a time, peak at 0.27
        # MiB traced: no copy of the file's text or of its lines is held
        p = tmp_path / "p.csv"
        p.write_text("".join(f"{i * 0.001},{-i * 0.5}\n"
                             for i in range(16000)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pts = cli._load_points(p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pts.shape == (16000, 2)
        assert peak <= 2 ** 19

    @settings(max_examples=200, deadline=None)
    @given(raw=POINT_BYTES)
    def test_points_arbitrary_bytes(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("fuzz") / "p.csv"
        p.write_bytes(raw)
        try:
            pts = cli._load_points(p)
        except cli.ConfigError:
            return
        assert pts.ndim == 2 and np.isfinite(pts).all()

    def test_w1_dimension_mismatch_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0.0,0.0\n1.0,0.0\n")
        b.write_text("0.0,1.0,0.0\n1.0,1.0,0.0\n")
        for method in ("exact", "sinkhorn"):
            assert cli.main(["w1", str(a), str(b), "--method", method]) == 2
            out = json.loads(capsys.readouterr().out)
            assert out["error"] == "dimension mismatch: 2 vs 3"

    @pytest.mark.parametrize("method", ["exact", "sinkhorn", "sorted_1d"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_w1_non_finite_point_exit_2(self, tmp_path, capsys, method, value):
        # a NaN cost once made the exact solver loop forever, and Sinkhorn
        # printed "distance": NaN, which is not JSON
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("0.0\n1.0\n2.0\n")
        b.write_text(f"0.5\n\n{value}\n1.5\n")
        assert cli.main(["w1", str(a), str(b), "--method", method]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == f"{b}:3: non-finite coordinate"

    def test_w1_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,number\n")
        assert cli.main(["w1", str(bad), str(bad)]) == 2
        assert "error" in json.loads(capsys.readouterr().out)

    def test_bound_example(self, capsys):
        assert cli.main(["bound", "--T", "10", "--M", "1", "--delta", "0.1",
                         "--rho", "1", "--Delta", "0.01", "--vc", "10",
                         "--n", "100"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["e1"] - (0.3 + 0.3 * np.sqrt(8 * np.log(10)))) < 1e-9
        assert abs(out["parts"]["e3_drift"] - 0.3) < 1e-12

    def test_sweep_zero_drift_argmin_max(self, capsys):
        assert cli.main(["sweep", "--n", "100", "--Delta", "0", "--T-max",
                         "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["argmin_T"] == 50

    def test_sweep_interior_config(self, capsys):
        cfg = json.loads(
            (os.path.join(os.path.dirname(__file__), "..", "configs",
                          "sweep_interior.json") and
             open(os.path.join(os.path.dirname(__file__), "..", "configs",
                               "sweep_interior.json")).read()))
        i = cfg["inputs"]
        assert cli.main(["sweep", "--n", str(i["n"]), "--Delta",
                         str(i["Delta"]), "--M", str(i["M"]), "--rho",
                         str(i["rho"]), "--delta", str(i["delta"]), "--vc",
                         str(i["vc"]), "--T-min", str(cfg["T_min"]),
                         "--T-max", str(cfg["T_max"])]) == 0
        out = json.loads(capsys.readouterr().out)
        assert cfg["T_min"] < out["argmin_T"] < cfg["T_max"]

    def test_seqrad_two_constants(self, capsys):
        assert cli.main(["seqrad", "--preset", "two_constants", "--T", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 1.0

    def test_lemma1_small(self, capsys):
        assert cli.main(["lemma1", "--trials", "50", "--n", "500"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violation_rate"] <= 0.05
        assert out["bound"] == 0.3

    @pytest.mark.parametrize("preset", [[], ["--preset", "two_constants"]],
                             ids=["random", "two_constants"])
    def test_seqrad_no_outcomes_exit_2(self, capsys, preset):
        # a complexity over no trees printed as -Infinity, which is not JSON
        assert cli.main(["seqrad", "--zsize", "0", *preset]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "argument --zsize: must be >= 1, got 0"

    @pytest.mark.parametrize("flag", ["--n", "--trials"])
    def test_lemma1_empty_exit_2(self, capsys, flag):
        # a check over no samples or no trials read as a clean pass
        argv = ["lemma1", "--trials", "2", "--n", "10", flag, "0"]
        assert cli.main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"].startswith("n and trials must be >= 1")

    def test_lemma1_default_pinned(self, capsys):
        # the line the per-trial loop printed before trials ran in blocks
        assert cli.main(["lemma1"]) == 0
        assert capsys.readouterr().out == (
            '{"bound": 0.3, "inputs": {"clamp": 5.0, "n": 2000, "rho": 1.0, '
            '"seed": 0, "shift": 0.3, "sigma": 1.0, "trials": 1000}, '
            '"max_gap": 0.3000000000000001, "violation_rate": 0.0, '
            '"violations": 0}\n')

    def test_lemma1_no_spread_no_violations(self, capsys):
        # with sigma 0 each mean is of n equal values; without the rounding
        # slack, 89 of these gaps land an ulp above rho * |shift|
        for k in range(1, 200):
            assert cli.main(["lemma1", "--sigma", "0", "--shift", repr(k / 97),
                             "--trials", "1"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["violations"] == 0, k

    @pytest.mark.parametrize("flag, value, error", [
        ("--rho", "-1", "rho must be positive"),
        ("--rho", "0", "rho must be positive"),
        ("--clamp", "0", "clamp needs lo < hi"),
        ("--clamp", "-1", "clamp needs lo < hi")])
    def test_lemma1_nonpositive_exit_2(self, capsys, flag, value, error):
        # --rho -1 printed a negative bound that every trial violated
        argv = ["lemma1", "--trials", "2", "--n", "10", flag, value]
        assert cli.main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"].startswith(error)

    def test_lemma1_negative_shift(self, capsys):
        # W1 of a translation is |shift|; the bound read -0.3 and every
        # trial violated it
        outs = []
        for shift in ("0.3", "-0.3"):
            assert cli.main(["lemma1", "--trials", "50", "--n", "500",
                             "--shift", shift]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[1]["bound"] == outs[0]["bound"] == 0.3
        assert outs[1]["violations"] == outs[0]["violations"] == 0

    def test_disc_small(self, capsys):
        assert cli.main(["disc", "--T", "4", "--n", "200", "--pool-random",
                         "6", "--pool-snapshots", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["disc"] <= out["t_rho_delta"] + 0.15

    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert "error" in json.loads(capsys.readouterr().out)
