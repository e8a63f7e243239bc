"""Run-config parsing: sections, keys, types, aliases."""

import dataclasses
import pathlib
import re

import pytest

from sst.config import _LOSS_ALIASES, _TRAIN_KEYS, DataConfig, load_run_config
from sst.errors import ConfigError
from sst.losses import LossConfig
from sst.model import ModelConfig
from sst.optim import BETAS, CLIP_NORM, WEIGHT_DECAY

GOOD = """\
[data]
source = synth
subjects = 4
epochs = 30

[model]
fs = 10
S = 2
D = 8
N = 2
A = 2
head_dim = 4
d = 1
ffn_dim = 16

[loss]
tau = 5.0
lambda = 0.5
alpha = 0.1

[train]
max_steps = 20
lr = 0.01
seed = 7
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_full_config_round_trip(tmp_path):
    run = load_run_config(write(tmp_path, GOOD))
    assert run.data.source == "synth"
    assert run.data.subjects == 4
    assert run.model.fs == 10 and run.model.D == 8
    assert run.model.T == 300
    assert run.train.max_steps == 20
    assert run.train.lr == 0.01
    assert run.train.seed == 7
    assert run.train.loss.tau == 5.0
    assert run.train.loss.alpha == 0.1


def test_lambda_key_maps_to_lam_attribute(tmp_path):
    run = load_run_config(write(tmp_path, GOOD))
    assert run.train.loss.lam == 0.5


def test_defaults_fill_missing_keys(tmp_path):
    text = GOOD.replace("max_steps = 20\n", "").replace("lr = 0.01\n", "")
    run = load_run_config(write(tmp_path, text))
    assert run.train.max_steps == 10000
    assert run.train.lr == 0.001
    assert run.train.validate_every == 100
    assert run.train.patience == 10
    assert run.train.batch_size == 64
    assert (BETAS, WEIGHT_DECAY, CLIP_NORM) == ((0.9, 0.999), 0.0001, 5.0)
    assert run.train.val_fraction == 0.10


def test_loss_section_optional(tmp_path):
    text = GOOD[: GOOD.index("[loss]")] + GOOD[GOOD.index("[train]") :]
    run = load_run_config(write(tmp_path, text))
    assert run.train.loss.tau == 5.0
    assert run.train.loss.lam == 1.0


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no-such"):
        load_run_config(str(tmp_path / "no-such.ini"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="extras"):
        load_run_config(write(tmp_path, GOOD + "\n[extras]\nx = 1\n"))


def test_unknown_key_named_with_section(tmp_path):
    bad = GOOD.replace("max_steps = 20", "maximum_steps = 20")
    with pytest.raises(ConfigError, match=r"maximum_steps.*\[train\]"):
        load_run_config(write(tmp_path, bad))


def test_unknown_model_key(tmp_path):
    bad = GOOD.replace("ffn_dim = 16", "ffn = 16")
    with pytest.raises(ConfigError, match=r"'ffn'"):
        load_run_config(write(tmp_path, bad))


def test_missing_source_key(tmp_path):
    bad = GOOD.replace("source = synth\n", "")
    with pytest.raises(ConfigError, match=r"source.*\[data\]"):
        load_run_config(write(tmp_path, bad))


def test_edf_source_requires_path(tmp_path):
    bad = GOOD.replace("source = synth", "source = edf")
    with pytest.raises(ConfigError, match=r"path.*\[data\]"):
        load_run_config(write(tmp_path, bad))


def test_bad_source_value(tmp_path):
    bad = GOOD.replace("source = synth", "source = csv")
    with pytest.raises(ConfigError, match="csv"):
        load_run_config(write(tmp_path, bad))


def test_non_numeric_value_names_key(tmp_path):
    bad = GOOD.replace("max_steps = 20", "max_steps = soon")
    with pytest.raises(ConfigError, match="max_steps"):
        load_run_config(write(tmp_path, bad))


def test_float_rejected_for_int_key(tmp_path):
    bad = GOOD.replace("max_steps = 20", "max_steps = 20.5")
    with pytest.raises(ConfigError, match="max_steps"):
        load_run_config(write(tmp_path, bad))


def test_model_keys_keep_case(tmp_path):
    # configparser lowercases keys by default; S/D/N/A must survive
    run = load_run_config(write(tmp_path, GOOD))
    assert run.model.S == 2 and run.model.N == 2 and run.model.A == 2


def test_model_validation_still_applies(tmp_path):
    bad = GOOD.replace("head_dim = 4", "head_dim = 3")
    with pytest.raises(ConfigError):
        load_run_config(write(tmp_path, bad))


def test_head_dim_taken_from_d_over_a(tmp_path):
    run = load_run_config(write(tmp_path, GOOD.replace("head_dim = 4\n", "")))
    assert run.model.head_dim == 4


def test_sampling_mode_string_key(tmp_path):
    text = GOOD + "sampling_mode = easy\n"
    run = load_run_config(write(tmp_path, text))
    assert run.train.sampling_mode == "easy"


def test_seq_len_kept_on_run_config(tmp_path):
    run = load_run_config(write(tmp_path, GOOD + "seq_len = 2\n"))
    assert run.seq_len == 2
    assert not hasattr(run.train, "seq_len")
    assert load_run_config(write(tmp_path, GOOD)).seq_len is None


def test_readme_example_loads(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    run = load_run_config(write(tmp_path, block))
    assert run.data.source == "synth"
    assert run.model.S == 2
    assert run.seq_len is None


def test_readme_names_every_accepted_key():
    # the keys are read off the tables load_run_config parses each section with
    alias_of = {target: alias for alias, target in _LOSS_ALIASES.items()}
    keys = [("data", f.name) for f in dataclasses.fields(DataConfig)]
    keys += [("model", f.name) for f in dataclasses.fields(ModelConfig)]
    keys += [("loss", alias_of.get(f.name, f.name)) for f in dataclasses.fields(LossConfig)]
    keys += [("train", f.name) for f in _TRAIN_KEYS]
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [f"[{s}] {k}" for s, k in keys if f"`[{s}] {k}`" not in readme] == []
