"""End-to-end CLI checks: every subcommand, exit codes, output files."""

import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sst.autodiff
import sst.cli
import sst.training
from sst.checkpoint import save_checkpoint
from sst.cli import main
from sst.config import RunConfig, load_run_config
from sst.edf import parse_edf
from sst.errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    NumericalError,
    ParseError,
    SstError,
)
from sst.ingest import labels_from_text, load_edf_store
from sst.model import ModelParams

from conftest import SLOPPY_FIELDS, SLOPPY_IDS, tal_edf, write_sidecar_edf

CONFIG = """\
[data]
source = synth
subjects = 4
epochs = 30
seed = 5
test_subjects = 2
test_epochs = 12
test_seed = 6

[model]
fs = 10
S = 2
D = 8
N = 2
A = 2
head_dim = 4
d = 1
ffn_dim = 16

[train]
max_steps = 6
validate_every = 3
patience = 2
batch_size = 2
seq_len = 2
val_fraction = 0.25
seed = 11
"""

METRIC_KEYS = {"confusion", "per_class_f1", "macro_f1", "accuracy", "kappa", "history"}

FLOAT_KEYS = [("data", "noise_sd"), ("loss", "tau"), ("loss", "lambda"), ("loss", "alpha"),
              ("train", "lr"), ("train", "val_fraction"), ("train", "p0")]


def with_line(section, key, value):
    """CONFIG with `key = value` in [section], replacing the key's own line
    and creating the section when CONFIG has none."""
    text = re.sub(rf"^{key} = .*\n", "", CONFIG, flags=re.M)
    if f"[{section}]\n" not in text:
        return text + f"\n[{section}]\n{key} = {value}\n"
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def random_checkpoint(config_path, tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, ModelParams(load_run_config(config_path).model))
    return path


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sidecar_nights(out_dir, fs, seed=0):
    """Four sidecar-labelled nights of eight epochs of noise at fs Hz, as a
    directory path."""
    out_dir.mkdir()
    rng = np.random.default_rng(seed)
    for k in range(4):
        digital = rng.integers(-30000, 30000, size=8 * 30 * fs, dtype=np.int16)
        labels = "".join(f"{'W123R'[y]}\n" for y in rng.integers(0, 5, size=8))
        write_sidecar_edf(out_dir / f"night{k}", fs, digital, labels)
    return str(out_dir)


class TestTrain:
    def test_writes_outputs_and_exits_zero(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["train", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.ckpt"))
        assert os.path.exists(os.path.join(out, "run_summary.json"))
        metrics = read_json(os.path.join(out, "metrics.json"))
        assert set(metrics) == METRIC_KEYS
        assert np.asarray(metrics["confusion"]).shape == (5, 5)
        table = capsys.readouterr().out
        for column in ("W", "N1", "N2", "N3", "REM", "Mean", "Acc", "Kappa"):
            assert column in table

    def test_run_summary_contents(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        main(["train", "--config", config_path, "--out", out])
        summary = read_json(os.path.join(out, "run_summary.json"))
        assert summary["steps_trained"] == 6
        assert summary["seed"] == 11
        assert "timestamp" in summary
        assert "timestamp" not in read_json(os.path.join(out, "metrics.json"))
        assert len(summary["history"]) == 2

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(CONFIG.replace("max_steps", "steps_max"))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "steps_max" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "variance"])
    def test_seq_len_must_match_model_s(self, tmp_path, capsys, command):
        path = write_config(tmp_path, CONFIG.replace("seq_len = 2", "seq_len = 3"))
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert re.search(r"seq_len = 3.*\[model\] S = 2", capsys.readouterr().err)

    @pytest.mark.parametrize("section,key", [("model", "T"), ("model", "n_classes"),
                                             ("loss", "n_classes"), ("model", "C"),
                                             ("train", "weight_decay"), ("train", "beta1"),
                                             ("train", "beta2"), ("train", "clip_norm")])
    def test_fixed_quantities_are_unknown_keys(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, with_line(section, key, "300" if key == "T" else "5"))
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_seen_at_validation_exits_three(self, tmp_path, capsys):
        text = with_line("train", "lr", "1e200").replace("validate_every = 3", "validate_every = 1")
        path = write_config(tmp_path, text)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert "non-finite validation loss at step 1" in capsys.readouterr().err

    def test_negative_noise_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, with_line("data", "noise_sd", "-5"))
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "[data] noise_sd must be nonnegative, got -5.0" in capsys.readouterr().err

    def test_p0_checked_before_data_loads(self, tmp_path, capsys):
        # with the data loaded first, the missing path would exit 2
        text = with_line("train", "p0", "0.5").replace(
            "source = synth", f"source = edf\npath = {tmp_path / 'absent'}")
        path = write_config(tmp_path, text)
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "p0 must be in [0, 0.5), got 0.5" in capsys.readouterr().err

    def test_validation_without_full_window_exits_two(self, tmp_path, capsys):
        data = tmp_path / "nights"
        data.mkdir()
        cycle = ["Sleep stage W", "Sleep stage 1", "Sleep stage 2", "Sleep stage 3",
                 "Sleep stage R"] * 4
        (data / "long0.edf").write_bytes(tal_edf(10, cycle))
        (data / "long1.edf").write_bytes(tal_edf(10, cycle))
        (data / "short.edf").write_bytes(tal_edf(10, cycle[:1]))
        path = write_config(tmp_path, CONFIG.replace("source = synth",
                                                     f"source = edf\npath = {data}"))
        # seed 4 sends 'short', one epoch against S = 2, to validation
        assert main(["train", "--config", path, "--out", str(tmp_path / "o"), "--seed", "4"]) == 2
        assert ("validation store has no subject with 2 consecutive epochs"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_exits_one(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, with_line(section, key, value))
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"[{section}] {key} = {value!r} is not a finite number" in capsys.readouterr().err

    def test_overflowing_synthetic_signal_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, with_line("data", "noise_sd", "1e308"))
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert re.search(r"record \d+: signal has non-finite values", capsys.readouterr().err)

    def test_missing_config_file_exits_one(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_config_directory_exits_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert f"config path is not a file: {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"# caf\xff\n" + CONFIG.encode("ascii"))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}: not UTF-8 at byte offset 5" in capsys.readouterr().err

    def test_non_ascii_sidecar_exits_two(self, config_path, tmp_path, capsys):
        edf_dir = tmp_path / "edf"
        assert main(["synth", "--config", config_path, "--out", str(edf_dir)]) == 0
        sidecar = edf_dir / "synth001.labels"
        sidecar.write_bytes(b"W\n1\n\xff\n" + sidecar.read_bytes()[6:])
        path = write_config(tmp_path, CONFIG.replace("source = synth",
                                                     f"source = edf\npath = {edf_dir}"))
        assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"{sidecar}: label sidecar line 3 is not ASCII (offset 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("data_fs,fs", [(20, 10), (125, 100)])
    def test_data_at_another_rate_is_read_at_fs(self, tmp_path, data_fs, fs):
        edf_dir = sidecar_nights(tmp_path / "edf", data_fs)
        path = write_config(tmp_path, CONFIG.replace("fs = 10", f"fs = {fs}").replace(
            "source = synth", f"source = edf\npath = {edf_dir}"))
        out = tmp_path / "o"
        assert main(["train", "--config", path, "--out", str(out)]) == 0

        run = load_run_config(path)
        params, _ = sst.training.train(load_edf_store(edf_dir, "EEG", fs), run.train, run.model)
        save_checkpoint(str(tmp_path / "api.ckpt"), params)
        assert (out / "checkpoint.ckpt").read_bytes() == (tmp_path / "api.ckpt").read_bytes()

    def test_seed_flag_changes_run(self, config_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["train", "--config", config_path, "--out", out_a, "--seed", "11"])
        main(["train", "--config", config_path, "--out", out_b, "--seed", "12"])
        hist_a = read_json(os.path.join(out_a, "run_summary.json"))["history"]
        hist_b = read_json(os.path.join(out_b, "run_summary.json"))["history"]
        assert hist_a != hist_b

    def test_seed_flag_zero_overrides_config(self, config_path, tmp_path):
        out_flag = str(tmp_path / "flag")
        out_file = str(tmp_path / "file")
        assert main(["train", "--config", config_path, "--out", out_flag, "--seed", "0"]) == 0
        zero = write_config(tmp_path, CONFIG.replace("seed = 11", "seed = 0"), "zero.ini")
        assert main(["train", "--config", zero, "--out", out_file]) == 0
        flag = read_json(os.path.join(out_flag, "run_summary.json"))
        assert flag["seed"] == 0
        assert flag["history"] == read_json(os.path.join(out_file, "run_summary.json"))["history"]

    def test_repeat_run_identical_outputs(self, config_path, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        main(["train", "--config", config_path, "--out", out_a])
        main(["train", "--config", config_path, "--out", out_b])
        with open(os.path.join(out_a, "checkpoint.ckpt"), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, "checkpoint.ckpt"), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b
        assert (read_json(os.path.join(out_a, "metrics.json"))
                == read_json(os.path.join(out_b, "metrics.json")))
        sum_a = read_json(os.path.join(out_a, "run_summary.json"))
        sum_b = read_json(os.path.join(out_b, "run_summary.json"))
        sum_a.pop("timestamp")
        sum_b.pop("timestamp")
        assert sum_a == sum_b


class TestTransfer:
    def test_evaluates_checkpoint(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["train", "--config", config_path, "--out", out])
        capsys.readouterr()
        tr = str(tmp_path / "tr")
        assert main(["transfer", os.path.join(out, "checkpoint.ckpt"),
                     "--config", config_path, "--out", tr]) == 0
        metrics = read_json(os.path.join(tr, "metrics.json"))
        assert set(metrics) == METRIC_KEYS
        assert metrics["history"] == []
        assert "Kappa" in capsys.readouterr().out

    def test_transfer_deterministic(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        main(["train", "--config", config_path, "--out", out])
        tr_a = str(tmp_path / "a")
        tr_b = str(tmp_path / "b")
        ckpt = os.path.join(out, "checkpoint.ckpt")
        main(["transfer", ckpt, "--config", config_path, "--out", tr_a])
        main(["transfer", ckpt, "--config", config_path, "--out", tr_b])
        with open(os.path.join(tr_a, "metrics.json"), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(tr_b, "metrics.json"), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b

    def test_corrupt_checkpoint_exits_two(self, config_path, tmp_path, capsys):
        ckpt = tmp_path / "mangled.ckpt"
        ckpt.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        assert main(["transfer", str(ckpt), "--config", config_path,
                     "--out", str(tmp_path / "tr")]) == 2
        assert "mangled.ckpt" in capsys.readouterr().err

    def test_resample_to_matches_checkpoint_rate(self, config_path, tmp_path, capsys):
        edf_dir = sidecar_nights(tmp_path / "edf20", 20)
        eval_cfg = write_config(tmp_path, CONFIG.replace(
            "source = synth", f"source = edf\npath = {edf_dir}"), "eval.ini")
        ckpt = random_checkpoint(config_path, tmp_path)
        # the 20 Hz nights are read at the checkpoint's 10 Hz with or without the flag
        assert main(["transfer", ckpt, "--config", eval_cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["transfer", ckpt, "--config", eval_cfg, "--out", str(tmp_path / "b"),
                     "--resample-to", "10"]) == 0
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())
        capsys.readouterr()
        assert main(["transfer", ckpt, "--config", eval_cfg, "--out", str(tmp_path / "c"),
                     "--resample-to", "20"]) == 1
        assert capsys.readouterr().err == (
            "error: --resample-to 20 must equal the checkpoint's fs = 10: "
            "test data is read at that rate\n")
        assert not os.path.exists(tmp_path / "c")

    def test_seq_len_must_match_checkpoint_s(self, config_path, tmp_path, capsys):
        ckpt = random_checkpoint(config_path, tmp_path)
        eval_cfg = write_config(tmp_path, CONFIG.replace("S = 2", "S = 20")
                                .replace("seq_len = 2", "seq_len = 20"), "eval.ini")
        assert main(["transfer", ckpt, "--config", eval_cfg, "--out", str(tmp_path / "tr")]) == 1
        assert re.search(r"seq_len = 20.*checkpoint's S = 2", capsys.readouterr().err)

    def test_test_store_without_full_window_exits_two(self, config_path, tmp_path, capsys):
        eval_cfg = write_config(tmp_path, CONFIG.replace("test_epochs = 12", "test_epochs = 1"),
                                "eval.ini")
        assert main(["transfer", random_checkpoint(config_path, tmp_path), "--config", eval_cfg,
                     "--out", str(tmp_path / "tr")]) == 2
        assert "test store has no subject with 2 consecutive epochs" in capsys.readouterr().err

    def test_checkpoint_config_the_model_rejects_exits_two(self, config_path, tmp_path, capsys):
        ckpt = random_checkpoint(config_path, tmp_path)
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(blob.replace(b"fs=10", b"fs=11", 1))
        assert main(["transfer", ckpt, "--config", config_path,
                     "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert "fs must be even" in err and "(offset 8)" in err

    def test_checkpoint_without_c_line_exits_two(self, config_path, tmp_path, capsys):
        ckpt = random_checkpoint(config_path, tmp_path)
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        # cut the 'C=1' line with its length prefix and count 10 lines instead of 11
        cut = blob.index(b"C=1") - 4
        blob = blob[:8] + struct.pack("<I", 10) + blob[12:cut] + blob[cut + 7:]
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        assert main(["transfer", ckpt, "--config", config_path,
                     "--out", str(tmp_path / "tr")]) == 2
        assert (f"checkpoint config line 'D=8' must be a 'C=' line (offset {cut + 4})"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_resample_rate_exits_one(self, config_path, tmp_path, capsys, rate):
        edf_dir = str(tmp_path / "edf")
        assert main(["synth", "--config", config_path, "--out", edf_dir]) == 0
        eval_cfg = write_config(tmp_path, CONFIG.replace(
            "source = synth", f"source = edf\npath = {edf_dir}"), "eval.ini")
        assert main(["transfer", random_checkpoint(config_path, tmp_path), "--config", eval_cfg,
                     "--out", str(tmp_path / "tr"), "--resample-to", rate]) == 1
        assert (f"--resample-to {rate} must equal the checkpoint's fs = 10"
                in capsys.readouterr().err)


def with_first_shape(blob, config_path, shape):
    """Checkpoint bytes with the rank and extents of the first parameter
    replaced by those of shape."""
    name = ModelParams(load_run_config(config_path).model).named_params()[0][0].encode("ascii")
    at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
    (rank,) = struct.unpack_from("<I", blob, at)
    head = struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
    return blob[:at] + head + blob[at + 4 + 4 * rank:]


# a first parameter of rank 65, and one of rank 4 whose extents multiply to
# 2**64, which wraps to 0 in int64
IMPOSSIBLE_SHAPES = [(1,) * 65, (65536,) * 4]

EXTENTS = st.one_of(st.integers(0, 4), st.just(65536), st.integers(0, 2**32 - 1))


class TestCheckpointMutation:
    """Whatever a checkpoint's bytes, transfer ends in an exit code."""

    @pytest.mark.parametrize("shape", IMPOSSIBLE_SHAPES, ids=["rank65", "wraps_to_0"])
    def test_impossible_parameter_shape_exits_two(self, config_path, tmp_path, capsys, shape):
        ckpt = random_checkpoint(config_path, tmp_path)
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(with_first_shape(blob, config_path, shape))
        assert main(["transfer", ckpt, "--config", config_path,
                     "--out", str(tmp_path / "tr")]) == 2
        assert "model expects" in capsys.readouterr().err

    def test_overflowing_weights_exit_three(self, config_path, tmp_path, capsys):
        params = ModelParams(load_run_config(config_path).model)
        params.named_params()[0][1].data[...] = 1e300
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, params)
        assert main(["transfer", ckpt, "--config", config_path,
                     "--out", str(tmp_path / "tr")]) == 3
        assert "non-finite test loss" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tr")

    def test_overflowing_weights_exit_three_at_paper_widths(self, tmp_path, capsys, monkeypatch):
        # At paper widths the second path's GELUs and convs run split across
        # threads: with both its kernels at 1e300 the second conv overflows in
        # a pool thread, which must not warn under the caller's np.errstate.
        monkeypatch.setattr(sst.autodiff, "_cpus", lambda: 2)
        text = re.sub(r"\[model\]\n(.+\n)+", "[model]\n\n", CONFIG)   # ModelConfig defaults
        text = text.replace("test_epochs = 12", "test_epochs = 20").replace(
            "seq_len = 2", "seq_len = 20")
        config_path = write_config(tmp_path, text)
        params = ModelParams(load_run_config(config_path).model)
        params.conv_b1.data[...] = 1e300
        params.conv_b2.data[...] = 1e300
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, params)
        assert main(["transfer", ckpt, "--config", config_path,
                     "--out", str(tmp_path / "tr")]) == 3
        assert "non-finite test loss" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tr")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.none() | st.lists(EXTENTS, max_size=70).map(tuple),
           patches=st.lists(st.tuples(st.integers(0, 2**16), st.binary(min_size=1, max_size=4)),
                            max_size=3),
           cut=st.none() | st.integers(0, 2**16))
    @example(shape=IMPOSSIBLE_SHAPES[0], patches=[], cut=None)
    @example(shape=IMPOSSIBLE_SHAPES[1], patches=[], cut=None)
    def test_mutated_checkpoint_exits_with_a_code(self, config_path, tmp_path, shape, patches,
                                                  cut):
        ckpt = random_checkpoint(config_path, tmp_path)
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        if shape is not None:
            blob = with_first_shape(blob, config_path, shape)
        for offset, raw in patches:
            offset %= len(blob)
            blob = blob[:offset] + raw + blob[offset + len(raw):]
        if cut is not None:
            blob = blob[: cut % (len(blob) + 1)]
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        assert main(["transfer", ckpt, "--config", config_path,
                     "--out", str(tmp_path / "tr")]) in {0, 1, 2, 3}


class TestInspectEdf:
    @pytest.fixture()
    def edf_file(self, config_path, tmp_path):
        out = str(tmp_path / "edf")
        main(["synth", "--config", config_path, "--out", out])
        return os.path.join(out, "synth000.edf")

    def test_prints_structure(self, edf_file, capsys):
        assert main(["inspect-edf", edf_file]) == 0
        text = capsys.readouterr().out
        assert "n_signals: 1" in text
        assert "fs=10" in text

    def test_prints_annotations(self, tmp_path, capsys):
        path = tmp_path / "night.edf"
        path.write_bytes(tal_edf(10, ["Sleep stage W", "Sleep stage ?", "Sleep stage R"]))
        assert main(["inspect-edf", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "version: '0'\n"
            "patient: 'X'\n"
            "recording: 'X'\n"
            "start: 01.01.00 00.00.00\n"
            "n_signals: 2, n_records: 3, record duration: 30.0 s\n"
            "signal 0: 'EEG Fpz-Cz' fs=10 Hz spr=300 phys=[-100, 100] uV dig=[-32768, 32767]\n"
            "signal 1: 'EDF Annotations' fs=1.06667 Hz spr=32 phys=[-1, 1]  dig=[-32768, 32767]\n"
            "annotations: 3 entries\n"
            "  +0s 30s W\n"
            "  +30s 30s ?\n"
            "  +60s 30s REM\n"
        )
        assert captured.err == ""

    def test_truncated_file_exits_two_with_offset(self, edf_file, tmp_path, capsys):
        with open(edf_file, "rb") as fh:
            blob = fh.read()
        cut = tmp_path / "cut.edf"
        cut.write_bytes(blob[: len(blob) - 11])
        assert main(["inspect-edf", str(cut)]) == 2
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize("field,at,raw", SLOPPY_FIELDS, ids=SLOPPY_IDS)
    def test_sloppy_field_exits_two_naming_it(self, edf_file, tmp_path, capsys, field, at, raw):
        with open(edf_file, "rb") as fh:
            blob = bytearray(fh.read())
        blob[at : at + len(raw)] = raw
        sloppy = tmp_path / "sloppy.edf"
        sloppy.write_bytes(bytes(blob))
        assert main(["inspect-edf", str(sloppy)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and f"(offset {at})" in captured.err

    def test_lenient_flag_is_a_usage_error(self, edf_file):
        assert main(["inspect-edf", edf_file, "--lenient"]) == 1

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["inspect-edf", str(tmp_path / "absent.edf")]) == 2


# a two-signal EDF+ night of four 30 s records at 10 Hz: a 768-byte header,
# then per record 300 EEG samples and 32 samples (64 bytes) of TAL
NIGHT = tal_edf(10, ["Sleep stage W", "Sleep stage 2", "Sleep stage R", "Sleep stage 2"])
FIRST_TAL = 768 + 2 * 300

# where a mutation lands: in the header, in the first record's TAL, or anywhere
POSITIONS = st.one_of(st.integers(0, 767), st.integers(FIRST_TAL, FIRST_TAL + 63),
                      st.integers(0, 2**16))


def mutations_at(positions):
    """A flip, insert or delete at a position drawn from positions."""
    return st.one_of(
        st.tuples(st.just("flip"), positions, st.integers(1, 255)),
        st.tuples(st.just("insert"), positions, st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("delete"), positions, st.integers(1, 4)),
    )


MUTATIONS = mutations_at(POSITIONS)
ANYWHERE = mutations_at(st.integers(0, 2**16))
CUT = st.none() | st.integers(0, 2**16)


def mutate(blob, mutations, cut):
    """blob with each (kind, position, arg) applied in turn, then cut short;
    a flip in an empty blob does nothing."""
    for kind, at, arg in mutations:
        at %= len(blob) + 1
        if kind == "flip":
            if blob:
                at %= len(blob)
                blob = blob[:at] + bytes([blob[at] ^ arg]) + blob[at + 1:]
        elif kind == "insert":
            blob = blob[:at] + arg + blob[at:]
        else:
            blob = blob[:at] + blob[at + arg:]
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    return blob


class TestEdfMutation:
    """Whatever the bytes of an EDF+ night labelled by TAL, inspect-edf and
    transfer end in an exit code."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=st.lists(MUTATIONS, max_size=3), cut=CUT)
    @example(mutations=[("flip", 448, 0xB5 ^ ord("u"))], cut=None)  # signal 0 phys_dim
    @example(mutations=[("flip", FIRST_TAL + 2, 0x15 ^ ord("x"))], cut=None)  # TAL duration
    def test_mutated_night_exits_with_a_code(self, config_path, tmp_path, mutations, cut):
        data = tmp_path / "nights"
        data.mkdir(exist_ok=True)
        night = data / "night.edf"
        night.write_bytes(mutate(NIGHT, mutations, cut))
        eval_cfg = write_config(tmp_path, CONFIG.replace(
            "source = synth", f"source = edf\npath = {data}"), "eval.ini")
        assert main(["inspect-edf", str(night)]) in {0, 1, 2, 3}
        assert main(["transfer", random_checkpoint(config_path, tmp_path), "--config", eval_cfg,
                     "--out", str(tmp_path / "tr"), "--resample-to", "10"]) in {0, 1, 2, 3}


# labels for the four records of NIGHT, one of W123R per line
SIDECAR = b"W\n2\nR\n2\n"


class TestSidecarMutation:
    """Whatever the bytes of a night's label sidecar, transfer ends in an exit code."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=st.lists(ANYWHERE, max_size=3), cut=CUT)
    @example(mutations=[("flip", 0, ord("W") ^ 0xB5)], cut=None)  # a non-ASCII label
    @example(mutations=[("insert", 0, b"W\n")], cut=None)         # more labels than records
    def test_mutated_sidecar_exits_with_a_code(self, config_path, tmp_path, mutations, cut):
        data = tmp_path / "nights"
        data.mkdir(exist_ok=True)
        (data / "night.edf").write_bytes(NIGHT)
        (data / "night.labels").write_bytes(mutate(SIDECAR, mutations, cut))
        eval_cfg = write_config(tmp_path, CONFIG.replace(
            "source = synth", f"source = edf\npath = {data}"), "eval.ini")
        assert main(["transfer", random_checkpoint(config_path, tmp_path), "--config", eval_cfg,
                     "--out", str(tmp_path / "tr")]) in {0, 1, 2, 3}


class TestConfigMutation:
    """Whatever the bytes of a run config, load_run_config returns a RunConfig
    or raises an SstError. The configs are read, not run: a mutated one may
    ask for any amount of data or steps."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=st.lists(ANYWHERE, max_size=3), cut=CUT)
    @example(mutations=[("flip", CONFIG.index("A = 2") + 4, ord("2") ^ ord("0"))], cut=None)
    @example(mutations=[("insert", 0, b"\xff")], cut=None)
    def test_mutated_config_loads_or_raises(self, tmp_path, mutations, cut):
        path = tmp_path / "run.ini"
        path.write_bytes(mutate(CONFIG.encode("ascii"), mutations, cut))
        try:
            run = load_run_config(str(path))
        except SstError:
            return
        assert isinstance(run, RunConfig)


class TestVariance:
    def test_three_mode_table(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "var")
        assert main(["variance", "--config", config_path, "--runs", "2",
                     "--out", out]) == 0
        table = capsys.readouterr().out
        for mode in ("none", "easy", "easy+difficult"):
            assert mode in table
        results = read_json(os.path.join(out, "variance.json"))
        assert set(results) == {"none", "easy", "easy+difficult"}
        for payload in results.values():
            assert len(payload["runs"]) == 2
            for stats in payload["summary"].values():
                assert stats["sd"] >= 0.0

    def test_forced_identical_seeds_give_zero_sd(self, config_path, tmp_path):
        out = str(tmp_path / "var")
        assert main(["variance", "--config", config_path, "--runs", "2",
                     "--seeds", "11,11", "--out", out]) == 0
        results = read_json(os.path.join(out, "variance.json"))
        for payload in results.values():
            for stats in payload["summary"].values():
                assert stats["sd"] == 0.0

    def test_bad_seeds_flag_exits_one(self, config_path, tmp_path, capsys):
        assert main(["variance", "--config", config_path, "--runs", "2",
                     "--seeds", "11;12", "--out", str(tmp_path / "v")]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_one_run_exits_one(self, config_path, tmp_path):
        assert main(["variance", "--config", config_path, "--runs", "1",
                     "--out", str(tmp_path / "v")]) == 1

    def test_edf_data_scores_the_test_path_nights(self, config_path, tmp_path, monkeypatch):
        train_dir, test_dir = tmp_path / "edf", tmp_path / "test"
        assert main(["synth", "--config", config_path, "--out", str(train_dir)]) == 0
        test_dir.mkdir()
        (test_dir / "night.edf").write_bytes(NIGHT)
        scored = []
        real = sst.training.transfer_evaluate

        def spy(params, store_test, cfg, model_cfg):
            scored.append(store_test.subjects)
            return real(params, store_test, cfg, model_cfg)

        monkeypatch.setattr(sst.training, "transfer_evaluate", spy)
        path = write_config(tmp_path, CONFIG.replace(
            "source = synth", f"source = edf\npath = {train_dir}\ntest_path = {test_dir}"))
        assert main(["variance", "--config", path, "--runs", "2",
                     "--out", str(tmp_path / "v")]) == 0
        assert scored == [["night"]] * 6   # 3 sampling modes x 2 runs

    def test_data_at_another_rate_is_read_at_fs(self, config_path, tmp_path):
        train_dir = sidecar_nights(tmp_path / "edf20", 20)
        test_dir = sidecar_nights(tmp_path / "edf10", 10, seed=1)
        path = write_config(tmp_path, CONFIG.replace(
            "source = synth", f"source = edf\npath = {train_dir}\ntest_path = {test_dir}"))
        out = tmp_path / "v"
        assert main(["variance", "--config", path, "--runs", "2", "--out", str(out)]) == 0

        run = load_run_config(path)
        results = sst.training.variance_experiment(
            load_edf_store(train_dir, "EEG", 10), load_edf_store(test_dir, "EEG", 10),
            run.train, run.model, n_runs=2)
        sst.cli._write_json(str(tmp_path / "api.json"), results)
        assert (out / "variance.json").read_bytes() == (tmp_path / "api.json").read_bytes()

    def test_edf_data_without_test_path_exits_one(self, config_path, tmp_path, capsys):
        edf_dir = tmp_path / "edf"
        assert main(["synth", "--config", config_path, "--out", str(edf_dir)]) == 0
        path = write_config(tmp_path, CONFIG.replace("source = synth",
                                                     f"source = edf\npath = {edf_dir}"))
        assert main(["variance", "--config", path, "--runs", "2",
                     "--out", str(tmp_path / "v")]) == 1
        assert "needs [data] test_path" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "v")


class TestWriteJson:
    def test_failed_dump_leaves_previous_file_whole(self, tmp_path):
        path = tmp_path / "metrics.json"
        sst.cli._write_json(str(path), {"macro_f1": 0.5})
        before = path.read_bytes()
        # json.dump writes the "a" entry before it meets the value it cannot encode
        with pytest.raises(TypeError):
            sst.cli._write_json(str(path), {"a": 1, "b": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.json"]


class TestSynth:
    def test_writes_parseable_dataset(self, config_path, tmp_path):
        out = tmp_path / "edf"
        assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
        edfs = sorted(out.glob("*.edf"))
        labels = sorted(out.glob("*.labels"))
        assert len(edfs) == 4 and len(labels) == 4
        with open(edfs[0], "rb") as fh:
            header, traces = parse_edf(fh.read())
        assert header.n_signals == 1
        assert len(traces[0].digital) == 30 * 30 * 10
        decoded = labels_from_text(labels[0].read_text())
        assert decoded.shape == (30,)
        assert set(decoded) <= {0, 1, 2, 3, 4}

    def test_round_trip_trains(self, config_path, tmp_path):
        out = str(tmp_path / "edf")
        main(["synth", "--config", config_path, "--out", out])
        cfg = tmp_path / "edf.ini"
        cfg.write_text(CONFIG.replace("source = synth",
                                      f"source = edf\npath = {out}"))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0

    def test_synth_command_rejects_edf_source(self, config_path, tmp_path):
        cfg = tmp_path / "edf.ini"
        cfg.write_text(CONFIG.replace("source = synth",
                                      f"source = edf\npath = {tmp_path}"))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


# the exit code errors.py documents for each SstError
EXIT_CODES = [(ConfigError, 1), (ContractError, 1), (DimensionError, 1),
              (DataError, 2), (ParseError, 2), (NumericalError, 3)]


class TestExitCodes:
    @pytest.mark.parametrize("error,code", EXIT_CODES, ids=[e.__name__ for e, _ in EXIT_CODES])
    def test_each_error_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(sst.cli, "cmd_inspect_edf", fail)
        assert main(["inspect-edf", "night.edf"]) == code
        assert capsys.readouterr().err == "error: boom\n"


class TestImports:
    def test_cli_leaves_scipy_signal_unimported(self):
        # a fresh interpreter: this test process has scipy.signal from the oracle tests
        src = os.path.dirname(os.path.dirname(sst.cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        code = ("import sys, sst.cli; names = ('scipy.signal', 'sst.training', 'sst.ingest'); "
                "print(*(name in sys.modules for name in names))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True", "True"]


class TestArgparse:
    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_unknown_command_exits_one(self, capsys):
        assert main(["prune"]) == 1
        capsys.readouterr()

    def test_variance_seed_flag_exits_one(self, config_path, tmp_path, capsys):
        # a variance run's seeds are [train] seed plus the run index, or --seeds
        assert main(["variance", "--config", config_path, "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
