"""Acceptance gate: the end-to-end properties this package promises.

Each class checks one headline property at its stated tolerance, on
configurations small enough to run on a desktop. Everything here goes
through public interfaces only.
"""

import json
import os
import time

import numpy as np
import pytest

import sst.autodiff as ad
import sst.training
from sst.autodiff import Tensor
from sst.cli import main
from sst.edf import (
    EdfHeader,
    EdfSignalHeader,
    parse_edf,
    parse_tal_annotations,
    write_edf,
)
from sst.errors import ParseError
from sst.ingest import resample, synth_dataset
from sst.losses import LossConfig, total_loss
from sst.metrics import MetricsReport, evaluate_metrics
from sst.model import ModelConfig, ModelParams, multi_head_attention, sst_forward
from sst.sampling import EpochStore, SamplingMemory, draw_pair_batch, update_memory
from sst.training import TrainConfig, train, transfer_evaluate

TOY = dict(fs=10, S=4, D=16, N=4, A=4, head_dim=4, d=1, ffn_dim=32)


# the TrainConfig defaults of the reuse probability and the sampling mode
DRAW = {"p0": 0.25, "mode": "easy+difficult"}


def toy_store(subjects=4, epochs=25, seed=77):
    """Small synthetic store guaranteed to cover every class."""
    store = synth_dataset(subjects, epochs, fs=10, noise_sd=0.05,
                          self_transition=0.0, rng=np.random.default_rng(seed))
    for c, windows in enumerate(store.windows_by_class(2)):
        assert windows, f"fixture gap: no window for class {c}"
    return store


class TestEndToEndGradients:
    """Backward pass of the full paired forward + combined loss agrees with
    central finite differences on every parameter group (rel err < 1e-4)."""

    def test_every_parameter_group(self):
        start = time.time()
        cfg = ModelConfig(**TOY)
        params = ModelParams(cfg, rng=np.random.default_rng(7))
        rng = np.random.default_rng(42)
        B = 2
        X = rng.normal(size=(B, cfg.S, 1, cfg.T))
        Xp = rng.normal(size=(B, cfg.S, 1, cfg.T))
        Y = rng.integers(0, 5, size=(B, cfg.S))
        loss_cfg = LossConfig()

        def full_loss():
            trace = sst_forward(Tensor(X), Tensor(Xp), params, cfg)
            trace_rev = sst_forward(Tensor(Xp), Tensor(X), params, cfg)
            return total_loss(trace, trace_rev, Y, loss_cfg).total

        ad.backward(full_loss())

        h = 1e-5
        pick = np.random.default_rng(0)
        checked = 0
        for name, tensor in params.named_params():
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            for k in pick.choice(flat.size, size=min(4, flat.size), replace=False):
                base = flat[k]
                with ad.no_grad():
                    flat[k] = base + h
                    up = full_loss().item()
                    flat[k] = base - h
                    down = full_loss().item()
                flat[k] = base
                fd = (up - down) / (2 * h)
                rel = abs(grad[k] - fd) / max(abs(grad[k]), abs(fd), 1e-5)
                assert rel < 1e-4, f"{name}[{k}]: analytic {grad[k]:.6e} vs fd {fd:.6e}"
                checked += 1
        assert checked >= 26 * 4 - 4  # every group sampled (cls_token may be smaller)
        assert time.time() - start < 60.0


class TestNormalizationInvariants:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(scale=5.0, size=(1000, 9)))
        sums = ad.softmax(x, axis=-1).data.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_attention_rows_sum_to_one(self, rng, monkeypatch):
        cfg = ModelConfig(**TOY)
        params = ModelParams(cfg, rng=np.random.default_rng(3))
        q = Tensor(rng.normal(size=(125, 8, cfg.D)))
        c = Tensor(rng.normal(size=(125, 6, cfg.D)))
        captured = []
        softmax = ad.softmax
        monkeypatch.setattr(ad, "softmax",
                            lambda x, axis: captured.append(softmax(x, axis=axis)) or captured[-1])
        multi_head_attention(q, c, params.ete[0], cfg.A)
        (weights,) = [t.data for t in captured]
        sums = weights.sum(axis=-1)
        assert sums.size >= 1000
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_layernorm_row_means_vanish(self, rng):
        D = 24
        x = Tensor(rng.normal(loc=3.0, scale=10.0, size=(1000, D)))
        out = ad.layernorm(x, Tensor(np.ones(D)), Tensor(np.zeros(D)))
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-9


class TestLossDegeneracies:
    def test_identical_inputs_zero_alignment_and_distillation(self, rng):
        cfg = ModelConfig(**TOY)
        params = ModelParams(cfg, rng=np.random.default_rng(5))
        X = rng.normal(size=(2, cfg.S, 1, cfg.T))
        Y = rng.integers(0, 5, size=(2, cfg.S))
        trace = sst_forward(Tensor(X), Tensor(X), params, cfg)
        trace_rev = sst_forward(Tensor(X), Tensor(X), params, cfg)
        breakdown = total_loss(trace, trace_rev, Y, LossConfig())
        assert breakdown.cos.item() == 0.0
        assert breakdown.kl.item() == 0.0
        assert breakdown.total.item() == breakdown.ls.item()

    def test_recomposition_identity(self, rng):
        cfg = ModelConfig(**TOY)
        params = ModelParams(cfg, rng=np.random.default_rng(6))
        X = rng.normal(size=(2, cfg.S, 1, cfg.T))
        Xp = rng.normal(size=(2, cfg.S, 1, cfg.T))
        Y = rng.integers(0, 5, size=(2, cfg.S))
        loss_cfg = LossConfig(tau=5.0, lam=0.7, alpha=0.1)
        trace = sst_forward(Tensor(X), Tensor(Xp), params, cfg)
        trace_rev = sst_forward(Tensor(Xp), Tensor(X), params, cfg)
        b = total_loss(trace, trace_rev, Y, loss_cfg)
        recomposed = (b.ls.item() + b.cos.item()
                      + loss_cfg.lam * loss_cfg.tau**2 * b.kl.item())
        assert abs(b.total.item() - recomposed) <= 1e-12


class TestOverfitAndTransfer:
    """The model must actually learn: near-perfect fit on a separable
    synthetic dataset within 500 steps, and generalization to a fresh draw
    of the same process."""

    def test_learns_separable_oscillations(self):
        start = time.time()
        model_cfg = ModelConfig(**TOY)
        store = synth_dataset(4, 60, fs=10, noise_sd=0.05,
                              rng=np.random.default_rng(100))
        fresh = synth_dataset(2, 40, fs=10, noise_sd=0.05,
                              rng=np.random.default_rng(200))
        cfg = TrainConfig(max_steps=500, validate_every=100, patience=10,
                          batch_size=8, lr=0.001,
                          val_fraction=0.1, seed=3)
        params, summary = train(store, cfg, model_cfg)
        assert summary.steps_trained <= 500

        on_train = transfer_evaluate(params, store, cfg, model_cfg)
        assert on_train.accuracy >= 0.99

        on_fresh = transfer_evaluate(params, fresh, cfg, model_cfg)
        assert on_fresh.macro_f1 >= 0.9
        assert time.time() - start < 600.0


class TestSamplingProtocol:
    @staticmethod
    def flat_store():
        signals = np.repeat(np.arange(50) * 0.01, 4).reshape(50, 1, 4)
        return EpochStore([(subject, signals, np.arange(50) % 5) for subject in ("a", "b")])

    def test_provenance_frequencies(self):
        store = self.flat_store()
        rng = np.random.default_rng(9)
        memory = SamplingMemory()
        update_memory(memory, draw_pair_batch(store, memory, 2, 1, rng, **DRAW), 1.0)
        assert memory.easy is not None and memory.difficult is not None

        counts = {"easy": 0, "difficult": 0, "random": 0}
        n = 100_000
        for _ in range(n):
            counts[draw_pair_batch(store, memory, 2, 1, rng, **DRAW).provenance] += 1
        assert abs(counts["easy"] / n - 0.25) <= 0.01
        assert abs(counts["difficult"] / n - 0.25) <= 0.01
        assert abs(counts["random"] / n - 0.50) <= 0.01

    def test_balanced_anchor_class_frequencies(self):
        store = self.flat_store()
        rng = np.random.default_rng(10)
        memory = SamplingMemory()
        center = np.zeros(5, dtype=np.int64)
        n = 100_000
        for _ in range(n):
            for row in draw_pair_batch(store, memory, 2, 1, rng, p0=0.25, mode="none").Y:
                center[row[0]] += 1
        freqs = center / center.sum()
        assert np.all(np.abs(freqs - 0.2) <= 0.01)

    def test_watermarks_monotone_under_scripted_losses(self):
        store = self.flat_store()
        rng = np.random.default_rng(11)
        memory = SamplingMemory()
        losses = [0.5, 0.8, 0.3, 0.9, 0.1, 0.1, 0.7]
        best_trace, worst_trace = [], []
        for loss in losses:
            update_memory(memory, draw_pair_batch(store, memory, 2, 1, rng, **DRAW), loss)
            best_trace.append(memory.best)
            worst_trace.append(memory.worst)
        assert best_trace == [0.5, 0.5, 0.3, 0.3, 0.1, 0.1, 0.1]
        assert worst_trace == [0.5, 0.8, 0.8, 0.9, 0.9, 0.9, 0.9]
        assert all(a >= b for a, b in zip(best_trace, best_trace[1:]))
        assert all(a <= b for a, b in zip(worst_trace, worst_trace[1:]))


class ScriptedValidator:
    """Returns a scripted quality score; snapshots parameters per call."""

    def __init__(self, scores):
        self.scores = scores
        self.calls = 0
        self.snapshots = []

    def __call__(self, params, store_val, cfg, model_cfg):
        score = self.scores[min(self.calls, len(self.scores) - 1)]
        self.calls += 1
        self.snapshots.append({n: t.data.tobytes() for n, t in params.named_params()})
        report = MetricsReport(np.zeros((5, 5), dtype=np.int64),
                               [score] * 5, score, score, score)
        return 1.0 - score, report


class TestEarlyStopping:
    def test_halts_after_exactly_patience_validations(self, monkeypatch):
        store = toy_store()
        model_cfg = ModelConfig(fs=10, S=2, D=8, N=2, A=2, head_dim=4,
                                d=1, ffn_dim=16)
        cfg = TrainConfig(max_steps=10_000, validate_every=5, patience=10,
                          batch_size=2, val_fraction=0.25, seed=1)
        validator = ScriptedValidator([0.1, 0.2, 0.3, 0.25])
        monkeypatch.setattr(sst.training, "validate", validator)
        params, summary = train(store, cfg, model_cfg)

        # 3 improvements, then exactly 10 non-improving validations
        assert validator.calls == 13
        assert len(summary.history) == 13
        assert summary.stopped_early
        assert summary.steps_trained == 13 * cfg.validate_every
        assert summary.best_step == 3 * cfg.validate_every

    def test_returned_checkpoint_is_from_best_validation(self, monkeypatch):
        store = toy_store()
        model_cfg = ModelConfig(fs=10, S=2, D=8, N=2, A=2, head_dim=4,
                                d=1, ffn_dim=16)
        cfg = TrainConfig(max_steps=10_000, validate_every=5, patience=10,
                          batch_size=2, val_fraction=0.25, seed=1)
        validator = ScriptedValidator([0.1, 0.2, 0.3, 0.25])
        monkeypatch.setattr(sst.training, "validate", validator)
        params, _ = train(store, cfg, model_cfg)
        best = validator.snapshots[2]  # third validation was the best
        for name, tensor in params.named_params():
            assert tensor.data.tobytes() == best[name], name


def metrics_by_counting(true_labels, pred_labels):
    """Independent pure-Python metrics: confusion by explicit loop, the rest
    from its entries."""
    K = 5
    confusion = [[0] * K for _ in range(K)]
    for t, p in zip(true_labels, pred_labels):
        confusion[t][p] += 1
    n = len(true_labels)
    f1 = []
    for c in range(K):
        tp = confusion[c][c]
        fp = sum(confusion[r][c] for r in range(K)) - tp
        fn = sum(confusion[c]) - tp
        f1.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    p_o = sum(confusion[c][c] for c in range(K)) / n
    p_e = sum(sum(confusion[c]) * sum(confusion[r][c] for r in range(K))
              for c in range(K)) / (n * n)
    kappa = 0.0 if p_e == 1.0 else (p_o - p_e) / (1.0 - p_e)
    return confusion, f1, sum(f1) / K, p_o, kappa


class TestMetricsOracle:
    def test_thousand_random_vectors_exact(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            t = rng.integers(0, 5, size=n)
            p = rng.integers(0, 5, size=n)
            report = evaluate_metrics(t, p)
            confusion, f1, macro, acc, kappa = metrics_by_counting(t.tolist(), p.tolist())
            assert report.confusion.tolist() == confusion
            assert report.per_class_f1 == f1
            assert report.macro_f1 == macro
            assert report.accuracy == acc
            assert report.kappa == kappa

    def test_hand_cases(self):
        report = evaluate_metrics([0, 0, 1, 1], [0, 1, 0, 1])
        assert abs(report.accuracy - 0.5) <= 1e-9
        assert abs(report.kappa) <= 1e-9
        assert abs(report.per_class_f1[0] - 0.5) <= 1e-9
        assert abs(report.per_class_f1[1] - 0.5) <= 1e-9

        perfect = evaluate_metrics([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
        assert perfect.macro_f1 == 1.0 and perfect.kappa == 1.0

        constant = evaluate_metrics([0, 1, 2, 3, 4], [2, 2, 2, 2, 2])
        assert abs(constant.accuracy - 0.2) <= 1e-9
        assert abs(constant.kappa) <= 1e-9


class TestEdfRoundTrip:
    @staticmethod
    def fixture(rng):
        signals = [
            EdfSignalHeader(label="EEG Fpz-Cz", transducer="AgAgCl electrode",
                            phys_dim="uV", phys_min=-250.0, phys_max=250.0,
                            dig_min=-2048, dig_max=2047, prefilter="HP:0.5Hz",
                            samples_per_record=100),
            EdfSignalHeader(label="EOG horizontal", transducer="",
                            phys_dim="uV", phys_min=-1000.0, phys_max=1000.0,
                            dig_min=-32768, dig_max=32767, prefilter="",
                            samples_per_record=50),
            EdfSignalHeader(label="Temp rectal", transducer="thermistor",
                            phys_dim="degC", phys_min=30.0, phys_max=42.0,
                            dig_min=0, dig_max=4095, prefilter="",
                            samples_per_record=1),
        ]
        header = EdfHeader(version="0", patient="X F X X", recording="X X X X",
                           start_date="02.03.04", start_time="22.10.00",
                           header_bytes=1024, reserved="", n_records=4,
                           record_duration_s=1.0, n_signals=3, signals=signals)
        digital = [
            rng.integers(s.dig_min, s.dig_max + 1,
                         size=4 * s.samples_per_record).astype(np.int16)
            for s in signals
        ]
        return header, digital

    def test_multi_signal_multi_record_identity(self, rng):
        header, digital = self.fixture(rng)
        blob = write_edf(header, digital)
        parsed_header, traces, warnings = parse_edf(blob)
        assert warnings == []
        assert parsed_header == header
        for trace, original in zip(traces, digital):
            assert np.array_equal(trace.digital, original)
        assert write_edf(parsed_header, [t.digital for t in traces]) == blob

    def test_tal_decodes_documented_hypnogram(self):
        hyp = parse_tal_annotations(b"+0\x1530\x14Sleep stage W\x14\x00")
        assert hyp.entries == [(0.0, 30.0, 0)]

        stream = (b"+0\x1560\x14Sleep stage W\x14\x00"
                  b"+60\x1590\x14Sleep stage 2\x14\x00"
                  b"+150\x1530\x14Sleep stage 4\x14\x00"
                  b"+180\x1530\x14Sleep stage R\x14\x00")
        hyp = parse_tal_annotations(stream)
        assert hyp.entries == [(0.0, 60.0, 0), (60.0, 90.0, 2),
                               (150.0, 30.0, 3), (180.0, 30.0, 4)]

    def test_truncation_rejected_with_offset(self, rng):
        header, digital = self.fixture(rng)
        blob = write_edf(header, digital)
        with pytest.raises(ParseError) as err:
            parse_edf(blob[:-7])
        assert err.value.offset is not None
        assert "offset" in str(err.value)


class TestResampling:
    def test_sample_count_125_to_100(self):
        t = np.arange(3750) / 125.0
        out = resample(np.sin(2 * np.pi * 5.0 * t), 125.0, 100.0)
        assert len(out) == 3000

    def test_sine_amplitude_preserved(self):
        t = np.arange(3750) / 125.0
        out = resample(np.sin(2 * np.pi * 5.0 * t), 125.0, 100.0)
        interior = out[200:-200]
        ideal = np.sin(2 * np.pi * 5.0 * (np.arange(3000) / 100.0))[200:-200]
        assert np.max(np.abs(interior)) == pytest.approx(1.0, rel=0.01)
        assert np.max(np.abs(interior - ideal)) < 0.01


TRAIN_CONFIG = """\
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


class TestDeterminism:
    def test_repeat_training_byte_identical(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(TRAIN_CONFIG)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--config", str(config), "--out", out_a]) == 0
        assert main(["train", "--config", str(config), "--out", out_b]) == 0

        with open(os.path.join(out_a, "checkpoint.ckpt"), "rb") as fh:
            ckpt_a = fh.read()
        with open(os.path.join(out_b, "checkpoint.ckpt"), "rb") as fh:
            ckpt_b = fh.read()
        assert ckpt_a == ckpt_b

        def history(out):
            with open(os.path.join(out, "run_summary.json")) as fh:
                return json.load(fh)["history"]

        assert history(out_a) == history(out_b)

    def test_variance_forced_seeds_zero_sd(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(TRAIN_CONFIG)
        out = str(tmp_path / "var")
        assert main(["variance", "--config", str(config), "--runs", "2",
                     "--seeds", "11,11", "--out", out]) == 0
        with open(os.path.join(out, "variance.json")) as fh:
            results = json.load(fh)
        for payload in results.values():
            for stats in payload["summary"].values():
                assert stats["sd"] == 0.0


class TestVarianceMechanism:
    def test_five_seeds_three_modes(self, tmp_path, capsys):
        start = time.time()
        config = tmp_path / "run.ini"
        config.write_text(TRAIN_CONFIG)
        out = str(tmp_path / "var")
        assert main(["variance", "--config", str(config), "--runs", "5",
                     "--out", out]) == 0
        table = capsys.readouterr().out
        for mode in ("none", "easy", "easy+difficult"):
            assert mode in table
        assert "±" in table

        with open(os.path.join(out, "variance.json")) as fh:
            results = json.load(fh)
        assert set(results) == {"none", "easy", "easy+difficult"}
        for payload in results.values():
            assert len(payload["runs"]) == 5
            assert set(payload["summary"]) >= {"macro_f1", "accuracy", "kappa"}
            for stats in payload["summary"].values():
                assert stats["sd"] >= 0.0
        assert time.time() - start < 3600.0
