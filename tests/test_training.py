"""Harness tests: splitting, validation determinism, early stopping, abort on
non-finite loss, transfer checks, and the variance experiment plumbing."""

import numpy as np
import pytest

import sst.model
import sst.training
from sst import autodiff as ad
from sst.checkpoint import save_checkpoint
from sst.errors import ConfigError, DataError, NumericalError
from sst.ingest import synth_dataset
from sst.losses import total_loss
from sst.metrics import evaluate_metrics
from sst.model import ModelConfig, ModelParams, sst_forward
from sst.optim import CLIP_NORM, AdamState
from sst.sampling import EpochStore, SamplingMemory, draw_pair_batch
from sst.training import (
    RunSummary,
    TrainConfig,
    sequential_windows,
    split_subjects,
    train,
    train_step,
    transfer_evaluate,
    validate,
    variance_experiment,
)

TOY_MODEL = dict(fs=10, S=2, D=8, N=2, A=2, head_dim=4, d=1, ffn_dim=16)


def toy_model_config(**overrides):
    return ModelConfig(**{**TOY_MODEL, **overrides})


def toy_train_config(**overrides):
    base = dict(max_steps=4, validate_every=2, patience=2, batch_size=2,
                val_fraction=0.25, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def toy_store(seed=0, subjects=4, epochs=25):
    store = synth_dataset(subjects, epochs, fs=10, noise_sd=0.05,
                          self_transition=0.0, rng=np.random.default_rng(seed))
    assert all(len(w) > 0 for w in store.windows_by_class(2))
    return store


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_steps == 10000
        assert cfg.validate_every == 100
        assert cfg.patience == 10
        assert cfg.batch_size == 64
        assert CLIP_NORM == 5.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(sampling_mode="sometimes")

    def test_p0_range_enforced(self):
        with pytest.raises(ConfigError, match=r"p0 must be in \[0, 0\.5\)"):
            TrainConfig(p0=0.5)
        with pytest.raises(ConfigError, match="p0"):
            TrainConfig(p0=-0.1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="sampling_mode"):
            TrainConfig(sampling_mode="hardest")


class TestSplitSubjects:
    def test_partition_is_disjoint_and_complete(self, rng):
        store = toy_store(subjects=10)
        train_store, val_store = split_subjects(store, 0.2, rng)
        assert set(train_store.subjects).isdisjoint(val_store.subjects)
        assert len(train_store.subjects) == 8
        assert len(val_store.subjects) == 2
        assert len(train_store) + len(val_store) == len(store)

    def test_small_fraction_keeps_one_validator(self, rng):
        store = toy_store(subjects=3)
        train_store, val_store = split_subjects(store, 0.01, rng)
        assert len(val_store.subjects) == 1

    def test_single_subject_rejected(self, rng):
        store = toy_store(subjects=1)
        with pytest.raises(DataError):
            split_subjects(store, 0.5, rng)

    def test_deterministic_under_seed(self):
        store = toy_store(subjects=6)
        a1, b1 = split_subjects(store, 0.3, np.random.default_rng(4))
        a2, b2 = split_subjects(store, 0.3, np.random.default_rng(4))
        assert a1.subjects == a2.subjects
        assert b1.subjects == b2.subjects


class TestSequentialWindows:
    def test_stride_equals_length(self):
        store = toy_store(subjects=2, epochs=7)
        windows = sequential_windows(store, 3)
        assert windows.shape == (4, 3)  # floor(7/3) per subject
        assert len(set(windows.ravel().tolist())) == windows.size
        for w in windows:
            assert sum(first <= w[0] and w[-1] < end for _, first, end in store.spans()) == 1
            assert np.all(np.diff(w) == 1)

    def test_short_subject_contributes_nothing(self, rng):
        parts = [("tiny", rng.standard_normal((1, 1, 4)), [0]),
                 ("big", rng.standard_normal((4, 1, 4)), [1] * 4)]
        windows = sequential_windows(EpochStore(parts), 2)
        assert len(windows) == 2

    def test_windows_never_cross_a_span(self, rng):
        store = EpochStore([(f"s{k}", rng.standard_normal((n, 1, 4)), [0] * n)
                            for k, n in enumerate((5, 1, 4, 3))])
        assert sequential_windows(store, 2).tolist() == [[0, 1], [2, 3], [6, 7], [8, 9], [10, 11]]
        assert sequential_windows(store, 3).tolist() == [[0, 1, 2], [6, 7, 8], [10, 11, 12]]
        assert sequential_windows(store, 6).shape == (0, 6)


class TestValidate:
    def test_repeated_calls_identical(self):
        store = toy_store(subjects=2, epochs=6)
        model_cfg = toy_model_config()
        params = ModelParams(model_cfg, np.random.default_rng(1))
        cfg = toy_train_config()
        loss1, report1 = validate(params, store, cfg, model_cfg)
        loss2, report2 = validate(params, store, cfg, model_cfg)
        assert loss1 == loss2
        np.testing.assert_array_equal(report1.confusion, report2.confusion)
        assert report1.macro_f1 == report2.macro_f1

    def test_zeroed_model_predicts_one_class(self):
        store = toy_store(subjects=2, epochs=6)
        model_cfg = toy_model_config()
        params = ModelParams(model_cfg, np.random.default_rng(1))
        for tensor in params.params():
            tensor.data = np.zeros_like(tensor.data)
        val_loss, report = validate(params, store, cfg := toy_train_config(), model_cfg)
        # uniform logits: smoothed cross-entropy of a uniform distribution
        assert val_loss == pytest.approx(-np.log(0.2), abs=1e-9)
        assert report.kappa == 0.0
        assert report.confusion[:, 1:].sum() == 0

    def test_too_short_store_rejected(self):
        store = toy_store(subjects=2, epochs=6)
        model_cfg = toy_model_config(S=7)
        params = ModelParams(model_cfg, np.random.default_rng(1))
        with pytest.raises(DataError):
            validate(params, store, toy_train_config(), model_cfg)


class TestTrain:
    def test_smoke_run_shapes(self):
        store = toy_store()
        params, summary = train(store, toy_train_config(), toy_model_config())
        assert summary.steps_trained == 4
        assert len(summary.history) == 2
        assert {"step", "val_loss", "macro_f1", "accuracy", "kappa"} <= set(summary.history[0])
        assert summary.best_step in (2, 4)
        assert summary.best_step <= summary.steps_trained
        assert summary.final_report is not None

    def test_no_validation_when_interval_exceeds_steps(self):
        store = toy_store()
        params, summary = train(store, toy_train_config(max_steps=1, validate_every=5),
                                toy_model_config())
        assert summary.history == []
        assert summary.best_val_metric is None
        assert summary.steps_trained == 1

    def test_early_stopping_after_exact_patience(self, monkeypatch):
        store = toy_store()
        scores = iter([0.1, 0.2, 0.3] + [0.3] * 50)
        seen_steps = []

        def scripted(params, store_val, cfg, model_cfg):
            seen_steps.append(len(seen_steps))
            f1 = next(scores)
            report = evaluate_metrics([0, 1], [0, 1])
            report.macro_f1 = f1
            return 1.0, report

        cfg = toy_train_config(max_steps=1000, validate_every=2, patience=4)
        monkeypatch.setattr(sst.training, "validate", scripted)
        params, summary = train(store, cfg, toy_model_config())
        # 3 improving validations, then exactly 4 more
        assert len(summary.history) == 7
        assert summary.steps_trained == 14
        assert summary.stopped_early is True
        assert summary.best_step == 6
        assert summary.best_val_metric == pytest.approx(0.3)

    def test_stopping_waits_while_improvement_continues(self, monkeypatch):
        store = toy_store()
        scores = iter([0.1, 0.05, 0.2, 0.05, 0.3, 0.05, 0.05])

        def scripted(params, store_val, cfg, model_cfg):
            report = evaluate_metrics([0, 1], [0, 1])
            report.macro_f1 = next(scores)
            return 1.0, report

        cfg = toy_train_config(max_steps=14, validate_every=2, patience=2)
        monkeypatch.setattr(sst.training, "validate", scripted)
        params, summary = train(store, cfg, toy_model_config())
        assert summary.stopped_early is True
        assert len(summary.history) == 7
        assert summary.best_step == 10

    def test_best_checkpoint_is_from_best_validation(self, monkeypatch):
        store = toy_store()
        snapshots = []
        scores = iter([0.5, 0.9, 0.1, 0.1, 0.1])

        def scripted(params, store_val, cfg, model_cfg):
            snapshots.append(params.w_mlp.data.copy())
            report = evaluate_metrics([0, 1], [0, 1])
            report.macro_f1 = next(scores)
            return 1.0, report

        cfg = toy_train_config(max_steps=1000, validate_every=2, patience=3)
        monkeypatch.setattr(sst.training, "validate", scripted)
        params, summary = train(store, cfg, toy_model_config())
        assert summary.best_step == 4
        np.testing.assert_array_equal(params.w_mlp.data, snapshots[1])
        assert not np.array_equal(snapshots[1], snapshots[2])

    def test_deterministic_under_seed(self):
        store = toy_store()
        cfg = toy_train_config()
        model_cfg = toy_model_config()
        params1, summary1 = train(store, cfg, model_cfg)
        params2, summary2 = train(store, cfg, model_cfg)
        assert summary1.history == summary2.history
        for (_, a), (_, b) in zip(params1.named_params(), params2.named_params()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_seed_changes_run(self):
        store = toy_store()
        _, summary1 = train(store, toy_train_config(seed=0), toy_model_config())
        _, summary2 = train(store, toy_train_config(seed=1), toy_model_config())
        assert summary1.history != summary2.history

    @staticmethod
    def short_validation_store():
        """Two 25-epoch subjects and 'short', one epoch against S = 2, which
        seed 4 sends to validation."""
        long = toy_store(subjects=2)
        parts = [(s, long.signals[first:end], long.labels[first:end])
                 for s, first, end in long.spans()]
        return EpochStore(parts + [("short", long.signals[:1], [0])])

    def test_validation_without_full_window_fails_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(sst.training, "train_step", lambda *args: steps.append(args[-1]))
        with pytest.raises(DataError, match="validation store has no subject with 2 consecutive"):
            train(self.short_validation_store(), toy_train_config(seed=4), toy_model_config())
        assert steps == []

    def test_short_validation_store_trains_when_never_validated(self, monkeypatch):
        steps = []
        monkeypatch.setattr(sst.training, "train_step", lambda *args: steps.append(args[-1]))
        cfg = toy_train_config(seed=4, max_steps=3, validate_every=4)
        _, summary = train(self.short_validation_store(), cfg, toy_model_config())
        assert steps == [1, 2, 3] and summary.history == []

    @pytest.mark.parametrize("loss", [np.nan, np.inf])
    def test_aborts_on_non_finite_validation_loss(self, monkeypatch, loss):
        real = sst.training.validate
        monkeypatch.setattr(sst.training, "validate",
                            lambda *args: (loss, real(*args)[1]))
        with pytest.raises(NumericalError, match="non-finite validation loss at step 2"):
            train(toy_store(), toy_train_config(), toy_model_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborts_on_non_finite_loss(self, rng):
        store = EpochStore([(f"s{k}", np.full((8, 1, 300), 1e200), [(i + k) % 5 for i in range(8)])
                            for k in range(2)])
        with pytest.raises(NumericalError, match="step 1"):
            train(store, toy_train_config(), toy_model_config())


def count_embeddings(monkeypatch):
    """Count cnn_block_forward calls wherever training or the model looks it up."""
    calls = []
    real = sst.model.cnn_block_forward

    def counted(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(sst.training, "cnn_block_forward", counted)
    monkeypatch.setattr(sst.model, "cnn_block_forward", counted)
    return calls


class TestTrainStep:
    def test_fused_gradients_match_two_full_forwards(self, monkeypatch):
        monkeypatch.setattr(sst.training, "CLIP_NORM", 1e12)   # compare unclipped gradients
        store = toy_store()
        model_cfg = toy_model_config(d=2)
        cfg = toy_train_config(batch_size=3)
        batch = draw_pair_batch(store, SamplingMemory(), cfg.batch_size,
                                model_cfg.S, np.random.default_rng(5), p0=0.25, mode="none")
        fused = ModelParams(model_cfg, np.random.default_rng(2))
        reference = fused.copy()

        parts = train_step(fused, AdamState(fused.params()), batch, cfg, model_cfg, 1)

        trace = sst_forward(batch.X, batch.Xp, reference, model_cfg)
        trace_rev = sst_forward(batch.Xp, batch.X, reference, model_cfg)
        loss = total_loss(trace, trace_rev, batch.Y, cfg.loss).total
        ad.backward(loss)
        assert parts["total"] == loss.item()
        for (name, a), (_, b) in zip(fused.named_params(), reference.named_params()):
            scale = np.linalg.norm(b.grad)
            assert scale > 0, name
            assert np.linalg.norm(a.grad - b.grad) <= 1e-12 * scale, name

    def test_each_input_embedded_once(self, monkeypatch):
        calls = count_embeddings(monkeypatch)
        store = toy_store()
        model_cfg = toy_model_config()
        cfg = toy_train_config(max_steps=3, validate_every=10, batch_size=3)
        params, _ = train(store, cfg, model_cfg)
        assert calls == [3] * 6            # X and X' once per step

        del calls[:]
        windows = sequential_windows(store, model_cfg.S)
        validate(params, store, cfg, model_cfg)
        n_batches = -(-len(windows) // cfg.batch_size)
        assert len(calls) == n_batches     # X' := X is embedded once per batch
        assert sum(calls) == len(windows)

    def test_checkpoints_byte_identical_under_seed(self, tmp_path):
        store = toy_store()
        cfg = toy_train_config(max_steps=6, validate_every=2, patience=10)
        model_cfg = toy_model_config(d=2)
        blobs = []
        for run in ("a", "b"):
            params, _ = train(store, cfg, model_cfg)
            path = tmp_path / f"{run}.ckpt"
            save_checkpoint(str(path), params)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestTransferEvaluate:
    def test_matches_validate_on_same_store(self):
        store = toy_store(subjects=2, epochs=6)
        model_cfg = toy_model_config()
        params = ModelParams(model_cfg, np.random.default_rng(3))
        cfg = toy_train_config()
        _, val_report = validate(params, store, cfg, model_cfg)
        transfer_report = transfer_evaluate(params, store, cfg, model_cfg)
        np.testing.assert_array_equal(val_report.confusion, transfer_report.confusion)
        assert val_report.macro_f1 == transfer_report.macro_f1


class TestVarianceExperiment:
    def test_identical_seeds_give_zero_sd(self):
        store = toy_store()
        test_store = toy_store(seed=9, subjects=2, epochs=8)
        cfg = toy_train_config()
        results = variance_experiment(store, test_store, cfg, toy_model_config(),
                                      n_runs=2, seeds=[7, 7])
        assert set(results) == {"none", "easy", "easy+difficult"}
        for mode_result in results.values():
            for key in ("macro_f1", "accuracy", "kappa"):
                assert mode_result["summary"][key]["sd"] == 0.0

    def test_row_per_mode(self):
        store = toy_store()
        test_store = toy_store(seed=9, subjects=2, epochs=8)
        cfg = toy_train_config(max_steps=2)
        results = variance_experiment(store, test_store, cfg, toy_model_config(), n_runs=2)
        assert set(results) == {"none", "easy", "easy+difficult"}
        for mode_result in results.values():
            assert len(mode_result["runs"]) == 2
            assert mode_result["summary"]["macro_f1"]["sd"] >= 0.0

    def test_requires_two_runs(self):
        store = toy_store()
        with pytest.raises(ConfigError):
            variance_experiment(store, store, toy_train_config(), toy_model_config(), n_runs=1)
