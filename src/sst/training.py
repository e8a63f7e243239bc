"""The training loop: subject-level validation split, paired forward passes,
early stopping on validation macro-F1, best-checkpoint selection, and the
transfer/variance evaluation harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericalError
from .losses import LossConfig, total_loss
from .metrics import MetricsReport, evaluate_metrics
from .model import ModelConfig, ModelParams, cnn_block_forward, fuse, sst_forward
from .optim import CLIP_NORM, AdamState, adam_step, clip_global_norm, zero_grads
from .sampling import (
    SAMPLING_MODES,
    EpochStore,
    PairBatch,
    SamplingMemory,
    draw_pair_batch,
    update_memory,
)


@dataclass
class TrainConfig:
    max_steps: int = 10000
    validate_every: int = 100
    patience: int = 10
    batch_size: int = 64
    lr: float = 0.001
    val_fraction: float = 0.10
    seed: int = 0
    sampling_mode: str = "easy+difficult"
    p0: float = 0.25
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        positive = {
            "max_steps": self.max_steps, "validate_every": self.validate_every,
            "patience": self.patience, "batch_size": self.batch_size, "lr": self.lr,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"train config: {name} must be positive, got {value}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"train config: val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(
                f"train config: sampling_mode must be one of {SAMPLING_MODES}, got {self.sampling_mode!r}"
            )
        if not 0.0 <= self.p0 < 0.5:
            raise ConfigError(f"train config: p0 must be in [0, 0.5), got {self.p0}")


@dataclass
class RunSummary:
    """A run's validation history and the report of its best validation.

    The best validation is the first entry of history with the highest
    macro-F1; best_step, best_val_metric and stopped_early are read off it.
    """
    history: list            # one dict per validation: step, val_loss, macro_f1, accuracy, kappa
    patience: int
    steps_trained: int = 0
    final_report: MetricsReport | None = None

    def _best(self) -> int:
        return max(range(len(self.history)), key=lambda k: self.history[k]["macro_f1"])

    @property
    def best_step(self) -> int:
        return self.history[self._best()]["step"] if self.history else 0

    @property
    def best_val_metric(self) -> float | None:
        return float(self.history[self._best()]["macro_f1"]) if self.history else None

    @property
    def stopped_early(self) -> bool:
        """The validations since the best reached patience."""
        return bool(self.history) and len(self.history) - 1 - self._best() >= self.patience

    def to_dict(self) -> dict:
        return {
            "best_val_metric": self.best_val_metric,
            "best_step": self.best_step,
            "stopped_early": self.stopped_early,
            "steps_trained": self.steps_trained,
            "history": self.history,
            "final_report": self.final_report.to_dict() if self.final_report else None,
        }


def split_subjects(store: EpochStore, val_fraction: float, rng: np.random.Generator):
    """Partition subjects (not epochs) into train and validation stores."""
    spans = store.spans()
    if len(spans) < 2:
        raise DataError(f"need at least 2 subjects to split, store has {len(spans)}")
    order = rng.permutation(len(spans))
    n_val = max(1, int(round(val_fraction * len(spans))))
    if n_val >= len(spans):
        n_val = len(spans) - 1
    val_set = set(order[:n_val].tolist())

    def parts(keep):
        return [(subject, store.signals[first:end], store.labels[first:end])
                for k, (subject, first, end) in enumerate(spans) if (k in val_set) == keep]

    return EpochStore(parts(False)), EpochStore(parts(True))


def sequential_windows(store: EpochStore, S: int) -> np.ndarray:
    """(W, S) record ids of the non-overlapping stride-S windows per subject, in store order."""
    return store.window_starts(S, S)[:, None] + np.arange(S)


def _full_windows(store: EpochStore, S: int, role: str) -> np.ndarray:
    """sequential_windows(store, S); a DataError naming the store's role
    when no subject holds S consecutive epochs."""
    windows = sequential_windows(store, S)
    if not len(windows):
        raise DataError(f"{role} store has no subject with {S} consecutive epochs")
    return windows


def _infer_batches(params, store, windows, model_cfg, batch_size, loss_cfg):
    """Inference with X' := X over fixed windows. Returns (mean loss, report).

    Floating-point overflow is not reported here: weights that overflow the
    model give a non-finite mean loss, which train and transfer_evaluate
    turn into a NumericalError.
    """
    loss_sum = 0.0
    trues, preds = [], []
    with ad.no_grad(), np.errstate(all="ignore"):
        for at in range(0, len(windows), batch_size):
            ids = windows[at : at + batch_size]
            X = ad.Tensor(store.signals[ids])
            Y = store.labels[ids]
            trace = sst_forward(X, X, params, model_cfg)
            breakdown = total_loss(trace, trace, Y, loss_cfg)
            loss_sum += breakdown.total.item() * len(ids)
            trues.append(Y.reshape(-1))
            preds.append(np.argmax(trace.z.data, axis=-1).reshape(-1))
    report = evaluate_metrics(np.concatenate(trues), np.concatenate(preds))
    return loss_sum / len(windows), report


def validate(params: ModelParams, store_val: EpochStore, cfg: TrainConfig,
             model_cfg: ModelConfig):
    """Deterministic scoring pass: sequential windows, companion equal to
    the input. Returns (mean total loss, MetricsReport)."""
    windows = _full_windows(store_val, model_cfg.S, "validation")
    return _infer_batches(params, store_val, windows, model_cfg, cfg.batch_size, cfg.loss)


def train_step(params: ModelParams, adam: AdamState, batch: PairBatch, cfg: TrainConfig,
               model_cfg: ModelConfig, step: int) -> dict[str, float]:
    """One optimizer step on a paired batch; returns the loss parts.

    X and X' are embedded once each and fused in both pairings, (X, X') and
    (X', X), so the shared CNN runs twice and its backward once. The graph
    lives only inside this call.
    """
    o_x = cnn_block_forward(batch.X, params, model_cfg)
    o_xp = cnn_block_forward(batch.Xp, params, model_cfg)
    trace = fuse(o_x, o_xp, params, model_cfg)
    trace_rev = fuse(o_xp, o_x, params, model_cfg)
    breakdown = total_loss(trace, trace_rev, batch.Y, cfg.loss)
    parts = {name: getattr(breakdown, name).item() for name in ("total", "ls", "cos", "kl")}
    if not math.isfinite(parts["total"]):
        raise NumericalError(
            f"non-finite loss at step {step}: total={parts['total']}, "
            f"ls={parts['ls']}, cos={parts['cos']}, kl={parts['kl']}"
        )
    tensors = params.params()
    zero_grads(tensors)
    breakdown.total.backward()
    norm = clip_global_norm(tensors, CLIP_NORM)
    if not math.isfinite(norm):
        # Adam would write it into every parameter, and the loss would show it a step later.
        raise NumericalError(f"non-finite gradient norm at step {step}: {norm}")
    adam_step(tensors, adam, lr=cfg.lr)
    return parts


def train(store: EpochStore, cfg: TrainConfig, model_cfg: ModelConfig):
    """Train with paired batches; return (best params, RunSummary).

    The params returned are those of the best validation macro-F1, or the
    final ones when the run never validated.
    """
    root = np.random.SeedSequence(cfg.seed)
    split_seq, init_seq, sampler_seq = root.spawn(3)
    store_train, store_val = split_subjects(store, cfg.val_fraction, np.random.default_rng(split_seq))
    if cfg.validate_every <= cfg.max_steps:
        _full_windows(store_val, model_cfg.S, "validation")   # fail before any step is spent
    params = ModelParams(model_cfg, np.random.default_rng(init_seq))
    sampler_rng = np.random.default_rng(sampler_seq)

    adam = AdamState(params.params())
    memory = SamplingMemory()
    summary = RunSummary(history=[], patience=cfg.patience)
    best_params = params   # the live params until the first validation

    for step in range(1, cfg.max_steps + 1):
        batch = draw_pair_batch(store_train, memory, cfg.batch_size, model_cfg.S, sampler_rng,
                                p0=cfg.p0, mode=cfg.sampling_mode)
        train_step(params, adam, batch, cfg, model_cfg, step)
        summary.steps_trained = step
        if step % cfg.validate_every:
            continue

        # looked up per call, so a patched or traced sst.training.validate runs here
        val_loss, report = validate(params, store_val, cfg, model_cfg)
        if not math.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss at step {step}")
        update_memory(memory, batch, val_loss)
        summary.history.append({
            "step": step,
            "val_loss": float(val_loss),
            "macro_f1": report.macro_f1,
            "accuracy": report.accuracy,
            "kappa": report.kappa,
        })
        if summary.best_step == step:
            best_params, summary.final_report = params.copy(), report
        elif summary.stopped_early:
            break
    return best_params, summary


def transfer_evaluate(params: ModelParams, store_test: EpochStore, cfg: TrainConfig,
                      model_cfg: ModelConfig) -> MetricsReport:
    """Pure inference over a test store; no fine-tuning, no updates."""
    windows = _full_windows(store_test, model_cfg.S, "test")
    loss, report = _infer_batches(params, store_test, windows, model_cfg, cfg.batch_size, cfg.loss)
    if not math.isfinite(loss):
        raise NumericalError("non-finite test loss: the checkpoint's weights overflow the model")
    return report


def variance_experiment(store_train: EpochStore, store_test: EpochStore, cfg: TrainConfig,
                        model_cfg: ModelConfig, n_runs: int, seeds=None) -> dict:
    """Repeat training under each sampling mode and summarize test metrics.

    seeds defaults to cfg.seed + run index; passing an explicit list (for
    example n_runs copies of one seed) pins every run's randomness.
    """
    if n_runs < 2:
        raise ConfigError(f"variance experiment needs n_runs >= 2, got {n_runs}")
    if seeds is None:
        seeds = [cfg.seed + i for i in range(n_runs)]
    if len(seeds) != n_runs:
        raise ConfigError(f"{len(seeds)} seeds for {n_runs} runs")

    results: dict = {}
    for mode in SAMPLING_MODES:
        runs = []
        for seed in seeds:
            run_cfg = replace(cfg, seed=seed, sampling_mode=mode)
            best_params, _ = train(store_train, run_cfg, model_cfg)
            report = transfer_evaluate(best_params, store_test, run_cfg, model_cfg)
            runs.append({
                "seed": seed,
                "macro_f1": report.macro_f1,
                "accuracy": report.accuracy,
                "kappa": report.kappa,
            })
        summary = {}
        for key in ("macro_f1", "accuracy", "kappa"):
            values = np.array([r[key] for r in runs])
            summary[key] = {"mean": float(values.mean()), "sd": float(values.std())}
        results[mode] = {"runs": runs, "summary": summary}
    return results
