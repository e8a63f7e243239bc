"""The scored task, one of five sleep stages per 30-second epoch, and its
metrics: confusion matrix, per-class and macro F1, accuracy, Cohen's kappa."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

EPOCH_S = 30                                  # seconds per scored epoch
STAGE_NAMES = ("W", "N1", "N2", "N3", "REM")  # label k is STAGE_NAMES[k]
N_CLASSES = len(STAGE_NAMES)


@dataclass
class MetricsReport:
    confusion: np.ndarray        # (N_CLASSES, N_CLASSES) counts, rows = true, cols = predicted
    per_class_f1: list
    macro_f1: float
    accuracy: float
    kappa: float

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "per_class_f1": [float(v) for v in self.per_class_f1],
            "macro_f1": float(self.macro_f1),
            "accuracy": float(self.accuracy),
            "kappa": float(self.kappa),
        }


def evaluate_metrics(true_labels, pred_labels) -> MetricsReport:
    """Count-based metrics. Zero-support classes score F1 = 0 and still
    enter the macro average; kappa is 0 when chance agreement is total."""
    t = np.asarray(true_labels, dtype=np.int64).reshape(-1)
    p = np.asarray(pred_labels, dtype=np.int64).reshape(-1)
    if t.shape != p.shape:
        raise ContractError(f"label vectors differ in length: {t.shape[0]} vs {p.shape[0]}")
    if t.size == 0:
        raise ContractError("cannot score empty label vectors")
    for name, arr in (("true", t), ("predicted", p)):
        if arr.min() < 0 or arr.max() >= N_CLASSES:
            raise DataError(f"{name} labels leave 0..{N_CLASSES - 1}")

    confusion = np.bincount(t * N_CLASSES + p, minlength=N_CLASSES * N_CLASSES)
    confusion = confusion.reshape(N_CLASSES, N_CLASSES)

    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    denom = 2.0 * tp + fp + fn
    f1 = np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)

    n = confusion.sum()
    accuracy = float(tp.sum() / n)
    p_e = float((confusion.sum(axis=1) * confusion.sum(axis=0)).sum() / (n * n))
    kappa = 0.0 if p_e == 1.0 else (accuracy - p_e) / (1.0 - p_e)

    return MetricsReport(
        confusion=confusion,
        per_class_f1=[float(v) for v in f1],
        macro_f1=float(f1.mean()),
        accuracy=accuracy,
        kappa=float(kappa),
    )
