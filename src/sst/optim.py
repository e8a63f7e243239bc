"""Gradient clipping and the Adam optimizer step."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .autodiff import Tensor

# The one optimizer every run uses: Adam's moment decays, its coupled (L2)
# weight decay, and the global-norm ceiling train_step clips gradients to.
BETAS = (0.9, 0.999)
WEIGHT_DECAY = 1e-4
CLIP_NORM = 5.0


class AdamState:
    """Per-parameter first/second moment buffers plus the shared step count.

    Keyed by position, so the same ordered parameter list must be passed to
    every adam_step call.
    """

    def __init__(self, params: Sequence[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.step = 0


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the pre-clip norm. Parameters without gradients contribute 0. A
    norm that is not finite (a NaN or inf gradient, or squares that overflow)
    leaves the gradients as they are, for the caller to reject.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm < norm < math.inf:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def adam_step(
    params: Sequence[Tensor],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = BETAS,
    weight_decay: float = WEIGHT_DECAY,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over `params`.

    Weight decay is coupled (added to the gradient), matching the canonical
    form of the optimizer. Parameters with no gradient are skipped.
    """
    b1, b2 = betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        g = p.grad
        if weight_decay:
            g = g + weight_decay * p.data
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
