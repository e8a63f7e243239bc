"""Training losses: smoothed cross-entropy, cosine feature alignment between
the two branches, and a temperature-scaled KL term between the forward and
reversed pairings. Total = ls + cos + lam * tau^2 * kl."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, DimensionError
from .model import ForwardTrace


@dataclass
class LossConfig:
    tau: float = 5.0
    lam: float = 1.0
    alpha: float = 0.1

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"loss config: tau must be positive, got {self.tau}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"loss config: alpha must be in [0, 1), got {self.alpha}")
        if self.lam < 0:
            raise ConfigError(f"loss config: lam must be nonnegative, got {self.lam}")


@dataclass
class LossBreakdown:
    """Scalar component tensors; total keeps the graph for backward."""

    ls: Tensor
    cos: Tensor
    kl: Tensor
    total: Tensor


def scaled_log_probs(z: Tensor, tau: float) -> Tensor:
    """Log-softmax of z/tau along the class axis."""
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    return ad.log_softmax(ad.scale(z, 1.0 / tau), axis=-1)


def label_smoothing_loss(z: Tensor, y: np.ndarray, alpha: float, tau: float) -> Tensor:
    """Cross-entropy against (1-alpha)*onehot + alpha/K targets on z/tau, K classes."""
    if z.ndim != 3:
        raise DimensionError(f"logits must be (B, S, n_classes), got {z.shape}")
    B, S, K = z.shape
    y = np.asarray(y)
    if y.shape != (B, S):
        raise DimensionError(f"labels must be ({B}, {S}), got {y.shape}")
    bad = (y < 0) | (y >= K)
    if np.any(bad):
        b, s = np.argwhere(bad)[0]
        raise DataError(f"label out of range at position (b={b}, s={s}): {y[b, s]}")
    q = np.full((B, S, K), alpha / K)
    np.put_along_axis(q, y[..., None], alpha / K + (1.0 - alpha), axis=-1)
    logp = scaled_log_probs(z, tau)
    return ad.scale(ad.sum_(Tensor(q) * logp), -1.0 / (B * S))


def cosine_alignment_loss(o_x: Tensor, o_xp: Tensor) -> Tensor:
    """1 minus the mean cosine similarity of flattened per-position rows.

    The squared norms are multiplied before the single square root so that
    identical rows score exactly 1; all-zero rows score 0 by clamping.
    """
    if o_x.shape != o_xp.shape:
        raise DimensionError(f"aligned features must share a shape: {o_x.shape} vs {o_xp.shape}")
    n = o_x.shape[0]
    a = o_x.reshape(n, -1)
    b = o_xp.reshape(n, -1)
    num = ad.sum_(a * b, axis=1)
    sq = ad.sum_(a * a, axis=1) * ad.sum_(b * b, axis=1)
    sim = num / ad.sqrt(ad.clamp_min(sq, 1e-300))
    return ad.shift(ad.neg(ad.mean(sim)), 1.0)


def distillation_kl_loss(z_fwd: Tensor, z_rev: Tensor, tau: float) -> Tensor:
    """Mean KL(P_fwd || P_rev) of tau-scaled class distributions.

    No stop-gradient: both pairings receive gradient.
    """
    if z_fwd.shape != z_rev.shape:
        raise DimensionError(f"paired logits must share a shape: {z_fwd.shape} vs {z_rev.shape}")
    B, S = z_fwd.shape[0], z_fwd.shape[1]
    lp_f = scaled_log_probs(z_fwd, tau)
    lp_r = scaled_log_probs(z_rev, tau)
    per_entry = ad.exp(lp_f) * (lp_f - lp_r)
    return ad.scale(ad.sum_(per_entry), 1.0 / (B * S))


def total_loss(trace: ForwardTrace, trace_rev: ForwardTrace, y: np.ndarray, cfg: LossConfig) -> LossBreakdown:
    """Combine the three losses on a forward/reverse trace pair."""
    ls = label_smoothing_loss(trace.z, y, cfg.alpha, cfg.tau)
    cos = cosine_alignment_loss(trace.o_cnn_x, trace.o_cnn_xp)
    kl = distillation_kl_loss(trace.z, trace_rev.z, cfg.tau)
    total = ls + cos + ad.scale(kl, cfg.lam * cfg.tau**2)
    return LossBreakdown(ls=ls, cos=cos, kl=kl, total=total)
