"""The dual-input sleep transformer.

Two weight-shared CNN paths turn each 30-second epoch into feature tokens,
a class token and positional encoding are attached, a cross-attention
encoder stack lets the primary branch attend to the companion branch, the
class-token position is pooled into a per-epoch vector, and a second
self-attention stack over the epoch sequence feeds the classification head.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .metrics import EPOCH_S, N_CLASSES

# Input samples in one block of an inference batch's CNN pass (see _embed):
# 4 windows at fs = 100 and S = 10, 2 at the paper's S = 20.
_CNN_BLOCK_SAMPLES = 1 << 17


@dataclass
class ModelConfig:
    """Architectural hyperparameters of the single-channel model."""

    fs: int = 100              # sampling rate, Hz
    S: int = 20                # epochs per sequence
    D: int = 64                # feature dimension
    N: int = 16                # feature tokens after pooling+concat (class token excluded)
    A: int = 8                 # attention heads
    head_dim: int | None = None   # D // A; a value given must equal it
    d: int = 3                 # encoder depth of both stacks
    ffn_dim: int = 128

    def __post_init__(self):
        positive = {
            "fs": self.fs, "S": self.S, "D": self.D, "N": self.N,
            "A": self.A, "ffn_dim": self.ffn_dim,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"model config: {name} must be positive, got {value}")
        if self.d < 0:
            raise ConfigError(f"model config: d must be >= 0, got {self.d}")
        if self.D % self.A != 0:
            raise ConfigError(f"model config: D must be a multiple of A, got D={self.D}, A={self.A}")
        if self.head_dim is None:
            self.head_dim = self.D // self.A
        elif self.head_dim != self.D // self.A:
            raise ConfigError(f"[model] head_dim = {self.head_dim} must equal D/A = {self.D // self.A}")
        if self.N % 2 != 0:
            raise ConfigError(f"model config: N must be even (split across two CNN paths), got {self.N}")
        if self.fs % 2 != 0:
            raise ConfigError(f"model config: fs must be even (one CNN kernel spans fs/2), got {self.fs}")

    @property
    def T(self) -> int:
        """Samples per epoch."""
        return EPOCH_S * self.fs

    def kernel_sizes(self) -> tuple[int, int]:
        return 4 * self.fs, self.fs // 2


@dataclass
class EncoderBlockParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wm: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    we1: Tensor
    we2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _encoder_block(rng: np.random.Generator, cfg: ModelConfig) -> EncoderBlockParams:
    D, F = cfg.D, cfg.ffn_dim
    ones = lambda: Tensor(np.ones(D), requires_grad=True)
    zeros = lambda: Tensor(np.zeros(D), requires_grad=True)
    return EncoderBlockParams(
        wq=_uniform(rng, (D, D), D),
        wk=_uniform(rng, (D, D), D),
        wv=_uniform(rng, (D, D), D),
        wm=_uniform(rng, (D, D), D),
        ln1_gain=ones(),
        ln1_bias=zeros(),
        we1=_uniform(rng, (D, F), D),
        we2=_uniform(rng, (F, D), F),
        ln2_gain=ones(),
        ln2_bias=zeros(),
    )


class ModelParams:
    """All learnable weights.

    The convolution weights are single objects used for both the primary and
    companion inputs, which is what makes the two branches Siamese.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        k_a, k_b = config.kernel_sizes()
        D = config.D
        self.conv_a1 = _uniform(rng, (D, 1, k_a), k_a)
        self.conv_a2 = _uniform(rng, (D, D, 8), D * 8)
        self.conv_b1 = _uniform(rng, (D, 1, k_b), k_b)
        self.conv_b2 = _uniform(rng, (D, D, 8), D * 8)
        self.cls_token = Tensor(rng.normal(0.0, 0.02, size=(1, 1, D)), requires_grad=True)
        self.ete = [_encoder_block(rng, config) for _ in range(config.d)]
        self.se = [_encoder_block(rng, config) for _ in range(config.d)]
        self.w_mlp = _uniform(rng, (D, N_CLASSES), D)

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = [
            ("conv_a1", self.conv_a1),
            ("conv_a2", self.conv_a2),
            ("conv_b1", self.conv_b1),
            ("conv_b2", self.conv_b2),
            ("cls_token", self.cls_token),
        ]
        for stack_name, stack in (("ete", self.ete), ("se", self.se)):
            for i, blk in enumerate(stack):
                for f in dataclasses.fields(blk):
                    out.append((f"{stack_name}.{i}.{f.name}", getattr(blk, f.name)))
        out.append(("w_mlp", self.w_mlp))
        return out

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def copy(self) -> "ModelParams":
        """Independent tensors holding the same values; the config is shared."""
        def clone(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(), requires_grad=t.requires_grad)

        dup = object.__new__(ModelParams)
        for key, value in vars(self).items():
            if isinstance(value, Tensor):
                value = clone(value)
            elif isinstance(value, list):
                value = [EncoderBlockParams(**{k: clone(t) for k, t in vars(blk).items()})
                         for blk in value]
            setattr(dup, key, value)
        return dup


@dataclass
class ForwardTrace:
    """Intermediate activations of one forward pass."""

    o_cnn_x: Tensor   # (B*S, N+1, D)
    o_cnn_xp: Tensor  # (B*S, N+1, D)
    z: Tensor         # (B, S, N_CLASSES)


@functools.cache
def positional_encoding(count: int, D: int) -> Tensor:
    """sin(pos / 10000^(2*floor(n/2)/D) - offset), offset pi/2 for even n, 0 for odd.

    Built once per (count, D) and shared: a read-only constant off the tape.
    """
    pos = np.arange(count, dtype=np.float64)[:, None]
    n = np.arange(D, dtype=np.float64)[None, :]
    denom = np.power(10000.0, 2.0 * np.floor(n / 2.0) / D)
    offset = (1.0 + np.power(-1.0, n)) * np.pi / 4.0
    pe = Tensor(np.sin(pos / denom - offset))
    pe.data.flags.writeable = False
    return pe


def cnn_block_forward(x: Tensor, params: ModelParams, config: ModelConfig) -> Tensor:
    """Epoch batch (B, S, 1, T) -> token sequence (B*S, N+1, D).

    Two convolution paths with kernels 4*fs and fs/2 (each conv+GELU twice,
    stride kernel/4 then 1) are pooled to N/2 tokens apiece, concatenated,
    prefixed with the class token, and offset by the positional encoding.
    """
    if x.ndim != 4 or x.shape[1:] != (config.S, 1, config.T):
        raise DimensionError(
            f"cnn_block_forward expects (B, {config.S}, 1, {config.T}), got {x.shape}"
        )
    B = x.shape[0]
    n = B * config.S
    flat = x.reshape(n, 1, config.T)
    k_a, k_b = config.kernel_sizes()
    half = config.N // 2

    def path(seq, w1, w2, k):
        h = ad.gelu(ad.conv1d(seq, w1, stride=max(1, k // 4)))
        h = ad.gelu(ad.conv1d(h, w2, stride=1))
        pooled = ad.adaptive_avg_pool1d(h, half)      # (n, D, N/2)
        return pooled.permute(0, 2, 1)                # (n, N/2, D)

    tok_a = path(flat, params.conv_a1, params.conv_a2, k_a)
    tok_b = path(flat, params.conv_b1, params.conv_b2, k_b)
    cls = ad.broadcast_to(params.cls_token, (n, 1, config.D))
    tokens = ad.concat([cls, tok_a, tok_b], axis=1)   # (n, N+1, D)
    return tokens + positional_encoding(config.N + 1, config.D)


def multi_head_attention(
    q_in: Tensor,
    c_in: Tensor,
    block: EncoderBlockParams,
    n_heads: int,
) -> Tensor:
    """Attend q_in (n, L_q, D) to context c_in (n, L_c, D).

    Heads are projected slices of single DxD maps; the score divisor is
    sqrt(D), not sqrt(head_dim).
    """
    if q_in.shape[-1] != c_in.shape[-1]:
        raise DimensionError(
            f"attention feature extents differ: {q_in.shape} vs {c_in.shape}"
        )
    n, L_q, D = q_in.shape
    L_c = c_in.shape[1]
    if block.wq.shape[0] != D:
        raise DimensionError(f"attention weights expect D={block.wq.shape[0]}, input has D={D}")
    hd = D // n_heads

    def split_heads(t, L):
        return t.reshape(n, L, n_heads, hd).permute(0, 2, 1, 3)  # (n, A, L, hd)

    q = split_heads(q_in @ block.wq, L_q)
    k = split_heads(c_in @ block.wk, L_c)
    v = split_heads(c_in @ block.wv, L_c)
    scores = (q @ k.permute(0, 1, 3, 2)) * (1.0 / np.sqrt(D))
    attn = ad.softmax(scores, axis=-1)                # (n, A, L_q, L_c)
    mixed = (attn @ v).permute(0, 2, 1, 3).reshape(n, L_q, D)
    return mixed @ block.wm


def encoder_block_forward(
    q_in: Tensor, c_in: Tensor, block: EncoderBlockParams, n_heads: int
) -> Tensor:
    """Post-norm encoder: attention, add&norm, GELU feed-forward, add&norm."""
    m = multi_head_attention(q_in, c_in, block, n_heads)
    l = ad.layernorm(m + q_in, block.ln1_gain, block.ln1_bias)
    dff = ad.gelu(l @ block.we1) @ block.we2
    return ad.layernorm(dff + l, block.ln2_gain, block.ln2_bias)


def fuse(o_x: Tensor, o_xp: Tensor, params: ModelParams, config: ModelConfig) -> ForwardTrace:
    """Everything after the CNN, for one pairing of embedded branches.

    The companion branch o_xp supplies the queries of the cross-attention
    stack while the primary branch o_x supplies keys and values; the
    class-token position is then pooled, re-encoded over the epoch sequence
    with its own positional offset, and projected to class logits.
    """
    if o_x.shape != o_xp.shape:
        raise DimensionError(f"paired embeddings must share a shape: {o_x.shape} vs {o_xp.shape}")
    S = config.S
    B = o_x.shape[0] // S

    stream = o_xp
    for blk in params.ete:
        stream = encoder_block_forward(stream, o_x, blk, config.A)
    o_ete = ad.narrow(stream, 1, 0, 1)                # (B*S, 1, D)

    seq = o_ete.reshape(B, S, config.D) + positional_encoding(S, config.D)
    for blk in params.se:
        seq = encoder_block_forward(seq, seq, blk, config.A)

    z = ad.relu(seq) @ params.w_mlp
    return ForwardTrace(o_cnn_x=o_x, o_cnn_xp=o_xp, z=z)


def _embed(x: Tensor, params: ModelParams, config: ModelConfig) -> Tensor:
    """cnn_block_forward(x, params, config), in blocks of whole windows when
    no tape is being recorded.

    A block holds at most _CNN_BLOCK_SAMPLES input samples, so its activations
    stay in a core's cache; contiguous runs of blocks go to autodiff's pool,
    one run per CPU, and each writes its own rows of the output. The CNN
    computes every row on its own, so the blocks give the bytes of one call.
    """
    per_block = max(1, _CNN_BLOCK_SAMPLES // (config.S * config.T))
    n_blocks = -(-x.shape[0] // per_block)
    if ad.is_grad_enabled() or n_blocks < 2:
        return cnn_block_forward(x, params, config)
    out = np.empty((x.shape[0] * config.S, config.N + 1, config.D))

    def blocks(run):
        for k in range(n_blocks)[run]:
            lo, hi = k * per_block, min((k + 1) * per_block, x.shape[0])
            block = cnn_block_forward(Tensor(x.data[lo:hi]), params, config)
            out[lo * config.S : hi * config.S] = block.data

    ad.parallel(blocks, n_blocks, n_blocks, 1)
    return Tensor(out)


def sst_forward(x: Tensor, xp: Tensor, params: ModelParams, config: ModelConfig) -> ForwardTrace:
    """Full forward pass over a label-matched input pair: embed both inputs
    with the shared CNN, then `fuse`. An input passed as its own companion
    (``xp is x``) is embedded once."""
    if x.shape != xp.shape:
        raise DimensionError(f"paired inputs must share a shape: {x.shape} vs {xp.shape}")
    o_x = _embed(x, params, config)
    o_xp = o_x if xp is x else _embed(xp, params, config)
    return fuse(o_x, o_xp, params, config)
