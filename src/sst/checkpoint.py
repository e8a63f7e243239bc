"""Flat binary checkpoints.

Layout: an 8-byte magic, a length-prefixed block of key=value config lines,
then each parameter as (name length, name, rank, extents, float64 payload).
All integers are uint32 little-endian and all floats are float64
little-endian, so a save/load round trip is bit exact.
"""

from __future__ import annotations

import dataclasses
import os
import struct

import numpy as np

from .errors import ConfigError, ParseError
from .metrics import N_CLASSES
from .model import ModelConfig, ModelParams

MAGIC = b"SSTCKPT1"


def _config_values(config: ModelConfig) -> dict[str, int]:
    """The fields with C=1 after S, then n_classes and T: the lines the
    single channel, the task and fs fix."""
    fs, S, *rest = dataclasses.asdict(config).items()
    return {**dict([fs, S]), "C": 1, **dict(rest), "n_classes": N_CLASSES, "T": config.T}


def save_checkpoint(path: str, params: ModelParams) -> None:
    chunks = [MAGIC]
    lines = [f"{key}={value}" for key, value in _config_values(params.config).items()]
    chunks.append(struct.pack("<I", len(lines)))
    for line in lines:
        raw = line.encode("ascii")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
    named = params.named_params()
    chunks.append(struct.pack("<I", len(named)))
    for name, tensor in named:
        raw = name.encode("ascii")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    # written beside the target and renamed over it, so an interrupted save
    # leaves the previous checkpoint whole
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ParseError(
                f"checkpoint truncated: wanted {n} bytes, file ends", offset=self.pos
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> tuple[str, int]:
        """A u32-length-prefixed ASCII string and the offset of its first byte."""
        n = self.u32()
        at = self.pos
        try:
            return self.take(n).decode("ascii"), at
        except UnicodeDecodeError:
            raise ParseError(f"checkpoint {what} is not ASCII", offset=at) from None


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.take(len(MAGIC)) != MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic", offset=0)

    # The block must be exactly the lines save_checkpoint writes: first the
    # keys, in the order every config writes them, then the values.
    block_at = cur.pos
    lines = [cur.text("config line") for _ in range(cur.u32())]
    keys = list(_config_values(ModelConfig()))
    fields = {}
    for i, key in enumerate(keys):
        if i == len(lines):
            raise ParseError(f"checkpoint config block ends where its '{key}' line belongs",
                             offset=cur.pos)
        line, at = lines[i]
        name, _, value = line.partition("=")
        if name != key:
            raise ParseError(f"checkpoint config line '{line}' must be a '{key}=' line", offset=at)
        try:
            fields[name] = int(value)
        except ValueError:
            raise ParseError(f"checkpoint config line {line!r} has no integer value", offset=at) from None
    if len(lines) > len(keys):
        line, at = lines[len(keys)]
        raise ParseError(f"checkpoint config has an extra line '{line}'", offset=at)
    try:
        config = ModelConfig(**{f.name: fields[f.name] for f in dataclasses.fields(ModelConfig)})
    except ConfigError as exc:
        raise ParseError(f"checkpoint config rejected: {exc}", offset=block_at) from None
    for (line, at), (key, value) in zip(lines, _config_values(config).items()):
        if line != f"{key}={value}":
            raise ParseError(f"checkpoint config line '{line}' must be '{key}={value}'", offset=at)

    params = ModelParams(config)
    by_name = dict(params.named_params())
    seen = set()
    for _ in range(cur.u32()):
        name, _ = cur.text("parameter name")
        rank = cur.u32()
        shape = struct.unpack(f"<{rank}I", cur.take(4 * rank))
        at = cur.pos
        # checked before the payload is read, so its size is the model's
        if name not in by_name:
            raise ParseError(f"checkpoint has unknown parameter {name!r}", offset=at)
        if by_name[name].shape != shape:
            raise ParseError(
                f"checkpoint parameter {name!r} has shape {shape}, "
                f"model expects {by_name[name].shape}",
                offset=at,
            )
        data = np.frombuffer(cur.take(8 * by_name[name].data.size), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise ParseError(f"checkpoint parameter {name!r} has non-finite values", offset=at)
        by_name[name].data = data.astype(np.float64)
        seen.add(name)
    missing = sorted(set(by_name) - seen)
    if missing:
        raise ParseError(f"checkpoint missing parameters: {', '.join(missing)}")
    if cur.pos != len(cur.buf):
        raise ParseError("checkpoint has trailing bytes", offset=cur.pos)
    return params
