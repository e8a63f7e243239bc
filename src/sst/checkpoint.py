"""Flat binary checkpoints.

Layout: an 8-byte magic, a length-prefixed block of key=value config lines,
then each parameter as (name length, name, rank, extents, float64 payload).
All integers are uint32 little-endian and all floats are float64
little-endian, so a save/load round trip is bit exact.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from .errors import ParseError
from .metrics import N_CLASSES
from .model import ModelConfig, ModelParams

MAGIC = b"SSTCKPT1"


def _config_values(config: ModelConfig) -> dict[str, int]:
    """The fields, then n_classes and T, which the task and fs fix."""
    return {**dataclasses.asdict(config), "n_classes": N_CLASSES, "T": config.T}


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
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


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

    fields, offsets = {}, {}
    for _ in range(cur.u32()):
        line, at = cur.text("config line")
        key, _, value = line.partition("=")
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(f"checkpoint config line {line!r} has no integer value", offset=at) from None
        offsets[key] = at
    stated = {key: fields.pop(key) for key in ("n_classes", "T") if key in fields}
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = sorted(set(fields) - known)
    if unknown:
        raise ParseError(f"checkpoint config has unknown keys: {', '.join(unknown)}")
    try:
        config = ModelConfig(**fields)
    except TypeError as exc:
        raise ParseError(f"checkpoint config incomplete: {exc}") from None
    expected = _config_values(config)
    for key, value in stated.items():
        if value != expected[key]:
            raise ParseError(f"checkpoint config line '{key}={value}' must be "
                             f"'{key}={expected[key]}'", offset=offsets[key])

    params = ModelParams(config)
    by_name = dict(params.named_params())
    seen = set()
    for _ in range(cur.u32()):
        name, _ = cur.text("parameter name")
        rank = cur.u32()
        shape = struct.unpack(f"<{rank}I", cur.take(4 * rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        at = cur.pos
        data = np.frombuffer(cur.take(8 * count), dtype="<f8").reshape(shape)
        if name not in by_name:
            raise ParseError(f"checkpoint has unknown parameter {name!r}", offset=at)
        if by_name[name].shape != tuple(shape):
            raise ParseError(
                f"checkpoint parameter {name!r} has shape {tuple(shape)}, "
                f"model expects {by_name[name].shape}",
                offset=at,
            )
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
