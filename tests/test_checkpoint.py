"""Checkpoint round trips must be bit exact; corrupt files must fail loudly."""

import os
import re
import struct

import numpy as np
import pytest

from sst.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from sst.errors import ParseError
from sst.model import ModelConfig, ModelParams


def small_params(seed=0):
    cfg = ModelConfig(fs=10, S=4, D=16, N=4, A=4, head_dim=4, d=1, ffn_dim=32)
    return ModelParams(cfg, np.random.default_rng(seed))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        params = small_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for (name_a, a), (name_b, b) in zip(params.named_params(), loaded.named_params()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()

    def test_loaded_params_train(self, tmp_path):
        params = small_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert all(t.requires_grad for t in loaded.params())

    def test_file_starts_with_magic(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params())
        with open(path, "rb") as fh:
            assert fh.read(8) == MAGIC

    def test_config_block_layout(self, tmp_path):
        """The model fields with C=1 after S, then n_classes and T: the lines
        the single channel, the task and fs fix."""
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params())
        with open(path, "rb") as fh:
            blob = fh.read()
        (count,) = struct.unpack_from("<I", blob, len(MAGIC))
        at, lines = len(MAGIC) + 4, []
        for _ in range(count):
            (n,) = struct.unpack_from("<I", blob, at)
            lines.append(blob[at + 4 : at + 4 + n].decode("ascii"))
            at += 4 + n
        assert lines == ["fs=10", "S=4", "C=1", "D=16", "N=4", "A=4", "head_dim=4", "d=1",
                         "ffn_dim=32", "n_classes=5", "T=300"]

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params(seed=0))
        with open(path, "rb") as fh:
            before = fh.read()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, small_params(seed=1))
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_derived_head_dim_keeps_its_line(self, tmp_path):
        stated, derived = str(tmp_path / "stated.ckpt"), str(tmp_path / "derived.ckpt")
        save_checkpoint(stated, small_params())
        cfg = ModelConfig(fs=10, S=4, D=16, N=4, A=4, d=1, ffn_dim=32)
        save_checkpoint(derived, ModelParams(cfg, np.random.default_rng(0)))
        with open(stated, "rb") as a, open(derived, "rb") as b:
            assert a.read() == b.read()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params())
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params())
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.ckpt")
        open(path, "wb").close()
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def _patched(self, tmp_path, old: bytes, new: bytes):
        """Save small_params, replace the first `old` with `new`; return (path, offset)."""
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params())
        with open(path, "rb") as fh:
            blob = fh.read()
        at = blob.index(old)
        with open(path, "wb") as fh:
            fh.write(blob[:at] + new + blob[at + len(old):])
        return path, at

    def test_non_ascii_config_line(self, tmp_path):
        path, at = self._patched(tmp_path, b"fs=10", b"fs=1\xff")
        with pytest.raises(ParseError, match="config line is not ASCII") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at

    def test_non_integer_config_value(self, tmp_path):
        path, at = self._patched(tmp_path, b"fs=10", b"fs=1x")
        with pytest.raises(ParseError, match="fs=1x") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at

    def test_non_ascii_parameter_name(self, tmp_path):
        path, at = self._patched(tmp_path, b"conv_a1", b"conv_\xff1")
        with pytest.raises(ParseError, match="parameter name is not ASCII") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_names_parameter(self, tmp_path, bad):
        params = small_params()
        params.conv_b2.data[0, 0, 0] = bad
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params)
        with pytest.raises(ParseError, match="'conv_b2' has non-finite values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new", [(b"n_classes=5", b"n_classes=4"), (b"T=300", b"T=200"),
                                         (b"C=1", b"C=2")])
    def test_fixed_config_line_mismatch_names_line(self, tmp_path, old, new):
        path, at = self._patched(tmp_path, old, new)
        with pytest.raises(ParseError, match=re.escape(f"'{new.decode()}' must be '{old.decode()}'")) as exc:
            load_checkpoint(path)
        assert exc.value.offset == at


class TestConfigBlock:
    """The block must hold exactly the lines save_checkpoint writes, in order."""

    LINES = ["fs=10", "S=4", "C=1", "D=16", "N=4", "A=4", "head_dim=4", "d=1",
             "ffn_dim=32", "n_classes=5", "T=300"]

    def _with_lines(self, tmp_path, lines):
        """small_params saved with its config block replaced by lines; returns
        (path, offset of each line's text, offset just past the block)."""
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params())
        with open(path, "rb") as fh:
            blob = fh.read()
        old_end = len(MAGIC) + 4 + sum(4 + len(line) for line in self.LINES)
        chunks, offsets, at = [MAGIC, struct.pack("<I", len(lines))], [], len(MAGIC) + 4
        for line in lines:
            chunks += [struct.pack("<I", len(line)), line.encode("ascii")]
            offsets.append(at + 4)
            at += 4 + len(line)
        with open(path, "wb") as fh:
            fh.write(b"".join(chunks) + blob[old_end:])
        return path, offsets, at

    def test_written_block_loads(self, tmp_path):
        path, _, _ = self._with_lines(tmp_path, self.LINES)
        assert load_checkpoint(path).config == small_params().config

    @pytest.mark.parametrize("index", range(len(LINES) - 1))
    def test_missing_line_names_the_line_that_took_its_place(self, tmp_path, index):
        lines = self.LINES[:index] + self.LINES[index + 1:]
        path, offsets, _ = self._with_lines(tmp_path, lines)
        with pytest.raises(ParseError, match=f"must be a '{self.LINES[index].split('=')[0]}=' line") as exc:
            load_checkpoint(path)
        assert exc.value.offset == offsets[index]

    def test_missing_last_line(self, tmp_path):
        path, _, end = self._with_lines(tmp_path, self.LINES[:-1])
        with pytest.raises(ParseError, match="block ends where its 'T' line belongs") as exc:
            load_checkpoint(path)
        assert exc.value.offset == end

    def test_extra_line(self, tmp_path):
        path, offsets, _ = self._with_lines(tmp_path, [*self.LINES, "E=1"])
        with pytest.raises(ParseError, match="extra line 'E=1'") as exc:
            load_checkpoint(path)
        assert exc.value.offset == offsets[-1]

    def test_unknown_key(self, tmp_path):
        lines = [*self.LINES[:3], "depth=1", *self.LINES[3:]]
        path, offsets, _ = self._with_lines(tmp_path, lines)
        with pytest.raises(ParseError, match="'depth=1' must be a 'D=' line") as exc:
            load_checkpoint(path)
        assert exc.value.offset == offsets[3]

    def test_lines_out_of_order(self, tmp_path):
        lines = [self.LINES[1], self.LINES[0], *self.LINES[2:]]
        path, offsets, _ = self._with_lines(tmp_path, lines)
        with pytest.raises(ParseError, match="'S=4' must be a 'fs=' line") as exc:
            load_checkpoint(path)
        assert exc.value.offset == offsets[0]
