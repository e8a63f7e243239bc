"""Run configuration files: INI-style key=value sections [data], [model],
[loss], [train]. Unknown sections or keys are rejected, every key is typed
by its dataclass field, defaults fill whatever a file leaves out."""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .training import TrainConfig

DATA_SOURCES = ("synth", "edf")


@dataclass
class DataConfig:
    source: str = ""
    path: str | None = None
    test_path: str | None = None
    channel: str = "EEG"
    subjects: int = 4
    epochs: int = 50
    test_subjects: int = 2
    test_epochs: int = 20
    noise_sd: float = 0.1
    seed: int = 0
    test_seed: int = 1

    def __post_init__(self):
        if self.source not in DATA_SOURCES:
            raise ConfigError(
                f"[data] source must be one of {DATA_SOURCES}, got {self.source!r}"
            )
        if self.source == "edf" and not self.path:
            raise ConfigError("missing required key 'path' in [data] (source = edf)")
        if self.source == "synth":
            if self.subjects < 2:
                raise ConfigError("[data] synth source needs subjects >= 2 for a validation split")
        for key in ("epochs", "test_subjects", "test_epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[data] {key} must be at least 1, got {getattr(self, key)}")
        if self.noise_sd < 0:
            raise ConfigError(f"[data] noise_sd must be nonnegative, got {self.noise_sd}")


@dataclass
class RunConfig:
    data: DataConfig
    model: ModelConfig
    train: TrainConfig
    seq_len: int | None = None   # [train] seq_len, from configs written before [model] S set it

    def check_sequence_length(self, S: int, source: str) -> None:
        """A [train] seq_len that a config still sets must equal the S the command runs on."""
        if self.seq_len is not None and self.seq_len != S:
            raise ConfigError(f"[train] seq_len = {self.seq_len} must equal {source} = {S}")


# [train] carries the flat TrainConfig keys and RunConfig.seq_len; [loss] the loss fields
_TRAIN_KEYS = [f for f in dataclasses.fields(TrainConfig) if f.name != "loss"]
_TRAIN_KEYS += [f for f in dataclasses.fields(RunConfig) if f.name == "seq_len"]
_LOSS_ALIASES = {"lambda": "lam"}


def _typed(section: str, key: str, raw: str, pytype) -> object:
    if pytype is str:
        return raw
    try:
        value = pytype(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {pytype.__name__}") from None
    if pytype is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def _section_kwargs(parser, section: str, fields, aliases=None) -> dict:
    aliases = aliases or {}
    by_name = {}
    for f in fields:
        by_name[f.name] = f
    for alias, target in aliases.items():
        by_name[alias] = by_name.pop(target)

    kwargs = {}
    if not parser.has_section(section):
        return kwargs
    for key, raw in parser.items(section):
        if key not in by_name:
            known = ", ".join(sorted(by_name))
            raise ConfigError(f"unknown key {key!r} in [{section}]; known keys: {known}")
        f = by_name[key]
        text = str(f.type)
        base = int if "int" in text else float if "float" in text else str
        kwargs[aliases.get(key, key)] = _typed(section, key, raw, base)
    return kwargs


def load_run_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"config path is not a file: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(raw.decode("utf-8"), source=path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte offset {exc.start}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known_sections = {"data", "model", "loss", "train"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")
    if not parser.has_section("data") or "source" not in parser["data"]:
        raise ConfigError("missing required key 'source' in [data]")

    data_kwargs = _section_kwargs(parser, "data", dataclasses.fields(DataConfig))
    model_kwargs = _section_kwargs(parser, "model", dataclasses.fields(ModelConfig))
    loss_kwargs = _section_kwargs(parser, "loss", dataclasses.fields(LossConfig), _LOSS_ALIASES)
    train_kwargs = _section_kwargs(parser, "train", _TRAIN_KEYS)
    seq_len = train_kwargs.pop("seq_len", None)

    data = DataConfig(**data_kwargs)
    model = ModelConfig(**model_kwargs)
    train = TrainConfig(loss=LossConfig(**loss_kwargs), **train_kwargs)
    return RunConfig(data=data, model=model, train=train, seq_len=seq_len)

