"""Flat key = value run configuration.

One file drives every command. Keys are dotted (section.field) in four
sections: ``data.*`` (generator), ``model.*`` (architecture), ``train.*``
(optimization), ``run.*`` (paths and protocol). '#' starts a comment.
Unknown keys, duplicate keys, and out-of-range values are hard errors.

Image height/width/channels live only under ``data.*``; the model always
takes its input geometry from there, and a RunConfig whose model and data
disagree on it is rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .data import SPLITS, DatasetSpec, read_if_exists
from .model import ModelConfig
from .train import TrainConfig

PROTOCOLS = ("in_dist", "cross_family", "perturbed")
# ModelConfig fields that are set from data.* only
_DATA_OWNED = ("height", "width", "channels")


class ConfigError(ValueError):
    """Unparseable or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    data: DatasetSpec = DatasetSpec()
    out_dir: str = "out"
    weights_in: str = ""
    weights_out: str = ""
    protocol: str = "in_dist"
    threshold: float = 0.5
    level: int = 3
    split: str = "test"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"run.protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.split not in SPLITS:
            raise ValueError(f"run.split must be one of {SPLITS}, got {self.split!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"run.threshold must be in [0, 1], got {self.threshold}")
        if not 0 <= self.level <= 5:
            raise ValueError(f"run.level must be 0..5, got {self.level}")
        for name in _DATA_OWNED:
            data, model = getattr(self.data, name), getattr(self.model, name)
            if model != data:
                raise ValueError(f"model.{name} {model} disagrees with data.{name} {data}")

    def weights_out_path(self) -> Path:
        return Path(self.weights_out) if self.weights_out else Path(self.out_dir) / "weights.bolf"


def _scalar_fields(cls, skip=()) -> dict[str, type]:
    """name -> type of the int, float and str fields of a config
    dataclass, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)
            if hints[f.name] in (int, float, str) and f.name not in skip}


_SECTIONS = {"data": _scalar_fields(DatasetSpec),
             "model": _scalar_fields(ModelConfig, skip=_DATA_OWNED),
             "train": _scalar_fields(TrainConfig),
             "run": _scalar_fields(RunConfig)}
ALL_KEYS = tuple(f"{sec}.{name}" for sec, table in _SECTIONS.items() for name in table)


def _convert(key: str, value: str, typ: type):
    try:
        converted = typ(value)  # int, float or str
    except ValueError:
        raise ConfigError(f"key {key}: expected {typ.__name__}, got {value!r}") from None
    # nan would pass every range check silently (nan > 0.0 is False)
    if typ is float and not math.isfinite(converted):
        raise ConfigError(f"key {key}: expected a finite float, got {value!r}")
    return converted


def parse_text(text: str) -> dict[str, str]:
    """Raw key -> value strings, with comments stripped and syntax checked."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def from_pairs(pairs: dict[str, str]) -> RunConfig:
    unknown = sorted(set(pairs) - set(ALL_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; valid keys are {list(ALL_KEYS)}")

    def kwargs_for(section: str) -> dict:
        table = _SECTIONS[section]
        return {name: _convert(f"{section}.{name}", pairs[f"{section}.{name}"], typ)
                for name, typ in table.items() if f"{section}.{name}" in pairs}

    try:
        data = DatasetSpec(**kwargs_for("data"))
        model = ModelConfig(**{name: getattr(data, name) for name in _DATA_OWNED},
                            **kwargs_for("model"))
        train = TrainConfig(**kwargs_for("train"))
        return RunConfig(model=model, train=train, data=data, **kwargs_for("run"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path=None, overrides: list[str] | None = None,
                seed: int | None = None, out_dir: str | None = None) -> RunConfig:
    """Assemble a RunConfig from an optional file plus CLI-style overrides.

    Precedence, lowest to highest: built-in defaults, config file, --seed
    (sets data.seed and train.seed) and --out, then explicit key=value
    overrides.

    The file is opened and read once per call; a path with no file raises
    "config file not found", and any other error reading it is a
    ConfigError that names the path. The last config built is kept, keyed
    on the merged key/value pairs, and a call that merges the same pairs
    returns that same object: a RunConfig and its parts are frozen, and
    :func:`from_pairs` is a pure function of the pairs. An invalid config
    is never kept, so it raises on every call.
    """
    pairs: dict[str, str] = {}
    if path is not None:
        path = Path(path)
        try:
            blob = read_if_exists(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        if blob is None:
            raise ConfigError(f"config file not found: {path}")
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        pairs.update(parse_text(text))
    if seed is not None:
        pairs["data.seed"] = str(seed)
        pairs["train.seed"] = str(seed)
    if out_dir is not None:
        pairs["run.out_dir"] = out_dir
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        pairs[key] = value
    return _kept_config(tuple(pairs.items()))


@functools.lru_cache(maxsize=1)
def _kept_config(items: tuple[tuple[str, str], ...]) -> RunConfig:
    return from_pairs(dict(items))
