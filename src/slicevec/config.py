"""Pipeline configuration: defaults, config file, command-line precedence.

Config files are flat ``key = value`` lines with ``#`` comments. Values on
the command line beat the file, which beats the documented default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Sequence

from .generator import GeneratorConfig
from .trainer import TrainingConfig


class ConfigError(ValueError):
    """Bad config file or invalid field value."""


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# PipelineConfig field type name -> parser of a flag or config-file value
VALUE_PARSERS = {"str": str, "int": int, "float": float, "bool": parse_bool}


@dataclass(frozen=True)
class PipelineConfig(TrainingConfig, GeneratorConfig):
    """Every knob the CLI exposes: the training and generator settings with
    their library defaults, plus the CLI's own paths and sizes."""

    corpus_dir: str = "corpus"
    corpus_cache: str = "corpus.txt"
    vocab_cache: str = "vocab.txt"
    embedding_path: str = "embedding.txt"
    loss_csv: str = "loss.csv"
    vocab_size: int = 500
    threads: int = 1  # training is single-threaded; kept so --threads 1 still parses

    def __post_init__(self):
        try:
            TrainingConfig.__post_init__(self)
            GeneratorConfig.__post_init__(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.threads != 1:
            raise ConfigError("threads must be 1")
        self.check_distinct()

    def check_distinct(self, outputs: Sequence[str] = ()) -> None:
        """Refuse two of the cache paths and outputs that name one file ("./a" and "a" do)."""
        paths = [self.corpus_cache, self.vocab_cache, self.embedding_path, self.loss_csv, *outputs]
        real = [os.path.realpath(path) for path in paths]
        for i, path in enumerate(paths):
            if real[i] in real[:i]:
                raise ConfigError(f"output {path} is not distinct from a cache path or output")

    def dump(self) -> str:
        lines = ["effective configuration:"]
        for f in fields(self):
            lines.append(f"  {f.name} = {getattr(self, f.name)}")
        return "\n".join(lines)


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is no key
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(
    flag_values: dict[str, object], config_path: str | None
) -> PipelineConfig:
    """Merge flag > file > default into a validated PipelineConfig.

    flag_values holds command-line values keyed by field name, None meaning "not given".
    """
    file_values: dict[str, str] = {}
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        file_values = load_config_file(config_path)

    field_types = {f.name: f.type for f in fields(PipelineConfig)}
    merged: dict[str, object] = {}
    for key, raw in file_values.items():
        if key not in field_types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            merged[key] = VALUE_PARSERS[field_types[key]](raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    return PipelineConfig(**merged)
