"""Config file parsing and flag > file > default precedence."""

from __future__ import annotations

import dataclasses

import pytest

from slicevec.config import (
    ConfigError,
    PipelineConfig,
    load_config_file,
    parse_bool,
    resolve_config,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("true", True), ("1", True), ("yes", True), ("on", True),
        (" TRUE ", True), ("false", False), ("0", False), ("no", False),
        ("off", False), ("Off", False),
    ],
)
def test_parse_bool_table(text, expected):
    assert parse_bool(text) is expected


def test_parse_bool_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_bool("maybe")


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.vocab_size == 500
    assert cfg.dims == 256
    assert cfg.window_c == 4
    assert cfg.num_skips_k == 2
    assert cfg.negative_samples == 5
    assert cfg.learning_rate == 0.1
    assert cfg.batch_size == 128
    assert cfg.steps == 1_000_000
    assert cfg.seed == 1
    assert cfg.top_n == 5
    assert cfg.exclude_identity is True
    assert cfg.threads == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(vocab_size=1)
    with pytest.raises(ConfigError):
        PipelineConfig(threads=0)
    with pytest.raises(ConfigError, match="threads must be 1"):
        PipelineConfig(threads=2)
    with pytest.raises(ConfigError, match="distinct"):
        PipelineConfig(corpus_cache="same.txt", vocab_cache="same.txt")


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"], ids=["plain", "bom"])
def test_load_config_file(tmp_path, encoding):
    path = tmp_path / "cfg"
    path.write_text(
        "dims = 32   # inline comment\n"
        "# a comment\n"
        "\n"
        "embedding_path = out=weird.txt\n"
        "exclude_identity=off\n",
        encoding=encoding,
    )
    values = load_config_file(str(path))
    assert values == {
        "dims": "32",
        "embedding_path": "out=weird.txt",
        "exclude_identity": "off",
    }


def test_load_config_file_rejects_bare_words(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("dims = 3\njust a line\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config_file(str(path))


def test_resolve_precedence(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("dims = 32\nseed = 9\nexclude_identity = no\n")
    flags = {"dims": 64, "steps": None, "seed": None}
    cfg = resolve_config(flags, str(path))
    assert cfg.dims == 64  # flag beats file
    assert cfg.seed == 9  # file beats default
    assert cfg.steps == 1_000_000  # default
    assert cfg.exclude_identity is False  # bool parsed from file


def test_resolve_uses_env_when_no_path(tmp_path, monkeypatch):
    path = tmp_path / "env.cfg"
    path.write_text("seed = 44\n")
    monkeypatch.setenv("SLICEVEC_CONFIG", str(path))
    assert resolve_config({}, None).seed == 44
    # an explicit path wins over the environment
    other = tmp_path / "other.cfg"
    other.write_text("seed = 55\n")
    assert resolve_config({}, str(other)).seed == 55
    monkeypatch.delenv("SLICEVEC_CONFIG")
    assert resolve_config({}, None).seed == 1


def test_resolve_error_cases(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        resolve_config({}, str(tmp_path / "missing.cfg"))
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config({}, str(bad_key))
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("dims = abc\n")
    with pytest.raises(ConfigError, match="bad value"):
        resolve_config({}, str(bad_value))
    bad_range = tmp_path / "bad_range.cfg"
    bad_range.write_text("vocab_size = 1\n")
    with pytest.raises(ConfigError, match="vocab_size"):
        resolve_config({}, str(bad_range))


@pytest.mark.parametrize(
    "key, value, message",
    [("dims", 0, "dims must be >= 1"), ("window_c", 3, "window_c must be"),
     ("top_n", 0, "top_n must be >= 1")],
)
def test_resolve_refuses_training_and_generator_settings(tmp_path, key, value, message):
    with pytest.raises(ConfigError, match=message):
        resolve_config({key: value}, None)
    path = tmp_path / "cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=message):
        resolve_config({}, str(path))


def test_dump_lists_every_field():
    cfg = PipelineConfig()
    dump = cfg.dump()
    assert dump.startswith("effective configuration:")
    for f in dataclasses.fields(PipelineConfig):
        assert f"  {f.name} = " in dump
