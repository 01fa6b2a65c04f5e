"""Tests for the flat key = value run configuration."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bolf import config
from bolf.data import DatasetSpec
from bolf.model import ModelConfig
from bolf.config import (
    ALL_KEYS,
    ConfigError,
    RunConfig,
    from_pairs,
    load_config,
    parse_text,
)

FLOAT_KEYS = [f"{section}.{name}" for section, table in config._SECTIONS.items()
              for name, typ in table.items() if typ is float]


class TestParseText:
    def test_basic_pairs(self):
        pairs = parse_text("a.b = 1\nc.d=hello\n")
        assert pairs == {"a.b": "1", "c.d": "hello"}

    def test_comments_and_blanks(self):
        text = "# full-line comment\n\ntrain.epochs = 3  # trailing\n   \n"
        assert parse_text(text) == {"train.epochs": "3"}

    def test_value_may_contain_equals(self):
        assert parse_text("run.out_dir = a=b") == {"run.out_dir": "a=b"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_text("a = 1\nbroken line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_text(" = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_text("train.seed = 1\ntrain.seed = 2\n")


class TestFromPairs:
    def test_empty_gives_defaults(self):
        assert from_pairs({}) == RunConfig()

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError) as err:
            from_pairs({"train.velocity": "1"})
        assert "train.velocity" in str(err.value)
        assert "train.seed" in str(err.value)  # the valid-key listing

    def test_type_conversion_errors(self):
        with pytest.raises(ConfigError, match="expected int"):
            from_pairs({"train.epochs": "three"})
        with pytest.raises(ConfigError, match="expected float"):
            from_pairs({"train.lr0": "fast"})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, key):
        # nan slips through every range check (nan > 0.0 is False)
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="finite"):
                from_pairs({key: value})

    def test_domain_validation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            from_pairs({"model.dim": "65"})  # not divisible by heads
        with pytest.raises(ConfigError):
            from_pairs({"data.train_count": "7"})  # odd
        with pytest.raises(ConfigError):
            from_pairs({"train.momentum": "1.5"})

    @pytest.mark.parametrize("key", ["model.patch_size", "model.dim", "model.depth",
                                     "model.heads", "model.mlp_ratio",
                                     "data.height", "data.width"])
    def test_non_positive_sizes_rejected(self, key):
        # patch_size and heads are divisors: 0 once raised ZeroDivisionError
        for value in ("0", "-8"):
            with pytest.raises(ConfigError, match="positive"):
                from_pairs({key: value})

    def test_run_section_validation(self):
        with pytest.raises(ConfigError, match="protocol"):
            from_pairs({"run.protocol": "extrapolate"})
        with pytest.raises(ConfigError, match="split"):
            from_pairs({"run.split": "holdout"})
        with pytest.raises(ConfigError, match="threshold"):
            from_pairs({"run.threshold": "1.5"})
        with pytest.raises(ConfigError, match="level"):
            from_pairs({"run.level": "9"})

    def test_model_geometry_follows_data(self):
        cfg = from_pairs({"data.height": "16", "data.width": "16",
                          "data.channels": "1", "model.dim": "16",
                          "model.depth": "1", "model.heads": "2"})
        assert cfg.model.height == 16
        assert cfg.model.width == 16
        assert cfg.data.height == 16

    def test_model_geometry_is_not_directly_settable(self):
        # the image size lives under data.*; a model.height key must be
        # rejected rather than silently creating a disagreement
        with pytest.raises(ConfigError, match="unknown"):
            from_pairs({"model.height": "64"})
        assert "model.height" not in ALL_KEYS
        assert "data.height" in ALL_KEYS

    def test_weights_out_path(self):
        assert str(from_pairs({}).weights_out_path()) == "out/weights.bolf"
        cfg = from_pairs({"run.weights_out": "w.bin", "run.out_dir": "d"})
        assert str(cfg.weights_out_path()) == "w.bin"


class TestRunConfig:
    """RunConfig checks its own keys, so a config built or replaced in code
    is held to the messages from_pairs gives."""

    @pytest.mark.parametrize("field, value, message", [
        ("protocol", "cross-family", "run.protocol must be one of "
         "('in_dist', 'cross_family', 'perturbed'), got 'cross-family'"),
        ("split", "holdout", "run.split must be one of ('train', 'val', 'test'), "
         "got 'holdout'"),
        ("threshold", 1.5, "run.threshold must be in [0, 1], got 1.5"),
        ("threshold", -0.25, "run.threshold must be in [0, 1], got -0.25"),
        ("level", 9, "run.level must be 0..5, got 9"),
        ("level", -1, "run.level must be 0..5, got -1"),
    ], ids=["protocol", "split", "threshold_high", "threshold_low", "level_high", "level_low"])
    def test_out_of_range_run_key_rejected(self, field, value, message):
        with pytest.raises(ValueError) as built:
            RunConfig(**{field: value})
        with pytest.raises(ValueError) as replaced:
            replace(RunConfig(), **{field: value})
        with pytest.raises(ConfigError) as parsed:
            from_pairs({f"run.{field}": str(value)})
        assert str(built.value) == str(replaced.value) == str(parsed.value) == message

    @pytest.mark.parametrize("name, value", [("height", 16), ("width", 48), ("channels", 3)])
    def test_model_geometry_must_match_data(self, name, value):
        data = replace(DatasetSpec(), **{name: value})
        message = f"model.{name} {getattr(ModelConfig(), name)} disagrees with data.{name} {value}"
        with pytest.raises(ValueError, match=message):
            RunConfig(data=data)
        with pytest.raises(ValueError, match=message):
            replace(RunConfig(), data=data)
        # from_pairs takes the model's geometry from the data, so they agree
        cfg = from_pairs({f"data.{name}": str(value)})
        assert getattr(cfg.model, name) == getattr(cfg.data, name) == value


class TestSerialize:
    """The text form of the keys: their table, and floats that read back
    bit for bit."""

    # in range for each float key (lr_min below the default lr0 0.01),
    # each with a 17-digit shortest repr
    EXACT_FLOATS = {"model.dropout": 1 / 7, "train.lr0": 1 / 7, "train.momentum": 1 / 7,
                    "train.lr_min": 1 / 700, "run.threshold": 1 / 7}

    def test_key_table(self):
        # the scalar fields of the four config classes in declaration
        # order, without the model's data-owned geometry
        keys = [
            ("data.family", str), ("data.train_count", int), ("data.val_count", int),
            ("data.test_count", int), ("data.frames_per_video", int), ("data.height", int),
            ("data.width", int), ("data.channels", int), ("data.seed", int),
            ("model.patch_size", int), ("model.dim", int), ("model.depth", int),
            ("model.heads", int), ("model.mlp_ratio", int), ("model.dropout", float),
            ("train.epochs", int), ("train.batch_size", int), ("train.lr0", float),
            ("train.momentum", float), ("train.lr_min", float), ("train.seed", int),
            ("run.out_dir", str), ("run.weights_in", str), ("run.weights_out", str),
            ("run.protocol", str), ("run.threshold", float), ("run.level", int),
            ("run.split", str)]
        assert list(ALL_KEYS) == [key for key, _ in keys]
        assert [(f"{section}.{name}", typ) for section, table in config._SECTIONS.items()
                for name, typ in table.items()] == keys

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_text_reads_back_exactly(self, key):
        x = self.EXACT_FLOATS[key]
        assert len(repr(x).split(".")[1].lstrip("0")) == 17
        section, name = key.split(".")
        cfg = from_pairs(parse_text(f"{key} = {x!r}"))
        got = getattr(cfg if section == "run" else getattr(cfg, section), name)
        assert got.hex() == x.hex()


class TestLoadConfig:
    def test_no_inputs_gives_defaults(self):
        assert load_config() == RunConfig()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "none.cfg")

    def test_file_values_apply(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = 3\nrun.out_dir = results\n")
        cfg = load_config(path)
        assert cfg.train.epochs == 3
        assert cfg.out_dir == "results"

    def test_seed_flag_sets_both_seeds(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("data.seed = 1\ntrain.seed = 2\n")
        cfg = load_config(path, seed=7)
        assert cfg.data.seed == 7
        assert cfg.train.seed == 7

    def test_out_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.out_dir = from_file\n")
        assert load_config(path, out_dir="flag").out_dir == "flag"

    def test_explicit_override_beats_seed_flag(self):
        cfg = load_config(None, overrides=["train.seed=9"], seed=7)
        assert cfg.train.seed == 9
        assert cfg.data.seed == 7

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = 3\n")
        assert load_config(path, overrides=["train.epochs=5"]).train.epochs == 5

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, overrides=["train.epochs"])

    def test_override_whitespace_tolerated(self):
        cfg = load_config(None, overrides=[" train.epochs = 4 "])
        assert cfg.train.epochs == 4

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"train.epochs = 3  # caf\xe9\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)

    def test_directory_is_config_error_naming_it(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path)
        assert str(info.value) == f"cannot read config file {tmp_path}: Is a directory"

    def test_nul_byte_in_path_is_not_found(self, tmp_path):
        path = f"{tmp_path}/ru\0n.cfg"
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"config file not found: {path}"

    def test_path_through_a_file_is_not_found(self, tmp_path):
        (tmp_path / "run.cfg").write_text("train.epochs = 3\n")
        path = tmp_path / "run.cfg" / "inner.cfg"
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"config file not found: {path}"


class TestKeptConfig:
    """load_config keeps the last RunConfig it built, keyed on the merged
    key/value pairs: the same pairs give the same object, other pairs a
    fresh config."""

    @staticmethod
    def _write(tmp_path, text: str):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_same_inputs_give_the_same_object(self, tmp_path):
        path = self._write(tmp_path, "train.epochs = 3\n")
        first = load_config(path, ["model.dim=32"], 5, "out")
        assert load_config(path, ["model.dim=32"], 5, "out") is first
        assert load_config() is load_config()

    def test_a_changed_file_byte_gives_a_fresh_config(self, tmp_path):
        path = self._write(tmp_path, "train.epochs = 3\n")
        first = load_config(path)
        path.write_text("train.epochs = 4\n")
        second = load_config(path)
        assert second is not first
        assert second == from_pairs({"train.epochs": "4"})
        assert second.train.epochs == 4

    @pytest.mark.parametrize("change, pairs", [
        ({"overrides": ["model.dim=32"]},
         {"train.epochs": "3", "data.seed": "5", "train.seed": "5", "run.out_dir": "out",
          "model.dim": "32"}),
        ({"seed": 6},
         {"train.epochs": "3", "data.seed": "6", "train.seed": "6", "run.out_dir": "out"}),
        ({"out_dir": "elsewhere"},
         {"train.epochs": "3", "data.seed": "5", "train.seed": "5",
          "run.out_dir": "elsewhere"}),
    ])
    def test_a_changed_flag_gives_a_fresh_config(self, tmp_path, change, pairs):
        path = self._write(tmp_path, "train.epochs = 3\n")
        inputs = {"overrides": None, "seed": 5, "out_dir": "out"}
        first = load_config(path, **inputs)
        second = load_config(path, **{**inputs, **change})
        assert second is not first
        assert second == from_pairs(pairs)
        assert second != first

    def test_an_invalid_config_raises_on_every_call(self, tmp_path):
        kept = load_config(None, ["train.epochs=3"])
        for _ in range(3):
            with pytest.raises(ConfigError, match="run.level"):
                load_config(None, ["train.epochs=3", "run.level=9"])
        path = self._write(tmp_path, "train.epochs = 3\nrun.level = 9\n")
        for _ in range(3):
            with pytest.raises(ConfigError, match="run.level"):
                load_config(path)
        assert load_config(None, ["train.epochs=3"]) is kept


# config-like text: known or arbitrary keys, with numbers or arbitrary text
_config_lines = st.lists(
    st.tuples(st.one_of(st.sampled_from(ALL_KEYS), st.text(max_size=12)),
              st.sampled_from(["=", " = ", "", "=="]),
              st.one_of(st.text(max_size=12), st.integers().map(str),
                        st.floats().map(repr))),
    max_size=8,
).map(lambda rows: "\n".join(k + sep + v for k, sep, v in rows).encode("utf-8"))


class TestFuzzedConfigFiles:
    """Any bytes in a config file give a RunConfig or a ConfigError (exit 2
    through the CLI), never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(st.binary(max_size=128), _config_lines))
    def test_load_or_raise_config_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
        path.write_bytes(blob)
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=128))
    def test_parse_text_gives_pairs_or_config_error(self, text):
        try:
            pairs = parse_text(text)
        except ConfigError:
            return
        assert all(key and "=" not in key and "#" not in key for key in pairs)
