import json

import pytest

from laf.classifier import ClassifierTrainConfig
from laf.config import RunConfig, apply_global_seed, load_run_config, run_config_from_dict
from laf.errors import ConfigError, ValidationError
from laf.lstm import LstmTrainConfig
from laf.synth import SynthSpec


def test_empty_config_gives_defaults():
    config = run_config_from_dict({})
    assert config.synth.feature_dim == 16
    assert config.transfer.theta1 == 0.5
    assert config.lstm.num_cells == 32
    assert config.localization.window_len == 10
    assert config.eval.hit_ks == (1, 5)
    assert config.transfer.classifier_config.epochs == 100


def test_nested_overrides():
    config = run_config_from_dict({
        "synth": {"feature_dim": 4, "frames_per_video": [5, 9]},
        "classifier": {"epochs": 7, "learning_rate": 0.5},
        "transfer": {"theta1": 0.25, "max_iterations": 2},
        "lstm": {"num_cells": 1024, "gradient_clip": None},
        "localization": {"window_stride": 3},
        "eval": {"overlap_ratios": [0.4], "hit_ks": [1, 3]},
        "train_mode": "uniform",
    })
    assert config.synth.feature_dim == 4
    assert config.synth.frames_per_video == (5, 9)
    assert config.transfer.theta1 == 0.25
    assert config.transfer.classifier_config.epochs == 7
    assert config.transfer.classifier_config.learning_rate == 0.5
    assert config.lstm.num_cells == 1024
    assert config.lstm.gradient_clip is None
    assert config.localization.window_stride == 3
    assert config.eval.overlap_ratios == (0.4,)
    assert config.eval.hit_ks == (1, 3)
    assert config.train_mode == "uniform"


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="lstm.learning_rat"):
        run_config_from_dict({"lstm": {"learning_rat": 0.1}})
    with pytest.raises(ConfigError, match="unknown config key: sync"):
        run_config_from_dict({"sync": {}})
    with pytest.raises(ConfigError, match="synth.frames_per_video"):
        run_config_from_dict({"synth": {"frames_per_video": [1, 2, 3]}})


def test_type_errors_are_named():
    with pytest.raises(ConfigError, match="transfer.theta1"):
        run_config_from_dict({"transfer": {"theta1": "high"}})
    with pytest.raises(ConfigError, match="lstm.epochs"):
        run_config_from_dict({"lstm": {"epochs": 2.5}})


@pytest.mark.parametrize("block, key, value", [
    ("lstm", "learning_rate", float("nan")), ("lstm", "gradient_clip", float("nan")),
    ("classifier", "learning_rate", float("nan")),
    ("classifier", "l2_penalty", float("-inf")), ("synth", "mode_separation", float("inf")),
    ("synth", "mode_stddev", float("nan")), ("lstm", "learning_rate", 10 ** 400)])
def test_non_finite_numbers_are_named(tmp_path, block, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {key: value}}))
    with pytest.raises(ConfigError, match=f"^{block}.{key}: must be a finite JSON number"):
        load_run_config(path)


@pytest.mark.parametrize("config, key", [
    (LstmTrainConfig, "learning_rate"), (LstmTrainConfig, "gradient_clip"),
    (ClassifierTrainConfig, "learning_rate"),
    (ClassifierTrainConfig, "l2_penalty"), (SynthSpec, "mode_separation"),
    (SynthSpec, "mode_stddev")])
def test_nan_fails_the_positivity_checks_of_configs_built_in_memory(config, key):
    with pytest.raises(ValidationError, match=key):
        config(**{key: float("nan")})


def test_invariant_violations_are_wrapped():
    with pytest.raises(ConfigError, match="transfer"):
        run_config_from_dict({"transfer": {"theta1": 1.5}})


# Two entries with one report key would write one Hit@k or mAP over the other.
REPEATED_EVAL_KEYS = {
    "hit_ks": ([1, 5, 1], "eval: hit_ks repeat a value: [1, 5, 1]"),
    "overlap_ratios": ([0.5384615, 0.53846155],
                       "eval: overlap_ratios repeat a report key: ['0.538462', '0.538462']"),
}


@pytest.mark.parametrize("key", sorted(REPEATED_EVAL_KEYS))
def test_repeated_eval_report_keys_are_named(key):
    value, message = REPEATED_EVAL_KEYS[key]
    with pytest.raises(ConfigError) as info:
        run_config_from_dict({"eval": {key: value}})
    assert str(info.value) == message


def test_classifier_config_must_use_top_level_block():
    with pytest.raises(ConfigError, match="transfer.classifier_config"):
        run_config_from_dict({"transfer": {"classifier_config": {"epochs": 1}}})


def test_global_seed_overrides_every_stage():
    config = run_config_from_dict({"seed": 42, "synth": {"seed": 1}, "lstm": {"seed": 2}})
    assert config.synth.seed == 42
    assert config.transfer.seed == 42
    assert config.transfer.classifier_config.seed == 42
    assert config.lstm.seed == 42
    reseeded = apply_global_seed(config, 7)
    assert reseeded.synth.seed == 7 and reseeded.lstm.seed == 7


@pytest.mark.parametrize("data, where", [
    ({"seed": -3}, "RunConfig: seed"), ({"synth": {"seed": -3}}, "synth: seed"),
    ({"classifier": {"seed": -3}}, "classifier: seed"),
    ({"transfer": {"seed": -3}}, "transfer: seed"), ({"lstm": {"seed": -3}}, "lstm: seed")])
def test_negative_seeds_are_rejected_where_they_live(data, where):
    with pytest.raises(ConfigError, match=f"^{where} must be nonnegative, got -3$"):
        run_config_from_dict(data)


def test_negative_global_seed_override_is_rejected():
    with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
        apply_global_seed(RunConfig(), -1)


def test_bad_train_mode_rejected():
    with pytest.raises(ConfigError, match="train_mode"):
        run_config_from_dict({"train_mode": "oracle"})


def test_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "synth": {"feature_dim": 3}}))
    config = load_run_config(path)
    assert config.seed == 5 and config.synth.feature_dim == 3
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(path)


def test_defaults_match_documented_values():
    config = RunConfig()
    assert config.lstm.unroll_k == 20
    assert config.lstm.learning_rate == 0.0024
    assert config.lstm.lr_decay == 0.1
    assert config.lstm.batch_size == 12
    assert config.localization.nms_overlap == 0.5
    assert config.eval.overlap_ratios == (0.1, 0.2, 0.3, 0.4, 0.5)
    assert config.transfer.min_items_per_label == 1
