"""Experiment configuration: one JSON document with one block per stage.

Every default can be overridden; unknown or ill-typed keys are rejected with
the full key path (types follow :func:`laf.ioutil.json_value`, so NaN and
infinity are rejected). A top-level ``seed`` (or the CLI ``--seed`` flag)
overrides the seed of every stage so a whole pipeline run is reproducible
from a single number.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .classifier import ClassifierTrainConfig
from .errors import ConfigError, LafError
from .evaluation import EvalConfig
from .ioutil import json_value, read_json_object
from .localization import LocalizationConfig
from .lstm import LstmTrainConfig
from .synth import SynthSpec
from .transfer import TransferConfig

TRAIN_MODES = ("laf", "uniform", "random30")


@dataclass(frozen=True)
class RunConfig:
    seed: int | None = None
    train_mode: str = "laf"
    synth: SynthSpec = field(default_factory=SynthSpec)
    transfer: TransferConfig = field(default_factory=TransferConfig)
    lstm: LstmTrainConfig = field(default_factory=LstmTrainConfig)
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.train_mode not in TRAIN_MODES:
            raise ConfigError(f"train_mode must be one of {TRAIN_MODES}, got {self.train_mode!r}")


def _coerce(value, annotation, path: str):
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(annotation)
        if value is None:
            if type(None) in args:
                return None
            raise ConfigError(f"{path}: null is not allowed")
        non_none = [a for a in args if a is not type(None)]
        return _coerce(value, non_none[0], path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if dataclasses.is_dataclass(annotation):
        if isinstance(value, annotation):
            return value
        return build_dataclass(annotation, value, path)
    if annotation in (bool, int, float, str):
        return json_value(value, annotation, path, ConfigError)
    raise ConfigError(f"{path}: unsupported config value type {annotation!r}")


def build_dataclass(cls, data, path: str):
    """Strictly build a dataclass from a JSON mapping, naming bad keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    values = {}
    for key, raw in data.items():
        if key not in names:
            raise ConfigError(f"unknown config key: {path}.{key}" if path else f"unknown config key: {key}")
        key_path = f"{path}.{key}" if path else key
        values[key] = _coerce(raw, hints[key], key_path)
    try:
        return cls(**values)
    except LafError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    return run_config_from_dict(read_json_object(path, error=ConfigError))


def run_config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    data = dict(data)
    classifier_block = data.pop("classifier", {})
    classifier = build_dataclass(ClassifierTrainConfig, classifier_block, "classifier")
    transfer_block = data.pop("transfer", {})
    if isinstance(transfer_block, dict) and "classifier_config" in transfer_block:
        raise ConfigError('unknown config key: transfer.classifier_config '
                          '(configure it via the top-level "classifier" block)')
    transfer = build_dataclass(TransferConfig,
                               {**transfer_block, "classifier_config": classifier}
                               if isinstance(transfer_block, dict) else transfer_block,
                               "transfer")
    config = build_dataclass(RunConfig, {**data, "transfer": transfer}, "")
    if config.seed is not None:
        config = apply_global_seed(config, config.seed)
    return config


def apply_global_seed(config: RunConfig, seed: int) -> RunConfig:
    """Replace every stage seed with the global one."""
    classifier = dataclasses.replace(config.transfer.classifier_config, seed=seed)
    return dataclasses.replace(
        config,
        seed=seed,
        synth=dataclasses.replace(config.synth, seed=seed),
        transfer=dataclasses.replace(config.transfer, seed=seed, classifier_config=classifier),
        lstm=dataclasses.replace(config.lstm, seed=seed),
    )
