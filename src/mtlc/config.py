"""Run configuration: flat `section.key = value` text, UTF-8, `#` comments.

Everything is validated up front so a bad config never produces partial
outputs; every complaint names the offending key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .data import OFFENSE_TASK, SENTIMENT_TASK, LANGUAGES, schemas_for_language
from .encoder import EncoderConfig
from .errors import ConfigError, ContractError
from .losses import LossConfig, LossKind
from .mtl import (
    REGIMES,
    SOFT_SHARE,
    STL,
    RegimeConfig,
    SoftShareConfig,
    TrainConfig,
    default_coupled_layers,
)
from .numcore import OptimHyper
from .text import MODES, SPECIAL_TOKENS

TASKS = (SENTIMENT_TASK, OFFENSE_TASK)

_DEFAULTS: dict[str, str] = {
    "data.train": "",
    "data.val": "",
    "data.test": "",
    "data.format": "joint",
    "data.language": "kannada",
    "text.mode": "char",
    "text.min_freq": "1",
    "text.max_size": "20000",
    "text.max_len": "64",
    "model.d_model": "64",
    "model.n_heads": "4",
    "model.n_layers": "2",
    "model.d_ffn": "128",
    "model.dropout": "0.4",
    "regime.kind": "hard_share",
    "regime.task": "sentiment",
    "regime.loss": "CE",
    "regime.loss_sentiment": "",
    "regime.loss_offense": "",
    "regime.focal_gamma": "2.0",
    "regime.kld_epsilon": "0.1",
    "regime.class_weights": "false",
    "regime.task_weights": "1,1",
    "regime.penalty": "frobenius",
    "regime.lambda": "0.1",
    "regime.coupled_layers": "default",
    "train.epochs": "5",
    "train.batch_size": "32",
    "train.lr": "0.001",
    "train.beta1": "0.9",
    "train.beta2": "0.999",
    "train.epsilon": "1e-8",
    "train.weight_decay": "0.01",
    "train.clip_norm": "1.0",
    "train.seed": "0",
    "train.shuffle": "true",
    "output.dir": "runs/run",
}


def parse_flat(text: str) -> dict[str, str]:
    """Raw key/value pairs; rejects unknown and duplicate keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = value
    return values


def _as_int(values: dict[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {values[key]!r}") from None


def _as_float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {values[key]!r}") from None


def _as_bool(values: dict[str, str], key: str) -> bool:
    lowered = values[key].strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {values[key]!r}")


@dataclass
class RunConfig:
    """Typed view of one run's configuration plus its normalized text."""

    raw: dict[str, str]
    train_path: str
    val_path: str
    test_path: str
    language: str
    text_mode: str
    min_freq: int
    max_size: int
    max_len: int
    d_model: int
    n_heads: int
    n_layers: int
    d_ffn: int
    dropout: float
    regime: RegimeConfig
    train_cfg: TrainConfig
    output_dir: str

    def to_text(self) -> str:
        lines = [f"{key} = {self.raw[key]}" for key in _DEFAULTS]
        return "\n".join(lines) + "\n"


def load_config(
    text: str, seed_override: Optional[int] = None, check_paths: bool = True
) -> RunConfig:
    """Parse, apply defaults, validate bounds, and assemble typed configs.

    `seed_override` implements the flag/env precedence over the config file.
    """
    values = dict(_DEFAULTS)
    values.update(parse_flat(text))
    if seed_override is not None:
        values["train.seed"] = str(int(seed_override))

    language = values["data.language"].strip().lower()
    if language not in LANGUAGES:
        raise ConfigError(f"data.language: unknown language {values['data.language']!r}")
    if values["data.format"] != "joint":
        raise ConfigError(f"data.format: only 'joint' is supported, got {values['data.format']!r}")
    if check_paths:
        for key in ("data.train", "data.val"):
            if not values[key]:
                raise ConfigError(f"{key}: required path is missing")
            if not os.path.exists(values[key]):
                raise ConfigError(f"{key}: path {values[key]!r} does not exist")
        if values["data.test"] and not os.path.exists(values["data.test"]):
            raise ConfigError(f"data.test: path {values['data.test']!r} does not exist")

    mode = values["text.mode"].strip().lower()
    if mode not in MODES:
        raise ConfigError(f"text.mode: expected one of {MODES}, got {values['text.mode']!r}")
    min_freq = _as_int(values, "text.min_freq")
    if min_freq < 1:
        raise ConfigError(f"text.min_freq: must be >= 1, got {min_freq}")
    max_size = _as_int(values, "text.max_size")
    if max_size < 1:
        raise ConfigError(f"text.max_size: must be >= 1, got {max_size}")
    max_len = _as_int(values, "text.max_len")
    if max_len < 3:
        raise ConfigError(f"text.max_len: must be >= 3, got {max_len}")

    d_model = _as_int(values, "model.d_model")
    n_heads = _as_int(values, "model.n_heads")
    n_layers = _as_int(values, "model.n_layers")
    d_ffn = _as_int(values, "model.d_ffn")
    dropout = _as_float(values, "model.dropout")
    try:
        EncoderConfig(len(SPECIAL_TOKENS), d_model, n_heads, n_layers, d_ffn, max_len, dropout)
    except ContractError as err:
        raise ConfigError(f"model.{err}") from None

    regime = _build_regime(values, n_layers)
    train_cfg = _build_train(values)
    return RunConfig(
        raw=values,
        train_path=values["data.train"],
        val_path=values["data.val"],
        test_path=values["data.test"],
        language=language,
        text_mode=mode,
        min_freq=min_freq,
        max_size=max_size,
        max_len=max_len,
        d_model=d_model,
        n_heads=n_heads,
        n_layers=n_layers,
        d_ffn=d_ffn,
        dropout=dropout,
        regime=regime,
        train_cfg=train_cfg,
        output_dir=values["output.dir"],
    )


def _loss_config(values: dict[str, str], task: str) -> LossConfig:
    override = values[f"regime.loss_{task}"].strip()
    kind_text = override if override else values["regime.loss"]
    try:
        kind = LossKind.parse(kind_text)
        return LossConfig(
            kind=kind,
            focal_gamma=_as_float(values, "regime.focal_gamma"),
            kld_epsilon=_as_float(values, "regime.kld_epsilon"),
            use_class_weights=_as_bool(values, "regime.class_weights"),
        )
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"regime.loss: {err}") from None


def _build_regime(values: dict[str, str], n_layers: int) -> RegimeConfig:
    kind = values["regime.kind"].strip().lower()
    if kind not in REGIMES:
        raise ConfigError(f"regime.kind: expected one of {REGIMES}, got {values['regime.kind']!r}")
    if kind == STL:
        task = values["regime.task"].strip().lower()
        if task not in TASKS:
            raise ConfigError(f"regime.task: expected one of {TASKS}, got {values['regime.task']!r}")
        tasks: tuple[str, ...] = (task,)
    else:
        tasks = TASKS

    try:
        weights = tuple(float(w) for w in values["regime.task_weights"].split(","))
    except ValueError:
        raise ConfigError(
            f"regime.task_weights: expected comma-separated numbers, got "
            f"{values['regime.task_weights']!r}"
        ) from None
    if kind == STL:
        weights = (1.0,)

    # penalty settings are validated even when the regime ignores them so a
    # bad config never survives to a later edit of regime.kind
    lam = _as_float(values, "regime.lambda")
    if lam < 0:
        raise ConfigError(f"regime.lambda: must be >= 0, got {lam}")
    penalty = values["regime.penalty"].strip().lower()
    soft = None
    if kind == SOFT_SHARE:
        coupled_text = values["regime.coupled_layers"].strip()
        if coupled_text.lower() == "default":
            coupled = default_coupled_layers(n_layers)
        else:
            coupled = tuple(n.strip() for n in coupled_text.split(",") if n.strip())
        soft = SoftShareConfig(penalty=penalty, lam=lam, coupled_layer_names=coupled)
    try:
        return RegimeConfig(
            kind=kind,
            tasks=tasks,
            losses={task: _loss_config(values, task) for task in tasks},
            task_weights=weights,
            soft=soft,
        )
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"regime: {err}") from None


def _build_train(values: dict[str, str]) -> TrainConfig:
    try:
        hyper = OptimHyper(
            learning_rate=_as_float(values, "train.lr"),
            beta1=_as_float(values, "train.beta1"),
            beta2=_as_float(values, "train.beta2"),
            epsilon=_as_float(values, "train.epsilon"),
            weight_decay=_as_float(values, "train.weight_decay"),
            clip_norm=_as_float(values, "train.clip_norm"),
        )
        return TrainConfig(
            epochs=_as_int(values, "train.epochs"),
            batch_size=_as_int(values, "train.batch_size"),
            optimizer=hyper,
            seed=_as_int(values, "train.seed"),
            shuffle=_as_bool(values, "train.shuffle"),
        )
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"train: {err}") from None


def schemas_for_config(cfg: RunConfig):
    return schemas_for_language(cfg.language)
