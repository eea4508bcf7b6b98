"""Run configuration: flat `section.key = value` text, UTF-8, `#` comments.

Everything is validated up front so a bad config never produces partial
outputs; every complaint names the offending key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

from .data import OFFENSE_TASK, SENTIMENT_TASK, LANGUAGES
from .encoder import EncoderConfig, param_shapes
from .errors import ConfigError, ContractError
from .losses import LossConfig, LossKind
from .mtl import (
    PENALTIES,
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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _finite_list(text: str) -> tuple[float, ...]:
    return tuple(_finite(part) for part in text.split(","))


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _one_of(options: tuple[str, ...], fold_case: bool = True) -> Callable[[str], str]:
    def parse(text: str) -> str:
        value = text.lower() if fold_case else text
        if value not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return value

    return parse


def _loss_override(text: str) -> Optional[LossKind]:
    """Empty means the task trains with `regime.loss`."""
    return LossKind.parse(text) if text else None


# key -> (default text, parser). The order is the order of `to_text`, which
# every checkpoint embeds; a parser raises ValueError or ContractError.
_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "data.train": ("", str),
    "data.val": ("", str),
    "data.test": ("", str),
    "data.format": ("joint", _one_of(("joint",), fold_case=False)),
    "data.language": ("kannada", _one_of(LANGUAGES)),
    "text.mode": ("char", _one_of(MODES)),
    "text.min_freq": ("1", int),
    "text.max_size": ("20000", int),
    "text.max_len": ("64", int),
    "model.d_model": ("64", int),
    "model.n_heads": ("4", int),
    "model.n_layers": ("2", int),
    "model.d_ffn": ("128", int),
    "model.dropout": ("0.4", _finite),
    "regime.kind": ("hard_share", _one_of(REGIMES)),
    "regime.task": ("sentiment", _one_of(TASKS)),
    "regime.loss": ("CE", LossKind.parse),
    "regime.loss_sentiment": ("", _loss_override),
    "regime.loss_offense": ("", _loss_override),
    "regime.focal_gamma": ("2.0", _finite),
    "regime.kld_epsilon": ("0.1", _finite),
    "regime.class_weights": ("false", _bool),
    "regime.task_weights": ("1,1", _finite_list),
    "regime.penalty": ("frobenius", _one_of(PENALTIES)),
    "regime.lambda": ("0.1", _finite),
    "regime.coupled_layers": ("default", str),
    "train.epochs": ("5", int),
    "train.batch_size": ("32", int),
    "train.lr": ("0.001", _finite),
    "train.beta1": ("0.9", _finite),
    "train.beta2": ("0.999", _finite),
    "train.epsilon": ("1e-8", _finite),
    "train.weight_decay": ("0.01", _finite),
    "train.clip_norm": ("1.0", _finite),
    "train.seed": ("0", int),
    "train.shuffle": ("true", _bool),
    "output.dir": ("runs/run", str),
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = value
    return values


@dataclass
class RunConfig:
    """Typed view of one run's configuration plus its normalized text."""

    raw: dict[str, str]
    train_path: str
    val_path: str
    language: str
    text_mode: str
    min_freq: int
    max_size: int
    encoder: EncoderConfig  # vocab_size is a placeholder until a vocabulary exists
    regime: RegimeConfig
    train_cfg: TrainConfig
    output_dir: str

    def to_text(self) -> str:
        lines = [f"{key} = {self.raw[key]}" for key in _KEYS]
        return "\n".join(lines) + "\n"


def _checked(section: str, ctor, **kwargs):
    """`ctor(**kwargs)`, its range-check failure reported under `section`."""
    try:
        return ctor(**kwargs)
    except (ConfigError, ContractError) as err:
        raise ConfigError(f"{section}.{err}") from None


def load_config(
    text: str, seed_override: Optional[int] = None, check_paths: bool = True
) -> RunConfig:
    """Parse, apply defaults, validate bounds, and assemble typed configs.

    Every key is checked whatever `regime.kind` selects, so a bad value never
    survives to a later edit of it. `seed_override` implements the flag/env
    precedence over the config file.
    """
    values = {key: default for key, (default, _) in _KEYS.items()}
    values.update(parse_flat(text))
    if seed_override is not None:
        values["train.seed"] = str(int(seed_override))

    typed = {}
    for key, (_, parse) in _KEYS.items():
        try:
            typed[key] = parse(values[key])
        except (ValueError, ContractError) as err:
            raise ConfigError(f"{key}: {err}") from None

    if check_paths:
        for key in ("data.train", "data.val"):
            if not typed[key]:
                raise ConfigError(f"{key}: required path is missing")
        for key in ("data.train", "data.val", "data.test"):
            if typed[key] and not os.path.isfile(typed[key]):
                raise ConfigError(f"{key}: path {typed[key]!r} is not a file")
    for key, low in (("text.min_freq", 1), ("text.max_size", 1), ("text.max_len", 3)):
        if typed[key] < low:
            raise ConfigError(f"{key}: must be >= {low}, got {typed[key]}")

    encoder = _checked(
        "model",
        EncoderConfig,
        vocab_size=len(SPECIAL_TOKENS),
        d_model=typed["model.d_model"],
        n_heads=typed["model.n_heads"],
        n_layers=typed["model.n_layers"],
        d_ffn=typed["model.d_ffn"],
        max_len=typed["text.max_len"],
        dropout_p=typed["model.dropout"],
    )
    losses = {
        task: _checked(
            "regime",
            LossConfig,
            kind=typed[f"regime.loss_{task}"] or typed["regime.loss"],
            focal_gamma=typed["regime.focal_gamma"],
            kld_epsilon=typed["regime.kld_epsilon"],
            use_class_weights=typed["regime.class_weights"],
        )
        for task in TASKS
    }
    coupled_text = typed["regime.coupled_layers"]
    if coupled_text.lower() == "default":
        coupled = default_coupled_layers(encoder.n_layers)
    else:
        coupled = tuple(name.strip() for name in coupled_text.split(",") if name.strip())
    unknown = sorted(set(coupled) - set(param_shapes(encoder, ())))
    if unknown:
        raise ConfigError(f"regime.coupled_layers: not encoder parameters: {unknown}")
    soft = _checked(
        "regime",
        SoftShareConfig,
        penalty=typed["regime.penalty"],
        lam=typed["regime.lambda"],
        coupled_layer_names=coupled,
    )
    # STL trains its one task at weight 1
    kind = typed["regime.kind"]
    tasks = (typed["regime.task"],) if kind == STL else TASKS
    regime = _checked(
        "regime",
        RegimeConfig,
        kind=kind,
        tasks=tasks,
        losses={task: losses[task] for task in tasks},
        task_weights=(1.0,) if kind == STL else typed["regime.task_weights"],
        soft=soft if kind == SOFT_SHARE else None,
    )
    train_cfg = _checked(
        "train",
        TrainConfig,
        epochs=typed["train.epochs"],
        batch_size=typed["train.batch_size"],
        optimizer=_checked(
            "train",
            OptimHyper,
            learning_rate=typed["train.lr"],
            beta1=typed["train.beta1"],
            beta2=typed["train.beta2"],
            epsilon=typed["train.epsilon"],
            weight_decay=typed["train.weight_decay"],
            clip_norm=typed["train.clip_norm"],
        ),
        seed=typed["train.seed"],
        shuffle=typed["train.shuffle"],
    )
    return RunConfig(
        raw=values,
        train_path=typed["data.train"],
        val_path=typed["data.val"],
        language=typed["data.language"],
        text_mode=typed["text.mode"],
        min_freq=typed["text.min_freq"],
        max_size=typed["text.max_size"],
        encoder=encoder,
        regime=regime,
        train_cfg=train_cfg,
        output_dir=typed["output.dir"],
    )
