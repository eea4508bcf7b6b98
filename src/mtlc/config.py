"""Run configuration: flat `section.key = value` text, UTF-8, `#` comments.

Parsing turns text into typed values and reads no file: every value is
checked up front, and every complaint names the offending key. The paths a
config names are checked by `mtlc train`, the one command that opens them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Union

from .data import OFFENSE_TASK, SENTIMENT_TASK, LANGUAGES, fold_word
from .encoder import EncoderConfig, param_shapes
from .errors import ConfigError, ContractError
from .losses import LossConfig, LossKind
from .mtl import PENALTIES, RegimeConfig, SoftShareConfig, TrainConfig, default_coupled_layers
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


def _word(table: Union[dict[str, object], tuple[str, ...]]) -> Callable[[str], object]:
    """A parser of one word of `table`, which maps each spelling to its
    value (a tuple of words maps each to itself); words compare through
    `data.fold_word`."""
    if not isinstance(table, dict):
        table = dict(zip(table, table))
    folded = {fold_word(spelling): value for spelling, value in table.items()}

    def parse(text: str) -> object:
        word = fold_word(text)
        if word not in folded:
            raise ValueError(f"expected one of {tuple(table)}, got {text!r}")
        return folded[word]

    return parse


_bool = _word({"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False})
_LOSSES = {  # every spelling of a loss kind
    "CE": LossKind.CROSS_ENTROPY, "CROSS_ENTROPY": LossKind.CROSS_ENTROPY,
    "CROSS-ENTROPY": LossKind.CROSS_ENTROPY, "HL": LossKind.HINGE, "HINGE": LossKind.HINGE,
    "FL": LossKind.FOCAL, "FOCAL": LossKind.FOCAL, "KLD": LossKind.KLD, "KL": LossKind.KLD,
}
_loss = _word(_LOSSES)
_task_loss = _word({"": None, **_LOSSES})  # empty: the task trains with `regime.loss`
REGIMES = ("stl", "hard_share", "soft_share")  # the words of `regime.kind`
STL, HARD_SHARE, SOFT_SHARE = REGIMES


def _float_text(value: float) -> str:
    """`repr` without the exponent's zero padding: `1e-8`, not `1e-08`."""
    mantissa, e, exponent = repr(value).partition("e")
    return f"{mantissa}e{int(exponent)}" if e else mantissa


# parser -> the formatter that renders a value as text it parses back to;
# any other parser's values render with `str`
_FORMATS: dict[Callable[[str], object], Callable[[object], str]] = {
    _finite: _float_text,
    _finite_list: lambda values: ",".join(f"{value:g}" for value in values),
    _bool: lambda value: "true" if value else "false",
    _loss: lambda kind: kind.value,
}

# key -> (parser, home). The home is the (dataclass, field) that holds the
# key's value, whose default is the key's default, or else the key's default
# text. The order is the order of `to_text`, which every checkpoint embeds;
# a parser raises ValueError or ContractError.
_KEYS: dict[str, tuple[Callable[[str], object], Union[str, tuple[type, str]]]] = {
    "data.train": (str, ""),
    "data.val": (str, ""),
    "data.test": (str, ""),
    "data.format": (_word(("joint",)), "joint"),
    "data.language": (_word(LANGUAGES), "kannada"),
    "text.mode": (_word(MODES), "char"),  # the corpora mix scripts inside a comment
    "text.min_freq": (int, "1"),
    "text.max_size": (int, "20000"),
    "text.max_len": (int, (EncoderConfig, "max_len")),
    "model.d_model": (int, (EncoderConfig, "d_model")),
    "model.n_heads": (int, (EncoderConfig, "n_heads")),
    "model.n_layers": (int, (EncoderConfig, "n_layers")),
    "model.d_ffn": (int, (EncoderConfig, "d_ffn")),
    "model.dropout": (_finite, (EncoderConfig, "dropout_p")),
    "regime.kind": (_word(REGIMES), HARD_SHARE),
    "regime.task": (_word(TASKS), "sentiment"),
    "regime.loss": (_loss, (LossConfig, "kind")),
    "regime.loss_sentiment": (_task_loss, ""),
    "regime.loss_offense": (_task_loss, ""),
    "regime.focal_gamma": (_finite, (LossConfig, "focal_gamma")),
    "regime.kld_epsilon": (_finite, (LossConfig, "kld_epsilon")),
    "regime.class_weights": (_bool, (LossConfig, "use_class_weights")),
    "regime.task_weights": (_finite_list, (RegimeConfig, "task_weights")),
    "regime.penalty": (_word(PENALTIES), (SoftShareConfig, "penalty")),
    "regime.lambda": (_finite, (SoftShareConfig, "lam")),
    "regime.coupled_layers": (str, "default"),
    "train.epochs": (int, (TrainConfig, "epochs")),
    "train.batch_size": (int, (TrainConfig, "batch_size")),
    "train.lr": (_finite, (OptimHyper, "learning_rate")),
    "train.beta1": (_finite, (OptimHyper, "beta1")),
    "train.beta2": (_finite, (OptimHyper, "beta2")),
    "train.epsilon": (_finite, (OptimHyper, "epsilon")),
    "train.weight_decay": (_finite, (OptimHyper, "weight_decay")),
    "train.clip_norm": (_finite, (OptimHyper, "clip_norm")),
    "train.seed": (int, (TrainConfig, "seed")),
    "train.shuffle": (_bool, (TrainConfig, "shuffle")),
    "output.dir": (str, "runs/run"),
}


def _index() -> tuple[dict[str, str], dict[type, dict[str, str]]]:
    """Each key's default text, and per dataclass the fields the table
    homes there, as field -> key."""
    defaults, homed = {}, {}
    for key, (parse, home) in _KEYS.items():
        if isinstance(home, str):
            defaults[key] = home
            continue
        cls, name = home
        homed.setdefault(cls, {})[name] = key
        default = next(f.default for f in fields(cls) if f.name == name)
        defaults[key] = _FORMATS.get(parse, str)(default)
    return defaults, homed


_DEFAULTS, _HOMED = _index()


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
    language: str
    text_mode: str
    min_freq: int
    max_size: int
    encoder: EncoderConfig  # vocab_size is a placeholder until a vocabulary exists
    regime: RegimeConfig
    train_cfg: TrainConfig

    def to_text(self) -> str:
        lines = [f"{key} = {self.raw[key]}" for key in _KEYS]
        return "\n".join(lines) + "\n"


def _build(cls, typed: dict[str, object], **computed):
    """A `cls` whose fields come from `typed`, the parsed values of the keys
    the table homes in `cls`, and from `computed`, which wins. A range error
    whose message starts with a homed field's name names that field's key
    instead; any other error propagates unchanged."""
    homed = _HOMED[cls]
    kwargs = {name: typed[key] for name, key in homed.items()}
    kwargs.update(computed)
    try:
        return cls(**kwargs)
    except (ConfigError, ContractError) as err:
        message = str(err)
        name = message.split(" ", 1)[0].rstrip(":")
        if name not in homed:
            raise
        raise ConfigError(homed[name] + message[len(name):]) from None


def load_config(text: str) -> RunConfig:
    """Parse, apply defaults, validate bounds, and assemble typed configs.

    Every key is checked whatever `regime.kind` selects, so a bad value never
    survives to a later edit of it. No file is read: a path is a value like
    any other, so a checkpoint's embedded config loads wherever it moved.
    """
    values = {**_DEFAULTS, **parse_flat(text)}

    typed = {}
    for key, (parse, _) in _KEYS.items():
        try:
            typed[key] = parse(values[key])
        except (ValueError, ContractError) as err:
            raise ConfigError(f"{key}: {err}") from None

    for key in ("text.min_freq", "text.max_size"):
        if typed[key] < 1:
            raise ConfigError(f"{key}: must be >= 1, got {typed[key]}")

    encoder = _build(EncoderConfig, typed, vocab_size=len(SPECIAL_TOKENS))
    kind = typed["regime.kind"]
    tasks = (typed["regime.task"],) if kind == STL else TASKS
    losses = {
        task: _build(LossConfig, typed, kind=typed[f"regime.loss_{task}"] or typed["regime.loss"])
        for task in tasks
    }
    coupled_text = typed["regime.coupled_layers"]
    if fold_word(coupled_text) == "default":
        coupled = default_coupled_layers(encoder.n_layers)
    else:
        coupled = tuple(name.strip() for name in coupled_text.split(",") if name.strip())
    if not coupled:  # uncoupled towers are spelled `regime.lambda = 0`
        raise ConfigError(f"regime.coupled_layers: {coupled_text!r} names no parameter")
    unknown = sorted(set(coupled) - set(param_shapes(encoder, {})))
    if unknown:
        raise ConfigError(f"regime.coupled_layers: not encoder parameters: {unknown}")
    repeated = sorted({name for name in coupled if coupled.count(name) > 1})
    if repeated:
        raise ConfigError(f"regime.coupled_layers: named more than once: {repeated}")
    soft = _build(SoftShareConfig, typed, coupled_layer_names=coupled)
    stl_weight = {"task_weights": (1.0,)} if kind == STL else {}  # STL trains at weight 1
    regime = _build(RegimeConfig, typed, tasks=tasks, losses=losses,
                    soft=soft if kind == SOFT_SHARE else None, **stl_weight)
    return RunConfig(
        raw=values,
        language=typed["data.language"],
        text_mode=typed["text.mode"],
        min_freq=typed["text.min_freq"],
        max_size=typed["text.max_size"],
        encoder=encoder,
        regime=regime,
        train_cfg=_build(TrainConfig, typed, optimizer=_build(OptimHyper, typed)),
    )
