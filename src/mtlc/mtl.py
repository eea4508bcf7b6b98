"""Training regimes: single-task, hard parameter sharing (one encoder, two
heads, summed losses), and soft parameter sharing (two towers coupled by a
Frobenius or trace-norm penalty)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import Batch, Corpus, SplitSet, batches, class_counts, encode_split
from .encoder import (
    EncoderConfig,
    HeadSpec,
    classify,
    encoder_forward,
    head_view,
    init_params,
    param_shapes,
)
from .errors import ConfigError, ContractError, NumericalError
from .losses import ClassWeights, LossConfig, class_weights, compute_loss
from .metrics import task_report
from .numcore import (
    GradTape,
    OptimHyper,
    Tensor,
    add,
    adamw_step,
    backward,
    child_seed,
    concat_rows,
    frobenius_sq_distance,
    init_states,
    scale,
    stream,
    trace_norm_penalty,
    zero_grads,
)
from .text import TokenSeq, Vocab

STL = "stl"
HARD_SHARE = "hard_share"
SOFT_SHARE = "soft_share"
REGIMES = (STL, HARD_SHARE, SOFT_SHARE)

FROBENIUS = "frobenius"
TRACE_NORM = "trace_norm"
PENALTIES = (FROBENIUS, TRACE_NORM)

BATCH_SIZES = (16, 32, 64)


def default_coupled_layers(n_layers: int) -> tuple[str, ...]:
    """Attention projections and FFN matrices of every layer; embeddings,
    norms, biases, and heads stay task-private."""
    names = []
    for i in range(n_layers):
        for leaf in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_w2"):
            names.append(f"layer{i}.{leaf}")
    return tuple(names)


@dataclass(frozen=True)
class SoftShareConfig:
    penalty: str = FROBENIUS
    lam: float = 0.1
    coupled_layer_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ConfigError(f"unknown soft-share penalty {self.penalty!r}; expected {PENALTIES}")
        if self.lam < 0:
            raise ConfigError(f"soft-share lambda must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class RegimeConfig:
    kind: str
    tasks: tuple[str, ...]
    losses: dict[str, LossConfig]
    task_weights: tuple[float, ...] = (1.0, 1.0)
    soft: Optional[SoftShareConfig] = None

    def __post_init__(self):
        if self.kind not in REGIMES:
            raise ConfigError(f"unknown regime {self.kind!r}; expected one of {REGIMES}")
        if self.kind == STL and len(self.tasks) != 1:
            raise ConfigError(f"STL trains exactly one task, got {self.tasks}")
        if self.kind in (HARD_SHARE, SOFT_SHARE) and len(self.tasks) != 2:
            raise ConfigError(f"{self.kind} trains exactly two tasks, got {self.tasks}")
        if len(self.task_weights) != len(self.tasks):
            raise ConfigError(
                f"{len(self.task_weights)} task weights for {len(self.tasks)} tasks"
            )
        if any(w < 0 for w in self.task_weights):
            raise ConfigError(f"task weights must be nonnegative, got {self.task_weights}")
        if set(self.losses) != set(self.tasks):
            raise ConfigError(f"loss config tasks {sorted(self.losses)} != tasks {self.tasks}")
        if self.kind == SOFT_SHARE and self.soft is None:
            raise ConfigError("soft_share regime needs a SoftShareConfig")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    optimizer: OptimHyper = field(default_factory=OptimHyper)
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size not in BATCH_SIZES:
            raise ConfigError(f"batch_size must be one of {BATCH_SIZES}, got {self.batch_size}")


@dataclass(frozen=True)
class EpochStats:
    train_loss: dict[str, float]
    train_accuracy: dict[str, float]
    val_weighted_f1: dict[str, float]
    wall_seconds: float


@dataclass
class TrainTrace:
    epochs: list[EpochStats] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass
class Model:
    """Everything needed to run forward passes for one configured regime."""

    regime: RegimeConfig
    encoder_cfg: EncoderConfig
    heads: dict[str, HeadSpec]
    params: dict[str, Tensor]


def towers(regime: RegimeConfig) -> dict[str, tuple[str, ...]]:
    """Parameter-name prefix of each encoder -> the tasks whose heads sit on
    it: one shared encoder for STL and hard sharing, one tower per task for
    soft sharing."""
    if regime.kind == SOFT_SHARE:
        return {f"tower.{task}.": (task,) for task in regime.tasks}
    return {"": regime.tasks}


def build_model(
    regime: RegimeConfig,
    encoder_cfg: EncoderConfig,
    n_classes: Mapping[str, int],
    seed: int,
) -> Model:
    heads = {task: HeadSpec(task=task, n_classes=n_classes[task]) for task in regime.tasks}
    params: dict[str, Tensor] = {}
    for prefix, tasks in towers(regime).items():
        params.update(init_params(encoder_cfg, [heads[t] for t in tasks], seed, prefix=prefix))
    coupled_pairs(regime, params)  # a coupled layer missing from a tower fails at build
    return Model(regime=regime, encoder_cfg=encoder_cfg, heads=heads, params=params)


def expected_param_shapes(
    regime: RegimeConfig, encoder_cfg: EncoderConfig, n_classes: Mapping[str, int]
) -> dict[str, tuple]:
    """Exact tensor name -> shape map implied by a (regime, config) pair."""
    heads = {task: HeadSpec(task=task, n_classes=n_classes[task]) for task in regime.tasks}
    shapes: dict[str, tuple] = {}
    for prefix, tasks in towers(regime).items():
        for name, shape in param_shapes(encoder_cfg, [heads[t] for t in tasks]).items():
            shapes[prefix + name] = shape
    return shapes


def coupled_pairs(
    regime: RegimeConfig, params: Mapping[str, Tensor]
) -> list[tuple[Tensor, Tensor]]:
    """Each coupled layer's tensor in the first and in the second tower;
    none when every task shares one encoder."""
    prefixes = list(towers(regime))
    if len(prefixes) == 1:
        return []
    assert regime.soft is not None
    first, second = prefixes
    pairs = []
    for name in regime.soft.coupled_layer_names:
        if first + name not in params or second + name not in params:
            raise ConfigError(f"coupled layer {name!r} missing from one of the towers")
        pairs.append((params[first + name], params[second + name]))
    return pairs


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def batch_logits(
    model: Model,
    seqs: Sequence[TokenSeq],
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> dict[str, Tensor]:
    """Per-task [len(seqs), n_classes] logits. Each encoder encodes the
    batch once for every head that sits on it."""
    out: dict[str, Tensor] = {}
    for prefix, tasks in towers(model.regime).items():
        pooled = encoder_forward(seqs, model.params, model.encoder_cfg, training, rng, prefix)
        for task in tasks:
            out[task] = classify(pooled, head_view(model.params, task, prefix))
    return out


def weighted_sum(losses: Sequence[Tensor], task_weights: Sequence[float]) -> Tensor:
    """Sum over tasks of w_t * L_t."""
    if len(losses) != len(task_weights):
        raise ContractError(f"{len(task_weights)} task weights for {len(losses)} losses")
    if any(w < 0 for w in task_weights):
        raise ContractError(f"task weights must be nonnegative, got {task_weights}")
    total = scale(losses[0], task_weights[0])
    for loss, weight in zip(losses[1:], task_weights[1:]):
        total = add(total, scale(loss, weight))
    return total


def hard_loss(loss1: Tensor, loss2: Tensor, task_weights: Sequence[float]) -> Tensor:
    """Weighted sum of the two task losses; default weights are [1, 1]."""
    return weighted_sum((loss1, loss2), task_weights)


def soft_loss(
    losses: Sequence[Tensor],
    params: Mapping[str, Tensor],
    regime: RegimeConfig,
) -> Tensor:
    """The training objective of every regime: the weighted task-loss sum,
    plus lambda times the coupling penalty when the regime couples towers.

    Frobenius couples each pair directly; the trace-norm variant penalizes
    the row-stack of the two matrices.
    """
    total = weighted_sum(losses, regime.task_weights)
    pairs = coupled_pairs(regime, params)
    if not pairs or regime.soft.lam == 0.0:
        return total
    penalty: Optional[Tensor] = None
    for a, b in pairs:
        if regime.soft.penalty == FROBENIUS:
            term = frobenius_sq_distance(a, b)
        else:
            term = trace_norm_penalty(concat_rows([a, b]))
        penalty = term if penalty is None else add(penalty, term)
    return add(total, scale(penalty, regime.soft.lam))


def coupling_distance(model: Model) -> float:
    """Current sum of squared Frobenius distances over the coupled layers."""
    pairs = coupled_pairs(model.regime, model.params)
    return sum((float(((a.data - b.data) ** 2).sum()) for a, b in pairs), 0.0)


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


def _class_weight_table(
    regime: RegimeConfig, train_split: Corpus
) -> dict[str, Optional[ClassWeights]]:
    table: dict[str, Optional[ClassWeights]] = {}
    for task in regime.tasks:
        if regime.losses[task].use_class_weights:
            table[task] = class_weights(class_counts(train_split, task))
        else:
            table[task] = None
    return table


def train(
    splits: SplitSet,
    regime: RegimeConfig,
    train_cfg: TrainConfig,
    model: Model,
    vocab: Vocab,
) -> tuple[dict[str, Tensor], TrainTrace]:
    """Run the configured regime over the train split.

    Per epoch: seeded shuffle, fixed-size batches, forward, weighted loss,
    zero grads, backward, clip, AdamW step; validation weighted F1 is
    recorded after each epoch. Returns the trained parameters and the trace.
    """
    if not splits.train.records or not splits.val.records:
        raise ContractError("train and validation splits must be non-empty")
    for task in regime.tasks:
        want = splits.train.schemas[task].n_classes
        have = model.heads[task].n_classes
        if want != have:
            raise ContractError(
                f"head for {task!r} has {have} classes but schema has {want}"
            )
    states = init_states(model.params)
    weights = _class_weight_table(regime, splits.train)
    shuffle_rng = stream(train_cfg.seed, "shuffle")
    dropout_rng = stream(train_cfg.seed, "dropout")
    train_set = encode_split(splits.train, vocab, model.encoder_cfg.max_len)
    val_set = encode_split(splits.val, vocab, model.encoder_cfg.max_len)
    trace = TrainTrace()

    for epoch in range(train_cfg.epochs):
        started = time.perf_counter()
        epoch_batches = batches(
            train_set, train_cfg.batch_size, train_cfg.shuffle, child_seed(shuffle_rng)
        )
        loss_sums = {task: 0.0 for task in regime.tasks}
        hits = {task: 0 for task in regime.tasks}
        seen = 0
        for batch_index, batch in enumerate(epoch_batches):
            zero_grads(model.params)
            with GradTape() as tape:
                logits = batch_logits(model, batch.seqs, training=True, rng=dropout_rng)
                task_losses = {
                    t: compute_loss(logits[t], batch.labels[t], regime.losses[t], weights[t])
                    for t in regime.tasks
                }
                total = soft_loss([task_losses[t] for t in regime.tasks], model.params, regime)
            if not math.isfinite(total.item()):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {batch_index}"
                )
            backward(tape, total)
            grads = {
                name: p.grad if p.grad is not None else np.zeros(p.shape)
                for name, p in model.params.items()
            }
            for name, grad in grads.items():
                if not np.isfinite(grad).all():
                    raise NumericalError(
                        f"non-finite gradient for {name!r} at epoch {epoch} batch {batch_index}"
                    )
            adamw_step(model.params, grads, states, train_cfg.optimizer)
            seen += len(batch)
            for task in regime.tasks:
                loss_sums[task] += task_losses[task].item() * len(batch)
                hits[task] += int((logits[task].data.argmax(axis=1) == batch.labels[task]).sum())

        val_preds = _predict(model, val_set)
        val_f1 = {}
        for task in regime.tasks:
            tr = task_report(
                task, splits.val.schemas[task].classes, list(val_set.labels[task]), val_preds[task]
            )
            val_f1[task] = tr.weighted.f1
        trace.epochs.append(
            EpochStats(
                train_loss={t: loss_sums[t] / seen for t in regime.tasks},
                train_accuracy={t: hits[t] / seen for t in regime.tasks},
                val_weighted_f1=val_f1,
                wall_seconds=time.perf_counter() - started,
            )
        )
    return model.params, trace


def _predict(model: Model, encoded: Batch) -> dict[str, list[int]]:
    """Argmax predictions in corpus order. The comments run in batches of
    ascending valid length (stable), so equal-length comments sit side by
    side and attention covers each such run in one call. Raises
    NumericalError, naming the comment's corpus index and the task, if a
    logit is not finite."""
    order = np.argsort([sum(seq.mask) for seq in encoded.seqs], kind="stable")
    by_length = Batch(seqs=tuple(encoded.seqs[i] for i in order), labels={})
    preds = {task: np.empty(len(order), dtype=np.int64) for task in model.regime.tasks}
    start = 0
    for batch in batches(by_length, 64, False, 0):
        rows = order[start : start + len(batch)]
        logits = batch_logits(model, batch.seqs)
        for task in model.regime.tasks:
            data = logits[task].data
            if not np.isfinite(data).all():
                bad = rows[~np.isfinite(data).all(axis=1)].min()
                raise NumericalError(f"non-finite {task} logits for comment {bad}")
            preds[task][rows] = data.argmax(axis=1)
        start += len(batch)
    return {task: p.tolist() for task, p in preds.items()}


def evaluate(model: Model, split: Corpus, vocab: Vocab) -> dict[str, list[int]]:
    """Deterministic argmax predictions per task, dropout disabled.

    Ties break to the lowest class index. Results are in corpus order.
    """
    for task in model.regime.tasks:
        if task not in split.schemas:
            raise ContractError(f"split has no labels for task {task!r}")
        if split.schemas[task].n_classes != model.heads[task].n_classes:
            raise ContractError(
                f"schema/head class count mismatch for {task!r}: "
                f"{split.schemas[task].n_classes} vs {model.heads[task].n_classes}"
            )
    return _predict(model, encode_split(split, vocab, model.encoder_cfg.max_len))
