"""Training regimes: single-task, hard parameter sharing (one encoder, two
heads, summed losses), and soft parameter sharing (two towers coupled by a
Frobenius or trace-norm penalty, applied as a proximal step)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import Corpus, batches, class_counts, encode_split, encode_texts
from .encoder import (
    EncoderConfig,
    HeadSpec,
    classify,
    encoder_forward,
    head_view,
    init_params,
    pack,
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
    init_states,
    scale,
    stream,
    svt,
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

# packed rows (comment positions) times encoder towers per prediction batch:
# bounds the working set of evaluation, which the heap keeps once it has
# grown to it, below that of a training step
PREDICT_ROWS = 1024


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
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")


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
                f"task_weights: {len(self.task_weights)} weights for {len(self.tasks)} tasks"
            )
        if any(w < 0 for w in self.task_weights):
            raise ConfigError(f"task_weights must be nonnegative, got {self.task_weights}")
        if set(self.losses) != set(self.tasks):
            raise ConfigError(f"loss config tasks {sorted(self.losses)} != tasks {self.tasks}")
        if (self.kind == SOFT_SHARE) != (self.soft is not None):
            raise ConfigError(f"a SoftShareConfig goes with soft_share alone; kind is {self.kind!r}")


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


@dataclass
class Model:
    """Everything needed to run forward passes for one configured regime.

    Each encoder parameter lives once, in `stacks`, as a [towers, ...]
    array in `towers` order: one tower for STL and hard sharing, two for
    soft sharing. Each tower's Tensor of that name views its slice.
    Prediction runs every tower in one encoder pass over the stacks, and
    the coupling step works on each coupled stack whole; training, the
    optimizer and the checkpoint see one Tensor per tower. `heads` maps
    each task to its tower's index and its head's Tensors from `params`.
    Weights are edited in place: a Tensor whose `.data` is rebound no
    longer reaches its stack, nor a replaced one `heads`, so new weights
    take a new Model.

    A coupled layer that is not an encoder parameter raises ConfigError."""

    regime: RegimeConfig
    encoder_cfg: EncoderConfig
    params: dict[str, Tensor]
    stacks: dict[str, Tensor] = field(init=False, repr=False, compare=False)
    heads: dict[str, tuple[int, dict[str, Tensor]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.stacks = {}
        self.heads = {
            task: (i, head_view(self.params, task, prefix))
            for i, (prefix, tasks) in enumerate(towers(self.regime).items())
            for task in tasks
        }
        for name in param_shapes(self.encoder_cfg, ()):
            keys = [prefix + name for prefix in towers(self.regime)]
            stack = np.stack([self.params[key].data for key in keys])
            for key, view in zip(keys, stack):
                self.params[key].data = view
            self.stacks[name] = Tensor(stack, name=name)
        for name in self.regime.soft.coupled_layer_names if self.regime.soft else ():
            if name not in self.stacks:
                raise ConfigError(f"coupled layer {name!r} is not an encoder parameter")


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
    return Model(regime=regime, encoder_cfg=encoder_cfg, params=params)


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


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def predict_logits(model: Model, seqs: Sequence[TokenSeq]) -> dict[str, Tensor]:
    """Per-task inference logits: every tower in one encoder pass over
    `model.stacks`, and each head on its tower's slice of the pooled
    output; bit for bit those of one pass per tower, as `train` runs it."""
    pooled = encoder_forward(pack(seqs, model.encoder_cfg), model.stacks, model.encoder_cfg).data
    return {task: classify(Tensor(pooled[i]), head) for task, (i, head) in model.heads.items()}


def weighted_sum(losses: Sequence[Tensor], task_weights: Sequence[float]) -> Tensor:
    """Sum over tasks of w_t * L_t; the count check stops `zip` dropping a loss."""
    if len(losses) != len(task_weights):
        raise ContractError(f"{len(task_weights)} task weights for {len(losses)} losses")
    total = scale(losses[0], task_weights[0])
    for loss, weight in zip(losses[1:], task_weights[1:]):
        total = add(total, scale(loss, weight))
    return total


def soft_loss(losses: Sequence[Tensor], regime: RegimeConfig) -> Tensor:
    """The differentiable part of every regime's objective: the weighted
    task-loss sum. A coupling penalty stays off the tape; `couple` applies
    it as a proximal step after the optimizer's."""
    return weighted_sum(losses, regime.task_weights)


def frobenius_penalty(pair: np.ndarray, eta: float) -> None:
    """Proximal step of eta * ||a - b||_F^2 on one coupled [2, ...] stack
    [a, b], in place: the pair's mean stays and its difference shrinks by
    1 / (1 + 4 eta)."""
    a, b = pair
    mean = (a + b) / 2
    half_diff = (a - b) / (2 * (1 + 4 * eta))
    np.add(mean, half_diff, out=a)
    np.subtract(mean, half_diff, out=b)


def trace_norm_penalty(pair: np.ndarray, eta: float) -> None:
    """Proximal step of eta * ||[a; b]||_* on one coupled [2, ...] stack
    [a, b], in place: singular-value thresholding of its row-stack, the
    [-1, c] view of the stack."""
    pair[...] = svt(pair.reshape(-1, pair.shape[-1]), eta).reshape(pair.shape)


def couple(model: Model, learning_rate: float) -> None:
    """The coupling penalty's proximal step on each coupled stack, taken
    after each optimizer step with eta = learning_rate * lambda (a
    forward-backward split: the task losses take the gradient step, the
    penalty its proximal operator). Without a coupling, or at lambda 0,
    nothing runs, so an uncoupled soft run is a plain AdamW run. A
    NumericalError names the coupled layer."""
    soft = model.regime.soft
    if soft is None or soft.lam == 0.0:
        return
    prox = frobenius_penalty if soft.penalty == FROBENIUS else trace_norm_penalty
    eta = learning_rate * soft.lam
    for name in soft.coupled_layer_names:
        try:
            prox(model.stacks[name].data, eta)
        except NumericalError as exc:
            raise NumericalError(f"coupled layer {name!r}: {exc}") from exc


def coupling_distance(model: Model) -> float:
    """Current sum of squared Frobenius distances over the coupled layers."""
    total = 0.0
    for name in model.regime.soft.coupled_layer_names if model.regime.soft else ():
        a, b = model.stacks[name].data
        total += float(((a - b) ** 2).sum())
    return total


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


def _check_heads(model: Model, split: Corpus) -> None:
    """A ContractError unless each head's `b_out` has one entry per class of the split."""
    for task, (_, head) in model.heads.items():
        if task not in split.schemas:
            raise ContractError(f"split has no labels for task {task!r}")
        want, have = split.schemas[task].n_classes, head["b_out"].shape[0]
        if have != want:
            raise ContractError(f"head for {task!r} has {have} classes but schema has {want}")


def train(
    model: Model,
    train_split: Corpus,
    val_split: Corpus,
    vocab: Vocab,
    train_cfg: TrainConfig,
) -> list[EpochStats]:
    """Run `model.regime` over the train split, updating `model.params` in
    place; one EpochStats per epoch.

    Per epoch: seeded shuffle and fixed-size batches. A batch is packed
    once, and each encoder of `towers(regime)` in turn runs
    `encoder_forward` on its own 2-D tensors, its heads, its tasks' losses
    and their weighted sum's backward on a tape of its own, so only one
    encoder's activations are alive at a time. Each parameter belongs to
    one encoder, so the gradients equal one backward of `soft_loss` over
    all encoders bit for bit. Then the AdamW step, and `couple` takes the
    coupling penalty's proximal step; validation weighted F1 is recorded
    after each epoch.

    An empty split raises ContractError. A non-finite task loss raises
    NumericalError naming the task, epoch and batch before its encoder's
    backward; a non-finite objective or gradient raises before the update,
    so no parameter changes.
    """
    regime = model.regime
    train_set = encode_split(train_split, vocab, model.encoder_cfg.max_len)
    val_set = encode_split(val_split, vocab, model.encoder_cfg.max_len)
    _check_heads(model, train_split)
    states = init_states(model.params)
    weights = _class_weight_table(regime, train_split)
    shuffle_rng = stream(train_cfg.seed, "shuffle")
    dropout_rng = stream(train_cfg.seed, "dropout")
    epochs: list[EpochStats] = []
    task_weight = dict(zip(regime.tasks, regime.task_weights))

    for epoch in range(train_cfg.epochs):
        epoch_batches = batches(
            train_set, train_cfg.batch_size, train_cfg.shuffle, child_seed(shuffle_rng)
        )
        loss_sums = {task: 0.0 for task in regime.tasks}
        hits = {task: 0 for task in regime.tasks}
        for batch_index, batch in enumerate(epoch_batches):
            at = f"at epoch {epoch} batch {batch_index}"
            zero_grads(model.params)
            packed = pack(batch.seqs, model.encoder_cfg)
            loss_values: dict[str, float] = {}
            for prefix, tasks in towers(regime).items():
                tower = {name: model.params[prefix + name] for name in model.stacks}
                with GradTape() as tape:
                    pooled = encoder_forward(packed, tower, model.encoder_cfg, True, dropout_rng)
                    logits = {t: classify(pooled, model.heads[t][1]) for t in tasks}
                    losses = [
                        compute_loss(logits[t], batch.labels[t], regime.losses[t], weights[t])
                        for t in tasks
                    ]
                    tower_loss = weighted_sum(losses, [task_weight[t] for t in tasks])
                for t, loss in zip(tasks, losses):
                    loss_values[t] = loss.item()
                    loss_sums[t] += loss_values[t] * len(batch)
                    hits[t] += int((logits[t].data.argmax(axis=1) == batch.labels[t]).sum())
                if not math.isfinite(tower_loss.item()):
                    bad = [t for t in tasks if not math.isfinite(loss_values[t])] or tasks
                    raise NumericalError(f"non-finite {'+'.join(bad)} loss {at}")
                backward(tape, tower_loss)
            total = soft_loss([Tensor(loss_values[t]) for t in regime.tasks], regime)
            if not math.isfinite(total.item()):
                raise NumericalError(f"non-finite objective {at}")
            try:
                adamw_step(model.params, states, train_cfg.optimizer)
            except NumericalError as exc:
                raise NumericalError(f"{exc} {at}") from exc
            couple(model, train_cfg.optimizer.learning_rate)

        val_preds = _predict(model, val_set.seqs)
        val_f1 = {}
        for task in regime.tasks:
            tr = task_report(
                task, val_split.schemas[task].classes, list(val_set.labels[task]), val_preds[task]
            )
            val_f1[task] = tr.weighted.f1
        epochs.append(
            EpochStats(
                train_loss={t: loss_sums[t] / len(train_set) for t in regime.tasks},
                train_accuracy={t: hits[t] / len(train_set) for t in regime.tasks},
                val_weighted_f1=val_f1,
            )
        )
    return epochs


def _predict(model: Model, seqs: Sequence[TokenSeq]) -> dict[str, list[int]]:
    """Argmax predictions in corpus order. The comments are stably sorted
    by length, so equal-length comments sit side by side and attention
    covers each such run in one call, and cut into consecutive
    batches of at most `PREDICT_ROWS` packed rows per encoder tower run
    together (`predict_logits`): 1,024 for one encoder, 512 for two; a
    longer comment runs alone. Raises NumericalError, naming the comment's
    corpus index and the task, if a logit is not finite."""
    lengths = [len(seq.ids) for seq in seqs]
    order = np.argsort(lengths, kind="stable")
    preds = {task: np.empty(len(order), dtype=np.int64) for task in model.regime.tasks}
    n_towers = len(towers(model.regime))
    for start, stop in _row_budget_spans([lengths[i] for i in order], n_towers):
        rows = order[start:stop]
        logits = predict_logits(model, [seqs[i] for i in rows])
        for task in model.regime.tasks:
            data = logits[task].data
            if not np.isfinite(data).all():
                bad = rows[~np.isfinite(data).all(axis=1)].min()
                raise NumericalError(f"non-finite {task} logits for comment {bad}")
            preds[task][rows] = data.argmax(axis=1)
    return {task: p.tolist() for task, p in preds.items()}


def _row_budget_spans(lengths: Sequence[int], n_towers: int) -> list[tuple[int, int]]:
    """Consecutive [start, stop) spans of `lengths`, each summing to at most
    `PREDICT_ROWS` once multiplied by `n_towers`, or holding one longer
    item alone."""
    spans = []
    start = rows = 0
    for i, n in enumerate(lengths):
        if i > start and (rows + n) * n_towers > PREDICT_ROWS:
            spans.append((start, i))
            start, rows = i, 0
        rows += n
    spans.append((start, len(lengths)))
    return spans


def evaluate(model: Model, split: Corpus, vocab: Vocab) -> dict[str, list[int]]:
    """Deterministic argmax predictions per task, dropout disabled.

    Ties break to the lowest class index. Results are in corpus order.
    """
    _check_heads(model, split)
    return _predict(model, encode_texts(split, vocab, model.encoder_cfg.max_len))
