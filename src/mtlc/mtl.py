"""Training regimes: single-task, hard parameter sharing (one encoder, two
heads, summed losses), and soft parameter sharing (two towers coupled by a
Frobenius or trace-norm penalty, applied as a proximal step)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Mapping, Optional, Sequence

import numpy as np

from .checkpoint import stored_values
from .data import Batch, Corpus, batches, class_counts, encode_split, encode_texts
from .encoder import (
    EncoderConfig,
    classify,
    encoder_forward,
    head_view,
    init_params,
    pack,
    param_shapes,
)
from .errors import ConfigError, ContractError, NumericalError
from .losses import CLASS_WEIGHTED, LossConfig, class_weights, compute_loss
from .metrics import TaskReport, build_report
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

FROBENIUS = "frobenius"
TRACE_NORM = "trace_norm"
PENALTIES = (FROBENIUS, TRACE_NORM)

BATCH_SIZES = (16, 32, 64)

# packed rows (comment positions) per prediction batch, which each encoder
# tower runs: bounds the working set of evaluation, which the heap keeps once
# it has grown to it, below that of a training step
PREDICT_ROWS = 1024


def default_coupled_layers(n_layers: int) -> tuple[str, ...]:
    """Attention projections and FFN matrices of every layer, the 2-D
    `layer{i}.` tensors of `param_shapes`; embeddings, norms, biases, and
    heads stay task-private."""
    shapes = param_shapes(EncoderConfig(vocab_size=1, n_layers=n_layers), {})
    return tuple(name for name, shape in shapes.items() if name.startswith("layer") and len(shape) == 2)


@dataclass(frozen=True)
class SoftShareConfig:
    coupled_layer_names: tuple[str, ...]
    penalty: str = FROBENIUS
    lam: float = 0.1

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ConfigError(f"unknown soft-share penalty {self.penalty!r}; expected {PENALTIES}")
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class RegimeConfig:
    """A regime's kind is its tasks and coupling: one task is STL, two are
    hard sharing, and two with a `soft` coupling are soft sharing."""

    tasks: tuple[str, ...]
    losses: dict[str, LossConfig]
    task_weights: tuple[float, ...] = (1.0, 1.0)
    soft: Optional[SoftShareConfig] = None

    def __post_init__(self):
        if len(self.tasks) not in ((2,) if self.soft is not None else (1, 2)):
            raise ConfigError(f"a regime trains one task or two, soft sharing two; got {self.tasks}")
        if len(self.task_weights) != len(self.tasks):
            raise ConfigError(
                f"task_weights: {len(self.task_weights)} weights for {len(self.tasks)} tasks"
            )
        if any(w < 0 for w in self.task_weights):
            raise ConfigError(f"task_weights must be nonnegative, got {self.task_weights}")
        if not any(self.task_weights):  # no task loss to minimize
            raise ConfigError(f"task_weights must not all be 0, got {self.task_weights}")
        if set(self.losses) != set(self.tasks):
            raise ConfigError(f"loss config tasks {sorted(self.losses)} != tasks {self.tasks}")


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
    val_report: dict[str, TaskReport]


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
    take a new Model."""

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
        for name in param_shapes(self.encoder_cfg, {}):
            keys = [prefix + name for prefix in towers(self.regime)]
            stack = np.stack([self.params[key].data for key in keys])
            for key, view in zip(keys, stack):
                self.params[key].data = view
            self.stacks[name] = Tensor(stack)


def towers(regime: RegimeConfig) -> dict[str, tuple[str, ...]]:
    """Parameter-name prefix of each encoder -> the tasks whose heads sit on
    it: one shared encoder for STL and hard sharing, one tower per task for
    soft sharing."""
    if regime.soft is not None:
        return {f"tower.{task}.": (task,) for task in regime.tasks}
    return {"": regime.tasks}


def build_model(
    regime: RegimeConfig,
    encoder_cfg: EncoderConfig,
    n_classes: Mapping[str, int],
    seed: int,
) -> Model:
    shapes = expected_param_shapes(regime, encoder_cfg, n_classes)
    return Model(regime=regime, encoder_cfg=encoder_cfg, params=init_params(shapes, seed))


def expected_param_shapes(
    regime: RegimeConfig, encoder_cfg: EncoderConfig, n_classes: Mapping[str, int]
) -> dict[str, tuple]:
    """Exact tensor name -> shape map implied by a (regime, config) pair:
    what `build_model` initializes and a checkpoint must hold, tower by
    tower, each encoder's parameters before its heads'."""
    return {
        prefix + name: shape
        for prefix, tasks in towers(regime).items()
        for name, shape in param_shapes(encoder_cfg, {t: n_classes[t] for t in tasks}).items()
    }


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
    """Sum over tasks of w_t * L_t."""
    total = scale(losses[0], task_weights[0])
    for loss, weight in zip(losses[1:], task_weights[1:]):
        total = add(total, scale(loss, weight))
    return total


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
    place; one EpochStats per epoch. Per epoch: seeded shuffle, fixed-size
    batches, one `train_step` each, then one validation report on the
    weights as a checkpoint stores them (`stored_values`).

    An empty split raises ContractError. A step's NumericalError gains its
    epoch and batch; a weight beyond float32's range raises at its epoch's
    validation, naming the tensor."""
    regime = model.regime
    train_set = encode_split(train_split, vocab, model.encoder_cfg.max_len)
    val_set = encode_split(val_split, vocab, model.encoder_cfg.max_len)
    for split in (train_split, val_split):
        _check_heads(model, split)
    states = init_states(model.params)
    weights = {  # the one place a task's class weighting is decided
        t: class_weights(class_counts(train_split, t))
        if regime.losses[t].use_class_weights and regime.losses[t].kind in CLASS_WEIGHTED
        else None
        for t in regime.tasks
    }
    shuffle_rng = stream(train_cfg.seed, "shuffle")
    dropout_rng = stream(train_cfg.seed, "dropout")
    epochs: list[EpochStats] = []
    for epoch in range(train_cfg.epochs):
        epoch_batches = batches(train_set, train_cfg.batch_size, train_cfg.shuffle, child_seed(shuffle_rng))
        loss_sums = {task: 0.0 for task in regime.tasks}
        hits = {task: 0 for task in regime.tasks}
        for batch_index, batch in enumerate(epoch_batches):
            try:
                step = train_step(model, batch, states, weights, train_cfg.optimizer, dropout_rng)
            except NumericalError as exc:
                raise NumericalError(f"{exc} at epoch {epoch} batch {batch_index}") from exc
            for t, (loss, step_hits) in step.items():
                loss_sums[t] += loss * len(batch)
                hits[t] += step_hits

        stored = stored_values(model.params)
        frozen = Model(regime, model.encoder_cfg, {n: Tensor(a) for n, a in stored.items()})
        val_report = build_report(
            {t: val_set.labels[t] for t in regime.tasks},
            _predict(frozen, val_set.seqs),
            {t: val_split.schemas[t].classes for t in regime.tasks},
        )
        epochs.append(
            EpochStats(
                train_loss={t: loss_sums[t] / len(train_set) for t in regime.tasks},
                train_accuracy={t: hits[t] / len(train_set) for t in regime.tasks},
                val_report=val_report,
            )
        )
    return epochs


@np.errstate(all="ignore")  # a non-finite loss or gradient is named below
def train_step(
    model: Model, batch: Batch, states: dict, weights: dict, optimizer: OptimHyper, rng: np.random.Generator
) -> dict[str, tuple[float, int]]:
    """One update of `model.params` and the AdamW `states` from `batch`,
    with each task's class weights (or None) and dropout drawn from `rng`;
    returns each task's batch-mean loss and hit count.

    The batch is packed once; each encoder of `towers(regime)` in turn runs
    its forward, heads, losses and their weighted sum's backward on a tape
    of its own, so one encoder's activations are alive at a time, and the
    gradients equal one backward of `weighted_sum` over all encoders bit
    for bit. Then one check before any update: a task loss that is not
    finite is named, else a non-finite objective raises. Then `adamw_step`,
    which checks every gradient first, and `couple`."""
    regime = model.regime
    task_weight = dict(zip(regime.tasks, regime.task_weights))
    zero_grads(model.params)
    packed = pack(batch.seqs, model.encoder_cfg)
    figures: dict[str, tuple[float, int]] = {}
    for prefix, tasks in towers(regime).items():
        tower = {name: model.params[prefix + name] for name in model.stacks}
        with GradTape() as tape:
            pooled = encoder_forward(packed, tower, model.encoder_cfg, rng)
            logits = {t: classify(pooled, model.heads[t][1]) for t in tasks}
            losses = [compute_loss(logits[t], batch.labels[t], regime.losses[t], weights[t]) for t in tasks]
            tower_loss = weighted_sum(losses, [task_weight[t] for t in tasks])
        backward(tape, tower_loss)
        for t, loss in zip(tasks, losses):
            figures[t] = (loss.item(), int((logits[t].data.argmax(axis=1) == batch.labels[t]).sum()))
    bad = [t for t in regime.tasks if not math.isfinite(figures[t][0])]
    if bad or not math.isfinite(sum(task_weight[t] * figures[t][0] for t in regime.tasks)):
        raise NumericalError(f"non-finite {'+'.join(bad)} loss" if bad else "non-finite objective")
    adamw_step(model.params, states, optimizer)
    couple(model, optimizer.learning_rate)
    return figures


@np.errstate(all="ignore")  # a non-finite logit is named below
def _predict(model: Model, seqs: Sequence[TokenSeq]) -> dict[str, list[int]]:
    """Argmax predictions in corpus order. The comments are stably sorted
    by length, so equal-length comments sit side by side and attention
    covers each such run in one call, and cut into consecutive batches of
    at most `PREDICT_ROWS` packed rows, which every encoder tower of
    `predict_logits` runs together; a longer comment runs alone. Raises
    NumericalError, naming the comment's corpus index and the task, if a
    logit is not finite."""
    lengths = [len(seq.ids) for seq in seqs]
    order = sorted(range(len(seqs)), key=lengths.__getitem__)  # stable
    preds = {task: [0] * len(seqs) for task in model.regime.tasks}
    for start, stop in _row_budget_spans([lengths[i] for i in order]):
        rows = order[start:stop]
        logits = predict_logits(model, [seqs[i] for i in rows])
        for task, task_preds in preds.items():
            data = logits[task].data
            if not np.isfinite(data).all():
                bad = min(compress(rows, ~np.isfinite(data).all(axis=1)))
                raise NumericalError(f"non-finite {task} logits for comment {bad}")
            for i, label in zip(rows, data.argmax(axis=1).tolist()):
                task_preds[i] = label
    return preds


def _row_budget_spans(lengths: Sequence[int]) -> list[tuple[int, int]]:
    """Consecutive [start, stop) spans of `lengths`, each summing to at most
    `PREDICT_ROWS`, or holding one longer item alone."""
    spans = []
    start = rows = 0
    for i, n in enumerate(lengths):
        if i > start and rows + n > PREDICT_ROWS:
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
