"""Classification losses: cross-entropy, multi-class hinge, focal, KLD.

All four consume the [B, C] logits the model makes, with one target per
row, and return the batch mean as a taped scalar, so gradients flow through
the same autodiff machinery as the encoder; one comment is a [1, C] batch,
and any other shape is a ContractError. Cross-entropy and the focal/KLD
variants go through one shared row-wise log-sum-exp core. Focal scales
cross-entropy's per-row -log p_target, so with gamma=0 it equals
cross-entropy bit for bit, in value and gradient; KLD with zero label
smoothing gives cross-entropy within rounding, by its own formula. Every
loss needs at least two classes. `compute_loss` trains focal at
`FOCAL_GAMMA` and KLD at `KLD_EPSILON`. `LossKind` names the four kinds;
`config._LOSSES` holds their spellings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ContractError, DataError
from .numcore import (
    Tensor,
    add,
    exp,
    gather_rows,
    log_sum_exp,
    mul,
    pow_const,
    relu,
    reshape,
    scale,
    sub,
    sum_all,
)

Targets = Union[Sequence[int], np.ndarray]


class LossKind(Enum):
    CROSS_ENTROPY = "CE"
    HINGE = "HL"
    FOCAL = "FL"
    KLD = "KLD"


FOCAL_GAMMA = 2.0  # focal's focusing exponent
KLD_EPSILON = 0.1  # the probability KLD's smoothed target spreads over the wrong classes


@dataclass(frozen=True)
class LossConfig:
    kind: LossKind = LossKind.CROSS_ENTROPY
    use_class_weights: bool = False


def class_weights(counts: Sequence[int]) -> tuple[float, ...]:
    """Inverse-frequency class weights w_i = 1 - count_i / total from
    per-class counts; a zero-count class is untrainable and rejected instead
    of silently getting weight 1."""
    if len(counts) < 2:
        raise ContractError("class weights need at least 2 classes")
    zero = [i for i, c in enumerate(counts) if c <= 0]
    if zero:
        raise DataError(f"degenerate classes with zero count at indices {zero}")
    total = sum(counts)
    return tuple(1.0 - c / total for c in counts)


def _batch_targets(
    logits: Tensor, targets: Targets, weights: Optional[Sequence[float]] = None
) -> np.ndarray:
    """The B targets of [B, C] `logits` as an int array, each in range."""
    if logits.data.ndim != 2 or logits.shape[0] == 0 or logits.shape[1] < 2:
        raise ContractError(f"losses need [B, C] logits with B >= 1 and C >= 2, got shape {logits.shape}")
    b, n = logits.shape
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (b,):
        raise ContractError(f"{t.size} targets for {b} rows of logits")
    if t.min() < 0 or t.max() >= n:
        raise ContractError(f"targets {t.tolist()} out of range for {n} classes")
    if weights is not None and len(weights) != n:
        raise ContractError(f"{len(weights)} class weights for {n} classes")
    return t


def _target_logits(logits: Tensor, t: np.ndarray) -> Tensor:
    """[B] logit of each row's target class, gathered from the flattened matrix."""
    b, n = logits.shape
    picked = gather_rows(reshape(logits, (b * n, 1)), np.arange(b) * n + t)
    return reshape(picked, (b,))


def _nll_rows(logits: Tensor, t: np.ndarray) -> Tensor:
    """[B] -log softmax(logits)[t] per row, via log-sum-exp for stability."""
    return sub(log_sum_exp(logits), _target_logits(logits, t))


def _mean(per_row: Tensor, t: np.ndarray, weights: Optional[Sequence[float]]) -> Tensor:
    """Batch mean of per-row losses, each scaled by its target's class weight."""
    if weights is not None:
        per_row = mul(per_row, Tensor(np.asarray(weights)[t]))
    return scale(sum_all(per_row), 1.0 / len(t))


def cross_entropy(
    logits: Tensor, targets: Targets, weights: Optional[Sequence[float]] = None
) -> Tensor:
    t = _batch_targets(logits, targets, weights)
    return _mean(_nll_rows(logits, t), t, weights)


def hinge_multiclass(logits: Tensor, targets: Targets) -> Tensor:
    """Sum over wrong classes of max(0, 1 + logit_wrong - logit_target)."""
    t = _batch_targets(logits, targets)
    b, n = logits.shape
    margins = add(sub(logits, reshape(_target_logits(logits, t), (b, 1))), Tensor(1.0))
    # the target's own term is max(0, 1) = 1 by construction; mask it out
    wrong = np.ones((b, n))
    wrong[np.arange(b), t] = 0.0
    return scale(sum_all(mul(relu(margins), Tensor(wrong))), 1.0 / b)


def focal(
    logits: Tensor,
    targets: Targets,
    gamma: float,
    weights: Optional[Sequence[float]] = None,
) -> Tensor:
    """Cross-entropy's per-row term scaled by (1 - p_target)^gamma, so
    gamma = 0 is cross-entropy by construction."""
    t = _batch_targets(logits, targets, weights)
    nll = _nll_rows(logits, t)
    modulator = pow_const(sub(Tensor(1.0), exp(scale(nll, -1.0))), gamma)
    return _mean(mul(modulator, nll), t, weights)


def kld(logits: Tensor, targets: Targets, epsilon: float) -> Tensor:
    """KL divergence from the smoothed one-hot target to softmax(logits).

    p_target = 1 - epsilon, the rest share epsilon; with epsilon 0, p is
    one-hot with zero entropy, and this is cross-entropy within rounding.
    """
    t = _batch_targets(logits, targets)
    b, n = logits.shape
    p = np.full((b, n), epsilon / (n - 1))
    p[np.arange(b), t] = 1.0 - epsilon
    row = p[0][p[0] > 0.0]  # 0 log 0 = 0
    neg_entropy = float((row * np.log(row)).sum())
    # sum(p) == 1 per row, so sum_i p_i (log p_i - log softmax_i) reduces to
    # -H(p) + lse(logits) - p . logits; every row has the same entropy
    cross = sub(sum_all(log_sum_exp(logits)), sum_all(mul(Tensor(p), logits)))
    return add(scale(cross, 1.0 / b), Tensor(neg_entropy))


# the loss kinds that apply class weights; hinge and KLD take none
CLASS_WEIGHTED = frozenset({LossKind.CROSS_ENTROPY, LossKind.FOCAL})


def compute_loss(
    logits: Tensor,
    targets: Targets,
    cfg: LossConfig,
    weights: Optional[Sequence[float]] = None,
) -> Tensor:
    """Batch mean of the configured loss over [B, C] logits and B targets.

    The kinds in `CLASS_WEIGHTED` apply the class `weights` they are given;
    the others ignore them. Whether a task has weights is `mtl.train`'s
    decision, from `cfg.use_class_weights` and that set.
    """
    if cfg.kind is LossKind.CROSS_ENTROPY:
        return cross_entropy(logits, targets, weights)
    if cfg.kind is LossKind.HINGE:
        return hinge_multiclass(logits, targets)
    if cfg.kind is LossKind.FOCAL:
        return focal(logits, targets, FOCAL_GAMMA, weights)
    if cfg.kind is LossKind.KLD:
        return kld(logits, targets, KLD_EPSILON)
    raise ContractError(f"unhandled loss kind {cfg.kind}")
