"""AdamW with decoupled weight decay and optional global-norm clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ContractError, NumericalError, ShapeError
from .tensor import Tensor


@dataclass
class OptimHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 1.0  # 0 disables clipping

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 < beta < 1.0:
                raise ContractError(f"{name} must be in (0,1), got {beta}")
        if self.epsilon <= 0:
            raise ContractError(f"epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0:
            raise ContractError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.clip_norm < 0:
            raise ContractError(f"clip_norm must be >= 0, got {self.clip_norm}")


@dataclass
class AdamWState:
    """Per-parameter moment estimates and step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_states(params: Mapping[str, Tensor]) -> dict[str, AdamWState]:
    return {name: AdamWState(np.zeros(p.shape), np.zeros(p.shape)) for name, p in params.items()}


def global_grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    """L2 norm over all gradients, reduced in sorted-name order. Finite
    gradients whose squares overflow give inf, without numpy's warning."""
    total = 0.0
    with np.errstate(over="ignore"):
        for name in sorted(grads):
            g = grads[name]
            total += float((g * g).sum())
    return float(np.sqrt(total))


def adamw_step(
    params: Mapping[str, Tensor],
    states: Mapping[str, AdamWState],
    hyper: OptimHyper,
) -> None:
    """One in-place update from each parameter's `.grad`, where `None` (a
    parameter off the loss's path, which `backward` leaves as it was) reads
    as zeros: clip to the global norm, bias-corrected Adam, then decoupled
    decay applied to the post-Adam parameter.

    Checks every gradient before anything changes: a shape that is not its
    parameter's raises ShapeError, and a global norm that is not finite
    raises NumericalError naming the first non-finite gradient in sorted-name
    order. Finite gradients whose norm overflows clip by a factor of 0."""
    grads = {
        name: np.zeros(p.shape) if p.grad is None else p.grad for name, p in params.items()
    }
    for name, g in grads.items():
        if params[name].shape != g.shape:
            raise ShapeError(
                f"parameter {name}: shape {params[name].shape} vs gradient shape {g.shape}"
            )
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        for name in sorted(grads):
            if not np.isfinite(grads[name]).all():
                raise NumericalError(f"non-finite gradient for {name!r}")
    factor = hyper.clip_norm / norm if 0.0 < hyper.clip_norm < norm else None
    lr = hyper.learning_rate
    for name in sorted(params):
        p, g, s = params[name], grads[name], states[name]
        # every update in place, through two scratch arrays, with the
        # operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        # p -= lr m_hat / (sqrt(v_hat) + eps), p -= (lr wd) p in their
        # order; the parameter too, so a view (a soft-sharing tower's slice
        # of its stack) stays attached. The gradient is only read.
        a, b = np.empty(p.shape), np.empty(p.shape)
        if factor is not None:
            g = np.multiply(g, factor, out=b)
        s.t += 1
        s.m *= hyper.beta1
        s.m += np.multiply(g, 1.0 - hyper.beta1, out=a)
        s.v *= hyper.beta2
        np.multiply(g, g, out=a)
        s.v += np.multiply(a, 1.0 - hyper.beta2, out=a)
        m_hat = np.divide(s.m, 1.0 - hyper.beta1**s.t, out=a)
        denom = np.sqrt(np.divide(s.v, 1.0 - hyper.beta2**s.t, out=b), out=b)
        denom += hyper.epsilon
        m_hat *= lr
        m_hat /= denom
        p.data -= m_hat
        if hyper.weight_decay > 0:
            p.data -= np.multiply(p.data, lr * hyper.weight_decay, out=a)


def zero_grads(params: Mapping[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
