"""AdamW with decoupled weight decay and optional global-norm clipping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ContractError, ShapeError
from .tensor import Tensor


@dataclass
class OptimHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: float = 1.0  # 0 disables clipping

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ContractError(f"betas must be in (0,1), got {self.beta1}, {self.beta2}")
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

    @classmethod
    def zeros(cls, shape) -> "AdamWState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


def init_states(params: Mapping[str, Tensor]) -> dict[str, AdamWState]:
    return {name: AdamWState.zeros(p.shape) for name, p in params.items()}


def global_grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    """L2 norm over all gradients, reduced in sorted-name order."""
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_by_global_norm(
    grads: Mapping[str, np.ndarray], clip_norm: float
) -> dict[str, np.ndarray]:
    """Rescale gradients so the global norm is at most `clip_norm`."""
    norm = global_grad_norm(grads)
    if norm <= clip_norm or norm == 0.0:
        return dict(grads)
    factor = clip_norm / norm
    return {name: g * factor for name, g in grads.items()}


def adamw_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    states: Mapping[str, AdamWState],
    hyper: OptimHyper,
) -> None:
    """One in-place update: clip, bias-corrected Adam, then decoupled decay
    applied to the post-Adam parameter."""
    missing = set(params) - set(grads)
    if missing:
        raise ContractError(f"gradients missing for parameters: {sorted(missing)}")
    for name in params:
        if params[name].shape != np.shape(grads[name]):
            raise ShapeError(
                f"parameter {name}: shape {params[name].shape} vs gradient "
                f"shape {np.shape(grads[name])}"
            )
    if hyper.clip_norm > 0:
        grads = clip_by_global_norm(grads, hyper.clip_norm)
    for name in sorted(params):
        p, g, s = params[name], grads[name], states[name]
        s.t += 1
        # in place, with the same operations in the same order; the
        # parameter too, so a view (a soft-sharing tower's slice of its
        # stack) stays attached
        s.m *= hyper.beta1
        s.m += (1.0 - hyper.beta1) * g
        s.v *= hyper.beta2
        s.v += (1.0 - hyper.beta2) * (g * g)
        m_hat = s.m / (1.0 - hyper.beta1**s.t)
        v_hat = s.v / (1.0 - hyper.beta2**s.t)
        p.data -= hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.epsilon)
        if hyper.weight_decay > 0:
            p.data -= hyper.learning_rate * hyper.weight_decay * p.data


def zero_grads(params: Mapping[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
