"""AdamW with decoupled weight decay and global-norm clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import Tensor


# AdamW's settings: the moment decays, the denominator's floor, the
# decoupled weight decay and the global gradient-norm clip
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
WEIGHT_DECAY = 0.01
CLIP_NORM = 1.0


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
    learning_rate: float,
) -> None:
    """One in-place update from each parameter's `.grad`, where `None` (a
    parameter off the loss's path, which `backward` leaves as it was) reads
    as zeros: clip to global norm `CLIP_NORM`, a bias-corrected Adam step
    of `learning_rate`, then decoupled decay applied to the post-Adam
    parameter.

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
    factor = CLIP_NORM / norm if CLIP_NORM < norm else None
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
        s.m *= BETA1
        s.m += np.multiply(g, 1.0 - BETA1, out=a)
        s.v *= BETA2
        np.multiply(g, g, out=a)
        s.v += np.multiply(a, 1.0 - BETA2, out=a)
        m_hat = np.divide(s.m, 1.0 - BETA1**s.t, out=a)
        denom = np.sqrt(np.divide(s.v, 1.0 - BETA2**s.t, out=b), out=b)
        denom += EPSILON
        m_hat *= learning_rate
        m_hat /= denom
        p.data -= m_hat
        p.data -= np.multiply(p.data, learning_rate * WEIGHT_DECAY, out=a)


def zero_grads(params: Mapping[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
