"""Finite-difference verification harness for taped gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from mtlc.errors import ContractError
from mtlc.numcore import GradTape, Tensor, backward


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the taped gradient of scalar `f` at `x`
    and central finite differences with step `h`.

    `f` must be deterministic: it is re-evaluated twice per element.
    """
    if h <= 0:
        raise ContractError(f"step h must be > 0, got {h}")
    probe = Tensor(x.data.copy(), requires_grad=True, name=x.name or "grad_check_x")
    with GradTape() as tape:
        out = f(probe)
    backward(tape, out)
    analytic = probe.grad if probe.grad is not None else np.zeros(x.shape)

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(Tensor(flat.reshape(x.shape))).item()
        flat[i] = orig - h
        down = f(Tensor(flat.reshape(x.shape))).item()
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * h)
    numeric = numeric.reshape(x.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
