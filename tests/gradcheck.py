"""Verification harnesses: central finite differences for taped gradients,
and the optimality condition of the trace norm's proximal step."""

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
    probe = Tensor(x.data.copy(), requires_grad=True)
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


def svt_residual(w: np.ndarray, w_new: np.ndarray, eta: float, rank_tol: float = 1e-9) -> float:
    """How far (w - w_new) / eta lies from the trace norm's subdifferential
    at w_new, {U_r V_r^T + Z : U_r^T Z = 0, Z V_r = 0, ||Z||_2 <= 1}, where
    U_r, V_r span w_new's singular directions above `rank_tol`. It is 0 up
    to rounding exactly when w_new = argmin eta ||W'||_* + 1/2 ||W' - w||^2.
    """
    g = (w - w_new) / eta
    u, s, vt = np.linalg.svd(w_new, full_matrices=False)
    r = int(np.count_nonzero(s > rank_tol))
    u_r, vt_r = u[:, :r], vt[:r]
    z = g - u_r @ vt_r
    return float(
        max(
            np.abs(u_r.T @ z).max(initial=0.0),
            np.abs(z @ vt_r.T).max(initial=0.0),
            np.linalg.norm(z, 2) - 1.0,
        )
    )
