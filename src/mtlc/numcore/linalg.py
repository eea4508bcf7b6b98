"""Singular-value thresholding, the proximal step of the trace norm that
couples soft-sharing towers.

The decomposition is LAPACK's thin SVD (`numpy.linalg.svd`). Its input is
checked to be finite first: LAPACK raises on NaN, while on inf it may
return NaN or not return at all.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ShapeError


def svt(w: np.ndarray, eta: float) -> np.ndarray:
    """U max(Sigma - eta, 0) V^T: the minimizer of
    eta * ||W'||_* + 1/2 ||W' - w||_F^2 (Cai, Candes and Shen 2010).

    Raises ShapeError unless `w` is a non-empty 2-D matrix and
    NumericalError if it holds a non-finite value or LAPACK fails.
    """
    a = np.asarray(w, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"svt needs a non-empty 2-D matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError(f"svt input of shape {a.shape} holds non-finite values")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the {a.shape} svt input failed: {exc}") from exc
    return (u * np.maximum(sigma - eta, 0.0)) @ vt
