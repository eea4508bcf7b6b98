"""Matrix norms used by the soft parameter-sharing penalties.

The trace norm (sum of singular values) comes from LAPACK's thin SVD
(`numpy.linalg.svd`). Its input is checked to be finite first: LAPACK
raises on NaN, while on inf it may return NaN or not return at all.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import Tensor, _record, mul, sub, sum_all

# singular values at or below this fraction of max(sigma_max, 1) count as zero
_RANK_TOL = 1e-13


def frobenius_sq_distance(a: Tensor, b: Tensor) -> Tensor:
    """Taped scalar sum((a - b)^2); gradient wrt `a` is 2(a - b)."""
    if a.shape != b.shape:
        raise ShapeError(f"frobenius_sq_distance shapes disagree: {a.shape} vs {b.shape}")
    d = sub(a, b)
    return sum_all(mul(d, d))


def trace_norm(w) -> tuple[float, np.ndarray]:
    """Sum of singular values and its subgradient u @ vt (thin SVD).

    Directions with a zero singular value are dropped from the subgradient
    (the non-smooth case): LAPACK returns arbitrary orthonormal vectors for
    them. Raises ShapeError unless `w` is a non-empty 2-D matrix and
    NumericalError if it holds a non-finite value or LAPACK fails.
    """
    a = w.data if isinstance(w, Tensor) else np.asarray(w, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"trace_norm needs a non-empty 2-D matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError(f"trace_norm input of shape {a.shape} holds non-finite values")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the {a.shape} trace_norm input failed: {exc}") from exc
    rank = int(np.count_nonzero(sigma > _RANK_TOL * max(float(sigma[0]), 1.0)))
    return float(sigma.sum()), u[:, :rank] @ vt[:rank]


def trace_norm_penalty(w: Tensor) -> Tensor:
    """Taped scalar trace norm so the penalty can join a loss graph."""
    value, subgrad = trace_norm(w)
    out = Tensor(value)
    return _record(out, (w,), lambda g: (float(g) * subgrad,))
