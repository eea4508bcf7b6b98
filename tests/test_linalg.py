"""Frobenius distance and the trace norm."""

import time

import numpy as np
import pytest

from mtlc.errors import NumericalError, ShapeError
from mtlc.numcore import (
    GradTape,
    Tensor,
    backward,
    concat_rows,
    frobenius_sq_distance,
    trace_norm,
    trace_norm_penalty,
)

from gradcheck import grad_check

# row-stacked tower pairs the default config couples: wq/wk/wv/wo, ffn_w1, ffn_w2
COUPLED_SHAPES = [(128, 64), (128, 128), (256, 64)]


def holding(value, shape=(4, 3)):
    a = np.ones(shape)
    a[1, 1] = value
    return a


class TestFrobeniusSqDistance:
    def test_equal_inputs_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        assert frobenius_sq_distance(Tensor(x), Tensor(x)).item() == 0.0

    def test_identity_vs_zero(self):
        d = frobenius_sq_distance(Tensor(np.eye(2)), Tensor(np.zeros((2, 2))))
        assert d.item() == 2.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=(4, 2)))
        assert frobenius_sq_distance(a, b).item() == frobenius_sq_distance(b, a).item()

    def test_gradient_is_two_delta(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)))
        with GradTape() as tape:
            loss = frobenius_sq_distance(a, b)
        backward(tape, loss)
        assert np.allclose(a.grad, 2 * (a.data - b.data))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_sq_distance(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestTraceNorm:
    def test_diagonal_case(self):
        value, _ = trace_norm(np.diag([3.0, -2.0]))
        assert value == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_identity(self, k):
        value, sub = trace_norm(np.eye(k))
        assert value == pytest.approx(float(k), abs=1e-12)
        assert np.allclose(sub, np.eye(k))

    def test_matches_eigenvalue_oracle(self):
        # independent route: trace norm = sum of sqrt eigenvalues of W^T W
        for shape in [(4, 3), (3, 5), *COUPLED_SHAPES]:
            for seed in range(100 if shape[0] * shape[1] < 100 else 3):
                w = np.random.default_rng(seed).normal(size=shape)
                value, _ = trace_norm(w)
                gram = w.T @ w if shape[0] >= shape[1] else w @ w.T
                oracle = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum()
                assert abs(value - oracle) < 1e-8, (shape, seed)

    def test_dominates_frobenius_norm(self):
        for seed in range(100):
            shape = np.random.default_rng(seed).integers(1, 6, size=2)
            w = np.random.default_rng(seed + 1000).normal(size=tuple(shape))
            value, _ = trace_norm(w)
            assert value >= np.linalg.norm(w) - 1e-12

    def test_subgradient_vs_finite_differences(self):
        for shape in [(4, 3), (3, 5)]:
            for seed in range(20):
                w = Tensor(np.random.default_rng(seed).uniform(-2, 2, size=shape))
                assert grad_check(lambda t: trace_norm_penalty(t), w) < 1e-5, (shape, seed)
        # coupled shapes: differences over the first row only, stacked onto
        # the rest with concat_rows as soft sharing stacks its towers
        for shape in COUPLED_SHAPES:
            w = np.random.default_rng(7).uniform(-2, 2, size=shape)
            rest = Tensor(w[1:])
            f = lambda t: trace_norm_penalty(concat_rows([t, rest]))
            assert grad_check(f, Tensor(w[:1])) < 1e-5, shape

    @pytest.mark.parametrize("shape", [(3, 2), (256, 64)])
    def test_rank_deficient(self, shape):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=shape[0]), rng.normal(size=shape[1])
        value, sub = trace_norm(np.outer(x, y))
        assert value == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-12)
        x_hat, y_hat = x / np.linalg.norm(x), y / np.linalg.norm(y)
        assert np.abs(sub - np.outer(x_hat, y_hat)).max() < 1e-12

    @pytest.mark.parametrize(
        "data, error",
        [
            pytest.param(np.zeros(3), ShapeError, id="1-d"),
            pytest.param(np.zeros((0, 3)), ShapeError, id="empty"),
            pytest.param(holding(np.nan), NumericalError, id="nan"),
            pytest.param(holding(np.inf), NumericalError, id="inf"),
        ],
    )
    def test_invalid_input_rejected(self, data, error):
        started = time.perf_counter()
        with pytest.raises(error, match=r"\(\d+(, \d+)?,?\)"):
            trace_norm(data)
        assert time.perf_counter() - started < 1.0

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def failing_svd(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match=r"\(4, 3\)"):
            trace_norm(np.ones((4, 3)))

    def test_penalty_joins_graph(self):
        w = Tensor(np.random.default_rng(5).normal(size=(3, 2)), requires_grad=True)
        with GradTape() as tape:
            loss = trace_norm_penalty(w)
        backward(tape, loss)
        _, sub = trace_norm(w.data)
        assert np.allclose(w.grad, sub)
