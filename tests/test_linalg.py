"""The coupling penalties' proximal steps: singular-value thresholding for
the trace norm, and the closed-form step of the squared Frobenius
distance (`mtl.frobenius_penalty`)."""

import time

import numpy as np
import pytest

from mtlc.errors import NumericalError, ShapeError
from mtlc.mtl import frobenius_penalty
from mtlc.numcore import svt

from gradcheck import svt_residual

# row-stacked tower pairs the default config couples: wq/wk/wv/wo, ffn_w1, ffn_w2
COUPLED_SHAPES = [(128, 64), (128, 128), (256, 64)]


def holding(value, shape=(4, 3)):
    a = np.ones(shape)
    a[1, 1] = value
    return a


def stepped(a, b, eta):
    pair = np.stack([a, b])
    frobenius_penalty(pair, eta)
    return pair[0], pair[1]


class TestFrobeniusSqDistance:
    def test_equal_inputs_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        a, b = stepped(x, x, 0.5)
        assert np.array_equal(a, x) and np.array_equal(b, x)

    def test_identity_vs_zero(self):
        a, b = stepped(np.eye(2), np.zeros((2, 2)), 0.25)
        assert np.array_equal(a - b, np.eye(2) / 2)
        assert np.array_equal(a + b, np.eye(2))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        a, b = stepped(x, y, 0.3)
        b2, a2 = stepped(y, x, 0.3)
        assert np.array_equal(a, a2) and np.array_equal(b, b2)

    def test_gradient_is_two_delta(self):
        # the proximal step is an implicit gradient step: each side moves by
        # -eta times the penalty's gradient 2(a' - b') at the new point
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        a, b = stepped(x, y, 0.7)
        assert np.abs(a - (x - 0.7 * 2 * (a - b))).max() < 1e-12
        assert np.abs(b - (y + 0.7 * 2 * (a - b))).max() < 1e-12


class TestTraceNorm:
    def test_diagonal_case(self):
        assert np.abs(svt(np.diag([3.0, -2.0]), 0.5) - np.diag([2.5, -1.5])).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_identity(self, k):
        assert np.abs(svt(np.eye(k), 0.25) - 0.75 * np.eye(k)).max() < 1e-12
        assert np.array_equal(svt(np.eye(k), 1.5), np.zeros((k, k)))

    def test_matches_eigenvalue_oracle(self):
        # independent route: W' = W V diag(max(1 - eta / sigma, 0)) V^T from
        # the eigenvectors V of W^T W (its eigenvalues are sigma^2)
        for shape in [(4, 3), (3, 5), *COUPLED_SHAPES]:
            for seed in range(100 if shape[0] * shape[1] < 100 else 3):
                w = np.random.default_rng(seed).normal(size=shape)
                eta = float(np.random.default_rng(seed + 500).uniform(0.1, 2.0))
                lam, v = np.linalg.eigh(w.T @ w)
                sigma = np.sqrt(np.clip(lam, 1e-300, None))
                oracle = w @ (v * np.maximum(1.0 - eta / sigma, 0.0)) @ v.T
                assert np.abs(svt(w, eta) - oracle).max() < 1e-8, (shape, seed)

    def test_shrinks_every_singular_value(self):
        for seed in range(100):
            shape = tuple(np.random.default_rng(seed).integers(1, 6, size=2))
            w = np.random.default_rng(seed + 1000).normal(size=shape)
            before = np.linalg.svd(w, compute_uv=False)
            after = np.linalg.svd(svt(w, 0.4), compute_uv=False)
            assert np.abs(after - np.maximum(before - 0.4, 0.0)).max() < 1e-12, seed

    def test_optimality_condition(self):
        for shape in [(4, 3), (3, 5), *COUPLED_SHAPES]:
            for seed in range(20 if shape[0] * shape[1] < 100 else 2):
                w = np.random.default_rng(seed).uniform(-2, 2, size=shape)
                # the largest singular values are ~10-20 here: an eta of 2
                # keeps some directions and thresholds others
                residual = svt_residual(w, svt(w, 2.0), 2.0)
                assert residual < 1e-12, (shape, seed, residual)

    @pytest.mark.parametrize("shape", [(3, 2), (256, 64)])
    def test_rank_deficient(self, shape):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=shape[0]), rng.normal(size=shape[1])
        sigma = np.linalg.norm(x) * np.linalg.norm(y)
        w = np.outer(x, y)
        assert np.abs(svt(w, 0.5) - (1 - 0.5 / sigma) * w).max() < 1e-12
        assert np.array_equal(svt(w, 2 * sigma), np.zeros(shape))

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
            svt(data, 0.1)
        assert time.perf_counter() - started < 1.0

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def failing_svd(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match=r"\(4, 3\)"):
            svt(np.ones((4, 3)), 0.1)
