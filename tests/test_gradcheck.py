"""The finite-difference harness itself."""

import numpy as np
import pytest

from mtlc.errors import ContractError
from mtlc.losses import cross_entropy
from mtlc.numcore import Tensor, mul, sum_all

from gradcheck import grad_check


def test_linear_function_is_near_exact():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
    assert grad_check(lambda t: sum_all(t), x) < 1e-10


def test_cross_entropy_over_random_logits():
    for seed in range(20):
        logits = Tensor(np.random.default_rng(seed).uniform(-2, 2, size=(1, 6)))
        target = int(np.random.default_rng(seed + 500).integers(0, 6))
        assert grad_check(lambda t: cross_entropy(t, [target]), logits) < 1e-4


def test_detects_wrong_gradient():
    # mul-by-constant disguised as identity: sum(2x) checked against itself
    # is fine, but a deliberately scaled mismatch must score badly
    def crooked(t):
        return sum_all(mul(t, t))  # true grad 2x

    x = Tensor(np.full((2, 2), 3.0))
    err = grad_check(crooked, x)
    assert err < 1e-7  # sanity: harness agrees with a correct gradient

    # now break the function's determinism contract and confirm the harness
    # surfaces the inconsistency as a large error
    state = {"calls": 0}

    def flapping(t):
        state["calls"] += 1
        scale = 1.0 if state["calls"] % 2 else 1.5
        return sum_all(mul(t, Tensor(np.full(t.shape, scale))))

    assert grad_check(flapping, x) > 1e-2


def test_step_must_be_positive():
    with pytest.raises(ContractError):
        grad_check(lambda t: sum_all(t), Tensor(np.ones(2)), h=0.0)
