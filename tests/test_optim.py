"""AdamW update rule, decoupled decay, and global-norm clipping."""

import numpy as np
import pytest

from mtlc.errors import ContractError, ShapeError
from mtlc.numcore import (
    OptimHyper,
    Tensor,
    adamw_step,
    clip_by_global_norm,
    global_grad_norm,
    init_states,
)


def make_param(values, name="w"):
    return {name: Tensor(np.asarray(values, dtype=float), requires_grad=True, name=name)}


class TestHyperValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"beta1": 1.0},
            {"beta2": 0.0},
            {"epsilon": 0.0},
            {"weight_decay": -0.1},
            {"clip_norm": -1.0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ContractError):
            OptimHyper(**kwargs)


class TestAdamWStep:
    def test_zero_grad_no_decay_leaves_params(self):
        params = make_param([1.0, -2.0, 3.0])
        states = init_states(params)
        adamw_step(params, {"w": np.zeros(3)}, states, OptimHyper(learning_rate=0.1))
        assert params["w"].data.tolist() == [1.0, -2.0, 3.0]
        assert states["w"].t == 1

    def test_zero_grad_decay_scales(self):
        params = make_param([1.0, -2.0])
        states = init_states(params)
        hyper = OptimHyper(learning_rate=0.1, weight_decay=0.5)
        adamw_step(params, {"w": np.zeros(2)}, states, hyper)
        assert np.allclose(params["w"].data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.5))

    def test_first_step_is_lr_times_sign(self):
        g = np.array([0.3, -1.7, 2.5])
        params = make_param([0.0, 0.0, 0.0])
        states = init_states(params)
        hyper = OptimHyper(learning_rate=1e-2, epsilon=1e-12, clip_norm=0.0)
        adamw_step(params, {"w": g.copy()}, states, hyper)
        # m_hat = g, v_hat = g^2 after bias correction, so step = -lr*sign(g)
        assert np.allclose(params["w"].data, -1e-2 * np.sign(g), atol=1e-10)

    def test_second_moment_nonnegative(self):
        params = make_param(np.zeros(4))
        states = init_states(params)
        for seed in range(5):
            g = np.random.default_rng(seed).normal(size=4)
            adamw_step(params, {"w": g}, states, OptimHyper(learning_rate=1e-3))
            assert (states["w"].v >= 0).all()
        assert states["w"].t == 5

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_updates_the_array_in_place_bit_for_bit(self, weight_decay):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(2, 4, 3))
        # a view, as a soft-sharing tower's parameter views its stack
        params = {"w": Tensor(stack[1], requires_grad=True, name="w")}
        array = params["w"].data
        states = init_states(params)
        hyper = OptimHyper(learning_rate=0.05, weight_decay=weight_decay, clip_norm=0.0)
        for step in range(1, 4):
            before = array.copy()
            adamw_step(params, {"w": rng.normal(size=(4, 3))}, states, hyper)
            assert params["w"].data is array and array.base is stack
            # the out-of-place formula, from the moments the step left
            m_hat = states["w"].m / (1.0 - hyper.beta1**step)
            v_hat = states["w"].v / (1.0 - hyper.beta2**step)
            want = before - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.epsilon)
            if weight_decay > 0:
                want = want - hyper.learning_rate * hyper.weight_decay * want
            assert np.array_equal(array, want)
            assert np.array_equal(stack[1], want)

    def test_shape_mismatch_rejected(self):
        params = make_param([1.0, 2.0])
        with pytest.raises(ShapeError, match="w"):
            adamw_step(params, {"w": np.zeros(3)}, init_states(params), OptimHyper())

    def test_missing_grad_rejected(self):
        params = make_param([1.0])
        with pytest.raises(ContractError, match="missing"):
            adamw_step(params, {}, init_states(params), OptimHyper())


class TestClipping:
    def test_norm_is_sorted_name_order_sum(self):
        grads = {"b": np.array([3.0]), "a": np.array([4.0])}
        assert global_grad_norm(grads) == 5.0

    def test_rescale_to_limit(self):
        grads = {"w": np.array([3.0, 4.0])}
        clipped = clip_by_global_norm(grads, 1.0)
        assert np.allclose(clipped["w"], np.array([0.6, 0.8]))
        assert abs(global_grad_norm(clipped) - 1.0) < 1e-12

    def test_below_limit_untouched(self):
        grads = {"w": np.array([0.3, 0.4])}
        assert np.array_equal(clip_by_global_norm(grads, 1.0)["w"], grads["w"])

    def test_clip_zero_disables(self):
        params = make_param([0.0])
        states = init_states(params)
        hyper = OptimHyper(learning_rate=1.0, clip_norm=0.0, epsilon=1e-12)
        adamw_step(params, {"w": np.array([100.0])}, states, hyper)
        # unclipped: full -lr*sign step
        assert np.allclose(params["w"].data, [-1.0], atol=1e-10)


class TestQuadraticConvergence:
    def test_monotone_loss_decrease_below_stability_bound(self):
        # f(x) = 0.5 sum(a x^2); Adam steps are <= lr(1+o(1)) per element, so
        # any lr well under min|x| keeps every coordinate from overshooting 0
        a = np.array([0.5, 1.0, 2.0, 4.0])
        params = make_param([1.0, -1.0, 1.0, -1.0])
        states = init_states(params)
        hyper = OptimHyper(learning_rate=1e-3, weight_decay=0.0, clip_norm=0.0)

        def loss():
            return float(0.5 * (a * params["w"].data**2).sum())

        prev = loss()
        for _ in range(100):
            grad = a * params["w"].data
            adamw_step(params, {"w": grad}, states, hyper)
            cur = loss()
            assert cur < prev
            prev = cur
