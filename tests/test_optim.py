"""AdamW update rule, decoupled decay, global-norm clipping, and the
gradient checks that run before any update."""

import warnings

import numpy as np
import pytest

from mtlc.errors import NumericalError, ShapeError
from mtlc.numcore import (
    GradTape,
    Tensor,
    adamw_step,
    backward,
    init_states,
    mul,
    sum_all,
    zero_grads,
)
from mtlc.numcore.optim import BETA1, BETA2, CLIP_NORM, EPSILON, WEIGHT_DECAY, global_grad_norm


def make_param(values, name="w"):
    return {name: Tensor(np.asarray(values, dtype=float), requires_grad=True)}


def step(params, grads, states, learning_rate):
    """`adamw_step` with `grads` set as the parameters' `.grad`."""
    for name, grad in grads.items():
        params[name].grad = grad
    adamw_step(params, states, learning_rate)


def snapshot(params, states):
    return (
        {name: p.data.copy() for name, p in params.items()},
        {name: (s.m.copy(), s.v.copy(), s.t) for name, s in states.items()},
    )


def assert_same(a, b):
    (data_a, states_a), (data_b, states_b) = a, b
    assert data_a.keys() == data_b.keys() and states_a.keys() == states_b.keys()
    for name in data_a:
        assert np.array_equal(data_a[name], data_b[name]), name
        (m_a, v_a, t_a), (m_b, v_b, t_b) = states_a[name], states_b[name]
        assert np.array_equal(m_a, m_b) and np.array_equal(v_a, v_b) and t_a == t_b, name


class TestAdamWStep:
    def test_zero_grad_decay_scales(self):
        params = make_param([1.0, -2.0])
        states = init_states(params)
        step(params, {"w": np.zeros(2)}, states, 0.1)
        assert np.allclose(params["w"].data, np.array([1.0, -2.0]) * (1 - 0.1 * WEIGHT_DECAY))
        assert states["w"].t == 1

    def test_first_step_is_lr_times_sign(self):
        g = np.array([0.3, -1.7, 2.5])
        params = make_param([0.0, 0.0, 0.0])
        states = init_states(params)
        step(params, {"w": g.copy()}, states, 1e-2)
        # m_hat = g, v_hat = g^2 after bias correction (the clip scales both),
        # so the step is -lr*sign(g) up to EPSILON, then the post-Adam value decays
        want = -1e-2 * np.sign(g) * (1 - 1e-2 * WEIGHT_DECAY)
        assert np.allclose(params["w"].data, want, rtol=0, atol=1e-8)

    def test_second_moment_nonnegative(self):
        params = make_param(np.zeros(4))
        states = init_states(params)
        for seed in range(5):
            g = np.random.default_rng(seed).normal(size=4)
            step(params, {"w": g}, states, 1e-3)
            assert (states["w"].v >= 0).all()
        assert states["w"].t == 5

    @pytest.mark.parametrize(
        "grad_scale, clipped",
        [
            pytest.param(0.1, False, id="unclipped"),
            pytest.param(1.0, True, id="clipped"),
            pytest.param(None, False, id="none-grad"),
        ],
    )
    def test_updates_the_array_in_place_bit_for_bit(self, grad_scale, clipped):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(2, 4, 3))
        # a view, as a soft-sharing tower's parameter views its stack
        params = {"w": Tensor(stack[1], requires_grad=True)}
        array = params["w"].data
        states = init_states(params)
        lr = 0.05
        for t in range(1, 4):
            before, m, v = array.copy(), states["w"].m.copy(), states["w"].v.copy()
            grad = None if grad_scale is None else grad_scale * rng.normal(size=(4, 3))
            held = None if grad is None else grad.copy()
            step(params, {"w": grad}, states, lr)
            assert params["w"].data is array and array.base is stack
            # the step only reads the gradient
            assert grad is None or np.array_equal(grad, held)
            # the out-of-place formulas: the moments from the clipped
            # gradient (zeros for None), the update from the moments
            g = np.zeros((4, 3)) if grad is None else grad
            norm = np.sqrt(float((g * g).sum()))
            assert (norm > CLIP_NORM) == clipped
            if clipped:
                g = g * (CLIP_NORM / norm)
            assert np.array_equal(states["w"].m, BETA1 * m + (1.0 - BETA1) * g)
            assert np.array_equal(states["w"].v, BETA2 * v + (1.0 - BETA2) * (g * g))
            m_hat = states["w"].m / (1.0 - BETA1**t)
            v_hat = states["w"].v / (1.0 - BETA2**t)
            want = before - lr * m_hat / (np.sqrt(v_hat) + EPSILON)
            want = want - lr * WEIGHT_DECAY * want
            assert np.array_equal(array, want)
            assert np.array_equal(stack[1], want)

    def test_shape_mismatch_rejected(self):
        params = {**make_param([1.0, 2.0], "a"), **make_param([1.0, 2.0])}
        states = init_states(params)
        before = snapshot(params, states)
        with pytest.raises(ShapeError, match="w"):
            step(params, {"a": np.ones(2), "w": np.zeros(3)}, states, 1e-3)
        assert_same(snapshot(params, states), before)

    def test_none_grad_updates_as_an_explicit_zero(self):
        rng = np.random.default_rng(3)
        values = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        grad_a = 10 * rng.normal(size=(2, 3))  # above the clip norm, so the factor applies
        runs = []
        for grad_b in (None, np.zeros(4)):
            params = {
                name: Tensor(v.copy(), requires_grad=True) for name, v in values.items()
            }
            states = init_states(params)
            for _ in range(3):
                step(params, {"a": grad_a, "b": grad_b}, states, 0.05)
            runs.append(snapshot(params, states))
        assert_same(*runs)
        assert not np.array_equal(runs[0][0]["a"], values["a"])

    def test_an_off_path_parameter_steps_as_an_explicit_zero_bit_for_bit(self):
        # backward leaves a leaf off the loss's path at grad None; the step
        # reads that as zeros
        rng = np.random.default_rng(4)
        values = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        weights = Tensor(rng.normal(size=(2, 3)))
        runs = []
        for explicit in (False, True):
            params = {
                name: Tensor(v.copy(), requires_grad=True) for name, v in values.items()
            }
            states = init_states(params)
            for _ in range(3):
                zero_grads(params)
                with GradTape() as tape:
                    sum_all(params["b"])  # on the tape, off the loss's path
                    loss = sum_all(mul(params["a"], weights))
                backward(tape, loss)
                assert params["b"].grad is None
                if explicit:
                    params["b"].grad = np.zeros(4)
                adamw_step(params, states, 0.05)
            runs.append({
                n: (p.data.tobytes(), states[n].m.tobytes(), states[n].v.tobytes())
                for n, p in params.items()
            })
        assert runs[0] == runs[1]
        assert runs[0]["b"][0] != values["b"].tobytes()  # weight decay moved it

    def test_non_finite_grad_names_the_sorted_first_and_changes_nothing(self):
        params = {**make_param([1.0, 2.0], "b"), **make_param([3.0], "a")}
        states = init_states(params)
        step(params, {"b": np.array([0.5, -0.5]), "a": np.array([2.0])}, states, 0.1)
        before = snapshot(params, states)
        grads = {"b": np.array([np.nan, 1.0]), "a": np.array([np.inf])}
        with pytest.raises(NumericalError, match="^non-finite gradient for 'a'$"):
            step(params, grads, states, 0.1)
        assert_same(snapshot(params, states), before)


class TestClipping:
    # after a first step from zero moments, m is (1 - beta1) times the
    # gradient the step used, clipped or not

    def test_norm_is_sorted_name_order_sum(self):
        grads = {"b": np.array([3.0]), "a": np.array([4.0])}
        assert global_grad_norm(grads) == 5.0

    def test_rescale_to_limit(self):
        params = make_param([0.0, 0.0])
        states = init_states(params)
        step(params, {"w": np.array([3.0, 4.0])}, states, 1e-3)
        clipped = states["w"].m / (1.0 - BETA1)
        assert np.allclose(clipped, np.array([0.6, 0.8]))
        assert abs(global_grad_norm({"w": clipped}) - 1.0) < 1e-12

    def test_below_limit_untouched(self):
        params = make_param([0.0, 0.0])
        states = init_states(params)
        grad = np.array([0.3, 0.4])
        step(params, {"w": grad}, states, 1e-3)
        assert np.array_equal(states["w"].m, (1.0 - BETA1) * grad)

    def test_finite_grads_whose_norm_overflows_clip_to_zero(self):
        params = {**make_param([1.0], "a"), **make_param([-2.0], "b")}
        states = init_states(params)
        grads = {"a": np.array([1e200]), "b": np.array([1e200])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning reaches the run's stderr
            assert global_grad_norm(grads) == np.inf
            step(params, grads, states, 0.1)
        for name, value in (("a", 1.0), ("b", -2.0)):
            assert states[name].t == 1
            assert not states[name].m.any() and not states[name].v.any()
            # no Adam step: the parameter only decays
            assert params[name].data.tolist() == [value - value * (0.1 * WEIGHT_DECAY)]


class TestQuadraticConvergence:
    def test_monotone_loss_decrease_below_stability_bound(self):
        # f(x) = 0.5 sum(a x^2); Adam steps are <= lr(1+o(1)) per element, so
        # any lr well under min|x| keeps every coordinate from overshooting 0
        a = np.array([0.5, 1.0, 2.0, 4.0])
        params = make_param([1.0, -1.0, 1.0, -1.0])
        states = init_states(params)
        def loss():
            return float(0.5 * (a * params["w"].data**2).sum())

        prev = loss()
        for _ in range(100):
            grad = a * params["w"].data
            step(params, {"w": grad}, states, 1e-3)
            cur = loss()
            assert cur < prev
            prev = cur
