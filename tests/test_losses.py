"""The four classification losses, class weighting, and batch averaging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlc.errors import ContractError, DataError
from mtlc.losses import (
    CLASS_WEIGHTED,
    LossConfig,
    LossKind,
    class_weights,
    compute_loss,
    cross_entropy,
    focal,
    hinge_multiclass,
    kld,
)
from mtlc.numcore import GradTape, Tensor, backward

from gradcheck import grad_check

KANNADA_SENTIMENT_COUNTS = [3291, 1481, 678, 820, 1003]


def one(logits):
    """A batch of one comment: its logits as a [1, C] tensor."""
    return Tensor(np.asarray(logits, dtype=float)[None, :])


class TestClassWeights:
    def test_kannada_sentiment_reproduction(self):
        cw = class_weights(KANNADA_SENTIMENT_COUNTS)
        assert cw[0] == pytest.approx(1 - 3291 / 7273, abs=1e-12)
        assert cw[0] == pytest.approx(0.54750, abs=5e-6)
        assert cw[1] == pytest.approx(0.79637, abs=5e-6)
        assert sum(cw) == 4.0

    def test_equal_counts(self):
        for c in (2, 3, 5, 6):
            cw = class_weights([10] * c)
            assert all(w == pytest.approx((c - 1) / c, abs=1e-15) for w in cw)

    def test_sum_identity(self):
        for seed in range(50):
            counts = np.random.default_rng(seed).integers(1, 10_000, size=5).tolist()
            cw = class_weights(counts)
            assert sum(cw) == pytest.approx(4.0, abs=1e-12)

    def test_zero_count_class_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            class_weights([10, 0, 5])

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            class_weights([7])


class TestCrossEntropy:
    def test_uniform_case(self):
        loss = cross_entropy(one(np.zeros(5)), [0])
        assert loss.item() == pytest.approx(math.log(5), abs=1e-12)

    def test_perfect_prediction_limit(self):
        loss = cross_entropy(one([50.0, 0.0, 0.0]), [0])
        assert loss.item() < 1e-12

    def test_weighted_hand_case(self):
        loss = cross_entropy(one([1.0, 0.0]), [0], (0.5, 0.5))
        assert loss.item() == pytest.approx(0.5 * math.log(1 + math.exp(-1)), abs=1e-12)
        assert loss.item() == pytest.approx(0.15663, abs=5e-6)

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(one(np.zeros(3)), [3])

    def test_stable_for_huge_logits(self):
        loss = cross_entropy(one([1000.0, 0.0]), [1])
        assert loss.item() == pytest.approx(1000.0, rel=1e-12)

    def test_equal_count_weights_scale_uniform_ce(self):
        logits = one(np.random.default_rng(0).normal(size=4))
        cw = class_weights([5, 5, 5, 5])
        plain = cross_entropy(logits, [2]).item()
        weighted = cross_entropy(logits, [2], cw).item()
        assert weighted == pytest.approx(plain * 3 / 4, rel=1e-12)


class TestHinge:
    def test_all_margins_satisfied(self):
        assert hinge_multiclass(one([2.0, 0.5, -1.0]), [0]).item() == 0.0

    def test_hand_case(self):
        assert hinge_multiclass(one([2.0, 0.5, -1.0]), [1]).item() == 2.5

    def test_all_equal_logits(self):
        for n in (2, 4, 6):
            loss = hinge_multiclass(one(np.full(n, 1.3)), [0])
            assert loss.item() == float(n - 1)

    def test_matches_brute_force_sum(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            logits = rng.uniform(-3, 3, size=5)
            target = int(rng.integers(0, 5))
            brute = sum(max(0.0, 1 + logits[y] - logits[target]) for y in range(5) if y != target)
            assert hinge_multiclass(one(logits), [target]).item() == pytest.approx(brute, abs=1e-12)

    def test_piecewise_linear_scaling(self):
        # doubling logits around the boundary scales every active margin term
        logits = np.array([0.0, -2.0, 1.5])
        base = hinge_multiclass(one(logits), [0]).item()
        doubled = hinge_multiclass(one(2 * logits), [0]).item()
        active = [y for y in (1, 2) if 1 + logits[y] - logits[0] > 0]
        expected = sum(1 + 2 * (logits[y] - logits[0]) for y in active)
        assert doubled == pytest.approx(expected, abs=1e-12)
        assert base == pytest.approx(sum(1 + logits[y] - logits[0] for y in active), abs=1e-12)

    def test_binary_special_case(self):
        # two classes with logits [0, s]: max(0, 1 - y s) for y = +1 (target 1) or -1 (target 0)
        assert hinge_multiclass(one([0.0, 0.3]), [1]).item() == pytest.approx(0.7)
        assert hinge_multiclass(one([0.0, 0.3]), [0]).item() == pytest.approx(1.3)
        assert hinge_multiclass(one([0.0, 2.0]), [1]).item() == 0.0


class TestFocal:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 9),
        classes=st.integers(2, 7),
        scale=st.sampled_from([1e-3, 1.0, 4.0, 40.0, 800.0]),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gamma_zero_is_cross_entropy_bitwise(self, rows, classes, scale, weighted, seed):
        # focal has no gamma = 0 branch: (1 - p)^0 = 1 times -log p must
        # give cross-entropy's value and gradient bits
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(rows, classes)) * scale
        targets = rng.integers(0, classes, size=rows)
        cw = class_weights(rng.integers(1, 100, size=classes).tolist()) if weighted else None
        bits = []
        for loss_of in (lambda x: focal(x, targets, 0.0, cw), lambda x: cross_entropy(x, targets, cw)):
            x = Tensor(logits, requires_grad=True)
            with GradTape() as tape:
                loss = loss_of(x)
            backward(tape, loss)
            bits.append((loss.data.tobytes(), x.grad.tobytes()))
        assert bits[0] == bits[1]

    def test_perfect_prediction_is_zero(self):
        for gamma in (0.0, 1.0, 2.0, 5.0):
            loss = focal(one([60.0, 0.0]), [0], gamma)
            assert loss.item() < 1e-12

    def test_certain_prediction_has_zero_gradient_below_gamma_one(self):
        # p_target rounds to 1.0, where (1 - p)^gamma has an infinite slope
        for gamma in (0.5, 1.0, 2.0):
            logits = Tensor([[40.0, 0.0, 0.0]], requires_grad=True)
            with GradTape() as tape:
                loss = focal(logits, [0], gamma)
            backward(tape, loss)
            assert loss.item() == 0.0
            assert np.array_equal(logits.grad, np.zeros((1, 3))), gamma

    def test_half_probability_hand_case(self):
        loss = focal(one([0.0, 0.0]), [0], 2.0)
        assert loss.item() == pytest.approx(0.25 * math.log(2), abs=1e-12)
        assert loss.item() == pytest.approx(0.17329, abs=5e-6)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ContractError, match="focal_gamma"):
            LossConfig(kind=LossKind.FOCAL, focal_gamma=-1.0)
        assert LossConfig(kind=LossKind.FOCAL, focal_gamma=0.0).focal_gamma == 0.0


class TestKld:
    def test_epsilon_zero_equals_cross_entropy(self):
        # no epsilon = 0 branch: KLD's own formula gives cross-entropy's
        # value and gradient within rounding
        for seed in range(60):
            rng = np.random.default_rng(seed)
            rows, classes = int(rng.integers(1, 9)), int(rng.integers(2, 7))
            logits = rng.uniform(-1, 1, size=(rows, classes)) * rng.choice([1.0, 4.0, 30.0])
            targets = rng.integers(0, classes, size=rows)
            results = []
            for loss_of in (lambda x: kld(x, targets, 0.0), lambda x: cross_entropy(x, targets)):
                x = Tensor(logits, requires_grad=True)
                with GradTape() as tape:
                    loss = loss_of(x)
                backward(tape, loss)
                results.append((loss.item(), x.grad))
            (a, grad_a), (b, grad_b) = results
            assert abs(a - b) <= 1e-12, seed
            assert np.abs(grad_a - grad_b).max() <= 1e-12, seed

    def test_identical_distributions_zero(self):
        loss = kld(one([60.0, 0.0, 0.0]), [0], 0.0)
        assert loss.item() < 1e-12

    def test_smoothed_hand_case(self):
        loss = kld(one([0.0, 0.0]), [0], 0.1)
        expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(0.36806, abs=5e-6)

    def test_epsilon_bounds(self):
        for bad in (-0.1, 0.5, 0.7):
            with pytest.raises(ContractError, match="kld_epsilon"):
                LossConfig(kind=LossKind.KLD, kld_epsilon=bad)
        for good in (0.0, 0.49):
            assert LossConfig(kind=LossKind.KLD, kld_epsilon=good).kld_epsilon == good


class TestLossProperties:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_nonnegative(self, kind):
        cfg = LossConfig(kind=kind)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            logits = one(rng.uniform(-5, 5, size=4))
            target = int(rng.integers(0, 4))
            assert compute_loss(logits, [target], cfg).item() >= 0.0

    def test_strictly_positive_off_target(self):
        logits = one([1.0, 0.5, 0.0])
        assert cross_entropy(logits, [1]).item() > 0
        assert focal(logits, [1], 2.0).item() > 0
        assert kld(logits, [1], 0.1).item() > 0

    @pytest.mark.parametrize(
        "fn",
        [
            lambda t, tgt: cross_entropy(t, tgt),
            lambda t, tgt: hinge_multiclass(t, tgt),
            lambda t, tgt: focal(t, tgt, 2.0),
            lambda t, tgt: focal(t, tgt, 0.5),
            lambda t, tgt: kld(t, tgt, 0.1),
        ],
        ids=["ce", "hinge", "focal", "focal_gamma_half", "kld"],
    )
    def test_gradients(self, fn):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            logits = one(rng.uniform(-2, 2, size=5))
            target = int(rng.integers(0, 5))
            assert grad_check(lambda t: fn(t, [target]), logits) < 1e-4

    def test_class_weights_ignored_by_hinge_and_kld(self):
        cw = class_weights([1, 9])
        logits = one([0.3, -0.2])
        weighted_cfg = LossConfig(kind=LossKind.HINGE, use_class_weights=True)
        hinge = hinge_multiclass(logits, [0]).item()
        assert compute_loss(logits, [0], weighted_cfg, cw).item() == hinge
        weighted_cfg = LossConfig(kind=LossKind.KLD, use_class_weights=True, kld_epsilon=0.1)
        assert compute_loss(logits, [0], weighted_cfg, cw).item() == kld(logits, [0], 0.1).item()


def per_sample_reference(kind, logits, target, weights=None, gamma=2.0, epsilon=0.1):
    """The per-sample loss in plain numpy, one row at a time."""
    z = logits - logits.max()
    log_p = z - math.log(np.exp(z).sum())
    w = 1.0 if weights is None else weights[target]
    if kind is LossKind.CROSS_ENTROPY:
        return -w * log_p[target]
    if kind is LossKind.FOCAL:
        return -w * (1.0 - math.exp(log_p[target])) ** gamma * log_p[target]
    if kind is LossKind.HINGE:
        return sum(max(0.0, 1.0 + logits[y] - logits[target]) for y in range(len(logits)) if y != target)
    p = np.full(len(logits), epsilon / (len(logits) - 1))
    p[target] = 1.0 - epsilon
    return float((p * (np.log(p) - log_p)).sum())


class TestBatchLoss:
    """compute_loss over [B, C] logits is the mean of the per-sample losses."""

    def test_single_sample(self):
        logits = np.array([0.3, -1.2, 2.0])
        cw = class_weights([3, 5, 9])
        for kind in LossKind:
            cfg = LossConfig(kind=kind, use_class_weights=True)
            w = cw if kind in CLASS_WEIGHTED else None
            expected = per_sample_reference(kind, logits, 2, w)
            assert abs(compute_loss(one(logits), [2], cfg, cw).item() - expected) <= 1e-12, kind

    def test_two_samples(self):
        logits = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
        expected = (math.log(2) + math.log(1 + math.exp(1))) / 2
        assert cross_entropy(logits, [1, 1]).item() == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_mean(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            logits = rng.uniform(-4, 4, size=(17, 6))
            targets = rng.integers(0, 6, size=17).tolist()
            cw = class_weights(rng.integers(1, 50, size=6).tolist())
            for kind in LossKind:
                for weighted in (False, True):
                    cfg = LossConfig(kind=kind, focal_gamma=1.5, kld_epsilon=0.2, use_class_weights=weighted)
                    w = cw if weighted and kind in (LossKind.CROSS_ENTROPY, LossKind.FOCAL) else None
                    rows = [
                        per_sample_reference(kind, logits[i], targets[i], w, gamma=1.5, epsilon=0.2)
                        for i in range(17)
                    ]
                    got = compute_loss(Tensor(logits), targets, cfg, cw if weighted else None).item()
                    assert abs(got - sum(rows) / 17) <= 1e-12, (seed, kind, weighted)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_dimensional_logits_rejected(self, kind):
        # a comment is a [1, C] batch; a bare logit vector is no batch
        with pytest.raises(ContractError, match=r"\[B, C\] logits"):
            compute_loss(Tensor(np.zeros(3)), [0], LossConfig(kind=kind))

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_one_class_logits_rejected(self, kind):
        # one class has no alternative to score against
        with pytest.raises(ContractError, match=r"C >= 2, got shape \(2, 1\)"):
            compute_loss(Tensor(np.array([[1.5], [0.2]])), [0, 0], LossConfig(kind=kind))

    @pytest.mark.parametrize("kind", sorted(CLASS_WEIGHTED, key=lambda k: k.value))
    def test_class_weights_of_another_class_count_rejected(self, kind):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ContractError, match="2 class weights for 3 classes"):
            compute_loss(logits, [0, 1], LossConfig(kind=kind), class_weights([1, 2]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            compute_loss(Tensor(np.zeros((0, 3))), [], LossConfig())
        with pytest.raises(ContractError):
            compute_loss(Tensor(np.zeros((2, 3))), [0], LossConfig())

    def test_gradient_splits_evenly(self):
        row = np.array([0.5, -0.25, 1.0])
        for kind in LossKind:
            cfg = LossConfig(kind=kind)
            single = Tensor(row[None, :], requires_grad=True)
            with GradTape() as tape:
                loss = compute_loss(single, [1], cfg)
            backward(tape, loss)
            four = Tensor(np.tile(row, (4, 1)), requires_grad=True)
            with GradTape() as tape:
                loss = compute_loss(four, [1] * 4, cfg)
            backward(tape, loss)
            assert np.abs(four.grad - single.grad / 4).max() < 1e-15, kind

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_batched_gradients(self, kind):
        cw = class_weights([4, 2, 9, 5, 3])
        cfg = LossConfig(kind=kind, use_class_weights=True)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            logits = Tensor(rng.uniform(-2, 2, size=(6, 5)))
            targets = rng.integers(0, 5, size=6).tolist()
            assert grad_check(lambda t: compute_loss(t, targets, cfg, cw), logits) < 1e-4

