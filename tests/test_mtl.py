"""Training regimes: STL, hard sharing, and soft sharing."""

import weakref

import numpy as np
import pytest

from mtlc import mtl
from mtlc.data import (
    Batch,
    Corpus,
    Record,
    batches,
    class_counts,
    encode_split,
    schemas_for_language,
)
from mtlc.encoder import (
    INIT_STD,
    EncoderConfig,
    classify,
    encoder_forward,
    head_view,
    param_shapes,
)
from mtlc.errors import ConfigError, ContractError, DataError, NumericalError
from mtlc.losses import LossConfig, LossKind, class_weights, compute_loss, cross_entropy
from mtlc.mtl import (
    RegimeConfig,
    SoftShareConfig,
    TrainConfig,
    build_model,
    coupling_distance,
    default_coupled_layers,
    evaluate,
    expected_param_shapes,
    predict_logits,
    train,
    weighted_sum,
)
from mtlc.numcore import (
    GradTape,
    Tensor,
    backward,
    child_seed,
    init_states,
    stream,
    svt,
    truncated_normal,
    zero_grads,
)
from mtlc.text import encode

TASKS = ("sentiment", "offense")
N_CLASSES = {"sentiment": 5, "offense": 6}


def regime_for(kind, task="sentiment", weights=None, soft=None):
    tasks = (task,) if kind == "stl" else TASKS
    return RegimeConfig(
        tasks=tasks,
        task_weights=weights if weights is not None else tuple([1.0] * len(tasks)),
        soft=soft,
    )


def toy_encoder(vocab, **over):
    kwargs = dict(
        vocab_size=len(vocab), d_model=64, n_heads=4, n_layers=1, d_ffn=128,
        max_len=8, dropout_p=0.1,
    )
    kwargs.update(over)
    return EncoderConfig(**kwargs)


TOY_LR = 3e-3  # toy.cfg's train.lr


def soft_regime(penalty="frobenius", lam=0.1, weights=None):
    soft = SoftShareConfig(penalty=penalty, lam=lam)
    return regime_for("soft_share", weights=weights, soft=soft)


def logits_per_tower(model, seqs, rng=None):
    """Per-task logits the way training takes them: one pack of `seqs`, and
    in `towers` order `encoder_forward` on each tower's own map of its 2-D
    parameter views, then its tasks' heads."""
    packed = mtl.pack(seqs, model.encoder_cfg)
    out = {}
    for prefix, tasks in mtl.towers(model.regime).items():
        tower = {name: model.params[prefix + name] for name in model.stacks}
        pooled = encoder_forward(packed, tower, model.encoder_cfg, rng)
        for task in tasks:
            out[task] = classify(pooled, head_view(model.params, task, prefix))
    return out


STEP_BATCH = 16


class _StopBeforeUpdate(Exception):
    pass


def first_step_grads(splits, regime, model, vocab, monkeypatch, seed=1):
    """Run `train` up to its first AdamW step and return the gradients that
    step was given; no parameter is updated."""
    seen = {}

    def stop(params, states, learning_rate):
        seen.update((name, p.grad.copy()) for name, p in params.items())
        raise _StopBeforeUpdate

    monkeypatch.setattr(mtl, "adamw_step", stop)
    tc = TrainConfig(epochs=1, batch_size=STEP_BATCH, learning_rate=TOY_LR, seed=seed)
    with pytest.raises(_StopBeforeUpdate):
        train(model, splits.train, splits.val, vocab, tc)
    return seen


def first_batch(split, vocab, model, seed=1):
    """The first batch `train` takes from `split` at `seed`."""
    encoded = encode_split(split, vocab, model.encoder_cfg.max_len)
    return batches(encoded, STEP_BATCH, child_seed(stream(seed, "shuffle")))[0]


def joint_step_grads(splits, regime, model, vocab, seed=1, weights=None):
    """Reference for `first_step_grads`: the same first batch and dropout
    stream, with every encoder, every loss (with its task's class `weights`,
    if any) and the objective on one tape and one backward."""
    batch = first_batch(splits.train, vocab, model, seed)
    zero_grads(model.params)
    with GradTape() as tape:
        logits = logits_per_tower(model, batch.seqs, rng=stream(seed, "dropout"))
        losses = [
            compute_loss(logits[t], batch.labels[t], regime.loss, (weights or {}).get(t))
            for t in regime.tasks
        ]
        total = weighted_sum(losses, regime.task_weights)
    backward(tape, total)
    return {name: p.grad for name, p in model.params.items()}


class TestRegimeValidation:
    @pytest.mark.parametrize(
        "tasks", [(), ("sentiment", "offense", "sentiment")], ids=["no_task", "three_tasks"]
    )
    def test_one_task_or_two(self, tasks):
        with pytest.raises(ConfigError, match="one task or two"):
            RegimeConfig(tasks=tasks, task_weights=(1.0,) * len(tasks))

    def test_soft_needs_two_tasks(self):
        # one encoder has no pair to couple
        with pytest.raises(ConfigError, match="soft sharing two"):
            regime_for("stl", soft=SoftShareConfig())

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            regime_for("hard_share", weights=(1.0, -1.0))

    def test_unknown_penalty(self):
        with pytest.raises(ConfigError):
            SoftShareConfig(penalty="nuclear-ish", lam=1.0)

    def test_epochs_bound(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_batch_size_domain(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=10)
        for ok in (16, 32, 64):
            assert TrainConfig(batch_size=ok).batch_size == ok


class TestHardForward:
    def _tiny_model(self, vocab):
        cfg = toy_encoder(vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        regime = regime_for("hard_share")
        return build_model(regime, cfg, N_CLASSES, seed=2)

    def _batch(self, split, vocab, model, n=2):
        seqs = tuple(encode(r.text, vocab, model.encoder_cfg.max_len) for r in split.records[:n])
        labels = {t: tuple(r.labels[t] for r in split.records[:n]) for t in TASKS}
        return Batch(seqs=seqs, labels=labels)

    def test_zero_params_give_zero_logits(self, toy_splits, toy_vocab):
        model = self._tiny_model(toy_vocab)
        for name, p in model.params.items():
            p.data[...] = 1.0 if name.endswith("_g") else 0.0
        batch = self._batch(toy_splits.train, toy_vocab, model, n=1)
        logits = predict_logits(model, batch.seqs)
        assert np.array_equal(logits["sentiment"].data, np.zeros((1, 5)))
        assert np.array_equal(logits["offense"].data, np.zeros((1, 6)))

    def test_task1_loss_has_zero_grads_into_task2_head(self, toy_splits, toy_vocab):
        model = self._tiny_model(toy_vocab)
        batch = self._batch(toy_splits.train, toy_vocab, model)
        with GradTape() as tape:
            logits = logits_per_tower(model, batch.seqs)
            loss1 = cross_entropy(logits["sentiment"], batch.labels["sentiment"])
        backward(tape, loss1)
        # off the loss's path: no gradient, which adamw_step reads as zeros
        for leaf in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert model.params[f"head.offense.{leaf}"].grad is None
        assert np.abs(model.params["head.sentiment.w_out"].grad).max() > 0

    def test_forward_op_count_is_half_of_two_stl_passes(self, toy_splits, toy_vocab, forward_calls):
        model = self._tiny_model(toy_vocab)
        batch = self._batch(toy_splits.train, toy_vocab, model, n=4)
        forward_calls.count = 0
        predict_logits(model, batch.seqs)
        shared_count = forward_calls.count

        stl_models = [
            build_model(regime_for("stl", task), model.encoder_cfg, N_CLASSES, seed=2)
            for task in TASKS
        ]
        forward_calls.count = 0
        for stl in stl_models:
            predict_logits(stl, batch.seqs)
        stl_count = forward_calls.count
        assert shared_count * 2 == stl_count
        assert shared_count == len(batch)

    def test_soft_model_runs_one_tower_per_task(self, toy_vocab, toy_splits, forward_calls):
        soft = SoftShareConfig(lam=0.0)
        model = build_model(
            regime_for("soft_share", soft=soft), toy_encoder(toy_vocab, d_model=8, n_heads=2), N_CLASSES, seed=0
        )
        batch = self._batch(toy_splits.train, toy_vocab, model, n=3)
        forward_calls.count = 0
        logits = predict_logits(model, batch.seqs)
        assert forward_calls.count == 2 * len(batch)
        assert logits["sentiment"].shape == (3, 5) and logits["offense"].shape == (3, 6)
        # each task's logits come from its own tower
        model.params["tower.offense.pooler_b"].data += 1.0
        again = predict_logits(model, batch.seqs)
        assert np.array_equal(again["sentiment"].data, logits["sentiment"].data)
        assert not np.array_equal(again["offense"].data, logits["offense"].data)

    def test_soft_model_packs_each_batch_once(self, toy_vocab, toy_splits, monkeypatch, forward_calls):
        soft = SoftShareConfig(lam=0.0)
        model = build_model(
            regime_for("soft_share", soft=soft), toy_encoder(toy_vocab, d_model=8, n_heads=2), N_CLASSES, seed=0
        )
        batch = self._batch(toy_splits.train, toy_vocab, model, n=3)
        packs, pack = [], mtl.pack

        def counted_pack(seqs, config):
            packs.append(pack(seqs, config))
            return packs[-1]

        monkeypatch.setattr(mtl, "pack", counted_pack)
        forward_calls.count = 0
        predict_logits(model, batch.seqs)
        assert len(packs) == 1
        assert forward_calls.count == 2 * len(batch)


class TestHardLoss:
    def test_unit_weights_sum(self):
        out = weighted_sum((Tensor(0.7), Tensor(0.3)), (1.0, 1.0))
        assert out.item() == 1.0

    def test_zero_weight_silences_task(self):
        a = Tensor(0.9, requires_grad=True)
        b = Tensor(0.5, requires_grad=True)
        with GradTape() as tape:
            out = weighted_sum((a, b), (1.0, 0.0))
        backward(tape, out)
        assert out.item() == 0.9
        assert b.grad == 0.0
        assert a.grad == 1.0

    def test_gradient_additivity_on_shared_params(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=3)
        rec = toy_splits.train.records[0]
        seq = encode(rec.text, toy_vocab, cfg.max_len)

        def task_grads(task):
            for p in model.params.values():
                p.grad = None
            with GradTape() as tape:
                logits = logits_per_tower(model, [seq])
                loss = cross_entropy(logits[task], [rec.labels[task]])
            backward(tape, loss)
            return {name: p.grad for name, p in model.params.items()}

        g1 = task_grads("sentiment")
        g2 = task_grads("offense")
        for p in model.params.values():
            p.grad = None
        with GradTape() as tape:
            logits = logits_per_tower(model, [seq])
            total = weighted_sum(
                (
                    cross_entropy(logits["sentiment"], [rec.labels["sentiment"]]),
                    cross_entropy(logits["offense"], [rec.labels["offense"]]),
                ),
                (1.0, 1.0),
            )
        backward(tape, total)
        combined = {name: p.grad for name, p in model.params.items()}
        for name in ("tok_emb", "layer0.wv", "pooler_w", "final_norm_g"):
            assert np.abs(combined[name] - (g1[name] + g2[name])).max() < 1e-12


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_default_coupled_layers_are_each_layers_matrices(n_layers):
    leaves = ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_w2")
    names = default_coupled_layers(n_layers)
    assert names == tuple(f"layer{i}.{leaf}" for i in range(n_layers) for leaf in leaves)
    shapes = param_shapes(EncoderConfig(vocab_size=9, n_layers=n_layers), {"sentiment": 5})
    layer_matrices = [n for n, shape in shapes.items() if n.startswith("layer") and len(shape) == 2]
    assert list(names) == layer_matrices


class TestSoftLoss:
    def _soft_model(self, vocab, lam, penalty="frobenius"):
        regime = regime_for("soft_share", soft=SoftShareConfig(penalty=penalty, lam=lam))
        cfg = toy_encoder(vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        return build_model(regime, cfg, N_CLASSES, seed=4)

    def test_lambda_zero_is_exact_sum(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=0.0)
        l1, l2 = Tensor(0.43), Tensor(1.17)
        out = weighted_sum((l1, l2), model.regime.task_weights)
        assert out.item() == 0.43 + 1.17
        # and no coupling step runs: every parameter keeps its array
        arrays = {name: p.data for name, p in model.params.items()}
        mtl.couple(model, 1.0)
        assert all(p.data is arrays[name] for name, p in model.params.items())

    def test_identical_towers_zero_penalty(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=5.0)
        t1, t2 = model.regime.tasks
        for name in default_coupled_layers(1):
            model.params[f"tower.{t2}.{name}"].data[...] = model.params[f"tower.{t1}.{name}"].data
        before = {name: p.data.copy() for name, p in model.params.items()}
        out = weighted_sum((Tensor(1.0), Tensor(2.0)), model.regime.task_weights)
        assert out.item() == 3.0
        mtl.couple(model, 0.01)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name
        assert coupling_distance(model) == 0.0

    def test_hand_computed_two_layer_case(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=0.5)
        t1, t2 = model.regime.tasks
        before = {name: p.data.copy() for name, p in model.params.items()}
        out = weighted_sum((Tensor(0.2), Tensor(0.3)), model.regime.task_weights)
        assert out.item() == pytest.approx(0.5, abs=1e-12)
        mtl.couple(model, 0.2)
        shrink = 1 / (1 + 4 * 0.2 * 0.5)  # eta = lr * lambda
        for name in ("layer0.wq", "layer0.wk"):
            a0, b0 = before[f"tower.{t1}.{name}"], before[f"tower.{t2}.{name}"]
            a, b = model.params[f"tower.{t1}.{name}"].data, model.params[f"tower.{t2}.{name}"].data
            assert np.abs((a + b) - (a0 + b0)).max() < 1e-12
            assert np.abs((a - b) - shrink * (a0 - b0)).max() < 1e-12
        for name in ("layer0.ffn_b1", "layer0.norm1_g", "pooler_w"):  # not coupled
            for t in (t1, t2):
                assert np.array_equal(model.params[f"tower.{t}.{name}"].data, before[f"tower.{t}.{name}"])

    def test_trace_norm_penalty_route(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=2.0, penalty="trace_norm")
        t1, t2 = model.regime.tasks
        a, b = model.params[f"tower.{t1}.layer0.wq"], model.params[f"tower.{t2}.layer0.wq"]
        stacked = np.concatenate([a.data, b.data], axis=0)
        u, sigma, vt = np.linalg.svd(stacked, full_matrices=False)
        eta = 0.03 * 2.0
        assert sigma.min() < eta < sigma.max()  # some directions are cut, some kept
        expected = u @ np.diag(np.maximum(sigma - eta, 0.0)) @ vt
        out = weighted_sum((Tensor(1.0), Tensor(1.0)), model.regime.task_weights)
        assert out.item() == 2.0
        mtl.couple(model, 0.03)
        assert np.abs(np.concatenate([a.data, b.data]) - expected).max() < 1e-12

    @pytest.mark.parametrize("penalty", ["frobenius", "trace_norm"])
    def test_couple_writes_into_the_tower_stacks(self, toy_vocab, penalty):
        model = self._soft_model(toy_vocab, lam=2.0, penalty=penalty)
        t1, t2 = model.regime.tasks
        before = {name: p.data.copy() for name, p in model.params.items()}
        stacks = dict(model.stacks)
        mtl.couple(model, 0.03)
        eta = 0.03 * 2.0
        for name in default_coupled_layers(1):
            a0, b0 = before[f"tower.{t1}.{name}"], before[f"tower.{t2}.{name}"]
            # the out-of-place steps the pair took before they wrote in place
            if penalty == "frobenius":
                mean, half_diff = (a0 + b0) / 2, (a0 - b0) / (2 * (1 + 4 * eta))
                want = np.stack([mean + half_diff, mean - half_diff])
            else:
                want = svt(np.concatenate([a0, b0]), eta).reshape((2,) + a0.shape)
            stack = model.stacks[name].data
            assert model.stacks[name] is stacks[name]
            assert np.array_equal(stack, want), name
            for i, task in enumerate((t1, t2)):
                view = model.params[f"tower.{task}.{name}"].data
                assert view.base is stack and np.array_equal(view, want[i])
        assert model.stacks == stacks

    def test_non_finite_coupled_weight_names_its_layer(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=2.0, penalty="trace_norm")
        model.stacks["layer0.wk"].data[1, 0, 0] = np.inf
        with pytest.raises(NumericalError, match="coupled layer 'layer0.wk'"):
            mtl.couple(model, 0.03)

    def test_stl_weight_scales_its_loss(self):
        loss = Tensor(0.83)
        unit = weighted_sum((loss,), regime_for("stl", weights=(1.0,)).task_weights)
        half = weighted_sum((loss,), regime_for("stl", weights=(0.5,)).task_weights)
        assert half.item() == 0.5 * unit.item()


class TestTrain:
    def test_determinism_bitwise(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        regime = regime_for("hard_share")
        tc = TrainConfig(epochs=2, batch_size=16, learning_rate=TOY_LR, seed=1)
        results = []
        for _ in range(2):
            model = build_model(regime, cfg, N_CLASSES, seed=1)
            epochs = train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
            results.append((model.params, epochs))
        (p1, t1), (p2, t2) = results
        for name in p1:
            assert np.array_equal(p1[name].data, p2[name].data)
        for a, b in zip(t1, t2):
            assert a.train_loss == b.train_loss
            assert a.train_accuracy == b.train_accuracy
            f1_a, f1_b = ({t: r.weighted.f1 for t, r in e.val_report.items()} for e in (a, b))
            assert f1_a == f1_b

    def test_stl_matches_zero_weighted_hard_share(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        tc = TrainConfig(epochs=3, batch_size=16, learning_rate=TOY_LR, seed=1)

        stl = build_model(regime_for("stl", "sentiment"), cfg, N_CLASSES, seed=1)
        stl_epochs = train(stl, toy_splits.train, toy_splits.val, toy_vocab, tc)

        hard = build_model(regime_for("hard_share", weights=(1.0, 0.0)), cfg, N_CLASSES, seed=1)
        hard_epochs = train(hard, toy_splits.train, toy_splits.val, toy_vocab, tc)
        for a, b in zip(stl_epochs, hard_epochs):
            assert abs(a.train_loss["sentiment"] - b.train_loss["sentiment"]) <= 1e-12
            assert a.train_accuracy["sentiment"] == b.train_accuracy["sentiment"]
            f1_a, f1_b = a.val_report["sentiment"].weighted.f1, b.val_report["sentiment"].weighted.f1
            assert abs(f1_a - f1_b) <= 1e-12
        for name, p in stl.params.items():
            assert np.array_equal(p.data, hard.params[name].data), name

    def test_loss_nonincreasing_at_small_lr(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, dropout_p=0.0)
        regime = regime_for("hard_share")
        tc = TrainConfig(epochs=8, batch_size=16, learning_rate=1e-3, seed=1)
        model = build_model(regime, cfg, N_CLASSES, seed=1)
        epochs = train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        for task in TASKS:
            losses = [e.train_loss[task] for e in epochs]
            for earlier, later in zip(losses[1:], losses[2:]):
                assert later <= earlier + 1e-9

    def test_trace_length_and_fields(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "offense")
        tc = TrainConfig(epochs=2, batch_size=16, learning_rate=TOY_LR, seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        epochs = train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        assert len(epochs) == 2
        for ep in epochs:
            assert set(ep.train_loss) == {"offense"}
            assert 0.0 <= ep.train_accuracy["offense"] <= 1.0
            assert 0.0 <= ep.val_report["offense"].weighted.f1 <= 1.0

    @pytest.mark.parametrize("kind", ["hard_share", "soft_share"])
    def test_an_epochs_float32_copies_die_before_the_next_epoch_trains(
        self, toy_splits, toy_vocab, monkeypatch, kind
    ):
        # validation predicts on `stored_values`' float32 copies of the
        # weights; none outlives its report into the next epoch's steps
        copies, alive = [], []
        stored_values, train_step = mtl.stored_values, mtl.train_step

        def recording_stored_values(params):
            stored = stored_values(params)
            copies.append([weakref.ref(array) for array in stored.values()])
            return stored

        def checking_train_step(*args):
            if len(copies) == 1 and not alive:  # epoch 1's first step
                alive.append(sum(ref() is not None for ref in copies[0]))
            return train_step(*args)

        monkeypatch.setattr(mtl, "stored_values", recording_stored_values)
        monkeypatch.setattr(mtl, "train_step", checking_train_step)
        regime = regime_for(kind, soft=SoftShareConfig() if kind == "soft_share" else None)
        model = build_model(regime, toy_encoder(toy_vocab), N_CLASSES, seed=1)
        tc = TrainConfig(epochs=2, batch_size=16, learning_rate=TOY_LR, seed=1)
        train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        assert len(copies) == 2 and copies[0]
        assert alive == [0]

    def test_trace_norm_soft_sharing_trains_at_the_default_lambda(self, toy_splits, toy_vocab):
        # the toy run's config with soft sharing and the trace norm: as a
        # subgradient through AdamW, lambda 0.1 shrank every coupled weight
        # to zero and both tasks stayed at chance (F1 0.067 / 0.039)
        soft = SoftShareConfig(penalty="trace_norm")
        assert soft.lam == 0.1
        regime = regime_for("soft_share", soft=soft)
        model = build_model(regime, toy_encoder(toy_vocab), N_CLASSES, seed=1)
        tc = TrainConfig(epochs=5, batch_size=16, learning_rate=TOY_LR, seed=1)
        epochs = train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        f1 = {task: report.weighted.f1 for task, report in epochs[-1].val_report.items()}
        assert f1["sentiment"] >= 0.9 and f1["offense"] >= 0.9, f1

    @pytest.mark.parametrize(
        "regime", [regime_for("hard_share"), soft_regime()], ids=["hard", "soft"]
    )
    def test_head_class_count_comes_from_its_weights(self, toy_splits, toy_vocab, regime):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        model = build_model(regime, cfg, {**N_CLASSES, "offense": 5}, seed=0)
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=TOY_LR, seed=0)
        with pytest.raises(ContractError, match="'offense' has 5 classes but schema has 6"):
            train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)

    def test_split_without_a_heads_task_rejected(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=0)
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=TOY_LR, seed=0)
        schemas = {"sentiment": toy_splits.train.schemas["sentiment"]}
        sentiment_only = Corpus(records=toy_splits.train.records, schemas=schemas, language="kannada")
        with pytest.raises(ContractError, match="split has no labels for task 'offense'"):
            train(model, sentiment_only, toy_splits.val, toy_vocab, tc)

    def test_empty_split_rejected(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "sentiment")
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=TOY_LR, seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        empty = Corpus(records=[], schemas=toy_splits.train.schemas, language="kannada")
        with pytest.raises(ContractError, match="empty split"):
            train(model, toy_splits.train, empty, toy_vocab, tc)

    def test_non_finite_loss_aborts_with_coordinates(self, toy_splits, toy_vocab):
        from mtlc.errors import NumericalError

        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "sentiment")
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=TOY_LR, seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        model.params["pooler_w"].data[0, 0] = float("nan")
        with pytest.raises(NumericalError, match="epoch 0 batch 0"):
            train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)

    def test_non_finite_gradient_aborts_before_the_step(self, toy_splits, toy_vocab, monkeypatch):
        import mtlc.mtl
        from mtlc.errors import NumericalError

        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "sentiment")
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=TOY_LR, seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        before = {name: p.data.copy() for name, p in model.params.items()}

        def poisoned_backward(tape, loss):
            backward(tape, loss)
            model.params["pooler_w"].grad[0, 0] = float("inf")

        monkeypatch.setattr(mtlc.mtl, "backward", poisoned_backward)
        with pytest.raises(NumericalError, match="'pooler_w' at epoch 0 batch 0"):
            train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name


class TestTrainStep:
    """Each encoder runs forward and backward on a tape of its own, and the
    gradients equal one joint backward; the coupling penalty stays off the
    tapes and takes its proximal step after AdamW."""

    def _model(self, regime, vocab):
        return build_model(regime, toy_encoder(vocab, d_model=8, n_heads=2, d_ffn=16), N_CLASSES, seed=6)

    every_regime = pytest.mark.parametrize(
        "regime",
        [
            regime_for("stl"),
            regime_for("hard_share", weights=(0.7, 1.3)),
            soft_regime("frobenius", weights=(0.7, 1.3)),
            soft_regime("trace_norm", weights=(0.7, 1.3)),
        ],
        ids=["stl", "hard_share", "soft_frobenius", "soft_trace_norm"],
    )

    @every_regime
    def test_gradients_match_one_joint_backward_bit_for_bit(
        self, regime, toy_splits, toy_vocab, monkeypatch
    ):
        got = first_step_grads(
            toy_splits, regime, self._model(regime, toy_vocab), toy_vocab, monkeypatch
        )
        want = joint_step_grads(toy_splits, regime, self._model(regime, toy_vocab), toy_vocab)
        assert set(got) == set(want)
        for name, grad in got.items():
            assert np.array_equal(grad, want[name]), name

    def test_class_weights_come_from_the_train_split(self, toy_splits, toy_vocab, monkeypatch):
        # regime.class_weights = true: each task's loss weighs its classes by
        # their inverse frequency in the train split
        regime = RegimeConfig(
            tasks=TASKS, loss=LossConfig(kind=LossKind.FOCAL, use_class_weights=True)
        )
        weights = {t: class_weights(class_counts(toy_splits.train, t)) for t in TASKS}
        got = first_step_grads(
            toy_splits, regime, self._model(regime, toy_vocab), toy_vocab, monkeypatch
        )
        want = joint_step_grads(
            toy_splits, regime, self._model(regime, toy_vocab), toy_vocab, weights=weights
        )
        unweighted = joint_step_grads(toy_splits, regime, self._model(regime, toy_vocab), toy_vocab)
        for name, grad in got.items():
            assert np.array_equal(grad, want[name]), name
        assert not np.array_equal(got["pooler_w"], unweighted["pooler_w"])

    def test_only_weighted_losses_compute_class_weights(self, toy_splits, toy_vocab):
        # a train split with no offense `Other language` comment: HL and KLD
        # weigh no class, so they train on it; CE and FL would weigh the
        # empty class
        other = toy_splits.train.schemas["offense"].index("Other language")
        records = [r for r in toy_splits.train.records if r.labels["offense"] != other]
        split = Corpus(records=records, schemas=toy_splits.train.schemas, language="kannada")
        tc = TrainConfig(epochs=1, batch_size=16, learning_rate=TOY_LR, seed=1)
        for kind in LossKind:
            regime = RegimeConfig(tasks=TASKS, loss=LossConfig(kind=kind, use_class_weights=True))
            model = self._model(regime, toy_vocab)
            if kind in (LossKind.CROSS_ENTROPY, LossKind.FOCAL):
                with pytest.raises(DataError, match=rf"zero count at indices \[{other}\]"):
                    train(model, split, toy_splits.val, toy_vocab, tc)
            else:
                (epoch,) = train(model, split, toy_splits.val, toy_vocab, tc)
                assert all(np.isfinite(v) for v in epoch.train_loss.values())

    def test_each_soft_tape_holds_one_tower(self, toy_splits, toy_vocab, monkeypatch, forward_calls):
        regime = soft_regime("trace_norm")
        model = self._model(regime, toy_vocab)
        tapes = []

        key_of = {id(t): key for key, t in model.params.items()}

        def recording_backward(tape, loss):
            watched = {key_of[id(t)] for t in tape._watched.values()}
            tapes.append((watched, forward_calls.count))
            return backward(tape, loss)

        monkeypatch.setattr(mtl, "backward", recording_backward)
        forward_calls.count = 0
        first_step_grads(toy_splits, regime, model, toy_vocab, monkeypatch)
        assert forward_calls.count == 2 * STEP_BATCH  # one batch per tower
        (first, _), (second, _) = tapes  # no tape for the penalty
        assert first and all(name.startswith("tower.sentiment.") for name in first)
        assert second and all(name.startswith("tower.offense.") for name in second)
        # a tower's backward ran before the next tower's forward
        assert [calls for _, calls in tapes] == [STEP_BATCH, 2 * STEP_BATCH]

    @pytest.mark.parametrize("penalty", ["frobenius", "trace_norm"])
    def test_prox_runs_once_per_coupled_layer_after_adamw(
        self, penalty, toy_splits, toy_vocab, monkeypatch
    ):
        regime = soft_regime(penalty, lam=0.5)
        model = self._model(regime, toy_vocab)
        stack_of = {id(s.data): name for name, s in model.stacks.items()}
        events = []
        real_step, real_prox = mtl.adamw_step, getattr(mtl, f"{penalty}_penalty")

        def recording_step(*args):
            events.append("adamw")
            return real_step(*args)

        def recording_prox(pair, eta):
            events.append((stack_of[id(pair)], eta))
            return real_prox(pair, eta)

        monkeypatch.setattr(mtl, "adamw_step", recording_step)
        monkeypatch.setattr(mtl, f"{penalty}_penalty", recording_prox)
        tc = TrainConfig(epochs=1, batch_size=STEP_BATCH, learning_rate=0.002, seed=1)
        train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        step = ["adamw"] + [(name, 0.002 * 0.5) for name in default_coupled_layers(1)]
        n_steps = -(-len(toy_splits.train.records) // STEP_BATCH)
        assert events == step * n_steps

    def test_non_finite_tower_loss_names_its_task(self, toy_splits, toy_vocab, monkeypatch):
        regime = soft_regime("trace_norm")
        model = self._model(regime, toy_vocab)
        model.params["tower.offense.pooler_w"].data[0, 0] = float("nan")
        before = {name: p.data.copy() for name, p in model.params.items()}
        for name in ("adamw_step", "trace_norm_penalty"):
            monkeypatch.setattr(mtl, name, None)  # calling either fails the test
        tc = TrainConfig(epochs=1, batch_size=STEP_BATCH, learning_rate=TOY_LR, seed=1)
        with pytest.raises(NumericalError, match="offense loss at epoch 0 batch 0"):
            train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name], equal_nan=True), name

    def test_non_finite_gradient_stops_before_adamw_and_the_prox(
        self, toy_splits, toy_vocab, monkeypatch
    ):
        regime = soft_regime("trace_norm")
        model = self._model(regime, toy_vocab)
        before = {name: p.data.copy() for name, p in model.params.items()}

        states, couplings = {}, []

        def poisoned_backward(tape, loss):
            backward(tape, loss)
            model.params["tower.sentiment.layer0.wq"].grad[0, 0] = float("nan")

        def recording_init_states(params):
            states.update(init_states(params))
            return states

        monkeypatch.setattr(mtl, "backward", poisoned_backward)
        monkeypatch.setattr(mtl, "init_states", recording_init_states)
        monkeypatch.setattr(mtl, "couple", lambda *args: couplings.append(args))
        tc = TrainConfig(epochs=1, batch_size=STEP_BATCH, learning_rate=TOY_LR, seed=1)
        with pytest.raises(NumericalError, match="'tower.sentiment.layer0.wq' at epoch 0 batch 0"):
            train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name
        assert set(states) == set(model.params)
        for name, s in states.items():
            assert s.t == 0 and not s.m.any() and not s.v.any(), name
        assert couplings == []

    @staticmethod
    def _step(model, batch, states=None):
        """One `train_step` without class weights, at `first_step_grads`'
        learning rate and dropout stream."""
        states = init_states(model.params) if states is None else states
        no_weights = dict.fromkeys(model.regime.tasks)
        return mtl.train_step(model, batch, states, no_weights, TOY_LR, stream(1, "dropout"))

    @every_regime
    def test_one_step_is_a_one_batch_epoch(self, regime, toy_splits, toy_vocab, monkeypatch):
        split = Corpus(toy_splits.train.records[:STEP_BATCH], toy_splits.train.schemas, "kannada")
        trained, states = self._model(regime, toy_vocab), {}

        def recording_init_states(params):
            states.update(init_states(params))
            return states

        monkeypatch.setattr(mtl, "init_states", recording_init_states)
        tc = TrainConfig(epochs=1, batch_size=STEP_BATCH, learning_rate=TOY_LR, seed=1)
        train(trained, split, toy_splits.val, toy_vocab, tc)

        stepped = self._model(regime, toy_vocab)
        step_states = init_states(stepped.params)
        self._step(stepped, first_batch(split, toy_vocab, stepped), step_states)
        for name, p in stepped.params.items():
            assert np.array_equal(p.data, trained.params[name].data), name
            assert np.array_equal(step_states[name].m, states[name].m), name
            assert np.array_equal(step_states[name].v, states[name].v), name
            assert step_states[name].t == states[name].t == 1, name

    @every_regime
    def test_returns_the_batch_losses_and_hits(self, regime, toy_splits, toy_vocab):
        model = self._model(regime, toy_vocab)
        batch = first_batch(toy_splits.train, toy_vocab, model)
        logits = logits_per_tower(model, batch.seqs, rng=stream(1, "dropout"))
        want = {
            t: (
                compute_loss(logits[t], batch.labels[t], regime.loss).item(),
                int((logits[t].data.argmax(axis=1) == batch.labels[t]).sum()),
            )
            for t in regime.tasks
        }
        assert self._step(model, batch) == want

    def test_train_takes_one_step_per_batch(self, toy_splits, toy_vocab, monkeypatch):
        regime = regime_for("hard_share")
        sizes, step = [], mtl.train_step

        def counted_step(model, batch, *args):
            sizes.append(len(batch))
            return step(model, batch, *args)

        monkeypatch.setattr(mtl, "train_step", counted_step)
        tc = TrainConfig(epochs=2, batch_size=STEP_BATCH, learning_rate=TOY_LR, seed=1)
        train(self._model(regime, toy_vocab), toy_splits.train, toy_splits.val, toy_vocab, tc)
        n = len(toy_splits.train.records)
        per_epoch = [STEP_BATCH] * (n // STEP_BATCH) + ([n % STEP_BATCH] if n % STEP_BATCH else [])
        assert sizes == per_epoch * 2

    @every_regime
    @pytest.mark.parametrize(
        "name", ["adamw_step", "backward", "couple", "pack", "encoder_forward", "compute_loss"]
    )
    def test_looks_its_callees_up_in_mtl(self, name, regime, toy_splits, toy_vocab, monkeypatch):
        # monkeypatching tests and the benchmark's tracer patch these names in `mtl`
        calls, real = [], getattr(mtl, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(mtl, name, recording)
        model = self._model(regime, toy_vocab)
        self._step(model, first_batch(toy_splits.train, toy_vocab, model))
        assert calls

    @pytest.mark.parametrize(
        "regime",
        [regime_for("hard_share", weights=(1e308, 1e308)), soft_regime(weights=(1e308, 1e308))],
        ids=["hard_share", "soft_share"],
    )
    def test_finite_losses_with_an_infinite_objective_name_no_task(
        self, regime, toy_splits, toy_vocab, monkeypatch
    ):
        # each task loss is finite, and so is each one weighted; their sum is not
        model = self._model(regime, toy_vocab)
        before = {name: p.data.copy() for name, p in model.params.items()}
        monkeypatch.setattr(mtl, "adamw_step", None)  # calling it fails the test
        with pytest.raises(NumericalError, match="^non-finite objective$"):
            self._step(model, first_batch(toy_splits.train, toy_vocab, model))
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name


class TestEvaluate:
    def test_zero_params_predict_class_zero(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=0)
        for name, p in model.params.items():
            p.data[...] = 1.0 if name.endswith("_g") else 0.0
        preds = evaluate(model, toy_splits.val, toy_vocab)
        for task in TASKS:
            assert preds[task] == [0] * len(toy_splits.val)

    def test_argmax_invariant_to_positive_scaling(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=6)
        base = evaluate(model, toy_splits.val, toy_vocab)
        for task in TASKS:
            for leaf in ("w_out", "b_out"):
                model.params[f"head.{task}.{leaf}"].data *= 7.5
        scaled = evaluate(model, toy_splits.val, toy_vocab)
        assert base == scaled

    def test_hand_set_head_fixture(self, toy_vocab):
        # head ignores the encoder output except through a constant bias
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("stl", "sentiment"), cfg, N_CLASSES, seed=1)
        for leaf, val in (("w_hidden", 0.0), ("b_hidden", 0.0), ("w_out", 0.0)):
            p = model.params[f"head.sentiment.{leaf}"]
            p.data[...] = val
        model.params["head.sentiment.b_out"].data[...] = [0.0, 0.0, 3.0, 0.0, 0.0]
        schemas = schemas_for_language("kannada")
        records = [Record(text=f"u{i}", labels={"sentiment": 0, "offense": 0}) for i in range(10)]
        split = Corpus(records=records, schemas=schemas, language="kannada")
        preds = evaluate(model, split, toy_vocab)
        assert preds["sentiment"] == [2] * 10

    def test_length_ordered_batches_keep_corpus_order(self, toy_vocab):
        self._assert_single_comments_match_the_batch(
            toy_vocab, regime_for("soft_share", soft=SoftShareConfig(lam=0.0))
        )

    @pytest.mark.parametrize("kind", ["stl", "hard_share"])
    def test_length_ordered_batches_keep_corpus_order_one_tower(self, toy_vocab, kind):
        # at seed 4 (and 5) one task predicts a single class for every comment
        self._assert_single_comments_match_the_batch(toy_vocab, regime_for(kind), seed=6)

    def _assert_single_comments_match_the_batch(self, toy_vocab, regime, seed=4):
        """Single-comment `evaluate` calls give the predictions of one
        evaluate over the split, whose batches are length-ordered."""
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime, cfg, N_CLASSES, seed=seed)
        rng = np.random.default_rng(seed)
        for name, p in model.params.items():  # unit-scale activations, so predictions vary
            if p.data.ndim == 2:
                p.data[...] = rng.normal(size=p.shape) / np.sqrt(1 if "emb" in name else p.shape[0])
        words = list(toy_vocab.id_to_token[4:])
        texts = {" ".join(rng.choice(words, size=rng.integers(0, 7))) for _ in range(600)}
        schemas = schemas_for_language("kannada")
        records = [Record(text=t, labels={"sentiment": 0, "offense": 0}) for t in sorted(texts)]
        rng.shuffle(records)  # lengths in no order
        # [CLS] and [SEP] around each comment: more packed rows than one batch holds
        assert sum(len(r.text.split()) + 2 for r in records) > mtl.PREDICT_ROWS
        split = Corpus(records=records, schemas=schemas, language="kannada")
        preds = evaluate(model, split, toy_vocab)
        singles = [
            evaluate(model, Corpus(records=[r], schemas=schemas, language="kannada"), toy_vocab)
            for r in records
        ]
        assert list(preds) == list(regime.tasks)
        for task in regime.tasks:
            assert preds[task] == [single[task][0] for single in singles]
            assert len(set(preds[task])) > 1
            # Python ints, from a split of several batches and from one comment
            assert all(type(p) is int for p in preds[task])
            assert all(type(single[task][0]) is int for single in singles)

    @pytest.mark.parametrize("budget", [None, 150])
    def test_predict_batches_hold_the_row_budget(self, toy_vocab, monkeypatch, budget):
        if budget is not None:  # small enough that the longest comments run alone
            monkeypatch.setattr(mtl, "PREDICT_ROWS", budget)
        cfg = toy_encoder(toy_vocab, max_len=200, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=6)
        rng = np.random.default_rng(6)
        for name, p in model.params.items():  # large enough that long comments still differ
            if p.data.ndim == 2:
                p.data[...] = 3 * rng.normal(size=p.shape) / np.sqrt(1 if "emb" in name else p.shape[0])
        words = list(toy_vocab.id_to_token[4:])
        schemas = schemas_for_language("kannada")
        # each comment packs 42 to 200 rows, so 64 of them overflow the budget
        records = [
            Record(
                text=" ".join(rng.choice(words, size=rng.integers(40, 220))),
                labels={"sentiment": 0, "offense": 0},
            )
            for _ in range(80)
        ]
        split = Corpus(records=records, schemas=schemas, language="kannada")
        packed, predict = [], mtl.predict_logits

        def spy(model, seqs):
            packed.append((len(seqs), sum(sum(seq.mask) for seq in seqs)))
            return predict(model, seqs)

        monkeypatch.setattr(mtl, "predict_logits", spy)
        preds = evaluate(model, split, toy_vocab)
        assert sum(n for n, _ in packed) == len(records)
        assert all(rows <= mtl.PREDICT_ROWS or n == 1 for n, rows in packed)
        if budget is not None:
            assert any(rows > budget for _, rows in packed)
        singles = [
            evaluate(model, Corpus(records=[r], schemas=schemas, language="kannada"), toy_vocab)
            for r in records
        ]
        for task in TASKS:
            assert preds[task] == [single[task][0] for single in singles]
            assert len(set(preds[task])) > 1

    def test_non_finite_logits_name_the_comment(self, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=0)
        word = toy_vocab.id_to_token[4]
        model.params["tok_emb"].data[toy_vocab.token_to_id[word]] = np.nan
        schemas = schemas_for_language("kannada")
        texts = ["u"] * 6 + [word] + ["u u"] * 3  # only comment 6 sees the NaN row
        records = [Record(text=t, labels={"sentiment": 0, "offense": 0}) for t in texts]
        split = Corpus(records=records, schemas=schemas, language="kannada")
        with pytest.raises(NumericalError, match="sentiment logits for comment 6"):
            evaluate(model, split, toy_vocab)

    def test_schema_mismatch_rejected(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=0)
        malayalam = schemas_for_language("malayalam")
        wrong = Corpus(
            records=[Record(text="x", labels={"sentiment": 0, "offense": 0})],
            schemas=malayalam,
            language="malayalam",
        )
        with pytest.raises(ContractError):
            evaluate(model, wrong, toy_vocab)


class TestStackedPrediction:
    """Prediction runs every tower in one encoder pass over the tower
    stacks; it must give `logits_per_tower` bit for bit. Soft
    sharing here, STL and hard sharing in the subclasses below."""

    regime = regime_for("soft_share", soft=SoftShareConfig(lam=0.0))

    def _model(self, vocab, max_len=8, seed=4):
        cfg = toy_encoder(vocab, max_len=max_len, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(self.regime, cfg, N_CLASSES, seed)
        rng = np.random.default_rng(seed)
        for name, p in model.params.items():  # unit-scale activations, so predictions vary
            if p.data.ndim == 2:
                p.data[...] = rng.normal(size=p.shape) / np.sqrt(1 if "emb" in name else p.shape[0])
        return model

    def _seqs(self, records, vocab, model):
        return [encode(r.text, vocab, model.encoder_cfg.max_len) for r in records]

    def _assert_same_logits(self, model, seqs):
        stacked, per_tower = predict_logits(model, seqs), logits_per_tower(model, seqs)
        assert set(stacked) == set(per_tower) == set(model.regime.tasks)
        for task in model.regime.tasks:
            assert np.array_equal(stacked[task].data, per_tower[task].data), task

    def test_towers_view_their_stacks(self, toy_vocab):
        model = self._model(toy_vocab)
        prefixes = list(mtl.towers(self.regime))
        # one tower for STL and hard sharing, one per task for soft sharing
        assert len(prefixes) == (2 if self.regime.soft is not None else 1)
        # every encoder parameter, no head
        assert set(model.stacks) == set(param_shapes(model.encoder_cfg, {}))
        for name, stack in model.stacks.items():
            assert stack.shape[0] == len(prefixes) and not stack.requires_grad
            for i, prefix in enumerate(prefixes):
                view = model.params[prefix + name].data
                assert view.base is stack.data and np.array_equal(view, stack.data[i])

    def test_one_comment(self, toy_splits, toy_vocab, monkeypatch, forward_calls):
        model = self._model(toy_vocab)
        seqs = self._seqs(toy_splits.val.records[:1], toy_vocab, model)
        calls = []
        forward = mtl.encoder_forward
        monkeypatch.setattr(mtl, "encoder_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        forward_calls.count = 0
        predict_logits(model, seqs)
        # one encoder pass, counted as one sequence per tower
        assert len(calls) == 1 and forward_calls.count == len(mtl.towers(self.regime))
        self._assert_same_logits(model, seqs)

    def test_length_ordered_batches(self, toy_vocab, monkeypatch):
        monkeypatch.setattr(mtl, "PREDICT_ROWS", 64)
        model = self._model(toy_vocab, max_len=24)
        rng = np.random.default_rng(9)
        words = list(toy_vocab.id_to_token[4:])
        records = [
            Record(text=" ".join(rng.choice(words, size=rng.integers(0, 22))), labels={})
            for _ in range(60)
        ]
        seqs = self._seqs(records, toy_vocab, model)
        lengths = [sum(seq.mask) for seq in seqs]
        order = np.argsort(lengths, kind="stable")
        spans = mtl._row_budget_spans([lengths[i] for i in order])
        assert len(spans) > 3
        for start, stop in spans:
            self._assert_same_logits(model, [seqs[i] for i in order[start:stop]])

    def test_batches_hold_the_tower_row_budget(self, toy_vocab, monkeypatch):
        budget = 75
        monkeypatch.setattr(mtl, "PREDICT_ROWS", budget)
        model = self._model(toy_vocab, max_len=200)
        n_towers = len(mtl.towers(self.regime))
        rng = np.random.default_rng(6)
        words = list(toy_vocab.id_to_token[4:])
        schemas = schemas_for_language("kannada")
        # 7 to 99 rows a comment: some pack together, the longest run alone
        records = [
            Record(
                text=" ".join(rng.choice(words, size=rng.integers(5, 98))),
                labels={"sentiment": 0, "offense": 0},
            )
            for _ in range(40)
        ]
        split = Corpus(records=records, schemas=schemas, language="kannada")
        packed = []
        forward = mtl.encoder_forward

        def spy(batch, params, *args, **kwargs):
            assert params["tok_emb"].shape[0] == n_towers  # every tower in one pass
            packed.append((len(batch.lengths), sum(batch.lengths)))
            return forward(batch, params, *args, **kwargs)

        monkeypatch.setattr(mtl, "encoder_forward", spy)
        preds = evaluate(model, split, toy_vocab)
        assert sum(n for n, _ in packed) == len(records)
        # the budget counts each tower's rows: two towers fill it as one does
        assert all(rows <= budget or n == 1 for n, rows in packed)
        assert any(n > 1 and rows > budget / 2 for n, rows in packed)
        assert any(rows > budget for _, rows in packed)
        monkeypatch.setattr(mtl, "encoder_forward", forward)
        singles = [
            evaluate(model, Corpus(records=[r], schemas=schemas, language="kannada"), toy_vocab)
            for r in records
        ]
        for task in self.regime.tasks:
            assert preds[task] == [single[task][0] for single in singles]

    def test_in_place_edit_reaches_prediction(self, toy_splits, toy_vocab):
        model = self._model(toy_vocab)
        seqs = self._seqs(toy_splits.val.records[:5], toy_vocab, model)
        stacks = dict(model.stacks)
        before = predict_logits(model, seqs)
        prefix, edited = list(mtl.towers(self.regime).items())[-1]
        model.params[prefix + "pooler_b"].data += 1.0
        after = predict_logits(model, seqs)
        assert model.stacks == stacks  # nothing restacked
        for task in self.regime.tasks:  # only the edited tower's heads move
            same = np.array_equal(after[task].data, before[task].data)
            assert same == (task not in edited), task
        self._assert_same_logits(model, seqs)


class TestStackedPredictionHard(TestStackedPrediction):
    regime = regime_for("hard_share")


class TestStackedPredictionSTL(TestStackedPrediction):
    regime = regime_for("stl")


class TestExpectedShapes:
    def test_shared_names(self, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        shapes = expected_param_shapes(regime_for("hard_share"), cfg, N_CLASSES)
        assert "tok_emb" in shapes and "head.offense.w_out" in shapes
        assert shapes["head.offense.w_out"] == (128, 6)

    def test_tower_names(self, toy_vocab):
        soft = SoftShareConfig(lam=0.0)
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        shapes = expected_param_shapes(regime_for("soft_share", soft=soft), cfg, N_CLASSES)
        assert "tower.sentiment.tok_emb" in shapes
        assert "tower.offense.head.offense.w_out" in shapes
        assert not any(name.startswith("tok_emb") for name in shapes)

    @pytest.mark.parametrize("kind", ["stl", "hard_share", "soft_share"])
    def test_build_model_initializes_the_table(self, toy_vocab, kind):
        # the table a checkpoint is checked against, in its order, and each
        # value its own draw: a tower's tensors draw from `init/tower.<task>.<name>`
        soft = SoftShareConfig(lam=0.0) if kind == "soft_share" else None
        regime = regime_for(kind, soft=soft)
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        shapes = expected_param_shapes(regime, cfg, N_CLASSES)
        params = build_model(regime, cfg, N_CLASSES, seed=7).params
        assert list(params) == list(shapes)
        biases = ("ffn_b1", "ffn_b2", "norm1_b", "norm2_b", "final_norm_b", "pooler_b", "b_hidden", "b_out")
        drawn = 0
        for name, shape in shapes.items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf.endswith("_g"):
                want = np.ones(shape)
            elif leaf in biases:
                want = np.zeros(shape)
            else:
                want = truncated_normal(stream(7, "init/" + name), shape, INIT_STD)
                drawn += 1
            assert params[name].shape == shape and np.array_equal(params[name].data, want), name
        assert drawn == len(mtl.towers(regime)) * 9 + len(regime.tasks) * 2


class TestConcurrency:
    """Hard sharing here, soft sharing in the subclass below."""

    regime = regime_for("hard_share")

    def test_evaluate_threads_beside_training(self, toy_splits, toy_vocab, monkeypatch, forward_calls):
        import sys
        import threading

        import mtlc.mtl

        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16)
        regime = self.regime
        tc = TrainConfig(epochs=2, batch_size=16, learning_rate=TOY_LR, seed=1)
        # trainable heads on purpose: only the per-thread tape stack keeps
        # these forward passes off the training thread's tape
        frozen = build_model(regime, cfg, N_CLASSES, seed=5)
        tape_sizes = []

        def recording_backward(tape, loss):
            tape_sizes.append(len(tape))
            return backward(tape, loss)

        trained = threading.Event()

        def train_once():
            model = build_model(regime, cfg, N_CLASSES, seed=1)
            train(model, toy_splits.train, toy_splits.val, toy_vocab, tc)
            return model

        def train_then_signal():
            try:
                return train_once()
            finally:
                trained.set()

        def evaluate_until_trained():
            runs = [evaluate(frozen, toy_splits.val, toy_vocab)]
            while not trained.is_set():
                runs.append(evaluate(frozen, toy_splits.val, toy_vocab))
            return runs

        monkeypatch.setattr(mtlc.mtl, "backward", recording_backward)
        serial_preds = evaluate(frozen, toy_splits.val, toy_vocab)
        forward_calls.count = 0
        serial_model = train_once()
        serial_sizes, serial_calls = list(tape_sizes), forward_calls.count
        tape_sizes.clear()

        results, errors = {}, []

        def run(name, fn):
            try:
                results[name] = fn()
            except Exception as exc:  # reported by the assertion below
                errors.append((name, exc))

        threads = [threading.Thread(target=run, args=(f"eval{i}", evaluate_until_trained)) for i in range(4)]
        threads.append(threading.Thread(target=run, args=("train", train_then_signal)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            forward_calls.count = 0
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert tape_sizes == serial_sizes  # the training tape held only its own records
        evaluations = sum(len(results[f"eval{i}"]) for i in range(4))
        for i in range(4):
            assert all(preds == serial_preds for preds in results[f"eval{i}"])
        for name, p in serial_model.params.items():
            assert np.array_equal(p.data, results["train"].params[name].data), name
        n_towers = len(mtl.towers(regime))
        assert forward_calls.count == serial_calls + evaluations * n_towers * len(toy_splits.val)


class TestConcurrencySoft(TestConcurrency):
    regime = soft_regime()
