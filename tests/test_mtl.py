"""Training regimes: STL, hard sharing, and soft sharing."""

import numpy as np
import pytest

from mtlc.data import Batch, Corpus, Record, SplitSet, schemas_for_language
from mtlc.encoder import EncoderConfig, forward_call_count, reset_forward_calls
from mtlc.errors import ConfigError, ContractError, NumericalError
from mtlc.losses import LossConfig, cross_entropy
from mtlc.mtl import (
    RegimeConfig,
    SoftShareConfig,
    TrainConfig,
    batch_logits,
    build_model,
    coupling_distance,
    default_coupled_layers,
    evaluate,
    expected_param_shapes,
    hard_loss,
    soft_loss,
    train,
)
from mtlc.numcore import GradTape, OptimHyper, Tensor, backward
from mtlc.text import encode

TASKS = ("sentiment", "offense")
N_CLASSES = {"sentiment": 5, "offense": 6}


def regime_for(kind, task="sentiment", weights=None, soft=None):
    tasks = (task,) if kind == "stl" else TASKS
    return RegimeConfig(
        kind=kind,
        tasks=tasks,
        losses={t: LossConfig() for t in tasks},
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


def toy_hyper(lr=3e-3):
    return OptimHyper(learning_rate=lr, weight_decay=0.01, clip_norm=1.0)


class TestRegimeValidation:
    def test_stl_needs_one_task(self):
        with pytest.raises(ConfigError):
            RegimeConfig(kind="stl", tasks=TASKS, losses={t: LossConfig() for t in TASKS})

    def test_hard_share_needs_two_tasks(self):
        with pytest.raises(ConfigError):
            RegimeConfig(
                kind="hard_share",
                tasks=("sentiment",),
                losses={"sentiment": LossConfig()},
                task_weights=(1.0,),
            )

    def test_soft_share_needs_soft_config(self):
        with pytest.raises(ConfigError):
            regime_for("soft_share")

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
        model.params = {
            name: Tensor(
                np.ones(p.shape) if name.endswith("_g") else np.zeros(p.shape),
                requires_grad=True,
                name=name,
            )
            for name, p in model.params.items()
        }
        batch = self._batch(toy_splits.train, toy_vocab, model, n=1)
        logits = batch_logits(model, batch.seqs)
        assert np.array_equal(logits["sentiment"].data, np.zeros((1, 5)))
        assert np.array_equal(logits["offense"].data, np.zeros((1, 6)))

    def test_task1_loss_has_zero_grads_into_task2_head(self, toy_splits, toy_vocab):
        model = self._tiny_model(toy_vocab)
        batch = self._batch(toy_splits.train, toy_vocab, model)
        with GradTape() as tape:
            logits = batch_logits(model, batch.seqs)
            loss1 = cross_entropy(logits["sentiment"], batch.labels["sentiment"])
        backward(tape, loss1)
        for leaf in ("w_hidden", "b_hidden", "w_out", "b_out"):
            grad = model.params[f"head.offense.{leaf}"].grad
            assert np.array_equal(grad, np.zeros(grad.shape))
        assert np.abs(model.params["head.sentiment.w_out"].grad).max() > 0

    def test_forward_op_count_is_half_of_two_stl_passes(self, toy_splits, toy_vocab):
        model = self._tiny_model(toy_vocab)
        batch = self._batch(toy_splits.train, toy_vocab, model, n=4)
        reset_forward_calls()
        batch_logits(model, batch.seqs)
        shared_count = forward_call_count()

        stl_models = [
            build_model(regime_for("stl", task), model.encoder_cfg, N_CLASSES, seed=2)
            for task in TASKS
        ]
        reset_forward_calls()
        for stl in stl_models:
            batch_logits(stl, batch.seqs)
        stl_count = forward_call_count()
        assert shared_count * 2 == stl_count
        assert shared_count == len(batch)

    def test_soft_model_runs_one_tower_per_task(self, toy_vocab, toy_splits):
        soft = SoftShareConfig(lam=0.0, coupled_layer_names=())
        model = build_model(
            regime_for("soft_share", soft=soft), toy_encoder(toy_vocab, d_model=8, n_heads=2), N_CLASSES, seed=0
        )
        batch = self._batch(toy_splits.train, toy_vocab, model, n=3)
        reset_forward_calls()
        logits = batch_logits(model, batch.seqs)
        assert forward_call_count() == 2 * len(batch)
        assert logits["sentiment"].shape == (3, 5) and logits["offense"].shape == (3, 6)
        # each task's logits come from its own tower
        model.params["tower.offense.pooler_b"].data += 1.0
        again = batch_logits(model, batch.seqs)
        assert np.array_equal(again["sentiment"].data, logits["sentiment"].data)
        assert not np.array_equal(again["offense"].data, logits["offense"].data)


class TestHardLoss:
    def test_unit_weights_sum(self):
        out = hard_loss(Tensor(0.7), Tensor(0.3), (1.0, 1.0))
        assert out.item() == 1.0

    def test_zero_weight_silences_task(self):
        a = Tensor(0.9, requires_grad=True)
        b = Tensor(0.5, requires_grad=True)
        with GradTape() as tape:
            out = hard_loss(a, b, (1.0, 0.0))
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
                p.zero_grad()
            with GradTape() as tape:
                logits = batch_logits(model, [seq])
                loss = cross_entropy(logits[task], [rec.labels[task]])
            backward(tape, loss)
            return {name: p.grad for name, p in model.params.items()}

        g1 = task_grads("sentiment")
        g2 = task_grads("offense")
        for p in model.params.values():
            p.zero_grad()
        with GradTape() as tape:
            logits = batch_logits(model, [seq])
            total = hard_loss(
                cross_entropy(logits["sentiment"], [rec.labels["sentiment"]]),
                cross_entropy(logits["offense"], [rec.labels["offense"]]),
                (1.0, 1.0),
            )
        backward(tape, total)
        combined = {name: p.grad for name, p in model.params.items()}
        for name in ("tok_emb", "layer0.wv", "pooler_w", "final_norm_g"):
            assert np.abs(combined[name] - (g1[name] + g2[name])).max() < 1e-12


class TestSoftLoss:
    def _soft_model(self, vocab, lam, penalty="frobenius", coupled=None):
        soft = SoftShareConfig(
            penalty=penalty,
            lam=lam,
            coupled_layer_names=coupled if coupled is not None else default_coupled_layers(1),
        )
        regime = regime_for("soft_share", soft=soft)
        cfg = toy_encoder(vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        return build_model(regime, cfg, N_CLASSES, seed=4)

    def test_lambda_zero_is_exact_sum(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=0.0)
        l1, l2 = Tensor(0.43), Tensor(1.17)
        out = soft_loss((l1, l2), model.params, model.regime)
        assert out.item() == 0.43 + 1.17

    def test_identical_towers_zero_penalty(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=5.0)
        t1, t2 = model.regime.tasks
        for name in model.regime.soft.coupled_layer_names:
            model.params[f"tower.{t2}.{name}"].data = model.params[f"tower.{t1}.{name}"].data.copy()
        out = soft_loss((Tensor(1.0), Tensor(2.0)), model.params, model.regime)
        assert out.item() == 3.0
        assert coupling_distance(model) == 0.0

    def test_hand_computed_two_layer_case(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=0.5, coupled=("layer0.wq", "layer0.wk"))
        t1, t2 = model.regime.tasks
        d1 = d2 = 0.0
        for name, acc in (("layer0.wq", "d1"), ("layer0.wk", "d2")):
            a = model.params[f"tower.{t1}.{name}"].data
            b = model.params[f"tower.{t2}.{name}"].data
            if acc == "d1":
                d1 = float(((a - b) ** 2).sum())
            else:
                d2 = float(((a - b) ** 2).sum())
        out = soft_loss((Tensor(0.2), Tensor(0.3)), model.params, model.regime)
        assert out.item() == pytest.approx(0.5 + 0.5 * (d1 + d2), abs=1e-12)

    def test_trace_norm_penalty_route(self, toy_vocab):
        from mtlc.numcore import trace_norm

        model = self._soft_model(toy_vocab, lam=2.0, penalty="trace_norm", coupled=("layer0.wq",))
        t1, t2 = model.regime.tasks
        stacked = np.concatenate(
            [model.params[f"tower.{t1}.layer0.wq"].data, model.params[f"tower.{t2}.layer0.wq"].data],
            axis=0,
        )
        expected, _ = trace_norm(stacked)
        out = soft_loss((Tensor(1.0), Tensor(1.0)), model.params, model.regime)
        assert out.item() == pytest.approx(2.0 + 2.0 * expected, rel=1e-12)

    def test_missing_coupled_layer_named(self, toy_vocab):
        model = self._soft_model(toy_vocab, lam=1.0, coupled=("layer0.wq",))
        regime_bad = RegimeConfig(
            kind="soft_share",
            tasks=model.regime.tasks,
            losses=model.regime.losses,
            task_weights=model.regime.task_weights,
            soft=SoftShareConfig(penalty="frobenius", lam=1.0, coupled_layer_names=("layer9.wq",)),
        )
        with pytest.raises(ConfigError, match="layer9.wq"):
            soft_loss((Tensor(1.0), Tensor(1.0)), model.params, regime_bad)

    def test_stl_weight_scales_its_loss(self):
        loss = Tensor(0.83)
        unit = soft_loss((loss,), {}, regime_for("stl", weights=(1.0,)))
        half = soft_loss((loss,), {}, regime_for("stl", weights=(0.5,)))
        assert half.item() == 0.5 * unit.item()

    def test_build_rejects_missing_coupling(self, toy_vocab):
        with pytest.raises(ConfigError, match="layer7"):
            self._soft_model(toy_vocab, lam=1.0, coupled=("layer7.wo",))


class TestTrain:
    def test_determinism_bitwise(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        regime = regime_for("hard_share")
        tc = TrainConfig(epochs=2, batch_size=16, optimizer=toy_hyper(), seed=1)
        results = []
        for _ in range(2):
            model = build_model(regime, cfg, N_CLASSES, seed=1)
            params, trace = train(toy_splits, regime, tc, model, toy_vocab)
            results.append((params, trace))
        (p1, t1), (p2, t2) = results
        for name in p1:
            assert np.array_equal(p1[name].data, p2[name].data)
        for a, b in zip(t1.epochs, t2.epochs):
            assert a.train_loss == b.train_loss
            assert a.train_accuracy == b.train_accuracy
            assert a.val_weighted_f1 == b.val_weighted_f1

    def test_stl_matches_zero_weighted_hard_share(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        tc = TrainConfig(epochs=3, batch_size=16, optimizer=toy_hyper(), seed=1)

        stl = build_model(regime_for("stl", "sentiment"), cfg, N_CLASSES, seed=1)
        _, stl_trace = train(toy_splits, regime_for("stl", "sentiment"), tc, stl, toy_vocab)

        hard = build_model(regime_for("hard_share", weights=(1.0, 0.0)), cfg, N_CLASSES, seed=1)
        _, hard_trace = train(
            toy_splits, regime_for("hard_share", weights=(1.0, 0.0)), tc, hard, toy_vocab
        )
        for a, b in zip(stl_trace.epochs, hard_trace.epochs):
            assert abs(a.train_loss["sentiment"] - b.train_loss["sentiment"]) <= 1e-12
            assert a.train_accuracy["sentiment"] == b.train_accuracy["sentiment"]
            assert abs(a.val_weighted_f1["sentiment"] - b.val_weighted_f1["sentiment"]) <= 1e-12
        for name, p in stl.params.items():
            assert np.array_equal(p.data, hard.params[name].data), name

    def test_loss_nonincreasing_at_small_lr(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, dropout_p=0.0)
        regime = regime_for("hard_share")
        tc = TrainConfig(epochs=8, batch_size=16, optimizer=toy_hyper(lr=1e-3), seed=1)
        model = build_model(regime, cfg, N_CLASSES, seed=1)
        _, trace = train(toy_splits, regime, tc, model, toy_vocab)
        for task in TASKS:
            losses = [e.train_loss[task] for e in trace.epochs]
            for earlier, later in zip(losses[1:], losses[2:]):
                assert later <= earlier + 1e-9

    def test_trace_length_and_fields(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "offense")
        tc = TrainConfig(epochs=2, batch_size=16, optimizer=toy_hyper(), seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        _, trace = train(toy_splits, regime, tc, model, toy_vocab)
        assert len(trace) == 2
        for ep in trace.epochs:
            assert set(ep.train_loss) == {"offense"}
            assert 0.0 <= ep.train_accuracy["offense"] <= 1.0
            assert 0.0 <= ep.val_weighted_f1["offense"] <= 1.0
            assert ep.wall_seconds > 0

    def test_empty_split_rejected(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "sentiment")
        tc = TrainConfig(epochs=1, batch_size=16, optimizer=toy_hyper(), seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        empty = Corpus(records=[], schemas=toy_splits.train.schemas, language="kannada")
        broken = SplitSet(train=toy_splits.train, val=empty, test=empty)
        with pytest.raises(ContractError):
            train(broken, regime, tc, model, toy_vocab)

    def test_non_finite_loss_aborts_with_coordinates(self, toy_splits, toy_vocab):
        from mtlc.errors import NumericalError

        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "sentiment")
        tc = TrainConfig(epochs=1, batch_size=16, optimizer=toy_hyper(), seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        model.params["pooler_w"].data[0, 0] = float("nan")
        with pytest.raises(NumericalError, match="epoch 0 batch 0"):
            train(toy_splits, regime, tc, model, toy_vocab)

    def test_non_finite_gradient_aborts_before_the_step(self, toy_splits, toy_vocab, monkeypatch):
        import mtlc.mtl
        from mtlc.errors import NumericalError

        cfg = toy_encoder(toy_vocab)
        regime = regime_for("stl", "sentiment")
        tc = TrainConfig(epochs=1, batch_size=16, optimizer=toy_hyper(), seed=0)
        model = build_model(regime, cfg, N_CLASSES, seed=0)
        before = {name: p.data.copy() for name, p in model.params.items()}

        def poisoned_backward(tape, loss):
            backward(tape, loss)
            model.params["pooler_w"].grad[0, 0] = float("inf")

        monkeypatch.setattr(mtlc.mtl, "backward", poisoned_backward)
        with pytest.raises(NumericalError, match="'pooler_w' at epoch 0 batch 0"):
            train(toy_splits, regime, tc, model, toy_vocab)
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name


class TestEvaluate:
    def test_zero_params_predict_class_zero(self, toy_splits, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        model = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=0)
        model.params = {
            name: Tensor(
                np.ones(p.shape) if name.endswith("_g") else np.zeros(p.shape),
                requires_grad=True,
                name=name,
            )
            for name, p in model.params.items()
        }
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
            p.data = np.full(p.shape, val)
        model.params["head.sentiment.b_out"].data = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
        schemas = schemas_for_language("kannada")
        records = [Record(text=f"u{i}", labels={"sentiment": 0, "offense": 0}) for i in range(10)]
        split = Corpus(records=records, schemas=schemas, language="kannada")
        preds = evaluate(model, split, toy_vocab)
        assert preds["sentiment"] == [2] * 10

    def test_length_ordered_batches_keep_corpus_order(self, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16, dropout_p=0.0)
        regime = regime_for("soft_share", soft=SoftShareConfig())
        model = build_model(regime, cfg, N_CLASSES, seed=4)
        rng = np.random.default_rng(4)
        for name, p in model.params.items():  # unit-scale activations, so predictions vary
            if p.data.ndim == 2:
                p.data = rng.normal(size=p.shape) / np.sqrt(1 if "emb" in name else p.shape[0])
        words = list(toy_vocab.id_to_token[4:])
        texts = {" ".join(rng.choice(words, size=rng.integers(0, 7))) for _ in range(300)}
        schemas = schemas_for_language("kannada")
        records = [Record(text=t, labels={"sentiment": 0, "offense": 0}) for t in sorted(texts)]
        rng.shuffle(records)  # lengths in no order, over several batches of 64
        split = Corpus(records=records, schemas=schemas, language="kannada")
        preds = evaluate(model, split, toy_vocab)
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
        model.params["tok_emb"].data[toy_vocab.lookup(word)] = np.nan
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


class TestExpectedShapes:
    def test_shared_names(self, toy_vocab):
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        shapes = expected_param_shapes(regime_for("hard_share"), cfg, N_CLASSES)
        assert "tok_emb" in shapes and "head.offense.w_out" in shapes
        assert shapes["head.offense.w_out"] == (128, 6)

    def test_tower_names(self, toy_vocab):
        soft = SoftShareConfig(lam=0.0, coupled_layer_names=())
        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2)
        shapes = expected_param_shapes(regime_for("soft_share", soft=soft), cfg, N_CLASSES)
        assert "tower.sentiment.tok_emb" in shapes
        assert "tower.offense.head.offense.w_out" in shapes
        assert not any(name.startswith("tok_emb") for name in shapes)


class TestConcurrency:
    def test_evaluate_threads_beside_training(self, toy_splits, toy_vocab, monkeypatch):
        import sys
        import threading

        import mtlc.mtl

        cfg = toy_encoder(toy_vocab, d_model=8, n_heads=2, d_ffn=16)
        regime = regime_for("hard_share")
        tc = TrainConfig(epochs=2, batch_size=16, optimizer=toy_hyper(), seed=1)
        # trainable parameters on purpose: only the per-thread tape stack keeps
        # these forward passes off the training thread's tape
        frozen = build_model(regime, cfg, N_CLASSES, seed=5)
        tape_sizes = []

        def recording_backward(tape, loss):
            tape_sizes.append(len(tape))
            return backward(tape, loss)

        trained = threading.Event()

        def train_once():
            model = build_model(regime, cfg, N_CLASSES, seed=1)
            train(toy_splits, regime, tc, model, toy_vocab)
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
        reset_forward_calls()
        serial_model = train_once()
        serial_sizes, serial_calls = list(tape_sizes), forward_call_count()
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
            reset_forward_calls()
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
        assert forward_call_count() == serial_calls + evaluations * len(toy_splits.val)
