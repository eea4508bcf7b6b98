"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line at its stated tolerance and runtime budget."""

import inspect
import time

import numpy as np

from mtlc.cli import main as cli_main
from mtlc.data import Corpus, Record, schemas_for_language, stratified_split
from mtlc.encoder import (
    EncoderConfig,
    attention_block,
    classify,
    encoder_forward,
    head_view,
    init_params,
    pack,
    param_shapes,
)
from mtlc.losses import (
    class_weights,
    compute_loss,
    cross_entropy,
    focal,
    hinge_multiclass,
    kld,
    LossConfig,
)
from mtlc.metrics import task_report
from mtlc.mtl import (
    RegimeConfig,
    SoftShareConfig,
    TrainConfig,
    build_model,
    coupling_distance,
    default_coupled_layers,
    frobenius_penalty,
    predict_logits,
    trace_norm_penalty,
    train,
    weighted_sum,
)
from mtlc.checkpoint import deserialize
from mtlc.numcore import tensor as numcore_tensor
from mtlc.numcore import (
    OptimHyper,
    Tensor,
    add,
    affine,
    cls_attention,
    dropout,
    exp,
    gather_rows,
    layer_norm_rows,
    log_sum_exp,
    matmul,
    mul,
    pow_const,
    relu,
    reshape,
    scale,
    segment_attention,
    stream,
    sub,
    sum_all,
    tanh,
)
from mtlc.toy import materialize

from gradcheck import grad_check, svt_residual

GRAD_TOL = 1e-4
PROX_TOL = 1e-12
N_INSTANCES = 100
TASKS = ("sentiment", "offense")
N_CLASSES = {"sentiment": 5, "offense": 6}


def report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE PASS: {name}{suffix}")


def rng_tensor(seed, shape, lo=-2.0, hi=2.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, size=shape))


def toy_encoder_cfg(vocab, **over):
    kwargs = dict(
        vocab_size=len(vocab), d_model=64, n_heads=4, n_layers=1, d_ffn=128,
        max_len=8, dropout_p=0.1,
    )
    kwargs.update(over)
    return EncoderConfig(**kwargs)


def toy_train_cfg(epochs=30, lr=3e-3, seed=1):
    return TrainConfig(
        epochs=epochs,
        batch_size=16,
        optimizer=OptimHyper(learning_rate=lr, weight_decay=0.01, clip_norm=1.0),
        seed=seed,
    )


def regime_for(kind, task="sentiment", weights=None, soft=None):
    tasks = (task,) if kind == "stl" else TASKS
    return RegimeConfig(
        tasks=tasks,
        losses={t: LossConfig() for t in tasks},
        task_weights=weights if weights is not None else tuple([1.0] * len(tasks)),
        soft=soft,
    )


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def _numcore_op_cases():
    w34 = Tensor(np.arange(1.0, 13.0).reshape(3, 4))
    return [
        ("matmul", lambda x: sum_all(mul(matmul(x, rng_tensor(999, (4, 3))), Tensor(np.arange(9.0).reshape(3, 3)))), (3, 4)),
        ("add", lambda x: sum_all(mul(add(x, rng_tensor(998, (3, 4))), w34)), (3, 4)),
        ("sub", lambda x: sum_all(mul(sub(rng_tensor(997, (3, 4)), x), w34)), (3, 4)),
        ("mul", lambda x: sum_all(mul(mul(x, rng_tensor(996, (3, 4))), w34)), (3, 4)),
        ("mul_broadcast", lambda x: sum_all(mul(mul(rng_tensor(995, (3, 4)), x), w34)), (4,)),
        ("scale", lambda x: sum_all(mul(scale(x, -1.7), w34)), (3, 4)),
        ("relu", lambda x: sum_all(mul(relu(x), w34)), (3, 4)),
        ("tanh", lambda x: sum_all(mul(tanh(x), w34)), (3, 4)),
        ("exp", lambda x: sum_all(mul(exp(x), w34)), (3, 4)),
        ("pow_const", lambda x: sum_all(pow_const(add(mul(x, x), Tensor(0.1)), 1.7)), (3, 4)),
        ("log_sum_exp", lambda x: sum_all(log_sum_exp(x)), (1, 7)),
        ("sum_all", lambda x: sum_all(x), (3, 4)),
        ("gather_rows", lambda x: sum_all(mul(gather_rows(x, [0, 2, 2]), Tensor(np.arange(12.0).reshape(3, 4)))), (3, 4)),
        ("reshape", lambda x: sum_all(mul(reshape(x, (4, 3)), Tensor(np.arange(12.0).reshape(4, 3)))), (3, 4)),
        # x feeds all three operands, so every adjoint affine returns is checked
        ("affine", lambda x: sum_all(mul(affine(x, x, reshape(gather_rows(x, [1]), (3,))), Tensor(np.arange(9.0).reshape(3, 3)))), (3, 3)),
        ("layer_norm_rows", lambda x: sum_all(mul(layer_norm_rows(x, Tensor(np.full(4, 1.3)), Tensor(np.full(4, -0.2))), w34)), (3, 4)),
        ("dropout", lambda x: sum_all(mul(dropout(x, 0.4, stream(31, "gc-dropout")), w34)), (3, 4)),
    ]


def _encoder_op_cases():
    kv = rng_tensor(881, (4, 3))
    vv = rng_tensor(882, (4, 5))
    w_att = Tensor(np.arange(20.0).reshape(4, 5))
    enc_cfg = EncoderConfig(vocab_size=9, d_model=4, n_heads=2, n_layers=1,
                            d_ffn=8, max_len=6, dropout_p=0.0)
    # an 8-unit head: at HEAD_HIDDEN units, some probe puts a hidden unit's
    # relu kink within one finite-difference step
    shapes = param_shapes(enc_cfg, {"sentiment": 5})
    shapes.update({"head.sentiment.w_hidden": (4, 8), "head.sentiment.b_hidden": (8,),
                   "head.sentiment.w_out": (8, 5)})
    base = init_params(shapes, seed=17)

    from mtlc.text import TokenSeq

    seq = TokenSeq(ids=(2, 4, 5, 6, 3), max_len=6)

    def enc_loss(name):
        def f(x):
            trial = dict(base)
            trial[name] = x
            cls = encoder_forward(pack([seq], enc_cfg), trial, enc_cfg)
            logits = classify(cls, head_view(trial, "sentiment"))
            return sum_all(mul(logits, Tensor(np.arange(1.0, 6.0))))

        return f

    def mh_case(x):
        params = {
            "layer0.wq": rng_tensor(883, (4, 4), -0.5, 0.5),
            "layer0.wk": rng_tensor(884, (4, 4), -0.5, 0.5),
            "layer0.wv": rng_tensor(885, (4, 4), -0.5, 0.5),
            "layer0.wo": rng_tensor(886, (4, 4), -0.5, 0.5),
        }
        out = attention_block(x, params, "layer0.", 2, [3, 1])
        return sum_all(mul(out, Tensor(np.arange(16.0).reshape(4, 4))))

    # [CLS] attention over a lone [CLS] (length 1), a run of two equal
    # lengths and a max_len (6) segment: 4 queries over 13 rows
    cls_lengths = [1, 3, 3, 6]
    cls_operands = {"q": (4, 4), "h": (13, 4), "wk": (4, 4), "wv": (4, 4)}
    w_cls = Tensor(np.arange(16.0).reshape(4, 4) / 8.0)

    def cls_case(operand):
        fixed = {name: rng_tensor(887 + i, shape, -0.8, 0.8) for i, (name, shape) in enumerate(cls_operands.items())}

        def f(x):
            args = {**fixed, operand: x}
            return sum_all(mul(cls_attention(*args.values(), cls_lengths, 2), w_cls))

        return (f"cls_attention[{operand}]", f, cls_operands[operand])

    cases = [
        ("segment_attention[q]", lambda x: sum_all(mul(segment_attention(x, kv, vv, [3, 1], 1), w_att)), (4, 3)),
        *(cls_case(operand) for operand in cls_operands),
        ("multi_head_x", mh_case, (4, 4)),
        ("classify_cls", lambda x: sum_all(mul(classify(reshape(x, (1, 4)), head_view(base, "sentiment")), Tensor(np.arange(1.0, 6.0)))), (4,)),
    ]
    # rotate through representative parameter tensors for encoder_forward
    for name in ("layer0.wq", "layer0.ffn_w1", "pooler_w", "tok_emb"):
        cases.append((f"encoder_forward[{name}]", None, name, enc_loss, base))
    return cases


def _loss_op_cases():
    return [
        ("cross_entropy", lambda x: cross_entropy(x, [2]), (1, 6)),
        ("weighted_cross_entropy", lambda x: cross_entropy(x, [1], class_weights([4, 2, 9, 5, 3, 7])), (1, 6)),
        ("hinge_multiclass", lambda x: hinge_multiclass(x, [3]), (1, 6)),
        ("focal", lambda x: focal(x, [0], 2.0), (1, 6)),
        ("kld", lambda x: kld(x, [4], 0.1), (1, 6)),
        ("batch_loss", lambda x: compute_loss(reshape(x, (2, 2)), [1, 0], LossConfig()), (4,)),
    ]


def _prox_cases():
    """The coupling penalties' proximal steps, each a function of a seed
    returning how far its output is from the minimizer's optimality
    condition."""

    def stacked_svt(a, b, eta):
        pair = np.stack([a, b])
        trace_norm_penalty(pair, eta)
        return svt_residual(np.concatenate([a, b]), np.concatenate(pair), eta)

    def trace_case(seed):
        rng = np.random.default_rng(seed)
        return stacked_svt(rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3)), 1.5)

    def near_zero_repeated_case(seed):
        # singular values 3, 3, 1e-15 and 0: a repeated pair above eta, two
        # at or near zero below it
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(8, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w = (u * np.array([3.0, 3.0, 1e-15, 0.0])) @ v.T
        return stacked_svt(w[:4], w[4:], 0.5)

    def frobenius_case(seed):
        # the gradient of 1/2 |A'-A|^2 + 1/2 |B'-B|^2 + eta |A'-B'|^2 vanishes
        rng = np.random.default_rng(seed)
        a, b, eta = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4)), 0.7
        pair = np.stack([a, b])
        frobenius_penalty(pair, eta)
        pull = 2 * eta * (pair[0] - pair[1])
        return max(np.abs(pair[0] - a + pull).max(), np.abs(pair[1] - b - pull).max())

    return [
        ("trace_norm_penalty", trace_case),
        ("trace_norm_penalty[near_zero_repeated]", near_zero_repeated_case),
        ("frobenius_penalty", frobenius_case),
    ]


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    failures = []

    for name, f, shape in _numcore_op_cases() + _loss_op_cases():
        worst = 0.0
        for seed in range(N_INSTANCES):
            err = grad_check(f, rng_tensor(seed, shape), h=1e-5)
            worst = max(worst, err)
        if worst >= GRAD_TOL:
            failures.append((name, worst))

    for case in _encoder_op_cases():
        if len(case) == 3:
            name, f, shape = case
            worst = max(
                grad_check(f, rng_tensor(seed, shape, -0.8, 0.8), h=1e-5)
                for seed in range(N_INSTANCES)
            )
        else:
            label, _, pname, loss_factory, base = case
            name = label
            f = loss_factory(pname)
            worst = 0.0
            for seed in range(N_INSTANCES):
                probe = Tensor(
                    np.random.default_rng(seed).uniform(-0.5, 0.5, size=base[pname].shape)
                )
                worst = max(worst, grad_check(f, probe, h=1e-5))
        if worst >= GRAD_TOL:
            failures.append((name, worst))

    for name, residual in _prox_cases():
        worst = max(residual(seed) for seed in range(N_INSTANCES))
        if worst >= PROX_TOL:
            failures.append((name, worst))

    # end-to-end: full hard-share loss on a 2-sample batch, every parameter
    enc_cfg = EncoderConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1,
                            d_ffn=16, max_len=6, dropout_p=0.0)
    heads = {"sentiment": 5, "offense": 6}
    rng = np.random.default_rng(42)
    params = {
        name: Tensor(rng.uniform(-0.8, 0.8, size=t.shape), requires_grad=True)
        for name, t in init_params(param_shapes(enc_cfg, heads), seed=0).items()
    }
    from mtlc.text import TokenSeq

    seqs = [
        TokenSeq(ids=(2, 4, 7, 3), max_len=6),
        TokenSeq(ids=(2, 9, 5, 6, 3), max_len=6),
    ]
    golds = {"sentiment": (1, 4), "offense": (0, 5)}

    def mtl_loss(trial):
        cls = encoder_forward(pack(seqs, enc_cfg), trial, enc_cfg)
        per_task = {task: cross_entropy(classify(cls, head_view(trial, task)), golds[task]) for task in TASKS}
        return weighted_sum((per_task["sentiment"], per_task["offense"]), (1.0, 1.0))

    worst_name, worst_err = "", 0.0
    for name in sorted(params):
        def f(x, _name=name):
            trial = dict(params)
            trial[_name] = x
            return mtl_loss(trial)

        err = grad_check(f, Tensor(params[name].data.copy()), h=1e-5)
        if err > worst_err:
            worst_name, worst_err = name, err
    if worst_err >= GRAD_TOL:
        failures.append((f"mtl_end_to_end[{worst_name}]", worst_err))

    elapsed = time.perf_counter() - started
    assert not failures, f"gradient failures: {failures}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    report(
        "gradient suite",
        f"{N_INSTANCES} instances/op, end-to-end worst {worst_err:.2e} at {worst_name}, {elapsed:.1f}s",
    )


def test_criterion_1_covers_every_exported_taped_op():
    taped = {
        name
        for name, fn in vars(numcore_tensor).items()
        if inspect.isfunction(fn) and fn.__module__ == numcore_tensor.__name__ and not name.startswith("_")
    }
    required = taped - {"backward"} | {"frobenius_penalty", "trace_norm_penalty"}
    cases = _numcore_op_cases() + _loss_op_cases() + _encoder_op_cases() + _prox_cases()
    covered = {case[0].split("[")[0] for case in cases}
    assert sorted(required - covered) == []


# ---------------------------------------------------------------------------
# 2. loss identities
# ---------------------------------------------------------------------------


def test_criterion_2_loss_identities():
    started = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.uniform(-4, 4, size=(1, 6)))
        target = [int(rng.integers(0, 6))]
        cw = class_weights(rng.integers(1, 50, size=6).tolist())
        assert focal(logits, target, 0.0, cw).item() == cross_entropy(logits, target, cw).item()
        assert abs(kld(logits, target, 0.0).item() - cross_entropy(logits, target).item()) <= 1e-12
    for n in (2, 3, 5, 6):
        assert hinge_multiclass(Tensor(np.full((1, n), 0.37)), [0]).item() == float(n - 1)
    assert weighted_sum((Tensor(0.7), Tensor(0.3)), (1.0, 1.0)).item() == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("loss identities", f"focal/KLD/hinge/task-sum, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. class-weight reproduction
# ---------------------------------------------------------------------------


def test_criterion_3_class_weights_from_published_counts():
    counts = [3291, 1481, 678, 820, 1003]
    cw = class_weights(counts)
    assert abs(cw[0] - (1.0 - 3291 / 7273)) < 1e-9
    assert sum(cw) == 4.0
    report("class-weight reproduction", f"w_positive={cw[0]:.5f}, sum={sum(cw)}")


# ---------------------------------------------------------------------------
# 4. metrics oracle
# ---------------------------------------------------------------------------


def test_criterion_4_metrics_against_brute_force():
    started = time.perf_counter()
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        size = int(rng.integers(5, 120))
        golds = rng.integers(0, n, size=size).tolist()
        preds = rng.integers(0, n, size=size).tolist()
        tr = task_report("t", [f"c{c}" for c in range(n)], golds, preds)
        got = [(cs.precision, cs.recall, cs.f1, cs.support) for cs in tr.per_class]

        oracle = []
        for c in range(n):
            tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
            fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
            fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            oracle.append((precision, recall, f1, tp + fn))
        assert got == oracle

        assert tr.macro.f1 == sum(o[2] for o in oracle) / n
        total = sum(o[3] for o in oracle)
        assert tr.weighted.f1 == sum(o[2] * o[3] for o in oracle) / total
        accuracy = sum(g == p for g, p in zip(golds, preds)) / size
        assert abs(tr.weighted.recall - accuracy) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("metrics oracle", f"1000 matrices exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. split reproduction
# ---------------------------------------------------------------------------


def test_criterion_5_split_sizes_match_published_test_support():
    schemas = schemas_for_language("kannada")
    records = [
        Record(text=f"synthetic {i}", labels={"sentiment": 0, "offense": 0})
        for i in range(7273)
    ]
    corpus = Corpus(records=records, schemas=schemas, language="kannada")
    splits = stratified_split(corpus, (0.8, 0.1, 0.1), 0, "sentiment")
    sizes = (len(splits.train), len(splits.val), len(splits.test))
    assert sizes == (5818, 727, 728)
    report("split reproduction", f"7273 -> {sizes[0]}/{sizes[1]}/{sizes[2]}")


# ---------------------------------------------------------------------------
# 6. convergence on the toy corpus
# ---------------------------------------------------------------------------


def test_criterion_6_convergence_and_stl_equivalence(toy_splits, toy_vocab):
    started = time.perf_counter()
    cfg = toy_encoder_cfg(toy_vocab)

    hard = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=1)
    hard_epochs = train(hard, toy_splits.train, toy_splits.val, toy_vocab, toy_train_cfg())
    hard_seconds = time.perf_counter() - started
    reached = [
        i
        for i, ep in enumerate(hard_epochs)
        if all(ep.train_accuracy[t] >= 0.95 for t in TASKS)
    ]
    assert reached, f"hard sharing never hit 95/95 within 30 epochs: last={hard_epochs[-1].train_accuracy}"
    assert hard_seconds < 120.0, f"hard-share run took {hard_seconds:.0f}s (budget 120s)"

    stl_hit = {}
    for task in TASKS:
        model = build_model(regime_for("stl", task), cfg, N_CLASSES, seed=1)
        epochs = train(model, toy_splits.train, toy_splits.val, toy_vocab, toy_train_cfg())
        hit = [i for i, ep in enumerate(epochs) if ep.train_accuracy[task] >= 0.95]
        assert hit, f"STL {task} never hit 95% within 30 epochs"
        stl_hit[task] = hit[0]

    # zero-weighted hard sharing replays the STL trajectory
    short = toy_train_cfg(epochs=4)
    stl = build_model(regime_for("stl", "sentiment"), cfg, N_CLASSES, seed=1)
    stl_epochs = train(stl, toy_splits.train, toy_splits.val, toy_vocab, short)
    zeroed = build_model(regime_for("hard_share", weights=(1.0, 0.0)), cfg, N_CLASSES, seed=1)
    zero_epochs = train(zeroed, toy_splits.train, toy_splits.val, toy_vocab, short)
    for a, b in zip(stl_epochs, zero_epochs):
        assert abs(a.train_loss["sentiment"] - b.train_loss["sentiment"]) <= 1e-12
        f1_a, f1_b = a.val_report["sentiment"].weighted.f1, b.val_report["sentiment"].weighted.f1
        assert abs(f1_a - f1_b) <= 1e-12

    elapsed = time.perf_counter() - started
    report(
        "convergence",
        f"hard 95/95 at epoch {reached[0]}, STL at {stl_hit}, equivalence <=1e-12, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. soft-sharing coupling
# ---------------------------------------------------------------------------


def test_criterion_7_soft_coupling_monotonicity(toy_splits, toy_vocab):
    cfg = toy_encoder_cfg(toy_vocab)
    coupled = default_coupled_layers(cfg.n_layers)
    distances = {}
    for lam in (0.0, 10.0):
        soft = SoftShareConfig(penalty="frobenius", lam=lam, coupled_layer_names=coupled)
        regime = regime_for("soft_share", soft=soft)
        model = build_model(regime, cfg, N_CLASSES, seed=1)
        train(model, toy_splits.train, toy_splits.val, toy_vocab, toy_train_cfg(epochs=10))
        distances[lam] = coupling_distance(model)
    assert distances[10.0] < distances[0.0]

    soft0 = SoftShareConfig(penalty="frobenius", lam=0.0, coupled_layer_names=coupled)
    regime0 = regime_for("soft_share", soft=soft0)
    l1, l2 = Tensor(1.25), Tensor(0.5)
    assert abs(weighted_sum((l1, l2), regime0.task_weights).item() - 1.75) <= 1e-12
    report(
        "soft-sharing coupling",
        f"distance lam=10: {distances[10.0]:.4f} < lam=0: {distances[0.0]:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. determinism and artifact integrity
# ---------------------------------------------------------------------------


def test_criterion_8_determinism_and_artifacts(tmp_path):
    directory = tmp_path / "toy"
    materialize(str(directory))
    fast = (directory / "toy.cfg").read_text(encoding="utf-8").replace(
        "train.epochs = 30", "train.epochs = 3"
    )
    cfg_path = directory / "fast.cfg"
    cfg_path.write_text(fast, encoding="utf-8")

    artifacts = ("checkpoint.mtlc", "vocab.txt", "trace.tsv", "report.json", "report.txt")
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    run_dir = directory / "run_toy"
    first = {name: (run_dir / name).read_bytes() for name in artifacts}
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    for name in artifacts:
        assert (run_dir / name).read_bytes() == first[name], f"{name} not byte-identical"

    # checkpoint round trip reproduces the validation predictions exactly
    assert (
        cli_main(
            [
                "evaluate",
                "--checkpoint", str(run_dir / "checkpoint.mtlc"),
                "--data", str(directory / "val.tsv"),
            ]
        )
        == 0
    )
    assert (run_dir / "eval_report.json").read_bytes() == first["report.json"]

    # CRC fuzzing: every one of 100 single-byte flips is detected
    blob = bytearray((run_dir / "checkpoint.mtlc").read_bytes())
    rng = np.random.default_rng(77)
    detected = 0
    for _ in range(100):
        pos = int(rng.integers(0, len(blob)))
        old = blob[pos]
        blob[pos] = (old + int(rng.integers(1, 256))) % 256
        try:
            deserialize(bytes(blob))
        except Exception:
            detected += 1
        blob[pos] = old
    assert detected == 100
    report("determinism & artifacts", "byte-identical reruns, exact round trip, 100/100 flips caught")


# ---------------------------------------------------------------------------
# 9. shared-encoder efficiency
# ---------------------------------------------------------------------------


def test_criterion_9_shared_encoder_halves_forward_ops(toy_splits, toy_vocab, forward_calls):
    from mtlc.data import batches, encode_split

    cfg = toy_encoder_cfg(toy_vocab, dropout_p=0.0)
    shared = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=3)
    batch = batches(encode_split(toy_splits.val, toy_vocab, cfg.max_len), 16, False, 0)[0]

    forward_calls.count = 0
    predict_logits(shared, batch.seqs)
    shared_calls = forward_calls.count

    forward_calls.count = 0
    for task in TASKS:
        stl = build_model(regime_for("stl", task), cfg, N_CLASSES, seed=3)
        for seq in batch.seqs:
            predict_logits(stl, [seq])
    stl_calls = forward_calls.count

    assert shared_calls == len(batch)
    assert stl_calls == 2 * shared_calls
    report("shared-encoder efficiency", f"{shared_calls} vs {stl_calls} encoder passes")
