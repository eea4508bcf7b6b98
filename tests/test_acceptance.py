"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line at its stated tolerance and runtime budget."""

import inspect
import time

import numpy as np

from mtlc.cli import main as cli_main
from mtlc.data import Corpus, Record, schemas_for_language, stratified_split
from mtlc.encoder import (
    EncoderConfig,
    HeadSpec,
    attention_block,
    classify,
    encoder_forward,
    forward_call_count,
    head_view,
    init_params,
    reset_forward_calls,
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
    batch_logits,
    build_model,
    coupling_distance,
    default_coupled_layers,
    soft_loss,
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
    concat_rows,
    dropout,
    exp,
    frobenius_sq_distance,
    gather_rows,
    layer_norm_rows,
    log_sum_exp,
    matmul,
    mul,
    neg,
    pow_const,
    relu,
    reshape,
    scale,
    segment_attention,
    stream,
    sub,
    sum_all,
    tanh,
    trace_norm_penalty,
)
from mtlc.toy import materialize

from gradcheck import grad_check

GRAD_TOL = 1e-4
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
        kind=kind,
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
        ("neg", lambda x: sum_all(mul(neg(x), w34)), (3, 4)),
        ("scale", lambda x: sum_all(mul(scale(x, -1.7), w34)), (3, 4)),
        ("relu", lambda x: sum_all(mul(relu(x), w34)), (3, 4)),
        ("tanh", lambda x: sum_all(mul(tanh(x), w34)), (3, 4)),
        ("exp", lambda x: sum_all(mul(exp(x), w34)), (3, 4)),
        ("pow_const", lambda x: sum_all(pow_const(add(mul(x, x), Tensor(0.1)), 1.7)), (3, 4)),
        ("log_sum_exp", lambda x: log_sum_exp(x), (7,)),
        ("sum_all", lambda x: sum_all(x), (3, 4)),
        ("gather_rows", lambda x: sum_all(mul(gather_rows(x, [0, 2, 2]), Tensor(np.arange(12.0).reshape(3, 4)))), (3, 4)),
        ("concat_rows", lambda x: sum_all(mul(concat_rows([x, x]), Tensor(np.arange(24.0).reshape(6, 4)))), (3, 4)),
        ("reshape", lambda x: sum_all(mul(reshape(x, (4, 3)), Tensor(np.arange(12.0).reshape(4, 3)))), (3, 4)),
        # x feeds all three operands, so every adjoint affine returns is checked
        ("affine", lambda x: sum_all(mul(affine(x, x, reshape(gather_rows(x, [1]), (3,))), Tensor(np.arange(9.0).reshape(3, 3)))), (3, 3)),
        ("layer_norm_rows", lambda x: sum_all(mul(layer_norm_rows(x, Tensor(np.full(4, 1.3)), Tensor(np.full(4, -0.2))), w34)), (3, 4)),
        ("dropout", lambda x: sum_all(mul(dropout(x, 0.4, True, stream(31, "gc-dropout")), w34)), (3, 4)),
        ("frobenius_sq_distance", lambda x: frobenius_sq_distance(x, rng_tensor(994, (3, 4))), (3, 4)),
        ("trace_norm_penalty", lambda x: trace_norm_penalty(x), (4, 3)),
    ]


def _encoder_op_cases():
    kv = rng_tensor(881, (4, 3))
    vv = rng_tensor(882, (4, 5))
    w_att = Tensor(np.arange(10.0).reshape(2, 5))
    enc_cfg = EncoderConfig(vocab_size=9, d_model=4, n_heads=2, n_layers=1,
                            d_ffn=8, max_len=6, dropout_p=0.0)
    heads = [HeadSpec("sentiment", 5, hidden=8)]
    base = init_params(enc_cfg, heads, seed=17)

    from mtlc.text import TokenSeq

    seq = TokenSeq(ids=(2, 4, 5, 6, 3, 0), mask=(1, 1, 1, 1, 1, 0), raw_length=3)

    def enc_loss(name):
        def f(x):
            trial = dict(base)
            trial[name] = x
            cls = encoder_forward([seq], trial, enc_cfg)
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
        out = attention_block(x, x, params, "layer0.", 2, [3, 1], [3, 1])
        return sum_all(mul(out, Tensor(np.arange(16.0).reshape(4, 4))))

    cases = [
        ("segment_attention[q]", lambda x: sum_all(mul(segment_attention(x, kv, vv, [1, 1], [3, 1], 1), w_att)), (2, 3)),
        ("multi_head_x", mh_case, (4, 4)),
        ("classify_cls", lambda x: sum_all(mul(classify(reshape(x, (1, 4)), head_view(base, "sentiment")), Tensor(np.arange(1.0, 6.0)))), (4,)),
    ]
    # rotate through representative parameter tensors for encoder_forward
    for name in ("layer0.wq", "layer0.ffn_w1", "pooler_w", "tok_emb"):
        cases.append((f"encoder_forward[{name}]", None, name, enc_loss, base))
    return cases


def _loss_op_cases():
    return [
        ("cross_entropy", lambda x: cross_entropy(x, 2), (6,)),
        ("weighted_cross_entropy", lambda x: cross_entropy(x, 1, class_weights([4, 2, 9, 5, 3, 7])), (6,)),
        ("hinge_multiclass", lambda x: hinge_multiclass(x, 3), (6,)),
        ("focal", lambda x: focal(x, 0, 2.0), (6,)),
        ("kld", lambda x: kld(x, 4, 0.1), (6,)),
        ("batch_loss", lambda x: compute_loss(reshape(x, (2, 2)), [1, 0], LossConfig()), (4,)),
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

    # end-to-end: full hard-share loss on a 2-sample batch, every parameter
    enc_cfg = EncoderConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1,
                            d_ffn=16, max_len=6, dropout_p=0.0)
    heads = [HeadSpec("sentiment", 5, hidden=16), HeadSpec("offense", 6, hidden=16)]
    rng = np.random.default_rng(42)
    params = {
        name: Tensor(rng.uniform(-0.8, 0.8, size=t.shape), requires_grad=True, name=name)
        for name, t in init_params(enc_cfg, heads, seed=0).items()
    }
    from mtlc.text import TokenSeq

    seqs = [
        TokenSeq(ids=(2, 4, 7, 3, 0, 0), mask=(1, 1, 1, 1, 0, 0), raw_length=2),
        TokenSeq(ids=(2, 9, 5, 6, 3, 0), mask=(1, 1, 1, 1, 1, 0), raw_length=3),
    ]
    golds = {"sentiment": (1, 4), "offense": (0, 5)}

    def mtl_loss(trial):
        cls = encoder_forward(seqs, trial, enc_cfg)
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
    required = taped - {"backward"} | {"frobenius_sq_distance", "trace_norm_penalty"}
    cases = _numcore_op_cases() + _loss_op_cases() + _encoder_op_cases()
    covered = {case[0].split("[")[0] for case in cases}
    assert sorted(required - covered) == []


# ---------------------------------------------------------------------------
# 2. loss identities
# ---------------------------------------------------------------------------


def test_criterion_2_loss_identities():
    started = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.uniform(-4, 4, size=6))
        target = int(rng.integers(0, 6))
        cw = class_weights(rng.integers(1, 50, size=6).tolist())
        assert focal(logits, target, 0.0, cw).item() == cross_entropy(logits, target, cw).item()
        assert abs(kld(logits, target, 0.0).item() - cross_entropy(logits, target).item()) <= 1e-12
    for n in (2, 3, 5, 6):
        assert hinge_multiclass(Tensor(np.full(n, 0.37)), 0).item() == float(n - 1)
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
    assert sum(cw.w) == 4.0
    report("class-weight reproduction", f"w_positive={cw[0]:.5f}, sum={sum(cw.w)}")


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
    splits = stratified_split(corpus, (0.8, 0.1, 0.1), seed=0)
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
    _, hard_trace = train(toy_splits, regime_for("hard_share"), toy_train_cfg(), hard, toy_vocab)
    hard_seconds = time.perf_counter() - started
    reached = [
        i
        for i, ep in enumerate(hard_trace.epochs)
        if all(ep.train_accuracy[t] >= 0.95 for t in TASKS)
    ]
    assert reached, f"hard sharing never hit 95/95 within 30 epochs: last={hard_trace.epochs[-1].train_accuracy}"
    assert hard_seconds < 120.0, f"hard-share run took {hard_seconds:.0f}s (budget 120s)"

    stl_hit = {}
    for task in TASKS:
        model = build_model(regime_for("stl", task), cfg, N_CLASSES, seed=1)
        _, trace = train(toy_splits, regime_for("stl", task), toy_train_cfg(), model, toy_vocab)
        hit = [i for i, ep in enumerate(trace.epochs) if ep.train_accuracy[task] >= 0.95]
        assert hit, f"STL {task} never hit 95% within 30 epochs"
        stl_hit[task] = hit[0]

    # zero-weighted hard sharing replays the STL trajectory
    short = toy_train_cfg(epochs=4)
    stl = build_model(regime_for("stl", "sentiment"), cfg, N_CLASSES, seed=1)
    _, stl_trace = train(toy_splits, regime_for("stl", "sentiment"), short, stl, toy_vocab)
    zeroed = build_model(regime_for("hard_share", weights=(1.0, 0.0)), cfg, N_CLASSES, seed=1)
    _, zero_trace = train(
        toy_splits, regime_for("hard_share", weights=(1.0, 0.0)), short, zeroed, toy_vocab
    )
    for a, b in zip(stl_trace.epochs, zero_trace.epochs):
        assert abs(a.train_loss["sentiment"] - b.train_loss["sentiment"]) <= 1e-12
        assert abs(a.val_weighted_f1["sentiment"] - b.val_weighted_f1["sentiment"]) <= 1e-12

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
        train(toy_splits, regime, toy_train_cfg(epochs=10), model, toy_vocab)
        distances[lam] = coupling_distance(model)
    assert distances[10.0] < distances[0.0]

    soft0 = SoftShareConfig(penalty="frobenius", lam=0.0, coupled_layer_names=coupled)
    regime0 = regime_for("soft_share", soft=soft0)
    model0 = build_model(regime0, cfg, N_CLASSES, seed=2)
    l1, l2 = Tensor(1.25), Tensor(0.5)
    assert abs(soft_loss((l1, l2), model0.params, regime0).item() - 1.75) <= 1e-12
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


def test_criterion_9_shared_encoder_halves_forward_ops(toy_splits, toy_vocab):
    from mtlc.data import batches, encode_split

    cfg = toy_encoder_cfg(toy_vocab, dropout_p=0.0)
    shared = build_model(regime_for("hard_share"), cfg, N_CLASSES, seed=3)
    batch = batches(encode_split(toy_splits.val, toy_vocab, cfg.max_len), 16, False, 0)[0]

    reset_forward_calls()
    batch_logits(shared, batch.seqs)
    shared_calls = forward_call_count()

    reset_forward_calls()
    for task in TASKS:
        stl = build_model(regime_for("stl", task), cfg, N_CLASSES, seed=3)
        for seq in batch.seqs:
            batch_logits(stl, [seq])
    stl_calls = forward_call_count()

    assert shared_calls == len(batch)
    assert stl_calls == 2 * shared_calls
    report("shared-encoder efficiency", f"{shared_calls} vs {stl_calls} encoder passes")
