"""Attention, the transformer stack, pooling, and classification heads."""

import math
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtlc.errors import ContractError, ShapeError
from mtlc.encoder import (
    HEAD_HIDDEN,
    EncoderConfig,
    attention_block,
    classify,
    encoder_forward,
    head_view,
    init_params,
    pack,
    param_shapes,
)
from mtlc.losses import LossConfig
from mtlc.mtl import Model, RegimeConfig, SoftShareConfig, build_model, predict_logits, towers
from mtlc.numcore import (
    GradTape,
    Tensor,
    backward,
    cls_attention,
    matmul,
    mul,
    segment_attention,
    stream,
    sum_all,
)
from mtlc.text import PAD, TokenSeq, build_vocab, encode

from gradcheck import grad_check


def attention(q, k, v, lengths=None, n_heads=1):
    """One sequence (or the given segments) through the packed attention op."""
    return segment_attention(q, k, v, lengths or [k.shape[0]], n_heads)


def padded_reference(seqs, params, cfg):
    """Pooled [CLS] vectors of the full-length per-head computation: each
    sequence's ids are padded to max_len, every position (pads included)
    runs every layer, and pad keys get a -1e9 score bias, as the
    per-sample encoder did before packing."""
    p = {name: t.data for name, t in params.items()}

    def norm(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    d_head = cfg.d_model // cfg.n_heads
    out = []
    for seq in seqs:
        bias = np.where(np.asarray(seq.mask) > 0, 0.0, -1e9)[None, :]
        ids = seq.ids + (PAD,) * (cfg.max_len - len(seq.ids))
        x = p["tok_emb"][list(ids)] + p["pos_emb"]
        for i in range(cfg.n_layers):
            w = {k[len(f"layer{i}.") :]: v for k, v in p.items() if k.startswith(f"layer{i}.")}
            h = norm(x, w["norm1_g"], w["norm1_b"])
            q, k, v = h @ w["wq"], h @ w["wk"], h @ w["wv"]
            heads = []
            for j in range(cfg.n_heads):
                cols = slice(j * d_head, (j + 1) * d_head)
                scores = q[:, cols] @ k[:, cols].T / math.sqrt(d_head) + bias
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                heads.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
            x = x + np.concatenate(heads, axis=1) @ w["wo"]
            h = norm(x, w["norm2_g"], w["norm2_b"])
            x = x + np.maximum(h @ w["ffn_w1"] + w["ffn_b1"], 0.0) @ w["ffn_w2"] + w["ffn_b2"]
        cls = norm(x, p["final_norm_g"], p["final_norm_b"])[0]
        out.append(np.tanh(cls @ p["pooler_w"] + p["pooler_b"]))
    return np.stack(out)


def plain_inference(model, seqs):
    """`predict_logits` restated in plain numpy on the model's [towers, ...]
    stacks: the numpy calls the ops make at inference, in the order they
    make them (but every self-attention run's scores key-major, see
    `attend`; the [CLS] layer in `attend_cls`), so its logits equal the
    ops' bit for bit, and a change to an op's arithmetic shows as a changed
    bit. Every array it makes takes the weights' dtype, as the ops' do."""
    cfg, p = model.encoder_cfg, {name: t.data for name, t in model.stacks.items()}
    lengths = [len(seq.ids) for seq in seqs]
    ids = np.array([i for seq in seqs for i in seq.ids])
    positions = np.concatenate([np.arange(n) for n in lengths])
    cls_rows = np.cumsum([0] + lengths[:-1])

    def norm(x, g, b):
        mean = np.full(x.shape[-1], 1.0 / x.shape[-1], x.dtype)
        xhat = x - (x @ mean)[..., None]
        xhat *= (1.0 / np.sqrt(np.square(xhat) @ mean + 1e-5))[..., None]
        y = xhat * g[..., None, :]
        y += b[..., None, :]
        return y

    def affine(x, w, b):
        y = x @ w
        y += b[..., None, :]
        return y

    def attend(q, k, v, q_lengths):
        # each run of equal (q, kv) lengths as one [towers, heads, G, L, w]
        # view, its scores key-major, [towers, heads, G, keys, queries], for
        # every run: the reference layout, which `segment_attention` must
        # equal bit for bit where it lays a per-row run's keys outermost
        n_heads, towers_, width = cfg.n_heads, len(q), q.shape[-1] // cfg.n_heads

        def split(a):
            return a.reshape(a.shape[:-1] + (n_heads, width))

        def view(a, start, g, n):
            block = a[:, start : start + g * n].reshape((towers_, g, n, n_heads, width))
            return block.transpose(0, 3, 1, 2, 4)

        qh, kh, vh = split(q * (1.0 / math.sqrt(width))), split(k), split(v)
        out = np.empty_like(qh)
        q_start = kv_start = 0
        for (ql, kl), run in groupby(zip(q_lengths, lengths)):
            g = len(list(run))
            scores = view(kh, kv_start, g, kl) @ view(qh, q_start, g, ql).swapaxes(-1, -2)
            scores -= scores.max(axis=-2, keepdims=True)
            np.exp(scores, out=scores)
            total = scores.sum(axis=-2, keepdims=True)
            scores *= np.reciprocal(total, out=total)
            weighted = view(out, q_start, g, ql)
            np.matmul(scores.swapaxes(-1, -2), view(vh, kv_start, g, kl), out=weighted)
            q_start, kv_start = q_start + g * ql, kv_start + g * kl
        return out.reshape(q.shape)

    def attend_cls(q, h, wk, wv):
        # the [CLS] layer in its folded order: each head's scaled query
        # through that head's W_K columns, its scores against the rows of
        # h, the weighted sum of those rows, and only then W_V; each run of
        # equal lengths as one [towers, G, L, d] block of h, its scores
        # [towers, G, keys, heads]
        n_heads, towers_, d = cfg.n_heads, len(q), h.shape[-1]

        def split(a):  # [towers, rows, heads * w] -> [towers, heads, rows, w]
            return a.reshape(a.shape[:-1] + (n_heads, a.shape[-1] // n_heads)).transpose(0, 2, 1, 3)

        scaled = q * (1.0 / math.sqrt(q.shape[-1] // n_heads))
        folded = split(scaled) @ split(wk).transpose(0, 1, 3, 2)  # [towers, heads, comments, d]
        summed = np.empty_like(folded)
        first = row = 0
        for kl, run in groupby(lengths):
            g = len(list(run))
            rows = h[:, row : row + g * kl].reshape((towers_, g, kl, d))
            scores = rows @ folded[:, :, first : first + g].transpose(0, 2, 3, 1)
            scores -= scores.max(axis=-2, keepdims=True)
            np.exp(scores, out=scores)
            total = scores.sum(axis=-2, keepdims=True)
            scores *= np.reciprocal(total, out=total)
            summed[:, :, first : first + g] = (scores.transpose(0, 1, 3, 2) @ rows).transpose(0, 2, 1, 3)
            first, row = first + g, row + g * kl
        return (summed @ split(wv)).transpose(0, 2, 1, 3).reshape(q.shape[:-1] + (wv.shape[-1],))

    x = p["tok_emb"].take(ids, axis=-2) + p["pos_emb"].take(positions, axis=-2)
    for i in range(cfg.n_layers):
        w = {name[len(f"layer{i}.") :]: a for name, a in p.items() if name.startswith(f"layer{i}.")}
        h = norm(x, w["norm1_g"], w["norm1_b"])
        if i == cfg.n_layers - 1:
            x, queries = x.take(cls_rows, axis=-2), h.take(cls_rows, axis=-2)
            attended = attend_cls(queries @ w["wq"], h, w["wk"], w["wv"])
        else:
            attended = attend(h @ w["wq"], h @ w["wk"], h @ w["wv"], lengths)
        x = x + attended @ w["wo"]
        h = norm(x, w["norm2_g"], w["norm2_b"])
        inner = np.maximum(affine(h, w["ffn_w1"], w["ffn_b1"]), 0.0)
        x = x + affine(inner, w["ffn_w2"], w["ffn_b2"])
    x = norm(x, p["final_norm_g"], p["final_norm_b"])
    pooled = np.tanh(affine(x, p["pooler_w"], p["pooler_b"]))
    logits = {}
    for tower, (prefix, tasks) in enumerate(towers(model.regime).items()):
        for task in tasks:
            head = {leaf: t.data for leaf, t in head_view(model.params, task, prefix).items()}
            hidden = np.maximum(affine(pooled[tower], head["w_hidden"], head["b_hidden"]), 0.0)
            logits[task] = affine(hidden, head["w_out"], head["b_out"])
    return logits


def row_major_reference(q, k, v, q_lengths, kv_lengths, n_heads, g_out):
    """Output of attention and the gradients of sum(output * g_out) with
    respect to q, k and v, one head of one sequence at a time: row-major
    scores with the 1/sqrt(d_k) scale applied to them, and a softmax shifted
    by each query row's maximum."""
    out, gq, gk, gv = np.zeros((q.shape[0], v.shape[1])), np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
    wk, wv = q.shape[1] // n_heads, v.shape[1] // n_heads
    q_ends, kv_ends = np.cumsum(q_lengths), np.cumsum(kv_lengths)
    for ql, qe, kl, ke in zip(q_lengths, q_ends, kv_lengths, kv_ends):
        for j in range(n_heads):
            rq, rk = slice(qe - ql, qe), slice(ke - kl, ke)
            ck, cv = slice(j * wk, (j + 1) * wk), slice(j * wv, (j + 1) * wv)
            qs, ks, vs, go = q[rq, ck], k[rk, ck], v[rk, cv], g_out[rq, cv]
            scores = qs @ ks.T / math.sqrt(wk)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            out[rq, cv] = p @ vs
            dp = go @ vs.T
            ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
            gq[rq, ck] = ds @ ks / math.sqrt(wk)
            gk[rk, ck] = ds.T @ qs / math.sqrt(wk)
            gv[rk, cv] = p.T @ go
    return out, gq, gk, gv


def attention_and_grads(q, k, v, lengths, n_heads, g_out):
    """The kernel's output and its gradients of sum(output * g_out)."""
    qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
    with GradTape() as tape:
        out = segment_attention(qt, kt, vt, lengths, n_heads)
        loss = sum_all(mul(out, Tensor(g_out)))
    backward(tape, loss)
    return out.data, qt.grad, kt.grad, vt.grad


def cls_reference(q, h, wk, wv, lengths, n_heads, g_out):
    """The explicit form softmax(q (h W_K)^T / sqrt(d_k)) h W_V of [CLS]
    attention and its gradients of sum(output * g_out) with respect to q,
    h, W_K and W_V: every row projected, `row_major_reference` with one
    query per sequence, and the chain rule back through the projections."""
    k, v = h @ wk, h @ wv
    out, gq, gk, gv = row_major_reference(q, k, v, [1] * len(lengths), lengths, n_heads, g_out)
    return out, gq, gk @ wk.T + gv @ wv.T, h.T @ gk, h.T @ gv


def cls_attention_and_grads(q, h, wk, wv, lengths, n_heads, g_out):
    """`cls_attention`'s output and its gradients of sum(output * g_out)."""
    operands = [Tensor(a, requires_grad=True) for a in (q, h, wk, wv)]
    with GradTape() as tape:
        out = cls_attention(*operands, lengths, n_heads)
        loss = sum_all(mul(out, Tensor(g_out)))
    backward(tape, loss)
    return (out.data, *(t.grad for t in operands))


def assert_close_to_reference(got, want, rel=1e-12):
    for name, a, b in zip(("output", "q grad", "k grad", "v grad"), got, want):
        assert np.isfinite(a).all(), name
        assert np.abs(a - b).max() <= rel * np.abs(b).max(), name


@pytest.fixture
def small_config():
    return EncoderConfig(
        vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ffn=16, max_len=8, dropout_p=0.0
    )


@pytest.fixture
def heads():
    return {"sentiment": 5, "offense": 6}


@pytest.fixture
def params(small_config, heads):
    return init_params(param_shapes(small_config, heads), seed=3)


@pytest.fixture
def vocab():
    return build_vocab(["a b c d e f", "b c d"], mode="word", min_freq=1, max_size=100)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ContractError):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_dropout_bounds(self):
        with pytest.raises(ContractError):
            EncoderConfig(vocab_size=10, dropout_p=1.0)

    def test_positive_dimensions(self):
        with pytest.raises(ContractError):
            EncoderConfig(vocab_size=0)

    def test_max_len_holds_cls_a_token_and_sep(self):
        for short in (1, 2):
            with pytest.raises(ContractError, match="max_len"):
                EncoderConfig(vocab_size=10, max_len=short)
        assert EncoderConfig(vocab_size=10, max_len=3).max_len == 3


class TestAttention:
    def test_single_position(self):
        one = Tensor([[1.0]])
        assert attention(one, one, one).data.tolist() == [[1.0]]

    def test_equal_scores_give_column_mean(self):
        k = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        v = Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        out = attention(Tensor(np.zeros((4, 3))), k, v)
        assert np.abs(out.data - v.data.mean(axis=0)).max() < 1e-12
        # a [CLS] query of zeros weighs every row alike: W_V of the mean row
        wv = Tensor(np.random.default_rng(2).normal(size=(3, 5)))
        out = cls_attention(Tensor(np.zeros((1, 3))), k, Tensor(np.eye(3)), wv, [4], 1)
        assert np.abs(out.data - k.data.mean(axis=0) @ wv.data).max() < 1e-12

    def test_matches_three_line_oracle(self):
        rng = np.random.default_rng(7)
        q, k, v = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
        scores = q @ k.T / math.sqrt(2)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        oracle = weights @ v
        out = attention(Tensor(q), Tensor(k), Tensor(v))
        assert np.abs(out.data - oracle).max() < 1e-12

    def test_masked_keys_get_zero_weight(self):
        # the rows of another sequence are invisible, as masked keys were
        rng = np.random.default_rng(8)
        k, v = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        k2, v2 = k.copy(), v.copy()
        k2[2:], v2[2:] = 1e6, 1e6  # the second sequence's keys and values
        q = rng.normal(size=(5, 2))
        out = attention(Tensor(q), Tensor(k), Tensor(v), [2, 3])
        out2 = attention(Tensor(q), Tensor(k2), Tensor(v2), [2, 3])
        assert np.array_equal(out.data[:2], out2.data[:2])
        # so are they to the [CLS] queries, one per sequence, over rows k
        w = Tensor(rng.normal(size=(2, 2)))
        out = cls_attention(Tensor(q[:2]), Tensor(k), w, w, [2, 3], 1)
        out2 = cls_attention(Tensor(q[:2]), Tensor(k2), w, w, [2, 3], 1)
        assert np.array_equal(out.data[:1], out2.data[:1])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
        # a q/k width of 0 splits into no head
        k, v = Tensor(np.zeros((5, 0))), Tensor(np.ones((5, 4)))
        for n_heads in (1, 2):
            with pytest.raises(ShapeError, match=f"widths 0/4 do not split into {n_heads} heads"):
                segment_attention(k, k, v, [2, 3], n_heads)

    def test_mask_length_checked(self):
        x = Tensor(np.zeros((2, 2)))
        for lengths in ([3], [2, 0], [1], []):
            with pytest.raises(ShapeError, match="segment lengths"):
                segment_attention(x, x, x, lengths, 1)

    def test_query_rows_are_per_key_row(self):
        # 5 key rows in 2 sequences: only a q of 5 rows attends; one row per
        # sequence is `cls_attention`'s layout
        k = Tensor(np.zeros((5, 2)))
        for n_queries in (3, 2):
            with pytest.raises(ShapeError, match=rf"q has {n_queries} rows; attention needs one per k row \(5\)"):
                segment_attention(Tensor(np.zeros((n_queries, 2))), k, k, [2, 3], 1)
        assert segment_attention(Tensor(np.zeros((5, 2))), k, k, [2, 3], 1).shape == (5, 2)

    def test_lone_rows_attend_to_themselves(self):
        # every sequence is one row, which attends to itself with weight 1,
        # as its sequence alone does
        rng = np.random.default_rng(12)
        q, k, v = rng.normal(size=(5, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 6))
        got = segment_attention(Tensor(q), Tensor(k), Tensor(v), [1] * 5, 2).data
        alone = [segment_attention(Tensor(q[[i]]), Tensor(k[[i]]), Tensor(v[[i]]), [1], 2).data for i in range(5)]
        assert np.array_equal(got, np.concatenate(alone))
        assert np.array_equal(got, v)


class TestMultiHead:
    def test_single_head_degenerates_to_attention(self, small_config, heads):
        cfg = EncoderConfig(vocab_size=12, d_model=8, n_heads=1, n_layers=1, d_ffn=16, max_len=8, dropout_p=0.0)
        params = init_params(param_shapes(cfg, heads), seed=5)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
        lengths = [3, 1]
        got = attention_block(x, params, "layer0.", 1, lengths)
        expected = matmul(
            attention(
                matmul(x, params["layer0.wq"]),
                matmul(x, params["layer0.wk"]),
                matmul(x, params["layer0.wv"]),
                lengths,
            ),
            params["layer0.wo"],
        )
        assert np.array_equal(got.data, expected.data)

    def test_output_shape(self, params):
        x = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
        assert attention_block(x, params, "layer0.", 2, [2, 3]).shape == (5, 8)

    def test_pad_content_permutation_invariance(self, params):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 8))
        lengths = [3, 3]
        base = attention_block(Tensor(x), params, "layer0.", 2, lengths).data
        x2 = x.copy()
        x2[[3, 4, 5]] = x2[[5, 3, 4]]  # permute the second sequence's rows
        swapped = attention_block(Tensor(x2), params, "layer0.", 2, lengths).data
        assert np.abs(base[:3] - swapped[:3]).max() < 1e-9
        assert np.abs(base[[5, 3, 4]] - swapped[3:]).max() < 1e-9


class TestEncoderForward:
    def test_zero_params_give_zero_cls(self, small_config, heads, vocab):
        params = {
            name: Tensor(
                np.ones(shape) if name.endswith("_g") else np.zeros(shape),
                requires_grad=True,
            )
            for name, shape in param_shapes(small_config, heads).items()
        }
        seq = encode("a b c", vocab, small_config.max_len)
        cls = encoder_forward(pack([seq], small_config), params, small_config)
        assert np.array_equal(cls.data, np.zeros((1, 8)))

    def test_training_mode_deterministic_per_stream(self, heads, vocab):
        cfg = EncoderConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ffn=16, max_len=8, dropout_p=0.3)
        params = init_params(param_shapes(cfg, heads), seed=1)
        seq = encode("a b c d", vocab, cfg.max_len)
        a = encoder_forward(pack([seq], cfg), params, cfg, rng=stream(9, "drop")).data
        b = encoder_forward(pack([seq], cfg), params, cfg, rng=stream(9, "drop")).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, encoder_forward(pack([seq], cfg), params, cfg).data)

    def test_shape_invariant_across_lengths(self, small_config, params, vocab):
        for n_tokens in range(1, small_config.max_len - 1):
            text = " ".join(["b"] * n_tokens)
            seq = encode(text, vocab, small_config.max_len)
            assert encoder_forward(pack([seq], small_config), params, small_config).shape == (1, 8)

    def test_wrong_length_rejected(self, small_config, vocab):
        seq = encode("a", vocab, 6)
        with pytest.raises(ContractError):
            pack([seq], small_config)

    def test_out_of_vocab_id_rejected(self, small_config, params):
        # the embedding gather bounds each id by the table's rows
        for bad_id in (99, -1):
            bad = TokenSeq(ids=(2, bad_id, 3), max_len=small_config.max_len)
            with pytest.raises(ContractError, match=r"row id out of range 0\.\.11"):
                encoder_forward(pack([bad], small_config), params, small_config)


class TestClassify:
    def test_zero_weights_zero_logits(self):
        head = {
            "w_hidden": Tensor(np.zeros((4, 3))),
            "b_hidden": Tensor(np.zeros(3)),
            "w_out": Tensor(np.zeros((3, 5))),
            "b_out": Tensor(np.zeros(5)),
        }
        logits = classify(Tensor(np.ones((2, 4))), head)
        assert logits.data.tolist() == [[0.0] * 5] * 2

    def test_logit_sizes_match_schemas(self, small_config, params, vocab):
        seq = encode("a b", vocab, small_config.max_len)
        cls = encoder_forward(pack([seq, seq, seq], small_config), params, small_config)
        assert classify(cls, head_view(params, "sentiment")).shape == (3, 5)
        assert classify(cls, head_view(params, "offense")).shape == (3, 6)

    def test_hand_two_class_case(self):
        head = {
            "w_hidden": Tensor(np.array([[1.0, 0.0], [0.0, -1.0]])),
            "b_hidden": Tensor(np.array([0.5, 0.25])),
            "w_out": Tensor(np.array([[2.0, -1.0], [1.0, 3.0]])),
            "b_out": Tensor(np.array([0.1, -0.2])),
        }
        cls = Tensor(np.array([[1.0, 2.0]]))
        # hidden = relu([1*1+0.5, -2+0.25]) = [1.5, 0]
        # logits = [1.5*2+0.1, 1.5*-1-0.2] = [3.1, -1.7]
        logits = classify(cls, head)
        assert np.abs(logits.data - np.array([[3.1, -1.7]])).max() < 1e-12

    def test_shape_mismatch(self, params):
        with pytest.raises(ShapeError):
            classify(Tensor(np.ones((1, 3))), head_view(params, "sentiment"))
        with pytest.raises(ShapeError):
            classify(Tensor(np.ones(8)), head_view(params, "sentiment"))

    def test_missing_head(self, params):
        with pytest.raises(ContractError):
            head_view(params, "nosuch")


def closed_form_count(config, heads, hidden):
    d, f, n_l = config.d_model, config.d_ffn, config.n_layers
    total = config.vocab_size * d + config.max_len * d
    total += n_l * (4 * d * d + d * f + f + f * d + d + 4 * d)
    total += 2 * d  # final norm
    total += d * d + d  # pooler
    for n_classes in heads.values():
        total += d * hidden + hidden + hidden * n_classes + n_classes
    return total


class TestParams:
    def test_count_matches_closed_form(self, small_config, heads, params):
        total = sum(p.data.size for p in params.values())
        assert total == closed_form_count(small_config, heads, HEAD_HIDDEN)

    def test_count_formula_default_head(self):
        cfg = EncoderConfig(vocab_size=100, d_model=64, n_heads=4, n_layers=2, d_ffn=128, max_len=64)
        heads = {"sentiment": 5}
        params = init_params(param_shapes(cfg, heads), seed=0)
        assert sum(p.data.size for p in params.values()) == closed_form_count(cfg, heads, HEAD_HIDDEN)

    def test_name_set_is_deterministic(self, small_config, heads):
        assert sorted(param_shapes(small_config, heads)) == sorted(
            init_params(param_shapes(small_config, heads), seed=9)
        )

    def test_init_distribution(self, small_config, heads, params):
        w = params["layer0.wq"].data
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12
        assert 0.01 < w.std() < 0.03
        assert np.array_equal(params["layer0.norm1_g"].data, np.ones(8))
        assert np.array_equal(params["layer0.ffn_b1"].data, np.zeros(16))

    def test_per_tensor_streams_are_stable(self, small_config, heads):
        both = init_params(param_shapes(small_config, heads), seed=4)
        solo = init_params(param_shapes(small_config, {"sentiment": 5}), seed=4)
        for name in solo:
            assert np.array_equal(both[name].data, solo[name].data)


class TestEncoderGradients:
    def test_parameter_gradient_spot_checks(self, vocab, heads):
        cfg = EncoderConfig(vocab_size=12, d_model=4, n_heads=2, n_layers=1, d_ffn=8, max_len=6, dropout_p=0.0)
        rng = np.random.default_rng(55)
        params = {
            name: Tensor(rng.uniform(-0.5, 0.5, size=shape), requires_grad=True)
            for name, shape in param_shapes(cfg, {"sentiment": 5}).items()
        }
        seq = encode("a b c", vocab, cfg.max_len)

        def loss_with(name, x):
            trial = dict(params)
            trial[name] = x
            cls = encoder_forward(pack([seq], cfg), trial, cfg)
            logits = classify(cls, head_view(trial, "sentiment"))
            return sum_all(mul(logits, Tensor(np.arange(1.0, 6.0))))

        for name in ("layer0.wq", "layer0.ffn_w1", "pooler_w", "head.sentiment.w_hidden", "tok_emb"):
            probe = Tensor(params[name].data.copy())
            assert grad_check(lambda x: loss_with(name, x), probe, h=1e-5) < 1e-4, name


def every_fixed_layout_case(test):
    """`test` with the layout [3, 3, 3, 1, 5, 5] as examples run on every
    test run: both dtypes, with and without a tower axis."""
    for dtype, lead in product((np.float64, np.float32), ((), (2,))):
        test = example(runs=[(3, 3), (1, 1), (5, 2)], lead=lead,
                       n_heads=2, head_widths=(4, 3), dtype=dtype, seed=15)(test)
    return test


class TestPacking:
    """The packed batch forward against per-sequence runs and the padded
    full-length computation it replaces."""

    @pytest.fixture
    def mixed(self, small_config, vocab):
        cls_only = TokenSeq(ids=(2,), max_len=8)
        texts = ["a b c", "d", "a b c d e f", "b c d e f a b c d e", "", "c c"]
        return [cls_only] + [encode(t, vocab, small_config.max_len) for t in texts]

    def test_fused_attention_gradients(self):
        layouts = [
            [1, 3, 8],  # a length-1 and a full-length sequence
            [3, 3, 3, 1, 5, 5],  # runs of equal lengths beside a singleton
            [2, 2, 4, 3, 3],  # a lone sequence between two runs
        ]
        for kv_lengths in layouts:
            rng = np.random.default_rng(sum(kv_lengths))
            q = rng.uniform(-1, 1, size=(sum(kv_lengths), 4))
            k = rng.uniform(-1, 1, size=(sum(kv_lengths), 4))
            v = rng.uniform(-1, 1, size=(sum(kv_lengths), 6))
            w = Tensor(rng.uniform(-1, 1, size=(sum(kv_lengths), 6)))

            def loss(qq, kk, vv):
                return sum_all(mul(segment_attention(qq, kk, vv, kv_lengths, 2), w))

            assert grad_check(lambda x: loss(x, Tensor(k), Tensor(v)), Tensor(q)) < 1e-4
            assert grad_check(lambda x: loss(Tensor(q), x, Tensor(v)), Tensor(k)) < 1e-4
            assert grad_check(lambda x: loss(Tensor(q), Tensor(k), x), Tensor(v)) < 1e-4

    @settings(max_examples=80, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 4)), min_size=1, max_size=6),
        lead=st.sampled_from([(), (2,)]),
        n_heads=st.integers(1, 3),
        head_widths=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**16),
    )
    @every_fixed_layout_case
    def test_sequence_alone_equals_its_rows_in_a_run(
        self, runs, lead, n_heads, head_widths, dtype, seed
    ):
        # bit for bit, on layouts of runs (each drawn length `count` times
        # in a row, so runs of several sequences sit beside lone ones): a
        # run lays its scores out keys outermost, which for a lone sequence
        # is the memory of its key-major block, and every query's softmax
        # takes the same values in the same order; so do the float64
        # gradients
        lengths = [length for length, count in runs for _ in range(count)]
        qk_width, v_width = (n_heads * w for w in head_widths)
        rng = np.random.default_rng(seed)
        q = rng.normal(size=lead + (sum(lengths), qk_width)).astype(dtype)
        k = rng.normal(size=lead + (sum(lengths), qk_width)).astype(dtype)
        v = rng.normal(size=lead + (sum(lengths), v_width)).astype(dtype)
        g_out = rng.normal(size=lead + (sum(lengths), v_width))
        packed = segment_attention(*map(Tensor, (q, k, v)), lengths, n_heads).data
        assert packed.dtype == dtype
        if dtype == np.float64:
            packed_grads = attention_and_grads(q, k, v, lengths, n_heads, g_out)[1:]
        for n, end in zip(lengths, np.cumsum(lengths)):
            r = slice(end - n, end)
            rows = (q[..., r, :], k[..., r, :], v[..., r, :])
            alone = segment_attention(*map(Tensor, rows), [n], n_heads).data
            assert np.array_equal(packed[..., r, :], alone)
            if dtype == np.float64:
                grads = attention_and_grads(*rows, [n], n_heads, g_out[..., r, :])[1:]
                for got, want in zip(packed_grads, grads):
                    assert np.array_equal(got[..., r, :], want)

    def test_softmax_stable_at_extreme_scores(self):
        # integer q and k and a scale of 1/2 keep every score exact. In each
        # head, query i of a sequence is (a_i, b, noise) and key j is
        # (1, j, noise), so its scores sit near a_i / 2: up to +-1e4, each
        # query's maximum over 1,000 from every other's. A max shift over
        # any axis but the keys' underflows or overflows.
        rng = np.random.default_rng(21)
        q_lengths = kv_lengths = [4, 4, 3]
        rows, n_heads = sum(q_lengths), 2
        q = rng.integers(-3, 4, size=(rows, 8)).astype(float)
        k = rng.integers(-3, 4, size=(rows, 8)).astype(float)
        at = np.concatenate([np.arange(n) for n in q_lengths])
        for j, sign in ((0, 1.0), (4, -1.0)):
            q[:, j] = sign * np.array([-21000.0, 6000.0, 21000.0, -7000.0])[at]
            k[:, j], k[:, j + 1] = 1.0, at
        v, g_out = rng.normal(size=(rows, 6)), rng.normal(size=(rows, 6))
        for start, n in ((0, 4), (4, 4), (8, 3)):
            for c in (slice(0, 4), slice(4, 8)):
                scores = q[start : start + n, c] @ k[start : start + n, c].T / 2
                assert np.abs(scores).max() >= 1e4
                assert np.diff(np.sort(scores.max(axis=1))).min() > 1000
        got = attention_and_grads(q, k, v, kv_lengths, n_heads, g_out)
        want = row_major_reference(q, k, v, q_lengths, kv_lengths, n_heads, g_out)
        assert_close_to_reference(got, want)

    @pytest.mark.parametrize("width", [8, 16])
    def test_benchmark_shaped_layouts_match_reference(self, width):
        # a run of 64 full-length sequences beside singletons of other
        # lengths, as a length-ordered batch of the benchmark meets them
        lengths = [1, 5] + [64] * 64 + [7]
        n_heads = 4
        rng = np.random.default_rng(width + len(lengths))
        q, k, v, g_out = (rng.normal(size=(sum(lengths), n_heads * width)) for _ in range(4))
        got = attention_and_grads(q, k, v, lengths, n_heads, g_out)
        want = row_major_reference(q, k, v, lengths, lengths, n_heads, g_out)
        assert_close_to_reference(got, want)

    def test_fused_attention_is_one_tape_record(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5, 4)), requires_grad=True)
        with GradTape() as tape:
            segment_attention(x, x, x, [2, 3], 2)
        assert len(tape) == 1

    def test_encoder_gradients_through_mixed_lengths(self):
        cfg = EncoderConfig(vocab_size=12, d_model=4, n_heads=2, n_layers=2, d_ffn=8, max_len=6, dropout_p=0.0)
        rng = np.random.default_rng(56)
        params = {
            name: Tensor(rng.uniform(-0.5, 0.5, size=shape), requires_grad=True)
            for name, shape in param_shapes(cfg, {"sentiment": 5}).items()
        }
        from mtlc.text import TokenSeq

        seqs = [
            TokenSeq(ids=(2,), max_len=6),
            TokenSeq(ids=(2, 4, 5, 6, 7, 3), max_len=6),
            TokenSeq(ids=(2, 9, 3), max_len=6),
        ]
        weights = Tensor(np.arange(15.0).reshape(3, 5) / 10.0)

        def loss_with(name, x):
            trial = dict(params)
            trial[name] = x
            pooled = encoder_forward(pack(seqs, cfg), trial, cfg)
            logits = classify(pooled, head_view(trial, "sentiment"))
            return sum_all(mul(logits, weights))

        for name in ("layer0.wq", "layer0.wk", "layer1.wv", "layer1.wo", "layer1.ffn_w2", "pos_emb"):
            probe = Tensor(params[name].data.copy())
            assert grad_check(lambda x: loss_with(name, x), probe, h=1e-5) < 1e-4, name

    def test_same_logits_alone_and_in_any_batch(self, small_config, params, mixed):
        head = head_view(params, "sentiment")

        def logits(seqs):
            return classify(encoder_forward(pack(seqs, small_config), params, small_config), head).data

        alone = [logits([s])[0] for s in mixed]
        rng = np.random.default_rng(3)
        for _ in range(5):
            order = rng.permutation(len(mixed))
            batch = logits([mixed[i] for i in order])
            for row, i in enumerate(order):
                assert np.abs(batch[row] - alone[i]).max() <= 1e-12

    def test_matches_padded_full_length_reference(self, small_config, heads, mixed):
        rng = np.random.default_rng(9)
        params = {
            name: Tensor(rng.uniform(-0.5, 0.5, size=shape))
            for name, shape in param_shapes(small_config, heads).items()
        }
        got = encoder_forward(pack(mixed, small_config), params, small_config).data
        assert np.abs(got - padded_reference(mixed, params, small_config)).max() <= 1e-12

    @pytest.mark.parametrize(
        "ids, max_len",
        [
            ((2, 4, 3), 6),  # encoded for another max_len
            ((), 8),  # no [CLS]
            ((2,) + (4,) * 7 + (3,), 8),  # more ids than positions
        ],
        ids=["foreign max_len", "empty", "too many ids"],
    )
    def test_pack_rejects(self, small_config, ids, max_len):
        good = TokenSeq(ids=(2, 3), max_len=small_config.max_len)
        with pytest.raises(ContractError):
            pack([good, TokenSeq(ids=ids, max_len=max_len)], small_config)

    def test_empty_batch_rejected(self, small_config):
        with pytest.raises(ContractError):
            pack([], small_config)

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="ab c.", max_size=14), min_size=1, max_size=6),
        corpus=st.lists(st.text(alphabet="abc .", min_size=1, max_size=10), min_size=1, max_size=4),
        mode=st.sampled_from(["char", "word"]),
        max_len=st.integers(min_value=3, max_value=12),
    )
    def test_pack_equals_the_padded_derivation(self, texts, corpus, mode, max_len):
        """`pack` of encoded comments against the arrays derived from their
        PAD-filled ids and 0/1 masks, value for value."""
        vocab = build_vocab(corpus, mode=mode, min_freq=1, max_size=100)
        seqs = [encode(text, vocab, max_len) for text in texts]
        for seq in seqs:
            assert len(seq.mask) == max_len and sum(seq.mask) == len(seq.ids)
        valid = np.array([seq.mask for seq in seqs]) > 0
        padded = np.array([seq.ids + (PAD,) * (max_len - len(seq.ids)) for seq in seqs])
        lengths = valid.sum(axis=1).tolist()
        got = pack(seqs, EncoderConfig(vocab_size=len(vocab), max_len=max_len))
        assert np.array_equal(got.ids, padded[valid])
        assert np.array_equal(got.positions, np.nonzero(valid)[1])
        assert got.lengths == lengths
        assert np.array_equal(got.cls_rows, np.cumsum([0] + lengths[:-1]))


class TestClsAttention:
    """`cls_attention`: each sequence's [CLS] query over the sequence's rows,
    with W_K folded into the query and W_V applied to the weighted sum."""

    # a lone [CLS] (length 1), a run of equal lengths and a max_len segment
    LENGTHS = [1, 3, 3, 3, 8, 5, 1]

    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    def test_matches_the_explicit_projection_form(self, n_heads):
        # float64 at d_model 8, so 8 heads are one column each; forward and
        # all four gradients, for one encoder and for a [2, ...] stack
        rng = np.random.default_rng(40 + n_heads)
        n_seqs, n_rows, d = len(self.LENGTHS), sum(self.LENGTHS), 8
        for lead in ((), (2,)):
            q, g_out = rng.normal(size=lead + (n_seqs, d)), rng.normal(size=lead + (n_seqs, d))
            h = rng.normal(size=lead + (n_rows, d))
            wk, wv = rng.normal(size=lead + (d, d)), rng.normal(size=lead + (d, d))
            got = cls_attention_and_grads(q, h, wk, wv, self.LENGTHS, n_heads, g_out)
            for tower in np.ndindex(lead):
                operands = (q[tower], h[tower], wk[tower], wv[tower])
                want = cls_reference(*operands, self.LENGTHS, n_heads, g_out[tower])
                for name, a, b in zip(("output", "q", "h", "W_K", "W_V"), got, want):
                    assert np.abs(a[tower] - b).max() <= 1e-12 * np.abs(b).max(), (name, lead)

    def test_gradients_pass_central_differences(self):
        for lengths in ([1, 3, 8], [3, 3, 3, 1, 5, 5]):
            rng = np.random.default_rng(sum(lengths))
            shapes = ((len(lengths), 4), (sum(lengths), 4), (4, 4), (4, 6))
            arrays = [rng.uniform(-1, 1, size=shape) for shape in shapes]
            w = Tensor(rng.uniform(-1, 1, size=(len(lengths), 6)))
            for j in range(4):

                def loss(x, j=j):
                    args = [x if i == j else Tensor(a) for i, a in enumerate(arrays)]
                    return sum_all(mul(cls_attention(*args, lengths, 2), w))

                assert grad_check(loss, Tensor(arrays[j])) < 1e-4, (lengths, j)

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_each_sequence_alone_matches_the_batch(self, dtype, rel):
        # to rounding, not bit for bit: the fold and the W_V product are one
        # GEMM over every sequence, whose rows may round with the batch size
        rng = np.random.default_rng(44)
        lengths, d = self.LENGTHS, 8
        q = rng.normal(size=(2, len(lengths), d)).astype(dtype)
        h = rng.normal(size=(2, sum(lengths), d)).astype(dtype)
        wk, wv = (rng.normal(size=(2, d, d)).astype(dtype) for _ in range(2))
        batch = cls_attention(Tensor(q), Tensor(h), Tensor(wk), Tensor(wv), lengths, 2).data
        assert batch.dtype == dtype
        for i, (n, end) in enumerate(zip(lengths, np.cumsum(lengths))):
            rows = Tensor(h[:, end - n : end])
            alone = cls_attention(Tensor(q[:, i : i + 1]), rows, Tensor(wk), Tensor(wv), [n], 2).data
            assert np.abs(alone[:, 0] - batch[:, i]).max() <= rel * np.abs(batch).max()

    def test_is_one_tape_record(self):
        rng = np.random.default_rng(45)
        q, h, w = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((2, 4), (5, 4), (4, 4)))
        with GradTape() as tape:
            assert cls_attention(q, h, w, w, [2, 3], 2).shape == (2, 4)
        assert len(tape) == 1

    @pytest.mark.parametrize(
        "shapes, lengths, n_heads, message",
        [
            (((2, 4), (7, 4), (2, 4, 4), (4, 6)), [3, 4], 2, "2-D operands, or 3-D ones with one tower count"),
            (((2, 2, 4), (3, 7, 4), (2, 4, 4), (2, 4, 6)), [3, 4], 2, "one tower count"),
            (((2, 4), (7, 4), (4, 6), (4, 6)), [3, 4], 2, r"W_K of shape \(4, 4\)"),
            (((2, 4), (7, 4), (4, 4), (5, 6)), [3, 4], 2, "W_V of 4 rows"),
            (((2, 4), (7, 4), (4, 4), (4, 6)), [3, 4], 3, "widths 4/6 do not split into 3 heads"),
            (((2, 4), (7, 4), (4, 4), (4, 6)), [0, 7], 2, r"segment lengths \[0, 7\] must be positive"),
            (((2, 4), (7, 4), (4, 4), (4, 6)), [3, 3], 2, "cover the 7 h rows"),
            (((3, 4), (7, 4), (4, 4), (4, 6)), [3, 4], 2, r"q has 3 rows; \[CLS\] attention needs one per sequence \(2\)"),
        ],
        ids=["tower axis", "tower counts", "W_K shape", "W_V rows", "heads", "zero length", "uncovered rows", "q rows"],
    )
    def test_shape_errors(self, shapes, lengths, n_heads, message):
        with pytest.raises(ShapeError, match=message):
            cls_attention(*(Tensor(np.ones(shape)) for shape in shapes), lengths, n_heads)


class TestInferenceReference:
    """`predict_logits` against `plain_inference`, bit for bit: one tower
    (hard sharing) and two (soft sharing), every comment length from [CLS]
    alone to max_len, each comment alone and all in one mixed batch, in
    float64 and, as a checkpoint-loaded model runs, in float32."""

    @pytest.fixture(params=["hard_share", "soft_share"])
    def model(self, request):
        tasks = ("sentiment", "offense")
        regime = RegimeConfig(
            tasks=tasks,
            losses={t: LossConfig() for t in tasks},
            soft=SoftShareConfig(coupled_layer_names=()) if request.param == "soft_share" else None,
        )
        cfg = EncoderConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ffn=16, max_len=8)
        model = build_model(regime, cfg, {"sentiment": 5, "offense": 6}, seed=7)
        rng = np.random.default_rng(7)
        for name, t in model.params.items():  # unit-scale activations, not init's 0.02
            t.data[...] = rng.normal(size=t.shape) / np.sqrt(1 if "emb" in name else t.shape[0])
        return model

    @pytest.fixture
    def seqs(self, model):
        rng = np.random.default_rng(8)
        max_len = model.encoder_cfg.max_len
        inner = [tuple(rng.integers(4, 12, size=n - 2).tolist()) for n in range(2, max_len + 1)]
        return [TokenSeq((2,), max_len)] + [TokenSeq((2, *t, 3), max_len) for t in inner]

    def assert_same_bits(self, model, seqs):
        got, want = predict_logits(model, seqs), plain_inference(model, seqs)
        assert list(got) == list(want) == list(model.regime.tasks)
        for task in want:
            assert np.array_equal(got[task].data, want[task]), task

    def test_each_length_alone(self, model, seqs):
        assert [len(seq.ids) for seq in seqs] == list(range(1, model.encoder_cfg.max_len + 1))
        for seq in seqs:
            self.assert_same_bits(model, [seq])

    def test_mixed_batch(self, model, seqs):
        # shuffled, with repeats, so runs of equal lengths sit beside single comments
        order = np.random.default_rng(9).permutation(2 * len(seqs)) % len(seqs)
        self.assert_same_bits(model, [seqs[i] for i in order] + seqs[3:6] + seqs[4:5])

    def test_float32_model(self, model, seqs):
        # the float32 model `cli._model_from_checkpoint` makes of a checkpoint
        params = {name: Tensor(t.data.astype(np.float32)) for name, t in model.params.items()}
        model = Model(regime=model.regime, encoder_cfg=model.encoder_cfg, params=params)
        order = np.random.default_rng(9).permutation(2 * len(seqs)) % len(seqs)
        for batch in [[seq] for seq in seqs] + [[seqs[i] for i in order]]:
            logits = predict_logits(model, batch).values()
            assert all(t.data.dtype == np.float32 for t in logits)
            self.assert_same_bits(model, batch)
