"""Core tensor ops and the reverse-mode tape."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mtlc.errors import ContractError, ShapeError
from mtlc.numcore import (
    GradTape,
    Tensor,
    add,
    affine,
    backward,
    cls_attention,
    dropout,
    gather_rows,
    layer_norm_rows,
    log_sum_exp,
    matmul,
    mul,
    relu,
    scale,
    segment_attention,
    stream,
    sum_all,
    tanh,
)

from gradcheck import grad_check


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(matmul(eye, a).data, a.data)

    def test_hand_product(self):
        c = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert c.data.tolist() == [[17.0], [39.0]]

    def test_gradient_of_sum_is_ones_bt(self):
        b = np.random.default_rng(0).normal(size=(3, 2))
        a = Tensor(np.random.default_rng(1).normal(size=(2, 3)), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(matmul(a, Tensor(b)))
        backward(tape, loss)
        assert np.allclose(a.grad, np.ones((2, 2)) @ b.T)
        err = grad_check(lambda x: sum_all(matmul(x, Tensor(b))), Tensor(a.data))
        assert err < 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestRelu:
    def test_definition(self):
        assert relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]

    def test_idempotent(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        assert np.array_equal(relu(relu(Tensor(x))).data, relu(Tensor(x)).data)

    def test_gradient_is_indicator(self):
        x = Tensor(np.array([-1.5, -0.2, 0.3, 2.0]), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(relu(x))
        backward(tape, loss)
        assert x.grad.tolist() == [0.0, 0.0, 1.0, 1.0]
        err = grad_check(lambda t: sum_all(relu(t)), Tensor(x.data))
        assert err < 1e-8

    def test_subgradient_at_zero_is_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(relu(x))
        backward(tape, loss)
        assert x.grad.tolist() == [0.0]


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        assert np.allclose(x.grad, 2 * x.data)

    def test_non_scalar_seed_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = mul(x, x)
        with pytest.raises(ContractError, match="scalar"):
            backward(tape, y)

    def test_off_tape_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            _ = mul(x, x)
        with pytest.raises(ContractError):
            backward(tape, Tensor(1.0))

    def test_off_path_leaves_keep_their_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        held = Tensor(np.ones(2), requires_grad=True)
        held.grad = np.full(2, 0.5)
        with GradTape() as tape:
            _ = sum_all(add(unused, held))  # on the tape, off the loss path
            loss = sum_all(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones(3))
        assert unused.grad is None
        assert held.grad.tolist() == [0.5, 0.5]

    def test_shared_input_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(add(mul(x, x), x))  # x^2 + x
        backward(tape, loss)
        assert np.allclose(x.grad, [5.0])

    def test_diamond_graph(self):
        # y = (2x) + (3x): each tape record contributes exactly once
        x = Tensor(np.array([1.0]), requires_grad=True)
        with GradTape() as tape:
            a = mul(x, Tensor(2.0))
            b = mul(x, Tensor(3.0))
            loss = sum_all(add(a, b))
        backward(tape, loss)
        assert x.grad.tolist() == [5.0]

    def test_grad_accumulates_across_passes(self):
        x = Tensor(np.ones(2), requires_grad=True)
        for _ in range(2):
            with GradTape() as tape:
                loss = sum_all(x)
            backward(tape, loss)
        assert np.array_equal(x.grad, 2 * np.ones(2))

    def test_nested_tapes_record_on_the_innermost(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with GradTape() as outer:
            _ = mul(x, x)
            with GradTape() as inner:
                _ = mul(x, x)
            assert (len(outer), len(inner)) == (1, 1)
            _ = sum_all(x)  # the inner tape has exited: back on the outer one
        assert (len(outer), len(inner)) == (2, 1)

    def test_composite_graph_matches_finite_differences(self):
        def f(x):
            h = tanh(matmul(x, Tensor(np.random.default_rng(5).normal(size=(4, 3)))))
            return sum_all(log_sum_exp(sum_all_rows(h)))

        def sum_all_rows(t):
            ones = Tensor(np.ones((1, t.shape[0])))
            return matmul(ones, t)

        x = Tensor(np.random.default_rng(6).uniform(-2, 2, size=(2, 4)))
        assert grad_check(f, x, h=1e-5) < 1e-4


class TestInPlaceAccumulation:
    """backward sums an adjoint's contributions out of place, in the order
    it meets them, and never writes into an array a closure returned; each
    gradient equals the left-to-right sum of its contributions, bit for
    bit."""

    def test_add_of_a_tensor_with_itself(self):
        # add returns its output's adjoint for both inputs: add(s, x) gives
        # s and x one array, and add(x, x) gives x it twice
        rng = np.random.default_rng(7)
        w, w2 = rng.normal(size=(2, 3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with GradTape() as tape:
            s = add(x, x)
            m = mul(x, Tensor(w2))
            t = add(s, x)
            loss = sum_all(add(mul(t, Tensor(w)), m))
        backward(tape, loss)
        g = np.ones((3, 4))
        # in the order backward meets them: add(s, x), mul(x, w2), add(x, x) twice
        assert np.array_equal(x.grad, ((g * w + g * w2) + g * w) + g * w)

    def test_three_matmuls_on_one_layer_norm_output(self):
        rng = np.random.default_rng(8)
        ws = [rng.normal(size=(4, 3)) for _ in range(3)]
        cs = [rng.normal(size=(5, 3)) for _ in range(3)]
        x0, gain, bias = rng.normal(size=(5, 4)), rng.normal(size=4), rng.normal(size=4)

        def leaves():
            return [Tensor(a, requires_grad=True) for a in (x0, gain, bias)]

        x, gn, bs = leaves()
        with GradTape() as tape:
            h = layer_norm_rows(x, gn, bs)
            q, k, v = (mul(matmul(h, Tensor(w)), Tensor(c)) for w, c in zip(ws, cs))
            loss = sum_all(add(add(q, k), v))
        backward(tape, loss)
        # the adjoint of h, summed out of place in backward's order: v, k, q
        gq, gk, gv = (np.ones((5, 3)) * c for c in cs)
        gh = (gv @ ws[2].T + gk @ ws[1].T) + gq @ ws[0].T
        ref = leaves()
        with GradTape() as tape:
            loss = sum_all(mul(layer_norm_rows(*ref), Tensor(gh)))
        backward(tape, loss)
        for got, want in zip((x, gn, bs), ref):
            assert np.array_equal(got.grad, want.grad)

    def test_zero_d_tensor_with_three_consumers(self):
        # a 0-d sum is a numpy scalar, not an array
        x = Tensor(1.5, requires_grad=True)
        c1, c2, c3 = 0.1, 0.2, 0.7
        with GradTape() as tape:
            a, b, c = (mul(x, Tensor(ci)) for ci in (c1, c2, c3))
            loss = add(add(a, b), c)
        backward(tape, loss)
        assert np.array_equal(x.grad, (c3 + c2) + c1)


class TestLeanTape:
    """A record keeps only what its backward reads, and backward releases it."""

    def test_outputs_no_backward_reads_are_freed_while_the_tape_lives(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(3, 3)), requires_grad=True)
        with GradTape() as tape:
            summed = add(x, x)
            dropped = dropout(x, 0.5, stream(0, "d"))
            pre = matmul(x, w)
            y = relu(pre)
            dead = [weakref.ref(t.data) for t in (summed, dropped, pre)]
            del summed, dropped, pre
            assert [r() for r in dead] == [None, None, None]
            loss = sum_all(y)
        backward(tape, loss)
        assert np.array_equal(x.grad, (y.data > 0) @ w.data.T)

    def test_backward_releases_what_the_records_held(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with GradTape() as tape:
            h = scale(x, 2.0)
            loss = sum_all(matmul(h, w))
        held = weakref.ref(h.data)
        del h
        assert held() is not None  # matmul's backward reads its operand
        backward(tape, loss)
        assert held() is None
        assert np.array_equal(w.grad, np.full((3, 2), 4.0))

    def test_attention_keeps_only_the_scaled_q(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with GradTape() as tape:
            q = matmul(x, w)
            out = segment_attention(q, x, x, [2, 3], 2)
            loss = sum_all(out)
        held = weakref.ref(q.data)
        del q
        assert held() is None
        backward(tape, loss)
        assert w.grad.shape == (4, 4)

    def test_length_survives_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(mul(x, x))
        assert len(tape) == 2
        backward(tape, loss)
        assert len(tape) == 2

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        with pytest.raises(ContractError, match="already consumed"):
            backward(tape, loss)
        assert np.array_equal(x.grad, 2 * np.ones(3))


class TestWrapping:
    """A native float32 or float64 ndarray is held as the very object given,
    which `mtl.Model`'s tower Tensors rely on to view their stacks; any
    other input is held as a native float64 array."""

    @pytest.mark.parametrize(
        "data, dtype, held",
        [
            (np.ones((2, 3), np.float32), np.float32, True),
            (np.ones((2, 3)), np.float64, True),
            (np.ones((2, 4))[:, ::2], np.float64, True),
            (np.array(1.5, np.float32), np.float32, True),
            (np.ones(3, ">f4"), np.float64, False),
            (np.ones(3, ">f8"), np.float64, False),
            (np.arange(3), np.float64, False),
            (np.array([True, False]), np.float64, False),
            ([1, 2.5], np.float64, False),
            (2, np.float64, False),
            (2.5, np.float64, False),
            (np.float64(2.5), np.float64, False),  # what an array's sum() returns
            (np.array(3), np.float64, False),
        ],
        ids=[
            "float32", "float64", "float64 view", "0-d float32", ">f4", ">f8", "int",
            "bool", "list", "int scalar", "float scalar", "numpy scalar", "0-d int",
        ],
    )
    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_holds_native_floats_as_given_and_the_rest_as_float64(self, data, dtype, held, requires_grad):
        t = Tensor(data, requires_grad=requires_grad)
        assert (t.data is data) == held
        assert type(t.data) is np.ndarray and t.data.dtype == dtype and t.data.dtype.isnative
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))
        assert t.requires_grad == requires_grad and (t._key is None) != requires_grad
        assert t.grad is None


class TestTapeKeys:
    """A tensor takes gradients exactly when it holds a tape key: a leaf
    takes its key when made, an op output when a tape records it."""

    def test_a_leaf_holds_its_key_before_any_tape_records_it(self):
        x = Tensor(np.ones(3), requires_grad=True)
        frozen = Tensor(np.ones(3))
        assert x._key is not None and x.requires_grad
        assert frozen._key is None and not frozen.requires_grad
        key = x._key
        with GradTape() as tape:
            y = mul(x, frozen)
        assert x._key == key  # recording keeps the leaf's key
        assert y._key is not None and y.requires_grad
        assert tape._records[0][:2] == (y._key, (key, None))

    def test_an_op_output_off_a_tape_holds_no_key(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = matmul(x, x)
        assert y._key is None and not y.requires_grad
        with GradTape():
            z = mul(Tensor(np.ones(2)), Tensor(np.ones(2)))  # no input takes gradients
        assert z._key is None

    def test_requires_grad_is_read_only(self):
        x = Tensor(np.ones(2))
        with pytest.raises(AttributeError):
            x.requires_grad = True
        assert x._key is None

    def test_repr_shows_shape_and_requires_grad(self):
        leaf = Tensor(np.ones((2, 3)), requires_grad=True)
        assert repr(leaf) == "Tensor(shape=(2, 3), requires_grad=True)"
        assert repr(Tensor(np.ones(4))) == "Tensor(shape=(4,), requires_grad=False)"

    def test_evaluating_a_checkpoint_loaded_model_gives_no_parameter_a_key(self, tmp_path):
        from mtlc import cli, mtl
        from mtlc.data import load_joint_tsv, schemas_for_language
        from mtlc.toy import materialize

        materialize(str(tmp_path))
        text = (tmp_path / "toy.cfg").read_text(encoding="utf-8")
        (tmp_path / "fast.cfg").write_text(text.replace("train.epochs = 30", "train.epochs = 1"))
        assert cli.main(["train", "--config", str(tmp_path / "fast.cfg")]) == 0
        run = tmp_path / "run_toy"
        model, cfg, vocab = cli._model_from_checkpoint(
            str(run / "checkpoint.mtlc"), str(run / "vocab.txt")
        )
        schemas = schemas_for_language(cfg.language)
        mtl.evaluate(model, load_joint_tsv(str(tmp_path / "test.tsv"), schemas, cfg.language), vocab)
        tensors = {**model.params, **model.stacks}
        assert tensors and all(t._key is None for t in tensors.values())


class TestShapingOps:
    def test_gather_rows_repeats_accumulate(self):
        x = Tensor(np.eye(3), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(gather_rows(x, [1, 1, 0]))
        backward(tape, loss)
        assert x.grad[1].tolist() == [2.0, 2.0, 2.0]
        assert x.grad[0].tolist() == [1.0, 1.0, 1.0]
        assert x.grad[2].tolist() == [0.0, 0.0, 0.0]

    def test_gather_rows_gradient_matches_add_at(self):
        rng = np.random.default_rng(12)
        for ids in ([4, 1, 4, 0, 1, 4, 99, 0], [7, 3, 5], [2] * 6, []):
            x = Tensor(rng.normal(size=(100, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(len(ids), 3)))
            with GradTape() as tape:
                loss = sum_all(mul(gather_rows(x, ids), w))
            backward(tape, loss)
            reference = np.zeros(x.shape)
            np.add.at(reference, np.asarray(ids, dtype=np.int64), w.data)
            assert np.abs(x.grad - reference).max() < 1e-12, ids

    def test_gather_rows_range_check(self):
        with pytest.raises(ContractError):
            gather_rows(Tensor(np.eye(2)), [0, 2])

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)], ids=["2-D", "3-D towers"])
    @pytest.mark.parametrize("bad", [-1, 4], ids=["id -1", "id n"])
    def test_gather_rows_rejects_ids_outside_the_rows(self, shape, bad):
        # numpy would wrap -1 to the last row; the op names the valid range,
        # for ids as a list, as the int64 array `encoder.pack` makes (which
        # the op takes without converting) and as an int32 array
        x = Tensor(np.arange(np.prod(shape), dtype=float).reshape(shape))
        ids = [0, bad, 1]
        for given in (ids, np.array(ids, np.int64), np.array(ids, np.int32)):
            with pytest.raises(ContractError, match=r"row id out of range 0\.\.3"):
                gather_rows(x, given)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)], ids=["2-D", "3-D towers"])
    def test_gather_rows_of_no_ids(self, shape):
        x = Tensor(np.ones(shape), requires_grad=True)
        with GradTape() as tape:
            rows = gather_rows(x, [])
            loss = sum_all(rows)
        assert rows.shape == shape[:-2] + (0, 3)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.zeros(shape))


class TestLayerNorm:
    def test_zero_rows_stay_zero(self):
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        y = layer_norm_rows(Tensor(np.zeros((2, 4))), g, b)
        assert np.array_equal(y.data, np.zeros((2, 4)))

    def test_normalizes_rows(self):
        x = Tensor(np.random.default_rng(0).normal(2.0, 5.0, size=(3, 64)))
        y = layer_norm_rows(x, Tensor(np.ones(64)), Tensor(np.zeros(64)))
        assert np.abs(y.data.mean(axis=1)).max() < 1e-12
        assert np.abs(y.data.std(axis=1) - 1.0).max() < 1e-3

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 5, 4)])
    def test_takes_rows_or_towers_of_rows(self, shape):
        gain = Tensor(np.ones(shape[:-2] + (4,)))
        with pytest.raises(ShapeError, match="layer_norm_rows needs 2-D operands"):
            layer_norm_rows(Tensor(np.ones(shape)), gain, gain)

    def test_gradients_all_inputs(self):
        rng = np.random.default_rng(9)
        xv, gv, bv = rng.normal(size=(3, 4)), rng.uniform(0.5, 2, 4), rng.normal(size=4)
        w = Tensor(np.arange(12.0).reshape(3, 4))
        assert grad_check(lambda x: sum_all(mul(layer_norm_rows(x, Tensor(gv), Tensor(bv)), w)), Tensor(xv)) < 1e-6
        assert grad_check(lambda g: sum_all(mul(layer_norm_rows(Tensor(xv), g, Tensor(bv)), w)), Tensor(gv)) < 1e-6
        assert grad_check(lambda b: sum_all(mul(layer_norm_rows(Tensor(xv), Tensor(gv), b), w)), Tensor(bv)) < 1e-6


    def test_matches_plain_numpy_reference(self):
        rng = np.random.default_rng(10)
        for rows in (1, 1000):
            xv, gv, bv = rng.normal(1.0, 3.0, size=(rows, 64)), *rng.normal(size=(2, 64))
            mu = xv.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(((xv - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
            xhat = (xv - mu) * inv
            x = Tensor(xv, requires_grad=True)
            with GradTape() as tape:
                y = layer_norm_rows(x, Tensor(gv), Tensor(bv))
                loss = sum_all(mul(y, Tensor(np.arange(64.0) / 64)))
            backward(tape, loss)
            assert np.abs(y.data - (xhat * gv + bv)).max() < 1e-12, rows
            dxhat = np.tile(np.arange(64.0) / 64 * gv, (rows, 1))
            dx = inv * (
                dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            )
            assert np.abs(x.grad - dx).max() < 1e-12, rows


class TestAffine:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(13)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        assert np.array_equal(affine(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)

    def test_gradients_all_inputs(self):
        rng = np.random.default_rng(14)
        xv, wv, bv = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        c = Tensor(rng.normal(size=(5, 4)))

        def loss(x, w, b):
            return sum_all(mul(affine(x, w, b), c))

        assert grad_check(lambda x: loss(x, Tensor(wv), Tensor(bv)), Tensor(xv)) < 1e-6
        assert grad_check(lambda w: loss(Tensor(xv), w, Tensor(bv)), Tensor(wv)) < 1e-6
        assert grad_check(lambda b: loss(Tensor(xv), Tensor(wv), b), Tensor(bv)) < 1e-6

    def test_one_tape_record(self):
        x, w, b = (Tensor(np.ones(shape), requires_grad=True) for shape in ((2, 3), (3, 4), (4,)))
        with GradTape() as tape:
            affine(x, w, b)
        assert len(tape) == 1

    def test_shape_errors(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        for args in ((x, w, Tensor(np.ones(3))), (x, Tensor(np.ones((2, 4))), Tensor(np.ones(4))),
                     (Tensor(np.ones(3)), w, Tensor(np.ones(4)))):
            with pytest.raises(ShapeError):
                affine(*args)


class TestDropout:
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(0.4)
    def test_inference_is_bit_identical_identity(self, p):
        # without a stream, dropout returns x itself and records nothing
        x = Tensor(np.random.default_rng(0).normal(size=(5, 5)), requires_grad=True)
        with GradTape() as tape:
            assert dropout(x, p, None) is x
        assert len(tape) == 0

    def test_p_zero_is_identity(self):
        x = Tensor(np.ones(10))
        assert dropout(x, 0.0, stream(0, "d")) is x

    def test_p_one_rejected(self):
        for rng in (stream(0, "d"), None):
            with pytest.raises(ContractError):
                dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_law_of_large_numbers(self):
        x = Tensor(np.ones(1_000_000))
        out = dropout(x, 0.4, stream(7, "dropout-lln"))
        zero_fraction = float((out.data == 0.0).mean())
        assert abs(zero_fraction - 0.4) < 0.005
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_gradient_matches_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        with GradTape() as tape:
            out = dropout(x, 0.3, stream(3, "d"))
            loss = sum_all(out)
        backward(tape, loss)
        surviving = out.data != 0.0
        assert np.array_equal(x.grad[surviving], np.full(surviving.sum(), 1 / 0.7))
        assert np.array_equal(x.grad[~surviving], np.zeros((~surviving).sum()))


class TestFiniteness:
    def test_forward_ops_stay_finite(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-50, 50, size=(4, 4))
        for op in (
            lambda t: relu(t),
            lambda t: tanh(t),
            lambda t: layer_norm_rows(t, Tensor(np.ones(4)), Tensor(np.zeros(4))),
        ):
            out = op(Tensor(x))
            assert np.isfinite(out.data).all()

    def test_log_sum_exp_extreme(self):
        out = log_sum_exp(Tensor(np.array([[1e4, -1e4, 0.0]])))
        assert math.isfinite(out.item())
        assert abs(out.item() - 1e4) < 1e-9

    def test_log_sum_exp_takes_only_a_matrix(self):
        for shape in ((3,), (2, 2, 3), ()):
            with pytest.raises(ShapeError, match="2-D"):
                log_sum_exp(Tensor(np.zeros(shape)))


class TestTowerAxis:
    """matmul, affine, layer_norm_rows, gather_rows, segment_attention and
    cls_attention take an optional leading tower axis: each tower's slice is its 2-D call bit
    for bit, and the gradients pass central differences."""

    LENGTHS = [2, 2, 3]  # a run of two sequences and one of its own

    def _operands(self, seed):
        rng = np.random.default_rng(seed)
        n = sum(self.LENGTHS)
        return {
            "matmul": [rng.normal(size=(2, n, 4)), rng.normal(size=(2, 4, 3))],
            "affine": [rng.normal(size=(2, n, 4)), rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 3))],
            "layer_norm_rows": [rng.normal(size=(2, n, 4)), rng.uniform(0.5, 2, (2, 4)), rng.normal(size=(2, 4))],
            "gather_rows": [rng.normal(size=(2, 5, 4))],
            "segment_attention": [rng.normal(size=(2, n, 4)) for _ in range(3)],
            "cls_attention": [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, n, 4)), rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 6))],
        }

    def _op(self, case):
        return {
            "matmul": matmul,
            "affine": affine,
            "layer_norm_rows": layer_norm_rows,
            "gather_rows": lambda x: gather_rows(x, [1, 4, 1, 0]),
            "segment_attention": lambda q, k, v: segment_attention(q, k, v, self.LENGTHS, 2),
            "cls_attention": lambda q, h, wk, wv: cls_attention(q, h, wk, wv, self.LENGTHS, 2),
        }[case]

    def test_each_tower_is_its_own_call(self):
        for case, arrays in self._operands(0).items():
            op = self._op(case)
            stacked = op(*(Tensor(a) for a in arrays)).data
            for i in range(2):
                alone = op(*(Tensor(a[i]) for a in arrays)).data
                assert np.array_equal(stacked[i], alone), (case, i)

    def test_gradients_at_two_towers(self):
        for seed in range(3):
            for case, arrays in self._operands(seed).items():
                op = self._op(case)
                out_shape = op(*(Tensor(a) for a in arrays)).shape
                w = Tensor(np.random.default_rng(100 + seed).normal(size=out_shape))
                for j in range(len(arrays)):

                    def loss(x, j=j):
                        args = [x if i == j else Tensor(a) for i, a in enumerate(arrays)]
                        return sum_all(mul(op(*args), w))

                    assert grad_check(loss, Tensor(arrays[j])) < 1e-4, (case, j, seed)

    def test_tower_axes_that_disagree(self):
        two, three = np.ones((2, 5, 4)), np.ones((3, 4, 4))
        for call in (
            lambda: matmul(Tensor(two), Tensor(three)),
            lambda: matmul(Tensor(two), Tensor(np.ones((4, 4)))),
            lambda: affine(Tensor(two), Tensor(three), Tensor(np.ones((3, 4)))),
            lambda: affine(Tensor(two), Tensor(np.ones((2, 4, 4))), Tensor(np.ones(4))),
            lambda: affine(Tensor(two), Tensor(np.ones((2, 4, 4))), Tensor(np.ones((3, 4)))),
            lambda: layer_norm_rows(Tensor(two), Tensor(np.ones(4)), Tensor(np.ones(4))),
            lambda: layer_norm_rows(Tensor(two), Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4)))),
            lambda: gather_rows(Tensor(np.ones((2, 2, 5, 4))), [0]),
            lambda: segment_attention(Tensor(two), Tensor(np.ones((3, 5, 4))), Tensor(np.ones((3, 5, 4))), [5], 2),
            lambda: segment_attention(Tensor(two), Tensor(two), Tensor(np.ones((5, 4))), [5], 2),
            lambda: cls_attention(Tensor(np.ones((2, 1, 4))), Tensor(two), Tensor(three), Tensor(np.ones((2, 4, 4))), [5], 2),
            lambda: cls_attention(Tensor(np.ones((2, 1, 4))), Tensor(two), Tensor(np.ones((4, 4))), Tensor(np.ones((4, 4))), [5], 2),
        ):
            with pytest.raises(ShapeError):
                call()
