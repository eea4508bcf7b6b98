"""Dense tensors with taped reverse-mode automatic differentiation.

A `GradTape` is a Wengert list: ops executed while a tape is active append
one record each, and `backward` replays the records in reverse, which is a
reverse topological order by construction.

A tensor holds float64, or float32 when it is given a float32 array. Built
and trained models, tapes, optimizer steps and gradient checks are float64;
every prediction (an epoch's validation, a loaded checkpoint's) runs in the
float32 a checkpoint stores. A float32 forward stays float32: an op that
makes an array of its own (layer norm's 1/n vector, attention's output
buffer) makes it in its input's dtype.

A record names its output and inputs by key, not by object, and its
backward closure holds only the arrays that closure reads, so a forward
intermediate that no backward reads is freed as soon as the caller drops
it. `backward` consumes the tape: it releases each record once replayed.

The active tape is per context (`contextvars`): an op records onto the
innermost tape entered in its own thread, so a forward pass in one thread
never lands on a tape another thread is filling.
"""

from __future__ import annotations

import math
from contextvars import ContextVar, Token
from functools import lru_cache
from itertools import count, groupby
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ContractError, ShapeError

Array = np.ndarray

# tape keys, unique for the life of the process, so a record need not hold
# a tensor to keep its key from being reused. A key is set before any tape
# can see its tensor, so tapes in several threads never race to set one.
_KEYS = count()

_FLOAT32, _FLOAT64, _INT64 = np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.int64)

LAYER_NORM_EPS = 1e-5  # what `layer_norm_rows` adds to each row's variance


class Tensor:
    """A dense float64 or float32 array plus autodiff bookkeeping.

    A tensor takes gradients exactly when it holds a tape key: a leaf made
    with `requires_grad=True` takes one here, an op output when a tape
    records it, and a frozen tensor never. `grad` is populated (and
    accumulated) by `backward`. A parameter is named by its dict key alone.
    """

    __slots__ = ("data", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        # an op's output, a native float32 or float64 ndarray, is held as it is
        if type(data) is not np.ndarray or (data.dtype is not _FLOAT32 and data.dtype is not _FLOAT64):
            data = np.asarray(data)
            if data.dtype != _FLOAT32:
                data = data.astype(np.float64, copy=False)
        self.data = data
        self.grad: Optional[Array] = None
        self._key: Optional[int] = next(_KEYS) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._key is not None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of primitive ops, replayed in reverse for adjoints.

    `len(tape)` is the number of records the forward made, also after
    `backward` has consumed them.
    """

    def __init__(self):
        # each record: (output key, input keys, backward fn); an input that
        # takes no gradient has the key None
        self._records: list[tuple[int, tuple[Optional[int], ...], Callable]] = []
        self._count = 0
        self._replayed = False
        self._produced: set[int] = set()
        self._watched: dict[int, Tensor] = {}
        self._tokens: list[Token] = []

    def __enter__(self) -> "GradTape":
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.reset(self._tokens.pop())

    def _add(self, out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> None:
        keys = tuple(t._key for t in inputs)
        for k, t in zip(keys, inputs):
            if k is not None and k not in self._produced:
                self._watched.setdefault(k, t)
        k = out._key = next(_KEYS)
        self._records.append((k, keys, bwd))
        self._produced.add(k)
        self._count += 1

    def __len__(self) -> int:
        return self._count


# the innermost tape entered in the current context, or None
_ACTIVE: ContextVar[Optional[GradTape]] = ContextVar("mtlc_active_tape", default=None)


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    """Attach `out` to the active tape if any input participates in autodiff.
    `bwd` maps the output's adjoint to one adjoint per input; it should hold
    only the arrays it reads, since the tape keeps it until `backward`."""
    tape = _ACTIVE.get()
    if tape is not None and any(t._key is not None for t in inputs):
        tape._add(out, inputs, bwd)
    return out


def backward(tape: GradTape, loss: Tensor) -> None:
    """Accumulate gradients of `loss` into every watched leaf's `.grad`; a
    leaf the tape saw off the path from `loss` keeps its `.grad` as it was
    (`adamw_step` reads a `None` gradient as zeros).

    Consumes the tape: each record, and the forward state its closure
    holds, is released once replayed, and a second call raises."""
    if loss.shape != ():
        raise ContractError(f"backward seed must be scalar, got shape {loss.shape}")
    if tape._replayed:
        raise ContractError("backward already consumed this tape; record the forward again")
    if loss._key not in tape._produced:
        raise ContractError("loss was not produced by ops recorded on this tape")
    tape._replayed = True
    records = tape._records
    adjoint: dict[int, Array] = {loss._key: np.ones(())}
    while records:
        out, inputs, bwd = records.pop()
        g = adjoint.pop(out, None)
        if g is None:
            continue
        for k, gi in zip(inputs, bwd(g)):
            if gi is None or k is None:
                continue
            prev = adjoint.get(k)
            adjoint[k] = gi if prev is None else prev + gi
    for k, t in tape._watched.items():
        g = adjoint.get(k)
        if g is not None:
            t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Sum `g` back down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    return _record(
        out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))
    )


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient flows to `c`)."""
    c = float(c)
    out = Tensor(x.data * c)
    return _record(out, (x,), lambda g: (g * c,))


def pow_const(x: Tensor, p: float) -> Tensor:
    p = float(p)
    xd = x.data
    out = Tensor(xd**p)

    def bwd(g):
        # at x = 0 with p < 1 the slope is infinite, and 0 * inf is NaN:
        # a zero adjoint contributes zero there
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = xd ** (p - 1.0)
            return (np.where((g == 0.0) & np.isinf(slope), 0.0, g * p * slope),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0.

    The backward reads the output, not the input: y > 0 exactly where
    x > 0 (NaN included), so the pre-activation can be freed."""
    y = np.maximum(x.data, 0.0)
    return _record(Tensor(y), (x,), lambda g: (g * (y > 0.0),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)
    return _record(out, (x,), lambda g: (g * (1.0 - t * t),))


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    out = Tensor(e)
    return _record(out, (x,), lambda g: (g * e,))


# ---------------------------------------------------------------------------
# matrix / shape ops
# ---------------------------------------------------------------------------


def _tower_error(op: str, *operands: Tensor) -> ShapeError:
    """The error of an op whose matrix operands are not all 2-D, or not all
    3-D with one leading tower axis of the same length."""
    listed = " and ".join(str(t.shape) for t in operands)
    return ShapeError(f"{op} needs 2-D operands, or 3-D ones with one tower count, got {listed}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m,k] @ [k,n] -> [m,n], or per tower
    [T,m,k] @ [T,k,n] -> [T,m,n]."""
    ad, bd = a.data, b.data
    sa, sb = ad.shape, bd.shape
    if not 2 <= len(sa) == len(sb) <= 3 or sa[:-2] != sb[:-2]:
        raise _tower_error("matmul", a, b)
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {sa} vs {sb}")
    out = Tensor(ad @ bd)
    return _record(out, (a, b), lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D x, 2-D w and a 1-D bias b broadcast over the rows,
    or per tower for [T,n,k] x, [T,k,m] w and [T,m] b, as one tape record:
    the bias is added in place to the product."""
    xd, wd, bd = x.data, w.data, b.data
    sx, sw = xd.shape, wd.shape
    if not 2 <= len(sx) == len(sw) <= 3 or sx[:-2] != sw[:-2]:
        raise _tower_error("affine", x, w)
    if sx[-1] != sw[-2] or bd.shape != sw[:-2] + sw[-1:]:
        raise ShapeError(f"affine shapes disagree: x {sx}, w {sw}, b {bd.shape}")
    y = xd @ wd
    y += bd[..., None, :]
    return _record(
        Tensor(y),
        (x, w, b),
        lambda g: (g @ wd.swapaxes(-1, -2), xd.swapaxes(-1, -2) @ g, g.sum(axis=-2)),
    )


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(old),))


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    shape = x.shape
    return _record(out, (x,), lambda g: (np.full(shape, float(g)),))


def gather_rows(x: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows `ids` of a 2-D tensor, or of each tower of a 3-D one; repeated
    ids accumulate in the gradient."""
    xd = x.data
    shape = xd.shape
    if not 2 <= len(shape) <= 3:
        raise _tower_error("gather_rows", x)
    # an int64 array (what `encoder.pack` makes) is taken as it is
    idx = ids if type(ids) is np.ndarray and ids.dtype is _INT64 else np.asarray(ids, dtype=np.int64)
    try:  # `take` raises past the last row; it would wrap a negative id
        # (`argmin` finds the smallest id at under half of `min`'s per-call cost)
        if idx.size and idx.flat[idx.argmin()] < 0:
            raise IndexError
        rows = xd.take(idx, axis=-2)
    except IndexError:
        raise ContractError(f"row id out of range 0..{shape[-2] - 1}") from None

    def bwd(g):
        # sum the rows of each id in one pass: sort the ids, then reduce
        # each run of equal ids (reduceat cannot take an empty index list)
        gx = np.zeros(shape)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            ordered = idx[order]
            firsts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
            gx[..., ordered[firsts], :] = np.add.reduceat(g[..., order, :], firsts, axis=-2)
        return (gx,)

    return _record(Tensor(rows), (x,), bwd)


# ---------------------------------------------------------------------------
# reductions with custom stable kernels
# ---------------------------------------------------------------------------


def log_sum_exp(x: Tensor) -> Tensor:
    """log(sum(exp(x))) of each row of a 2-D tensor; the gradient is the softmax."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_sum_exp needs a 2-D tensor, got {x.shape}")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=-1, keepdims=True)
    out = Tensor((m + np.log(z))[..., 0])
    return _record(out, (x,), lambda g: (np.asarray(g)[..., None] * e / z,))


def _split_heads(a: Array, n_heads: int) -> Array:
    """[..., rows, heads * w] -> its head-major view [..., heads, rows, w]."""
    return a.reshape(a.shape[:-1] + (n_heads, a.shape[-1] // n_heads)).swapaxes(-3, -2)


def segment_attention(
    q: Tensor, k: Tensor, v: Tensor, lengths: Sequence[int], n_heads: int
) -> Tensor:
    """Multi-head self-attention, softmax(q k^T / sqrt(d_k)) v, over packed
    sequences.

    The rows of q, k and v are consecutive segments, one per sequence: the
    `lengths[i]` rows of sequence i, each of which attends to every row of
    its own sequence. The columns of q/k and of v split into `n_heads`
    equal heads, and the output holds the heads side by side, [rows, width
    of v]. With a leading tower axis, [T, rows, width] operands, every tower
    attends over the same segments. One tape record with a hand-written
    backward covers every head and sequence.

    q, k, v and the output split into heads once per call, as head-major
    [(towers,) heads, rows, w] views. Consecutive sequences of equal length
    form a run: a row slice of those views, reshaped to [(towers,) heads,
    sequences, length, w], so its scores, softmax and weighted sum are one
    stacked call each; a run of one sequence is the per-sequence
    computation. The backward reuses each run's slices and probabilities.

    q is scaled by 1/sqrt(d_k) once per call. A run stores its scores keys
    outermost, [keys, (towers,) heads, sequences, queries], so its softmax
    sweeps one contiguous row of every tower, head, sequence and query once
    per key; numpy takes a query's max and sum over its keys in the order
    it would for the sequence alone, so a sequence's bits in a run are its
    bits alone. The products are written straight into the output and
    gradient arrays. The backward takes each query row's softmax correction
    as the row sum of dO * O, once per call (as FlashAttention does), not
    from the score block.
    """
    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    lead = q_shape[:-2]
    same_towers = lead == k_shape[:-2] == v_shape[:-2]
    if not (2 <= len(q_shape) == len(k_shape) == len(v_shape) <= 3 and same_towers):
        raise _tower_error("attention", q, k, v)
    if q_shape[-1] != k_shape[-1] or k_shape[-2] != v_shape[-2]:
        raise ShapeError(f"q/k widths or k/v lengths disagree: {q_shape}/{k_shape}/{v_shape}")
    if not 1 <= n_heads <= q_shape[-1] or q_shape[-1] % n_heads or v_shape[-1] % n_heads:
        raise ShapeError(f"widths {q_shape[-1]}/{v_shape[-1]} do not split into {n_heads} heads")
    nq, nk = q_shape[-2], k_shape[-2]
    if min(lengths, default=0) < 1 or sum(lengths) != nk:
        raise ShapeError(f"segment lengths {list(lengths)} must be positive and cover the {nk} k rows")
    if nq != nk:
        raise ShapeError(f"q has {nq} rows; attention needs one per k row ({nk})")

    # bwd reads these counts, not q and k, so it keeps only the scaled q
    c = 1.0 / math.sqrt(q_shape[-1] // n_heads)
    qh = _split_heads(q.data * c, n_heads)
    kh, vh = _split_heads(k.data, n_heads), _split_heads(v.data, n_heads)
    out = np.empty(lead + (nq, v_shape[-1]), np.result_type(qh, kh, vh))
    oh = _split_heads(out, n_heads)
    # a score block's axes in p's order, [(towers,) heads, G, keys, queries]
    keys_inward = (*range(1, len(lead) + 3), 0, len(lead) + 3)
    # each run's rows, the [..., heads, G, L, -1] shape that splits them into
    # its G sequences (as views, so matmul writes into them), its q/k/v
    # slices and its probabilities p, [..., heads, G, keys, queries]
    runs, end = [], 0
    for kl, group in groupby(lengths):
        g = len(list(group))
        rows = slice(end, end + g * kl)
        end = rows.stop
        run = lead + (n_heads, g, kl, -1)
        qr = qh[..., rows, :].reshape(run)
        kr, vr = kh[..., rows, :].reshape(run), vh[..., rows, :].reshape(run)
        # p is a view of `block`, whose softmax reduces over the keys,
        # outermost, so each key's scores are one contiguous row
        block = np.empty((kl,) + lead + (n_heads, g, kl), out.dtype)
        p = block.transpose(keys_inward)
        np.matmul(kr, qr.swapaxes(-1, -2), out=p)
        block -= block.max(axis=0, keepdims=True)
        np.exp(block, out=block)
        total = block.sum(axis=0, keepdims=True)
        block *= np.reciprocal(total, out=total)
        np.matmul(p.swapaxes(-1, -2), vr, out=oh[..., rows, :].reshape(run))
        runs.append((rows, run, qr, kr, vr, p))

    def bwd(g_out):
        gh = _split_heads(g_out, n_heads)
        # each query row's sum over keys of dP * P, per head, is dO . O
        rows_d = np.einsum("...hrw,...hrw->...hr", gh, oh)
        gq, gk, gv = np.empty(q_shape), np.empty(k_shape), np.empty(v_shape)
        gqh, gkh, gvh = _split_heads(gq, n_heads), _split_heads(gk, n_heads), _split_heads(gv, n_heads)
        for rows, run, qr, kr, vr, p in runs:
            gr = gh[..., rows, :].reshape(run)
            ds = vr @ gr.swapaxes(-1, -2)
            ds -= rows_d[..., rows].reshape(run[:-2] + (1, -1))
            ds *= p
            np.matmul(ds.swapaxes(-1, -2), kr, out=gqh[..., rows, :].reshape(run))
            np.matmul(ds, qr, out=gkh[..., rows, :].reshape(run))
            np.matmul(p, gr, out=gvh[..., rows, :].reshape(run))
        gq *= c
        return gq, gk, gv

    return _record(Tensor(out), (q, k, v), bwd)


def cls_attention(
    q: Tensor, h: Tensor, wk: Tensor, wv: Tensor, lengths: Sequence[int], n_heads: int
) -> Tensor:
    """Multi-head attention of one query per sequence, its [CLS] query, over
    the rows of its sequence, with the key and value projections folded in:
    per head, softmax(q (h W_K)^T / sqrt(d_k)) h W_V.

    The rows of `h` are consecutive segments, one per sequence: the
    `lengths[i]` rows of sequence i; q holds one row per sequence, already
    projected. The columns of q, of `wk` and of `wv` split into `n_heads`
    equal heads, and the output holds the heads side by side, [sequences,
    width of wv]. With a leading tower axis, [T, ...] operands, every tower
    attends over the same segments. One tape record with a hand-written
    backward covers every head and sequence.

    No row of h is projected. Each head's scaled query folds through that
    head's columns of W_K, a = W_K,hd q_hd / sqrt(d_k), so a key's score is
    h_j . a; the weighted sum is taken of the rows, u = sum_j p_j h_j, and
    only u meets W_V,hd. In real arithmetic that is q . (h_j W_K) and
    sum_j p_j (h_j W_V); the rounding differs. The fold and the value
    product are one GEMM per head over every sequence, the scores and the
    weighted sum one per sequence over every head.

    Consecutive sequences of equal length form a run: a row slice of h,
    reshaped to [(towers,) G, length, d], whose scores, [(towers,) G, keys,
    heads], softmax and weighted sum are one stacked call each; a run of one
    sequence is the per-sequence computation, and numpy takes a query's max
    and sum over its keys in the order it would for the sequence alone. The
    backward reuses each run's slices and probabilities, and takes each
    query's softmax correction as du . u, once per call.
    """
    qd, hd, kd, vd = q.data, h.data, wk.data, wv.data
    q_shape, h_shape, k_shape, v_shape = qd.shape, hd.shape, kd.shape, vd.shape
    lead = q_shape[:-2]
    same_towers = lead == h_shape[:-2] == k_shape[:-2] == v_shape[:-2]
    if not (2 <= len(q_shape) == len(h_shape) == len(k_shape) == len(v_shape) <= 3 and same_towers):
        raise _tower_error("cls_attention", q, h, wk, wv)
    d = h_shape[-1]
    if k_shape[-2:] != (d, q_shape[-1]) or v_shape[-2] != d:
        raise ShapeError(
            f"cls_attention needs W_K of shape ({d}, {q_shape[-1]}) and W_V of {d} rows "
            f"for q {q_shape} over h {h_shape}, got {k_shape} and {v_shape}"
        )
    if not 1 <= n_heads <= q_shape[-1] or q_shape[-1] % n_heads or v_shape[-1] % n_heads:
        raise ShapeError(f"widths {q_shape[-1]}/{v_shape[-1]} do not split into {n_heads} heads")
    if min(lengths, default=0) < 1 or sum(lengths) != h_shape[-2]:
        raise ShapeError(
            f"segment lengths {list(lengths)} must be positive and cover the {h_shape[-2]} h rows"
        )
    if q_shape[-2] != len(lengths):
        raise ShapeError(
            f"q has {q_shape[-2]} rows; [CLS] attention needs one per sequence ({len(lengths)})"
        )

    t = len(lead)
    gdh = (*range(t), t + 1, t + 2, t)  # [..., heads, S, d] -> [..., S, d, heads]
    c = 1.0 / math.sqrt(q_shape[-1] // n_heads)
    qc = _split_heads(qd * c, n_heads)
    kh, vh = _split_heads(kd, n_heads), _split_heads(vd, n_heads)
    # each folded query, [..., heads, sequences, d], and each head's
    # weighted sum of rows in the same layout; a run slices the
    # sequence-major views of both
    a = qc @ kh.swapaxes(-1, -2)
    u = np.empty_like(a)
    a_sdh, u_shd = a.transpose(gdh), u.swapaxes(-3, -2)
    # each run's sequences and rows, its rows of h as [..., G, L, d] and its
    # probabilities p, [..., G, keys, heads]
    runs, s_end, r_end = [], 0, 0
    for kl, group in groupby(lengths):
        g = len(list(group))
        seqs, rows = slice(s_end, s_end + g), slice(r_end, r_end + g * kl)
        s_end, r_end = seqs.stop, rows.stop
        hr = hd[..., rows, :].reshape(lead + (g, kl, d))
        p = hr @ a_sdh[..., seqs, :, :]
        p -= p.max(axis=-2, keepdims=True)
        np.exp(p, out=p)
        total = p.sum(axis=-2, keepdims=True)
        p *= np.reciprocal(total, out=total)
        np.matmul(p.swapaxes(-1, -2), hr, out=u_shd[..., seqs, :, :])
        runs.append((seqs, rows, hr, p))
    out = np.empty(lead + (q_shape[-2], v_shape[-1]), a.dtype)
    np.matmul(u, vh, out=_split_heads(out, n_heads))

    def bwd(g_out):
        gh = _split_heads(g_out, n_heads)
        du = gh @ vh.swapaxes(-1, -2)  # [..., heads, sequences, d]
        # each query's sum over keys of dP * P, per head, is du . u
        rows_d = np.einsum("...hsd,...hsd->...sh", du, u)[..., None, :]
        da, gx = np.empty_like(du), np.empty(h_shape)
        du_sdh, du_shd = du.transpose(gdh), du.swapaxes(-3, -2)
        da_shd, a_shd = da.swapaxes(-3, -2), a.swapaxes(-3, -2)
        for seqs, rows, hr, p in runs:
            ds = hr @ du_sdh[..., seqs, :, :]
            ds -= rows_d[..., seqs, :, :]
            ds *= p
            np.matmul(ds.swapaxes(-1, -2), hr, out=da_shd[..., seqs, :, :])
            gr = gx[..., rows, :].reshape(hr.shape)
            np.matmul(p, du_shd[..., seqs, :, :], out=gr)
            gr += ds @ a_shd[..., seqs, :, :]
        gq, gwk, gwv = np.empty(q_shape), np.empty(k_shape), np.empty(v_shape)
        np.matmul(da, kh, out=_split_heads(gq, n_heads))
        gq *= c
        np.matmul(da.swapaxes(-1, -2), qc, out=_split_heads(gwk, n_heads))
        np.matmul(u.swapaxes(-1, -2), gh, out=_split_heads(gwv, n_heads))
        return gq, gx, gwk, gwv

    return _record(Tensor(out), (q, h, wk, wv), bwd)


@lru_cache(maxsize=None)
def _mean_vector(n: int, dtype: np.dtype) -> Array:
    """The read-only length-n vector of 1/n in `dtype`, shared by every call."""
    mean = np.full(n, 1.0 / n, dtype)
    mean.flags.writeable = False
    return mean


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a 2-D tensor to zero mean / unit variance, then
    apply a learned per-column gain and bias; with a leading tower axis,
    [T, rows, n] x and [T, n] gain and bias, per tower."""
    xd = x.data
    shape = xd.shape
    if not 2 <= len(shape) <= 3:
        raise _tower_error("layer_norm_rows", x)
    want = shape[:-2] + shape[-1:]
    if gain.data.shape != want or bias.data.shape != want:
        raise ShapeError(f"gain/bias must be shape {want}, got {gain.shape}/{bias.shape}")
    mean = _mean_vector(shape[-1], xd.dtype)  # row means as one matvec
    xhat = xd - (xd @ mean)[..., None]
    inv = np.square(xhat) @ mean
    inv += LAYER_NORM_EPS
    inv = np.reciprocal(np.sqrt(inv, out=inv), out=inv)[..., None]
    xhat *= inv
    gd = gain.data[..., None, :]
    y = xhat * gd
    y += bias.data[..., None, :]
    out = Tensor(y)

    def bwd(g):
        dxhat = g * gd
        proj = ((dxhat * xhat) @ mean)[..., None]
        dxhat -= (dxhat @ mean)[..., None]
        dxhat -= xhat * proj
        dxhat *= inv
        return dxhat, (g * xhat).sum(axis=-2), g.sum(axis=-2)

    return _record(out, (x, gain, bias), bwd)


# ---------------------------------------------------------------------------
# stochastic ops
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Zero each element with probability `p` and rescale survivors by
    1/(1-p), drawing the mask from `rng`; without a stream (inference) it
    returns `x` itself.

    The tape keeps the boolean mask (an eighth of the float scale) and the
    backward rebuilds the same scale from it."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    mask = rng.random(x.shape) >= p
    out = Tensor(x.data * (mask / (1.0 - p)))
    return _record(out, (x,), lambda g: (g * (mask / (1.0 - p)),))
