"""Dense tensors with taped reverse-mode automatic differentiation.

A `GradTape` is a Wengert list: ops executed while a tape is active append
one record each, and `backward` replays the records in reverse, which is a
reverse topological order by construction.

A tensor holds float64, or float32 when it is given a float32 array. Built
and trained models, tapes, optimizer steps and gradient checks are float64.
A model loaded from a checkpoint computes in the float32 its checkpoint
stores: an inference forward over float32 tensors stays float32, so an op
that makes an array of its own (layer norm's 1/n vector, attention's
output buffer) makes it in its input's dtype.

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

_FLOAT32 = np.dtype(np.float32)


class Tensor:
    """A dense float64 or float32 array plus autodiff bookkeeping.

    A tensor takes gradients exactly when it holds a tape key: a leaf made
    with `requires_grad=True` takes one here, an op output when a tape
    records it, and a frozen tensor never. `grad` is populated (and
    accumulated) by `backward`; `name` labels the tensor in `repr` alone
    (the optimizer and checkpoints use dict keys).
    """

    __slots__ = ("data", "name", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        data = np.asarray(data)
        self.data = data if data.dtype == _FLOAT32 else data.astype(np.float64, copy=False)
        self.name = name
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
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


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
    """Accumulate gradients of `loss` into every watched leaf's `.grad`;
    leaves the tape saw off the path from `loss` accumulate zero arrays.

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
        if g is None:
            g = np.zeros_like(t.data)
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


def neg(x: Tensor) -> Tensor:
    out = Tensor(-x.data)
    return _record(out, (x,), lambda g: (-g,))


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
    if not 2 <= ad.ndim == bd.ndim <= 3 or ad.shape[:-2] != bd.shape[:-2]:
        raise _tower_error("matmul", a, b)
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = Tensor(ad @ bd)
    return _record(out, (a, b), lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D x, 2-D w and a 1-D bias b broadcast over the rows,
    or per tower for [T,n,k] x, [T,k,m] w and [T,m] b, as one tape record:
    the bias is added in place to the product."""
    xd, wd = x.data, w.data
    if not 2 <= xd.ndim == wd.ndim <= 3 or xd.shape[:-2] != wd.shape[:-2]:
        raise _tower_error("affine", x, w)
    if xd.shape[-1] != wd.shape[-2] or b.data.shape != wd.shape[:-2] + wd.shape[-1:]:
        raise ShapeError(f"affine shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    y = xd @ wd
    y += b.data[..., None, :]
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
    if not 2 <= x.data.ndim <= 3:
        raise _tower_error("gather_rows", x)
    idx = np.asarray(ids, dtype=np.int64)
    shape = x.shape
    try:  # `take` raises past the last row; it would wrap a negative id
        if idx.size and idx.min() < 0:
            raise IndexError
        rows = x.data.take(idx, axis=-2)
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
    """log(sum(exp(x))) over the last axis: a scalar for a 1-D tensor, one
    value per row for a 2-D one. The gradient is the softmax."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"log_sum_exp needs a 1-D or 2-D tensor, got {x.shape}")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=-1, keepdims=True)
    out = Tensor((m + np.log(z))[..., 0])
    return _record(out, (x,), lambda g: (np.asarray(g)[..., None] * e / z,))


def segment_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    q_lengths: Sequence[int],
    kv_lengths: Sequence[int],
    n_heads: int,
) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d_k)) v over packed sequences.

    The rows of `q` and of `k`/`v` are consecutive segments, one per
    sequence: the `q_lengths[i]` query rows of sequence i attend to its
    `kv_lengths[i]` key rows and to no other row. The columns of q/k and of
    v split into `n_heads` equal heads, and the output holds the heads side
    by side, [rows of q, width of v]. With a leading tower axis, [T, rows,
    width] operands, every tower attends over the same segments. One tape
    record with a hand-written backward covers every head and sequence.

    Consecutive sequences with equal (q, kv) lengths form a run. A run's
    rows are contiguous, so each run is one [(towers,) heads, sequences,
    length, w] view and its scores, softmax and weighted sum are one
    stacked call each; a run of one sequence is the per-sequence
    computation.

    q is scaled by 1/sqrt(d_k) once per call, and each run's scores are
    key-major, [heads, sequences, keys, queries]. The products are written
    straight into the output and gradient arrays. The backward takes each
    query row's softmax correction as the row sum of dO * O, once per call
    (as FlashAttention does), not from the score block.
    """
    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    lead = q_shape[:-2]
    same_towers = lead == k_shape[:-2] == v_shape[:-2]
    if not (2 <= len(q_shape) == len(k_shape) == len(v_shape) <= 3 and same_towers):
        raise _tower_error("attention", q, k, v)
    if q_shape[-1] != k_shape[-1] or k_shape[-2] != v_shape[-2]:
        raise ShapeError(f"q/k widths or k/v lengths disagree: {q_shape}/{k_shape}/{v_shape}")
    if n_heads < 1 or q_shape[-1] % n_heads or v_shape[-1] % n_heads:
        raise ShapeError(f"widths {q_shape[-1]}/{v_shape[-1]} do not split into {n_heads} heads")
    nq, nk = q_shape[-2], k_shape[-2]
    if (
        len(q_lengths) != len(kv_lengths)
        or min(q_lengths, default=0) < 1
        or min(kv_lengths, default=0) < 1
        or (sum(q_lengths), sum(kv_lengths)) != (nq, nk)
    ):
        raise ShapeError(
            f"segment lengths {list(q_lengths)}/{list(kv_lengths)} must be positive, one pair "
            f"per sequence, and cover the {nq}/{nk} q/k rows"
        )

    def heads(a: Array) -> Array:  # [..., rows, heads * w] -> [..., rows, heads, w]
        return a.reshape(a.shape[:-1] + (n_heads, a.shape[-1] // n_heads))

    # each run: its query rows, its key rows, and the [heads, G, L, w] shape
    # that splits both into its G sequences
    runs, q_start, kv_start = [], 0, 0
    for (ql, kl), group in groupby(zip(q_lengths, kv_lengths)):
        g = len(list(group))
        q_rows, kv_rows = slice(q_start, q_start + g * ql), slice(kv_start, kv_start + g * kl)
        runs.append((q_rows, kv_rows, g, ql, kl))
        q_start += g * ql
        kv_start += g * kl

    to_heads_first = (2, 0, 1, 3) if not lead else (0, 3, 1, 2, 4)

    def views(a: Array, rows: slice, g: int, length: int) -> Array:
        # a run's rows of a [..., rows, heads, w] array as [..., heads, G,
        # length, w]; a view when `a` is contiguous, so matmul can write into it
        block = a[..., rows, :, :].reshape(lead + (g, length) + a.shape[-2:])
        return block.transpose(to_heads_first)

    # bwd reads these counts, not q and k, so it keeps only the scaled q
    c = 1.0 / math.sqrt(q_shape[-1] // n_heads)
    qh, kh, vh = heads(q.data * c), heads(k.data), heads(v.data)
    out = np.empty(lead + (nq, n_heads, vh.shape[-1]), np.result_type(qh, kh, vh))
    probs = []
    for qs, ks, g, ql, kl in runs:
        # key-major scores [..., heads, G, kl, ql]: the softmax reduces over
        # the keys, which numpy does in fewer passes than over the last axis
        p = views(kh, ks, g, kl) @ views(qh, qs, g, ql).swapaxes(-1, -2)
        p -= p.max(axis=-2, keepdims=True)
        np.exp(p, out=p)
        total = p.sum(axis=-2, keepdims=True)
        p *= np.reciprocal(total, out=total)
        probs.append(p)
        np.matmul(p.swapaxes(-1, -2), views(vh, ks, g, kl), out=views(out, qs, g, ql))

    def bwd(g_out):
        gh = heads(g_out)
        # each query row's sum over keys of dP * P, per head, is dO . O
        rows_d = np.einsum("...rhw,...rhw->...hr", gh, out)
        gq, gk, gv = np.empty(qh.shape), np.empty(kh.shape), np.empty(vh.shape)
        for (qs, ks, g, ql, kl), p in zip(runs, probs):
            gr, qr = views(gh, qs, g, ql), views(qh, qs, g, ql)
            kr, vr = views(kh, ks, g, kl), views(vh, ks, g, kl)
            ds = vr @ gr.swapaxes(-1, -2)
            ds -= rows_d[..., qs].reshape(lead + (n_heads, g, 1, ql))
            ds *= p
            np.matmul(ds.swapaxes(-1, -2), kr, out=views(gq, qs, g, ql))
            np.matmul(ds, qr, out=views(gk, ks, g, kl))
            np.matmul(p, gr, out=views(gv, ks, g, kl))
        gq *= c
        return gq.reshape(q_shape), gk.reshape(k_shape), gv.reshape(v_shape)

    return _record(Tensor(out.reshape(lead + (nq, v_shape[-1]))), (q, k, v), bwd)


@lru_cache(maxsize=None)
def _mean_vector(n: int, dtype: np.dtype) -> Array:
    """The read-only length-n vector of 1/n in `dtype`, shared by every call."""
    mean = np.full(n, 1.0 / n, dtype)
    mean.flags.writeable = False
    return mean


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a 2-D tensor to zero mean / unit variance, then
    apply a learned per-column gain and bias; with a leading tower axis,
    [T, rows, n] x and [T, n] gain and bias, per tower."""
    if not 2 <= x.data.ndim <= 3:
        raise _tower_error("layer_norm_rows", x)
    lead = x.shape[:-2]
    n = x.shape[-1]
    if gain.shape != lead + (n,) or bias.shape != lead + (n,):
        raise ShapeError(f"gain/bias must be shape {lead + (n,)}, got {gain.shape}/{bias.shape}")
    mean = _mean_vector(n, x.data.dtype)  # row means as one matvec
    xhat = x.data - (x.data @ mean)[..., None]
    inv = np.square(xhat) @ mean
    inv += eps
    inv = np.divide(1.0, np.sqrt(inv, out=inv), out=inv)[..., None]
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


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero each element with probability `p` and rescale survivors by
    1/(1-p) while training; exact identity at inference.

    The tape keeps the boolean mask (an eighth of the float scale) and the
    backward rebuilds the same scale from it."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = rng.random(x.shape) >= p
    out = Tensor(x.data * (mask / (1.0 - p)))
    return _record(out, (x,), lambda g: (g * (mask / (1.0 - p)),))
