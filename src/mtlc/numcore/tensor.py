"""Dense float64 tensors with taped reverse-mode automatic differentiation.

A `GradTape` is a Wengert list: ops executed while a tape is active append
one record each, and `backward` replays the records in reverse, which is a
reverse topological order by construction. Only float64 is supported; the
models here are small enough that precision beats speed.

A record names its output and inputs by key, not by object, and its
backward closure holds only the arrays that closure reads, so a forward
intermediate that no backward reads is freed as soon as the caller drops
it. `backward` consumes the tape: it releases each record once replayed.

The active tapes are per context (`contextvars`): an op records onto the
innermost tape entered in its own thread, so a forward pass in one thread
never lands on a tape another thread is filling.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar, Token
from itertools import count, groupby
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ContractError, ShapeError

Array = np.ndarray


class Tensor:
    """A dense float64 array plus autodiff bookkeeping.

    `grad` is populated (and accumulated) by `backward`; `name` lets the
    optimizer and checkpoints address parameters.
    """

    __slots__ = ("data", "requires_grad", "name", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.grad: Optional[Array] = None
        self._key: Optional[int] = None  # tape key, set when first recorded

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


# tape keys, unique for the life of the process, so a record need not hold
# a tensor to keep its key from being reused. An op's output is new and
# takes its key at once; an input may be a leaf that tapes in several
# threads reach first at the same time, so it takes its key under a lock.
_KEYS = count()
_KEY_LOCK = threading.Lock()


def _input_key(t: Tensor) -> int:
    if t._key is None:
        with _KEY_LOCK:
            if t._key is None:
                t._key = next(_KEYS)
    return t._key


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
        self._tokens.append(_ACTIVE.set(_ACTIVE.get() + (self,)))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.reset(self._tokens.pop())

    def _add(self, out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> None:
        keys = []
        for t in inputs:
            if not t.requires_grad:
                keys.append(None)
                continue
            k = _input_key(t)
            if k not in self._produced:
                self._watched.setdefault(k, t)
            keys.append(k)
        k = out._key = next(_KEYS)
        self._records.append((k, tuple(keys), bwd))
        self._produced.add(k)
        self._count += 1

    def __len__(self) -> int:
        return self._count


# the tapes entered in the current context, innermost last
_ACTIVE: ContextVar[tuple[GradTape, ...]] = ContextVar("mtlc_active_tapes", default=())


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    """Attach `out` to the active tape if any input participates in autodiff.
    `bwd` maps the output's adjoint to one adjoint per input; it should hold
    only the arrays it reads, since the tape keeps it until `backward`."""
    tapes = _ACTIVE.get()
    if tapes and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tapes[-1]._add(out, inputs, bwd)
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product [m,k] @ [k,n] -> [m,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)
    return _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D x, 2-D w and a 1-D bias b broadcast over the rows,
    as one tape record: the bias is added in place to the product."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs 2-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    xd, wd = x.data, w.data
    y = xd @ wd
    y += b.data
    return _record(Tensor(y), (x, w, b), lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(old),))


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    shape = x.shape
    return _record(out, (x,), lambda g: (np.full(shape, float(g)),))


def gather_rows(x: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows `ids` of a 2-D tensor; repeated ids accumulate in the gradient."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-D tensor, got {x.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError(f"row id out of range 0..{x.shape[0] - 1}")
    shape = x.shape

    def bwd(g):
        # sum the rows of each id in one pass: sort the ids, then reduce
        # each run of equal ids (reduceat cannot take an empty index list)
        gx = np.zeros(shape)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            ordered = idx[order]
            firsts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
            gx[ordered[firsts]] = np.add.reduceat(g[order], firsts, axis=0)
        return (gx,)

    return _record(Tensor(x.data[idx]), (x,), bwd)


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
    by side, [rows of q, width of v]. One tape record with a hand-written
    backward covers every head and sequence.

    Consecutive sequences with equal (q, kv) lengths form a run. A run's
    rows are contiguous, so each run is one [heads, sequences, length, w]
    view and its scores, softmax and weighted sum are one stacked call
    each; a run of one sequence is the per-sequence computation.

    q is scaled by 1/sqrt(d_k) once per call, and each run's scores are
    key-major, [heads, sequences, keys, queries]. The products are written
    straight into the output and gradient arrays. The backward takes each
    query row's softmax correction as the row sum of dO * O, once per call
    (as FlashAttention does), not from the score block.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"attention needs 2-D q/k/v, got {q.shape}/{k.shape}/{v.shape}")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"q/k widths or k/v lengths disagree: {q.shape}/{k.shape}/{v.shape}")
    if n_heads < 1 or q.shape[1] % n_heads or v.shape[1] % n_heads:
        raise ShapeError(f"widths {q.shape[1]}/{v.shape[1]} do not split into {n_heads} heads")
    if (
        len(q_lengths) != len(kv_lengths)
        or min(q_lengths, default=0) < 1
        or min(kv_lengths, default=0) < 1
        or (sum(q_lengths), sum(kv_lengths)) != (q.shape[0], k.shape[0])
    ):
        raise ShapeError(
            f"segment lengths {list(q_lengths)}/{list(kv_lengths)} must be positive, one pair "
            f"per sequence, and cover the {q.shape[0]}/{k.shape[0]} q/k rows"
        )

    def heads(a: Array) -> Array:  # [rows, heads * w] -> [rows, heads, w]
        return a.reshape(a.shape[0], n_heads, -1)

    # each run: its query rows, its key rows, and the [heads, G, L, w] shape
    # that splits both into its G sequences
    runs, q_start, kv_start = [], 0, 0
    for (ql, kl), group in groupby(zip(q_lengths, kv_lengths)):
        g = len(list(group))
        q_rows, kv_rows = slice(q_start, q_start + g * ql), slice(kv_start, kv_start + g * kl)
        runs.append((q_rows, kv_rows, g, ql, kl))
        q_start += g * ql
        kv_start += g * kl

    def views(a: Array, rows: slice, g: int, length: int) -> Array:
        # a run's rows of a [rows, heads, w] array as [heads, G, length, w];
        # a view when `a` is contiguous, so matmul can write into it
        return a[rows].reshape(g, length, n_heads, -1).transpose(2, 0, 1, 3)

    c = 1.0 / np.sqrt(q.shape[1] // n_heads)
    qh, kh, vh = heads(q.data * c), heads(k.data), heads(v.data)
    out = np.empty((q.shape[0], n_heads, vh.shape[2]))
    probs = []
    for qs, ks, g, ql, kl in runs:
        # key-major scores [heads, G, kl, ql]: the softmax reduces over
        # axis 2, which numpy does in fewer passes than over the last axis
        p = views(kh, ks, g, kl) @ views(qh, qs, g, ql).transpose(0, 1, 3, 2)
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        total = p.sum(axis=2, keepdims=True)
        p *= np.reciprocal(total, out=total)
        probs.append(p)
        np.matmul(p.transpose(0, 1, 3, 2), views(vh, ks, g, kl), out=views(out, qs, g, ql))

    def bwd(g_out):
        gh = heads(g_out)
        # each query row's sum over keys of dP * P, per head, is dO . O
        rows_d = np.einsum("rhw,rhw->hr", gh, out)
        gq, gk, gv = np.empty(qh.shape), np.empty(kh.shape), np.empty(vh.shape)
        for (qs, ks, g, ql, kl), p in zip(runs, probs):
            gr, qr = views(gh, qs, g, ql), views(qh, qs, g, ql)
            kr, vr = views(kh, ks, g, kl), views(vh, ks, g, kl)
            ds = vr @ gr.transpose(0, 1, 3, 2)
            ds -= rows_d[:, qs].reshape(n_heads, g, 1, ql)
            ds *= p
            np.matmul(ds.transpose(0, 1, 3, 2), kr, out=views(gq, qs, g, ql))
            np.matmul(ds, qr, out=views(gk, ks, g, kl))
            np.matmul(p, gr, out=views(gv, ks, g, kl))
        gq *= c
        return gq.reshape(q.shape[0], -1), gk.reshape(k.shape[0], -1), gv.reshape(k.shape[0], -1)

    return _record(Tensor(out.reshape(q.shape[0], -1)), (q, k, v), bwd)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of a 2-D tensor to zero mean / unit variance, then
    apply a learned per-column gain and bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm_rows needs a 2-D tensor, got {x.shape}")
    n = x.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"gain/bias must be shape ({n},), got {gain.shape}/{bias.shape}")
    mean = np.full(n, 1.0 / n)  # row means as one matvec
    xhat = x.data - (x.data @ mean)[:, None]
    inv = (1.0 / np.sqrt(np.square(xhat) @ mean + eps))[:, None]
    xhat *= inv
    gd = gain.data
    y = xhat * gd
    y += bias.data
    out = Tensor(y)

    def bwd(g):
        dxhat = g * gd
        proj = ((dxhat * xhat) @ mean)[:, None]
        dxhat -= (dxhat @ mean)[:, None]
        dxhat -= xhat * proj
        dxhat *= inv
        return dxhat, (g * xhat).sum(axis=0), g.sum(axis=0)

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
