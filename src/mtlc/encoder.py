"""Shared representation network: embeddings, pre-norm transformer blocks,
[CLS] pooling, and the per-task classification heads.

All parameters live in one flat name -> Tensor map so the optimizer and the
checkpoint format can address them uniformly.

A batch runs as one forward pass over packed rows: the positions of every
sequence are stacked into one [N, d_model] matrix, so embeddings, norms,
projections and the feed-forward are single 2-D ops, and attention keeps
each sequence to its own rows. An encoded sequence holds no padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ContractError
from .numcore import (
    Tensor,
    add,
    affine,
    cls_attention,
    dropout,
    gather_rows,
    layer_norm_rows,
    matmul,
    relu,
    segment_attention,
    stream,
    tanh,
    truncated_normal,
)
from .text import TokenSeq

INIT_STD = 0.02
HEAD_HIDDEN = 128  # width of each classification head's hidden layer


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ffn: int = 128
    max_len: int = 64
    dropout_p: float = 0.4

    def __post_init__(self):
        for field_name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ffn"):
            if getattr(self, field_name) < 1:
                raise ContractError(f"{field_name} must be >= 1, got {getattr(self, field_name)}")
        if self.max_len < 3:  # [CLS], at least one token, [SEP]
            raise ContractError(f"max_len must be >= 3, got {self.max_len}")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ContractError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


def param_shapes(config: EncoderConfig, heads: Mapping[str, int]) -> dict[str, tuple]:
    """One encoder's tensor shapes, then a head's per task of `heads` (task -> class count)."""
    d, f = config.d_model, config.d_ffn
    shapes: dict[str, tuple] = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_len, d),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, d)
        shapes[p + "wv"] = (d, d)
        shapes[p + "wo"] = (d, d)
        shapes[p + "ffn_w1"] = (d, f)
        shapes[p + "ffn_b1"] = (f,)
        shapes[p + "ffn_w2"] = (f, d)
        shapes[p + "ffn_b2"] = (d,)
        shapes[p + "norm1_g"] = (d,)
        shapes[p + "norm1_b"] = (d,)
        shapes[p + "norm2_g"] = (d,)
        shapes[p + "norm2_b"] = (d,)
    shapes["final_norm_g"] = (d,)
    shapes["final_norm_b"] = (d,)
    shapes["pooler_w"] = (d, d)
    shapes["pooler_b"] = (d,)
    for task, n_classes in heads.items():
        p = f"head.{task}."
        shapes[p + "w_hidden"] = (d, HEAD_HIDDEN)
        shapes[p + "b_hidden"] = (HEAD_HIDDEN,)
        shapes[p + "w_out"] = (HEAD_HIDDEN, n_classes)
        shapes[p + "b_out"] = (n_classes,)
    return shapes


def init_params(shapes: Mapping[str, tuple], seed: int) -> dict[str, Tensor]:
    """Fresh parameters for a name -> shape table, in its order: unit
    normalization gains (names ending `_g`), zero biases (every other 1-D
    tensor), truncated normal (std `INIT_STD`) matrices and embeddings.

    Each tensor draws from its own named stream, `init/<name>`, so adding or
    removing heads never shifts the initialization of the remaining tensors.
    """
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.endswith("_g"):
            data = np.ones(shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            data = truncated_normal(stream(seed, f"init/{name}"), shape, INIT_STD)
        params[name] = Tensor(data, requires_grad=True)
    return params


def head_view(params: Mapping[str, Tensor], task: str, prefix: str = "") -> dict[str, Tensor]:
    base = f"{prefix}head.{task}."
    try:
        return {key: params[base + key] for key in ("w_hidden", "b_hidden", "w_out", "b_out")}
    except KeyError:
        raise ContractError(f"no complete head for task {task!r} under prefix {prefix!r}") from None


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def attention_block(
    x: Tensor,
    params: Mapping[str, Tensor],
    layer_prefix: str,
    n_heads: int,
    lengths: Sequence[int],
) -> Tensor:
    """Multi-head self-attention of packed rows: project to q/k/v, attend
    within each sequence (`segment_attention`), apply W_O."""
    p = layer_prefix
    q = matmul(x, params[p + "wq"])
    k = matmul(x, params[p + "wk"])
    v = matmul(x, params[p + "wv"])
    return matmul(segment_attention(q, k, v, lengths, n_heads), params[p + "wo"])


class Packed(NamedTuple):
    """A batch's rows, sequence after sequence: their token ids and
    positions, the number of rows of each sequence, and the row that holds
    each sequence's [CLS] position."""

    ids: np.ndarray
    positions: np.ndarray
    lengths: list[int]
    cls_rows: np.ndarray


def pack(seqs: Sequence[TokenSeq], config: EncoderConfig) -> Packed:
    """Check a batch against `config` and concatenate its ids; every
    encoder of a model can run on the one result."""
    if not seqs:
        raise ContractError("encoder_forward needs at least one sequence")
    for seq in seqs:
        if seq.max_len != config.max_len or not 1 <= len(seq.ids) <= config.max_len:
            raise ContractError(
                f"sequence of {len(seq.ids)} ids encoded for max_len {seq.max_len} "
                f"does not fit config max_len {config.max_len}"
            )
    lengths = [len(seq.ids) for seq in seqs]
    starts = list(accumulate(lengths, initial=0))
    ids = np.fromiter(chain.from_iterable(seq.ids for seq in seqs), np.intp, starts.pop())
    positions = _positions(config.max_len)
    return Packed(ids, np.concatenate([positions[:n] for n in lengths]), lengths, np.array(starts))


@lru_cache(maxsize=None)
def _positions(max_len: int) -> np.ndarray:
    """Positions 0..max_len-1, whose slices `pack` concatenates."""
    return np.arange(max_len)


def encoder_forward(
    batch: Packed,
    params: Mapping[str, Tensor],
    config: EncoderConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Embed the positions of a batch, run the pre-norm transformer
    stack on the packed rows, and pool each sequence's [CLS] row.

    Only the [CLS] row is pooled, so the last layer computes the query,
    residual and feed-forward of that row alone; it attends over every row
    of the sequence through `cls_attention`, which folds W_K into the query
    and applies W_V to the weighted sum, so no row is projected. Returns
    the tanh-pooled [B, d_model] vectors. `batch` is the `pack` of B
    sequences. Dropout draws from `rng` when it is given (training) and is
    the identity without it.

    `params` maps plain names (`tok_emb`, `layer{i}.wq`, ...) to one
    encoder's tensors, or to [T, ...] stacks (`mtl.Model.stacks`), which run
    T encoders in one pass and return [T, B, d_model]; each tower's slice
    equals its own pass bit for bit.
    """
    ids, positions, lengths, cls_rows = batch
    x = add(gather_rows(params["tok_emb"], ids), gather_rows(params["pos_emb"], positions))
    for i in range(config.n_layers):
        p = f"layer{i}."
        h = layer_norm_rows(x, params[p + "norm1_g"], params[p + "norm1_b"])
        if i < config.n_layers - 1:
            attended = attention_block(h, params, p, config.n_heads, lengths)
        else:
            x = gather_rows(x, cls_rows)
            q = matmul(gather_rows(h, cls_rows), params[p + "wq"])
            heads = cls_attention(q, h, params[p + "wk"], params[p + "wv"], lengths, config.n_heads)
            attended = matmul(heads, params[p + "wo"])
        x = add(x, dropout(attended, config.dropout_p, rng))
        h = layer_norm_rows(x, params[p + "norm2_g"], params[p + "norm2_b"])
        inner = relu(affine(h, params[p + "ffn_w1"], params[p + "ffn_b1"]))
        ff = affine(inner, params[p + "ffn_w2"], params[p + "ffn_b2"])
        x = add(x, dropout(ff, config.dropout_p, rng))
    x = layer_norm_rows(x, params["final_norm_g"], params["final_norm_b"])
    return tanh(affine(x, params["pooler_w"], params["pooler_b"]))


def classify(pooled: Tensor, head_params: Mapping[str, Tensor]) -> Tensor:
    """Raw [B, n_classes] logits: relu(pooled W_hidden + b_hidden) W_out + b_out."""
    hidden = relu(affine(pooled, head_params["w_hidden"], head_params["b_hidden"]))
    return affine(hidden, head_params["w_out"], head_params["b_out"])
