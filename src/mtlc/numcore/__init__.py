"""Numeric core: tensors, autodiff, optimizer, singular-value thresholding,
deterministic RNG."""

from .linalg import svt
from .optim import OptimHyper, adamw_step, init_states, zero_grads
from .rng import child_seed, stream, truncated_normal
from .tensor import (
    GradTape,
    Tensor,
    add,
    affine,
    backward,
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
    sub,
    sum_all,
    tanh,
)
