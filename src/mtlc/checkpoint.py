"""Single-file binary checkpoint.

Layout, little-endian throughout:

    magic "MTLC" | u16 format version (2) | u32 config length | config UTF-8 |
    32-byte sha256 of the vocabulary file the weights were trained with |
    repeated { u16 name length | name UTF-8 | u8 rank | u32 dims... |
               float32 row-major payload } |
    u32 CRC32 of all prior bytes

Weights are stored as float32 (half the size) and load as float32.
`stored_values` rounds them once: `serialize` writes its arrays and
`mtl.train` validates each epoch on them, so every prediction, from a
loaded checkpoint or in training, runs on exactly the stored values;
resumed training would differ from an uninterrupted float64 run. Every
stored value is finite: a NaN or infinity, or a float64 beyond float32's
range, raises NumericalError, and a file holding one is corrupt.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from contextlib import suppress
from typing import Mapping

import numpy as np

from .errors import ContractError, CorruptArtifactError, NumericalError
from .numcore import Tensor

MAGIC = b"MTLC"
FORMAT_VERSION = 2
DIGEST_SIZE = 32  # sha256


def stored_values(params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """The native float32 arrays a checkpoint of `params` stores, by sorted
    name: what `deserialize` returns. A NumericalError names the first
    tensor that is not finite in float32."""
    with np.errstate(over="ignore", invalid="ignore"):
        stored = {name: params[name].data.astype(np.float32) for name in sorted(params)}
    for name, values in stored.items():
        if not np.isfinite(values).all():
            raise NumericalError(f"tensor {name!r} holds values that are not finite in float32")
    return stored


def _tensor_bytes(name: str, data: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ContractError(f"tensor name too long: {name[:40]}...")
    parts = [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", data.ndim)]
    parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
    parts.append(np.ascontiguousarray(data, dtype="<f4").tobytes())
    return b"".join(parts)


def serialize(config_text: str, vocab_digest: bytes, params: Mapping[str, Tensor]) -> bytes:
    config_bytes = config_text.encode("utf-8")
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION), struct.pack("<I", len(config_bytes)), config_bytes]
    parts.append(vocab_digest)
    for name, values in stored_values(params).items():
        parts.append(_tensor_bytes(name, values))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize(blob: bytes) -> tuple[str, bytes, dict[str, np.ndarray]]:
    """Parse and validate a checkpoint: its config text, its vocabulary
    digest and its tensors, as writable float32 arrays."""
    if len(blob) < len(MAGIC) + 2 + 4 + 4:
        raise CorruptArtifactError("checkpoint truncated: too short for header and CRC")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise CorruptArtifactError("checkpoint CRC mismatch: file is corrupt or truncated")
    if body[:4] != MAGIC:
        raise CorruptArtifactError(f"bad magic bytes {body[:4]!r}, expected {MAGIC!r}")
    offset = 4
    (version,) = struct.unpack_from("<H", body, offset)
    offset += 2
    if version != FORMAT_VERSION:
        raise CorruptArtifactError(f"unsupported checkpoint format version {version}")
    (config_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    if offset + config_len + DIGEST_SIZE > len(body):
        raise CorruptArtifactError("checkpoint truncated inside the config block or digest")
    try:
        config_text = body[offset : offset + config_len].decode("utf-8")
    except UnicodeDecodeError as err:
        raise CorruptArtifactError(f"checkpoint config block is not UTF-8: {err}") from None
    offset += config_len + DIGEST_SIZE
    vocab_digest = body[offset - DIGEST_SIZE : offset]

    params: dict[str, np.ndarray] = {}
    while offset < len(body):
        try:
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            count = math.prod(dims)  # python ints: no overflow on forged dims
            if offset + 4 * count > len(body):
                raise CorruptArtifactError(
                    f"checkpoint tensor {name!r} of shape {dims} runs past the end of the file"
                )
            payload = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
            offset += 4 * count
        except (struct.error, ValueError) as err:
            raise CorruptArtifactError(f"checkpoint tensor table is malformed: {err}") from None
        if name in params:
            raise CorruptArtifactError(f"duplicate tensor {name!r} in checkpoint")
        if not np.isfinite(payload).all():
            raise CorruptArtifactError(f"checkpoint tensor {name!r} holds NaN or infinity")
        params[name] = payload.astype(np.float32).reshape(dims)
    return config_text, vocab_digest, params


def write_atomic(path: str, data: str | bytes) -> None:
    """Write `data`, a str as UTF-8, to `path + ".tmp"`, then rename it into
    place: a failed write or rename leaves whatever `path` held, and no
    temp file. Every file mtlc writes goes through here."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # the open itself may have failed
            os.remove(tmp)
        raise


def save_checkpoint(
    path: str, config_text: str, vocab_digest: bytes, params: Mapping[str, Tensor]
) -> None:
    write_atomic(path, serialize(config_text, vocab_digest, params))


def load_checkpoint(path: str) -> tuple[str, bytes, dict[str, np.ndarray]]:
    """`deserialize` of the file at `path`; a failed check names the file."""
    with open(path, "rb") as fh:
        try:
            return deserialize(fh.read())
        except CorruptArtifactError as err:
            raise CorruptArtifactError(f"{path}: {err}") from None
