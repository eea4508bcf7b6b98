"""Binary checkpoint container: layout, CRC integrity, round trips."""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlc.checkpoint import (
    DIGEST_SIZE,
    FORMAT_VERSION,
    MAGIC,
    deserialize,
    load_checkpoint,
    save_checkpoint,
    serialize,
    stored_values,
    write_atomic,
)
from mtlc.errors import CorruptArtifactError, NumericalError
from mtlc.numcore import Tensor

CONFIG = "train.seed = 7\n"
DIGEST = hashlib.sha256(b"1\nword\nthe\n").digest()  # of a one-token vocabulary file


def with_crc(body: bytes) -> bytes:
    """A forged checkpoint: `body` plus its valid CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


def forge(config: bytes, table: bytes) -> bytes:
    """A checkpoint with a valid header, digest and CRC around raw config and
    tensor-table bytes."""
    header = MAGIC + struct.pack("<H", FORMAT_VERSION) + struct.pack("<I", len(config))
    return with_crc(header + config + DIGEST + table)


def sample_params():
    rng = np.random.default_rng(0)
    return {
        "w_a": Tensor(rng.normal(size=(3, 4))),
        "b": Tensor(rng.normal(size=5)),
        "scalar_ish": Tensor(rng.normal(size=(1,))),
    }


class TestRoundTrip:
    def test_values_survive_as_float32(self, tmp_path):
        params = sample_params()
        path = str(tmp_path / "model.mtlc")
        save_checkpoint(path, CONFIG, DIGEST, params)
        config_text, digest, loaded = load_checkpoint(path)
        assert config_text == CONFIG and digest == DIGEST
        assert set(loaded) == set(params)
        for name, p in params.items():
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], p.data.astype(np.float32).astype(np.float64))

    def test_reload_is_stable(self, tmp_path):
        # float32 rounding happens once: a second save/load changes nothing
        params = sample_params()
        path = str(tmp_path / "model.mtlc")
        save_checkpoint(path, CONFIG, DIGEST, params)
        _, _, first = load_checkpoint(path)
        save_checkpoint(path, CONFIG, DIGEST, {name: Tensor(a) for name, a in first.items()})
        _, _, second = load_checkpoint(path)
        for name in first:
            assert np.array_equal(first[name], second[name])

    def test_stored_values_are_what_a_checkpoint_loads(self):
        # native float32 arrays in sorted-name order, the values bit for bit
        params = sample_params()
        _, _, loaded = deserialize(serialize(CONFIG, DIGEST, params))
        stored = stored_values(params)
        assert list(stored) == sorted(params) == list(loaded)
        for name, values in stored.items():
            assert values.dtype == np.dtype(np.float32) and values.flags.c_contiguous
            assert values.tobytes() == loaded[name].tobytes(), name
        params["b"].data[0] = 1e39
        with pytest.raises(NumericalError, match="tensor 'b'"):
            stored_values(params)

    def test_serialized_layout(self):
        blob = serialize(CONFIG, DIGEST, sample_params())
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:6], "little") == FORMAT_VERSION
        config_len = int.from_bytes(blob[6:10], "little")
        assert blob[10 : 10 + config_len].decode() == CONFIG
        assert blob[10 + config_len : 10 + config_len + DIGEST_SIZE] == DIGEST
    def test_deterministic_bytes(self):
        params = sample_params()
        assert serialize(CONFIG, DIGEST, params) == serialize(CONFIG, DIGEST, params)

    def test_name_order_is_canonical(self):
        params = sample_params()
        reordered = dict(reversed(list(params.items())))
        assert serialize(CONFIG, DIGEST, params) == serialize(CONFIG, DIGEST, reordered)

    def test_non_finite_save_rejected(self, tmp_path):
        # 1e39 is a finite float64 that overflows float32
        path = tmp_path / "model.mtlc"
        for bad in (np.nan, np.inf, -np.inf, 1e39):
            params = sample_params()
            params["w_a"].data[1, 2] = bad
            with pytest.raises(NumericalError, match="w_a"):
                save_checkpoint(str(path), CONFIG, DIGEST, params)
            assert not path.exists() and not (tmp_path / "model.mtlc.tmp").exists()


class TestCorruption:
    def test_crc_fuzzing_100_single_byte_flips(self):
        blob = bytearray(serialize(CONFIG, DIGEST, sample_params()))
        rng = np.random.default_rng(1234)
        for _ in range(100):
            pos = int(rng.integers(0, len(blob)))
            old = blob[pos]
            blob[pos] = (old + int(rng.integers(1, 256))) % 256
            with pytest.raises(CorruptArtifactError):
                deserialize(bytes(blob))
            blob[pos] = old
        deserialize(bytes(blob))  # restored blob still parses

    def test_truncation_detected(self, tmp_path):
        blob = serialize(CONFIG, DIGEST, sample_params())
        for cut in (len(blob) - 1, len(blob) // 2, 3):
            with pytest.raises(CorruptArtifactError):
                deserialize(blob[:cut])

    def test_bad_magic(self):
        blob = bytearray(serialize(CONFIG, DIGEST, sample_params()))
        blob[0:4] = b"NOPE"
        with pytest.raises(CorruptArtifactError):
            deserialize(bytes(blob))

    def test_unknown_format_version_with_valid_crc(self):
        body = bytearray(serialize(CONFIG, DIGEST, sample_params())[:-4])
        body[4:6] = struct.pack("<H", FORMAT_VERSION + 1)
        with pytest.raises(CorruptArtifactError, match=f"format version {FORMAT_VERSION + 1}"):
            deserialize(with_crc(bytes(body)))

    def test_duplicate_tensor_rejected(self):
        from mtlc.checkpoint import _tensor_bytes

        rec = _tensor_bytes("w", np.ones((2, 2)))
        with pytest.raises(CorruptArtifactError, match="duplicate"):
            deserialize(forge(CONFIG.encode(), rec + rec))

    def test_config_block_not_utf8(self):
        with pytest.raises(CorruptArtifactError, match="not UTF-8"):
            deserialize(forge(b"train.seed = \xff\xfe\n", b""))

    def test_non_finite_payload_is_corrupt(self):
        for bad in (np.nan, np.inf, -np.inf):
            payload = np.array([1.0, bad, 2.0], dtype="<f4").tobytes()
            table = struct.pack("<H", 1) + b"w" + struct.pack("<B", 1) + struct.pack("<I", 3)
            with pytest.raises(CorruptArtifactError, match="NaN or infinity"):
                deserialize(forge(CONFIG.encode(), table + payload))

    def test_dims_past_the_payload(self):
        # 0xFFFFFFFF^2 elements overflow a 64-bit product; 1x3 needs 12 bytes, 8 are there
        for dims in ((0xFFFFFFFF, 0xFFFFFFFF), (1, 3)):
            table = struct.pack("<H", 1) + b"w" + struct.pack("<B", 2) + struct.pack("<2I", *dims)
            with pytest.raises(CorruptArtifactError, match="runs past the end"):
                deserialize(forge(CONFIG.encode(), table + b"\0" * 8))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_truncation_is_corrupt(self, data):
        blob = serialize(CONFIG, DIGEST, sample_params())
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with pytest.raises(CorruptArtifactError):
            deserialize(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_edit_with_valid_crc_parses_or_is_corrupt(self, data):
        body = bytearray(serialize(CONFIG, DIGEST, sample_params())[:-4])
        edit = st.tuples(st.integers(0, len(body) - 1), st.integers(0, 255))
        edits = data.draw(st.lists(edit, min_size=1, max_size=3), label="edits")
        for pos, value in edits:
            body[pos] = value
        try:
            _, _, params = deserialize(with_crc(bytes(body)))
        except CorruptArtifactError:
            return
        assert all(np.isfinite(p).all() for p in params.values())

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "model.mtlc")
        save_checkpoint(path, CONFIG, DIGEST, sample_params())
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["model.mtlc"]

    @pytest.mark.parametrize(
        "target_is_dir,data,error",
        [(True, "text", IsADirectoryError), (False, 5, TypeError)],
        ids=["rename onto a directory", "write of a non-bytes value"],
    )
    def test_failed_atomic_write_leaves_target_and_no_tmp(self, tmp_path, target_is_dir, data, error):
        target = tmp_path / "target.txt"
        if target_is_dir:
            target.mkdir()
            (target / "kept").write_text("old")
        else:
            target.write_text("old")
        with pytest.raises(error):
            write_atomic(str(target), data)
        assert (target / "kept" if target_is_dir else target).read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target.txt"]
