"""Tests for the checksummed binary weights format.

Corruption cases are built by editing real files (or assembling blobs
from the documented layout) so every failure branch of the loader runs.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bolf.model import ModelConfig, ModelParams, init_params
from bolf.weights import (
    MAGIC,
    VERSION,
    WeightsError,
    load_weights,
    save_weights,
)


@pytest.fixture()
def named():
    rng = np.random.default_rng(0)
    return {
        "alpha": rng.normal(size=(3, 4)),
        "beta": rng.normal(size=(7,)),
        "gamma": np.array(2.5),  # rank-0
    }


def _reseal(blob: bytes) -> bytes:
    """Recompute the trailing checksum after editing a body."""
    return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)


def _reference_load(path) -> dict[str, np.ndarray]:
    """The tensor-by-tensor decoder the one-pass load_weights replaced,
    kept as its reference."""
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 12:
        raise WeightsError("too short")
    if data[:4] != MAGIC:
        raise WeightsError("bad magic")
    if struct.unpack_from("<I", data, len(data) - 4)[0] != zlib.crc32(data[:-4]):
        raise WeightsError("checksum mismatch")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise WeightsError("unsupported format version")
    pos = 12
    end = len(data) - 4

    def need(n: int):
        if pos + n > end:
            raise WeightsError("truncated weights file")

    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        need(4)
        (name_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        need(name_len)
        name = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        need(4)
        (rank,) = struct.unpack_from("<I", data, pos)
        pos += 4
        need(8 * rank)
        dims = struct.unpack_from(f"<{rank}Q", data, pos) if rank else ()
        pos += 8 * rank
        n_vals = int(np.prod(dims, dtype=np.int64)) if rank else 1
        need(4 * n_vals)
        arr = np.frombuffer(data, dtype="<f4", count=n_vals, offset=pos).reshape(dims)
        pos += 4 * n_vals
        if name in out:
            raise WeightsError(f"duplicate tensor name {name!r}")
        out[name] = arr.copy()
    if pos != end:
        raise WeightsError("trailing bytes")
    return out


def _assert_same_tensors(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float32 and got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes()


class TestRoundtrip:
    def test_values_and_order(self, named, tmp_path):
        path = tmp_path / "w.bolf"
        save_weights(path, named)
        out = load_weights(path)
        assert list(out) == list(named)
        for key, arr in named.items():
            assert out[key].dtype == np.float32
            assert np.array_equal(out[key], arr.astype(np.float32))

    def test_float64_is_quantized_to_f32(self, tmp_path):
        path = tmp_path / "w.bolf"
        save_weights(path, {"pi": np.array([np.pi])})
        assert load_weights(path)["pi"][0] == np.float32(np.pi)

    def test_save_is_deterministic(self, named, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_weights(a, named)
        save_weights(b, named)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_mapping(self, tmp_path):
        path = tmp_path / "w.bolf"
        save_weights(path, {})
        assert load_weights(path) == {}

    def test_model_parameters_roundtrip(self, tmp_path):
        cfg = ModelConfig(height=16, width=16, channels=1, patch_size=8,
                          dim=8, depth=1, heads=2, mlp_ratio=2)
        params = init_params(cfg, seed=1)
        path = tmp_path / "model.bolf"
        save_weights(path, {n: t.data for n, t in params.named()})
        rebuilt = ModelParams.from_arrays(cfg, load_weights(path))
        for (name, tensor), (_, t) in zip(rebuilt.named(), params.named()):
            assert np.array_equal(tensor.data, t.data.astype(np.float32)), name


class TestDecoder:
    def test_matches_reference_on_default_model(self, tmp_path):
        path = tmp_path / "model.bolf"
        params = init_params(ModelConfig(), seed=0)
        save_weights(path, {n: t.data for n, t in params.named()})
        got = load_weights(path)
        _assert_same_tensors(got, _reference_load(path))
        assert list(got) == [name for name, _ in params.named()]
        for arr in got.values():
            assert arr.flags.writeable and arr.flags.owndata

    def test_bad_utf8_name_is_weights_error(self, tmp_path):
        entry = struct.pack("<I", 1) + b"\xff" + struct.pack("<I", 0) + \
            np.float32(1.0).tobytes()
        path = tmp_path / "w.bolf"
        path.write_bytes(_reseal(MAGIC + struct.pack("<II", VERSION, 1) + entry))
        with pytest.raises(WeightsError, match="bad tensor entry"):
            load_weights(path)

    def test_unrepresentable_shape_is_weights_error(self, tmp_path):
        # a zero dim makes the payload empty, so the file is not short,
        # but no array can have a second dim of 2**63
        entry = struct.pack("<I", 1) + b"x" + struct.pack("<I", 2) + \
            struct.pack("<2Q", 0, 2 ** 63)
        path = tmp_path / "w.bolf"
        path.write_bytes(_reseal(MAGIC + struct.pack("<II", VERSION, 1) + entry))
        with pytest.raises(WeightsError, match="bad tensor entry"):
            load_weights(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_blob(fuzz_dir):
    rng = np.random.default_rng(1)
    path = fuzz_dir / "valid.bolf"
    save_weights(path, {"alpha": rng.normal(size=(3, 4)), "layer0.wq": rng.normal(size=(2, 2)),
                        "gamma": np.array(2.5)})
    return path.read_bytes()


class TestFuzz:
    """Whatever the bytes, load_weights returns tensors or raises
    WeightsError; resealed bodies also reach the parser past the checksum."""

    def _load(self, fuzz_dir, blob: bytes):
        path = fuzz_dir / "fuzzed.bolf"
        path.write_bytes(blob)
        try:
            return load_weights(path)
        except WeightsError:
            return None

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=96))
    def test_arbitrary_bytes(self, fuzz_dir, blob):
        self._load(fuzz_dir, blob)
        self._load(fuzz_dir, _reseal(MAGIC + struct.pack("<I", VERSION) + blob))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncations_and_byte_flips(self, fuzz_dir, valid_blob, data):
        cut = data.draw(st.integers(0, len(valid_blob) - 1))
        assert self._load(fuzz_dir, valid_blob[:cut]) is None
        at = data.draw(st.integers(0, len(valid_blob) - 1))
        flipped = bytearray(valid_blob)
        flipped[at] ^= data.draw(st.integers(1, 255))
        assert self._load(fuzz_dir, bytes(flipped)) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_resealed_edits_agree_with_reference(self, fuzz_dir, valid_blob, data):
        body = bytearray(valid_blob[:-4])
        at = data.draw(st.integers(4, len(body) - 1))
        body[at] ^= data.draw(st.integers(1, 255))
        body = body[:data.draw(st.integers(12, len(body)))]
        path = fuzz_dir / "resealed.bolf"
        path.write_bytes(_reseal(bytes(body)))
        got = self._load(fuzz_dir, path.read_bytes())
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # its int64 dims product
                want = _reference_load(path)
        except ValueError:  # WeightsError, or what the old decoder let escape
            want = None
        if want is None:
            assert got is None
        else:
            _assert_same_tensors(got, want)


class TestCorruption:
    @pytest.fixture()
    def path(self, named, tmp_path):
        p = tmp_path / "w.bolf"
        save_weights(p, named)
        return p

    def test_missing_file(self, tmp_path):
        with pytest.raises(WeightsError, match="not found"):
            load_weights(tmp_path / "ghost.bolf")

    def test_flipped_payload_byte(self, path):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightsError, match="checksum"):
            load_weights(path)

    def test_truncated_file(self, path):
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(WeightsError):
            load_weights(path)

    def test_too_short_to_parse(self, path):
        path.write_bytes(b"BOLF\x01")
        with pytest.raises(WeightsError, match="too short"):
            load_weights(path)

    def test_bad_magic(self, path):
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WOLF"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightsError, match="magic"):
            load_weights(path)

    def test_unsupported_version(self, path):
        blob = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<I", blob, 4, VERSION + 1)
        path.write_bytes(_reseal(bytes(blob)))
        with pytest.raises(WeightsError, match="version"):
            load_weights(path)

    def test_duplicate_tensor_names(self, path):
        # assemble a two-entry blob reusing one name, per the documented
        # layout: count=2, then (name_len, name, rank, dims, payload) x2
        entry = struct.pack("<I", 1) + b"x" + struct.pack("<I", 1) + \
            struct.pack("<Q", 1) + np.float32(3.0).tobytes()
        blob = MAGIC + struct.pack("<II", VERSION, 2) + entry + entry
        path.write_bytes(_reseal(blob))
        with pytest.raises(WeightsError, match="duplicate"):
            load_weights(path)

    def test_trailing_garbage(self, path):
        blob = path.read_bytes()[:-4] + b"\x00\x00\x00"
        path.write_bytes(_reseal(blob))
        with pytest.raises(WeightsError, match="trailing"):
            load_weights(path)

    def test_payload_shorter_than_declared(self, path):
        # count says one tensor but the payload bytes are missing
        blob = MAGIC + struct.pack("<II", VERSION, 1) + \
            struct.pack("<I", 1) + b"x" + struct.pack("<I", 1) + struct.pack("<Q", 8)
        path.write_bytes(_reseal(blob))
        with pytest.raises(WeightsError, match="truncated"):
            load_weights(path)
