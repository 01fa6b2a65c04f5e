"""Tests for the synthetic corpus: netpbm I/O, generator contracts
(determinism, retention, subtlety), perturbations, and manifests.

The single-pixel file oracle is written out byte-for-byte so any change
to the header encoding fails loudly.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bolf.data as data
from bolf.cli import EXIT_OK, main
from bolf.data import (
    FAMILIES,
    MANIFEST_COLUMNS,
    PERTURBATION_KINDS,
    DatasetSpec,
    FormatError,
    ImageSample,
    PerturbationSpec,
    build_dataset,
    build_split,
    gen_manipulated,
    gen_original,
    load_manifest,
    perturb,
    read_ppm,
    sample_filename,
    write_dataset,
    write_ppm,
)

SPEC32 = DatasetSpec()  # family A, 32x32, defaults


@pytest.fixture(scope="module")
def pair():
    orig = gen_original(SPEC32, "A-test-007", 2)
    return orig, gen_manipulated(orig, SPEC32)


@pytest.fixture(scope="module")
def image():
    return gen_original(SPEC32, "A-p-000", 0).pixels


class TestNetpbmIO:
    def test_single_white_pixel_file_bytes(self, tmp_path):
        """The canonical tiny file, frozen byte for byte."""
        path = tmp_path / "white.ppm"
        write_ppm(path, np.ones((1, 1, 3)))
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_single_black_pixel_pgm(self, tmp_path):
        path = tmp_path / "black.pgm"
        write_ppm(path, np.zeros((1, 1, 1)))
        assert path.read_bytes() == b"P5\n1 1\n255\n\x00"

    def test_roundtrip_grid_values_exactly(self, tmp_path):
        # pixels on the k/255 grid survive write -> read untouched
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 7, 3)) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, pixels)
        assert np.array_equal(read_ppm(path), pixels)

    def test_roundtrip_gray(self, tmp_path):
        pixels = np.linspace(0.0, 1.0, 16).reshape(4, 4, 1)
        path = tmp_path / "img.pgm"
        write_ppm(path, pixels)
        back = read_ppm(path)
        assert back.shape == (4, 4, 1)
        assert np.abs(back - pixels).max() <= 0.5 / 255.0 + 1e-12

    def test_out_of_range_values_are_clipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_ppm(path, np.array([[[-0.5], [1.5]]]))
        assert np.array_equal(read_ppm(path).reshape(-1), [0.0, 1.0])

    def test_write_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(FormatError):
            write_ppm(tmp_path / "x", np.zeros((4, 4)))
        with pytest.raises(FormatError):
            write_ppm(tmp_path / "x", np.zeros((4, 4, 2)))

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        assert read_ppm(path).shape == (1, 2, 3)

    @pytest.mark.parametrize("blob", [
        b"P3\n1 1\n255\n1 2 3\n",          # ascii variant
        b"P2\n1 1\n255\n7\n",              # ascii gray
        b"P7\n1 1\n255\n" + bytes(3),      # unknown magic
        b"P6\n1 1\n65535\n" + bytes(6),    # wide maxval
        b"P6\n1 1\n255\n\xff",             # truncated payload
        b"P6\n0 1\n255\n",                 # zero dimension
        b"P6\nab cd\n255\n" + bytes(3),    # non-numeric header
        b"P6",                             # nothing after magic
    ])
    def test_malformed_files_rejected(self, tmp_path, blob):
        path = tmp_path / "bad"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_width_digit_flip_is_rejected(self, tmp_path):
        # a 3x2 file whose width digit became 1 would decode as a 1x2 image
        # from the first 6 of its 18 payload bytes
        path = tmp_path / "flip.ppm"
        path.write_bytes(b"P6\n1 2\n255\n" + bytes(range(18)))
        with pytest.raises(FormatError, match="oversized payload"):
            read_ppm(path)

    def test_trailing_byte_is_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_ppm(path, np.zeros((2, 3, 1)))
        assert read_ppm(path).shape == (2, 3, 1)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="expected 6 bytes, got 7"):
            read_ppm(path)

    @staticmethod
    def _read_or_reject(path, blob: bytes) -> None:
        path.write_bytes(blob)
        try:
            pixels = read_ppm(path)
        except FormatError:
            return
        assert pixels.ndim == 3 and pixels.shape[2] in (1, 3)
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(blob=st.one_of(st.binary(max_size=64),
                          st.binary(max_size=48).map(lambda b: b"P5" + b),
                          st.binary(max_size=48).map(lambda b: b"P6\n" + b)))
    def test_fuzzed_bytes_decode_or_raise_format_error(self, tmp_path_factory, blob):
        self._read_or_reject(tmp_path_factory.getbasetemp() / "fuzzed.pgm", blob)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_truncations_and_flips(self, tmp_path_factory, data):
        blob = b"P6\n# c\n3 2\n255\n" + bytes(range(18))
        path = tmp_path_factory.getbasetemp() / "fuzzed.ppm"
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(FormatError):
            read_ppm(path)
        flipped = bytearray(blob)
        flipped[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        self._read_or_reject(path, bytes(flipped))


def _reference_header_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    """The byte-by-byte header walk read_ppm once made, kept as the
    reference for its one-pass header parse."""
    n = len(blob)
    while pos < n:
        ch = blob[pos:pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and blob[pos:pos + 1] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise FormatError("truncated header")
    return blob[start:pos], pos


def _reference_read_ppm(blob: bytes) -> np.ndarray:
    """read_ppm as the token walk decoded a file's bytes."""
    magic = blob[:2]
    if magic not in (b"P6", b"P5"):
        raise FormatError(f"unsupported magic {magic!r}; only binary P6/P5 are accepted")
    channels = 3 if magic == b"P6" else 1
    w_tok, pos = _reference_header_token(blob, 2)
    h_tok, pos = _reference_header_token(blob, pos)
    max_tok, pos = _reference_header_token(blob, pos)
    try:
        w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if w < 1 or h < 1:
        raise FormatError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255 is accepted")
    pos += 1
    expected = h * w * channels
    payload = blob[pos:]
    if len(payload) != expected:
        problem = "truncated" if len(payload) < expected else "oversized"
        raise FormatError(f"{problem} payload: expected {expected} bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)
    return arr.astype(np.float64) / 255.0


_SEPARATORS = st.sampled_from([b" ", b"\t", b"\r", b"\n"])
_COMMENTS = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
# separators, comments and what is neither: b"\f" and b"\v" are whitespace
# to int() but not header separators, so they join the token they touch,
# and a comment without its b"\n" runs on over what follows it
_GAP_PIECES = st.one_of(_SEPARATORS, _COMMENTS, st.sampled_from([b"\f", b"\v"]),
                        st.binary(max_size=4).map(lambda b: b"#" + b))
# a gap that starts with a separator, so that a comment in it starts
# where a token may start
_CLEAN_GAPS = st.tuples(_SEPARATORS, st.lists(st.one_of(_SEPARATORS, _COMMENTS),
                                              max_size=3)).map(lambda t: t[0] + b"".join(t[1]))
# any gap, which may also glue a comment or a b"\f" to the token before it
_GAPS = st.one_of(
    st.tuples(_SEPARATORS, st.lists(_GAP_PIECES, max_size=3)).map(
        lambda t: t[0] + b"".join(t[1])),
    st.lists(_GAP_PIECES, max_size=3).map(b"".join))


@st.composite
def _number_token(draw, values, signs):
    """A decimal token int() reads as one of ``values``: a sign from
    ``signs``, leading zeros, maybe an underscore between digits, and
    maybe a b"\f" or b"\v" before or after it."""
    digits = str(draw(values))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    number = (draw(st.sampled_from(signs)) + "0" * draw(st.integers(0, 2)) + digits).encode()
    pad = st.sampled_from([b"", b"", b"\f", b"\v"])
    return draw(pad) + number + draw(pad)


@st.composite
def _netpbm_files(draw, well_formed: bool):
    """A P5 or P6 file: three header tokens with a gap before each, one
    gap after them, and a payload. A well-formed file has clean gaps, a
    valid header, one separator before the payload and the declared
    number of payload bytes. Otherwise any gap, sign, size and maxval may
    be drawn, the payload may be a byte short or long, and the file may be
    cut anywhere."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    if well_formed:
        dims, maxvals, signs = st.integers(1, 3), st.just(255), ["", "+"]
        gaps, last_gap = _CLEAN_GAPS, _SEPARATORS
    else:
        dims, maxvals, signs = st.integers(0, 3), st.sampled_from([255, 0, 65535]), ["", "+", "-"]
        gaps, last_gap = _GAPS, st.one_of(_SEPARATORS, _GAPS)
    w = draw(_number_token(dims, signs))
    h = draw(_number_token(dims, signs))
    maxval = draw(_number_token(maxvals, signs))
    blob = b"".join([magic, draw(gaps), w, draw(gaps), h, draw(gaps), maxval, draw(last_gap)])
    size = int(w) * int(h) * (3 if magic == b"P6" else 1)
    if not well_formed:
        size = max(size + draw(st.sampled_from([0, -1, 1])), 0)
    blob += draw(st.binary(min_size=size, max_size=size))
    if not well_formed and draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob)))]
    return blob


class TestHeaderParse:
    """read_ppm's one-pass header parse against the token walk it replaced:
    each file gives the walk's pixels or the walk's FormatError message."""

    @staticmethod
    def _agrees(path, blob: bytes) -> None:
        path.write_bytes(blob)
        try:
            want = _reference_read_ppm(blob)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_ppm(path)
            assert str(got.value) == str(exc)
            return
        pixels = read_ppm(path)
        assert pixels.dtype == want.dtype and pixels.shape == want.shape
        assert np.array_equal(pixels, want)

    @settings(max_examples=200, deadline=None)
    @given(blob=_netpbm_files(well_formed=True))
    def test_well_formed_headers_decode_as_the_token_walk(self, tmp_path_factory, blob):
        assert _reference_read_ppm(blob).size >= 1
        self._agrees(tmp_path_factory.getbasetemp() / "header.ppm", blob)

    @settings(max_examples=400, deadline=None)
    @given(blob=_netpbm_files(well_formed=False))
    def test_generated_headers_match_the_token_walk(self, tmp_path_factory, blob):
        self._agrees(tmp_path_factory.getbasetemp() / "header.ppm", blob)

    @pytest.mark.parametrize("blob", [
        b"P6 1 1 255 " + bytes(3),             # spaces only
        b"P61 1 255\n" + bytes(3),             # no gap after the magic
        b"P5#c\n1\n#c\n1#c\n255\n" + bytes(1),  # '#' inside the height token
        b"P5 1 1 255#c\n" + bytes(1),          # '#' inside the maxval token
        b"P5 1 1 #c",                          # a comment where maxval should be
        b"P5 1 1 255",                         # no byte after maxval
        b"P5 \f1 1\v 255\n" + bytes(1),        # \f and \v inside tokens
        b"P5 +1 0_1 0255\n" + bytes(1),        # sign, underscore, leading zero
        b"P5 -1 1 255\n",                      # negative width
        b"P5 1 1 255\r\n" + bytes(1),          # the payload starts at \n
    ])
    def test_edge_headers_match_the_token_walk(self, tmp_path, blob):
        self._agrees(tmp_path / "edge.pgm", blob)


class TestOriginals:
    def test_regeneration_is_bit_identical(self):
        a = gen_original(SPEC32, "A-test-000", 3)
        b = gen_original(SPEC32, "A-test-000", 3)
        assert np.array_equal(a.pixels, b.pixels)

    def test_basic_contract(self):
        s = gen_original(SPEC32, "vid", 0)
        assert s.pixels.shape == (32, 32, 1)
        assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0
        assert s.label == 0
        assert s.tamper_mask is None
        assert s.family == "A"

    def test_frames_of_one_video_differ_but_share_base(self):
        f0 = gen_original(SPEC32, "vid", 0).pixels
        f1 = gen_original(SPEC32, "vid", 1).pixels
        assert not np.array_equal(f0, f1)
        # jitter is faint, so frames stay close
        assert np.abs(f0 - f1).mean() < 0.05

    def test_videos_differ(self):
        a = gen_original(SPEC32, "vid-a", 0).pixels
        b = gen_original(SPEC32, "vid-b", 0).pixels
        assert np.abs(a - b).mean() > 1e-4

    def test_families_differ(self):
        spec_b = DatasetSpec(family="B")
        a = gen_original(SPEC32, "vid", 0).pixels
        b = gen_original(spec_b, "vid", 0).pixels
        assert not np.array_equal(a, b)

    def test_three_channel_support(self):
        spec = DatasetSpec(channels=3)
        s = gen_original(spec, "vid", 0)
        assert s.pixels.shape == (32, 32, 3)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(family="C")


class TestManipulated:
    def test_labels_and_ids(self, pair):
        orig, fake = pair
        assert fake.label == 1
        assert fake.video_id == orig.video_id + "-f"
        assert fake.frame_idx == orig.frame_idx
        assert fake.family == orig.family

    def test_mask_present_and_boolean(self, pair):
        _, fake = pair
        assert fake.tamper_mask is not None
        assert fake.tamper_mask.dtype == bool
        assert fake.tamper_mask.shape == (32, 32)

    def test_mask_area_fraction_in_band(self):
        for vid in range(6):
            orig = gen_original(SPEC32, f"A-x-{vid:03d}", 0)
            fake = gen_manipulated(orig, SPEC32)
            frac = fake.tamper_mask.mean()
            assert 0.02 <= frac <= 0.15, f"video {vid}: {frac}"

    def test_retention_outside_mask(self, pair):
        """Fake pixels off the tamper region are the original's, bitwise."""
        orig, fake = pair
        outside = ~fake.tamper_mask
        assert np.array_equal(fake.pixels[outside], orig.pixels[outside])

    def test_tamper_actually_changes_region(self, pair):
        orig, fake = pair
        inside = fake.tamper_mask
        assert np.abs(fake.pixels[inside] - orig.pixels[inside]).max() > 1e-3

    def test_subtlety_global_mean_change(self):
        for vid in range(6):
            orig = gen_original(SPEC32, f"A-y-{vid:03d}", 0)
            fake = gen_manipulated(orig, SPEC32)
            assert np.abs(fake.pixels - orig.pixels).mean() < 0.05

    def test_manipulation_shared_across_frames(self):
        # one tamper drawn per source video: both frames get the same mask
        f0 = gen_manipulated(gen_original(SPEC32, "A-z-000", 0), SPEC32)
        f1 = gen_manipulated(gen_original(SPEC32, "A-z-000", 1), SPEC32)
        assert np.array_equal(f0.tamper_mask, f1.tamper_mask)

    def test_deterministic(self):
        orig = gen_original(SPEC32, "A-q-000", 0)
        a = gen_manipulated(orig, SPEC32)
        b = gen_manipulated(orig, SPEC32)
        assert np.array_equal(a.pixels, b.pixels)

    def test_rejects_already_fake_input(self, pair):
        _, fake = pair
        with pytest.raises(ValueError):
            gen_manipulated(fake, SPEC32)

    def test_pixels_stay_in_unit_range(self, pair):
        _, fake = pair
        assert fake.pixels.min() >= 0.0 and fake.pixels.max() <= 1.0


class TestPerturb:
    def test_level_zero_is_identity_copy(self, image):
        out = perturb(image, PerturbationSpec("gaussian_noise", 0), seed=1)
        assert np.array_equal(out, image)
        assert out is not image

    def test_deterministic_per_seed(self, image):
        spec = PerturbationSpec("gaussian_noise", 3)
        a = perturb(image, spec, seed=5)
        b = perturb(image, spec, seed=5)
        c = perturb(image, spec, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kind", PERTURBATION_KINDS)
    def test_each_kind_changes_the_image(self, image, kind):
        out = perturb(image, PerturbationSpec(kind, 3), seed=2)
        assert out.shape == image.shape
        assert not np.array_equal(out, image)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_brightness_shift_magnitude(self):
        flat = np.full((8, 8, 1), 0.5)
        out = perturb(flat, PerturbationSpec("brightness_shift", 3), seed=0)
        # +-0.05 per level; mid-gray never clips at level 3
        assert abs(abs(out.mean() - 0.5) - 0.15) < 1e-12

    def test_blur_preserves_constant_image(self):
        flat = np.full((8, 8, 1), 0.5)
        out = perturb(flat, PerturbationSpec("gaussian_blur", 2), seed=0)
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_block_quantize_preserves_constant_image(self):
        flat = np.full((12, 12, 1), 0.5)
        out = perturb(flat, PerturbationSpec("block_quantize", 3), seed=0)
        assert np.array_equal(out, flat)

    def test_block_quantize_flattens_blocks(self, image):
        out = perturb(image, PerturbationSpec("block_quantize", 1), seed=0)
        # every 2x2 tile collapses to a single value
        assert np.array_equal(out[0::2, 0::2], out[1::2, 0::2])
        assert np.array_equal(out[0::2, 0::2], out[0::2, 1::2])

    @staticmethod
    def _block_mean_per_tile(pixels, block):
        """One tile at a time: the oracle that _block_mean must match."""
        out = np.empty_like(pixels)
        h, w = pixels.shape[:2]
        for i in range(0, h, block):
            for j in range(0, w, block):
                tile = pixels[i:i + block, j:j + block]
                out[i:i + block, j:j + block] = tile.mean(axis=(0, 1), keepdims=True)
        return out

    @pytest.mark.parametrize("shape", [(32, 32, 1), (30, 28, 3), (17, 33, 1), (5, 7, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_mean_matches_the_per_tile_loop(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        # every level's block (2-10), odd blocks, and one larger than the frame
        for block in (*range(1, 13), 40):
            for scale in (1.0, 1e3):
                pixels = (rng.random(shape) * scale).astype(dtype)
                got = data._block_mean(pixels, block)
                want = self._block_mean_per_tile(pixels, block)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes(), block

    @pytest.mark.parametrize("shape", [(32, 32, 1), (30, 28, 3), (17, 33, 1), (5, 7, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_block_mean_over_a_stack_matches_each_frame(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        for block in (*range(1, 13), 40):
            stack = (rng.random((5, *shape)) * 1e3).astype(dtype)
            got = data._block_mean(stack, block)
            assert got.dtype == dtype and got.shape == stack.shape
            for frame, out in zip(stack, got):
                assert out.tobytes() == data._block_mean(frame, block).tobytes(), block

    def test_stack_needs_one_spec_and_one_seed_per_frame(self, image):
        stack = np.stack([image, image])
        spec = PerturbationSpec("gaussian_noise", 1)
        with pytest.raises(ValueError):
            perturb(stack, [spec], [0, 1])
        with pytest.raises(ValueError):
            perturb(stack, [spec, spec], [0])

    def test_higher_levels_distort_more(self, image):
        d1 = np.abs(perturb(image, PerturbationSpec("gaussian_noise", 1), 3) - image).mean()
        d5 = np.abs(perturb(image, PerturbationSpec("gaussian_noise", 5), 3) - image).mean()
        assert d5 > d1

    def test_random_level_is_deterministic(self, image):
        spec = PerturbationSpec("gaussian_blur", "random")
        a = perturb(image, spec, seed=9)
        b = perturb(image, spec, seed=9)
        assert np.array_equal(a, b)

    def test_mix_composes_multiple_kinds(self, image):
        spec = PerturbationSpec("mix", 2, mix_count=3)
        a = perturb(image, spec, seed=4)
        b = perturb(image, spec, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, image)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec("sepia", 1)
        with pytest.raises(ValueError):
            PerturbationSpec("gaussian_noise", 6)
        with pytest.raises(ValueError):
            PerturbationSpec("gaussian_noise", -1)
        with pytest.raises(ValueError):
            PerturbationSpec("mix", 1, mix_count=5)
        # mix ignores the kind label, any level 0..5 or "random" is fine
        PerturbationSpec("mix", "random", mix_count=2)


class TestDatasetAssembly:
    def test_split_sizes_and_balance(self, tiny_splits, tiny_spec):
        assert len(tiny_splits.train) == tiny_spec.train_count
        assert len(tiny_splits.val) == tiny_spec.val_count
        assert len(tiny_splits.test) == tiny_spec.test_count
        for name in ("train", "val", "test"):
            samples = tiny_splits.split(name)
            labels = [s.label for s in samples]
            assert labels.count(0) == labels.count(1)

    def test_every_fake_has_its_original(self, tiny_splits):
        for name in ("train", "val", "test"):
            samples = tiny_splits.split(name)
            originals = {(s.video_id, s.frame_idx) for s in samples if s.label == 0}
            for s in samples:
                if s.label == 1:
                    assert s.video_id.endswith("-f")
                    assert (s.video_id[:-2], s.frame_idx) in originals

    def test_videos_do_not_cross_splits(self, tiny_splits):
        seen = {}
        for name in ("train", "val", "test"):
            for s in tiny_splits.split(name):
                base = s.video_id[:-2] if s.video_id.endswith("-f") else s.video_id
                assert seen.setdefault(base, name) == name

    def test_frames_per_video_respected(self):
        spec = DatasetSpec(train_count=12, val_count=2, test_count=2,
                           frames_per_video=3, height=16, width=16)
        splits = build_dataset(spec)
        per_video = {}
        for s in splits.train:
            if s.label == 0:
                per_video.setdefault(s.video_id, set()).add(s.frame_idx)
        assert len(per_video) == 2  # 6 originals over videos of 3 frames
        assert all(frames == {0, 1, 2} for frames in per_video.values())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(train_count=7)  # odd
        with pytest.raises(ValueError):
            DatasetSpec(val_count=0)
        with pytest.raises(ValueError):
            DatasetSpec(frames_per_video=0)
        with pytest.raises(ValueError):
            DatasetSpec(channels=2)

    def test_split_accessor_rejects_unknown(self, tiny_splits, tiny_spec):
        with pytest.raises(ValueError):
            tiny_splits.split("holdout")
        with pytest.raises(ValueError):
            build_split(tiny_spec, "holdout")

    def test_one_split_alone_matches_the_full_build(self, tiny_splits, tiny_spec):
        # cross-family eval generates only the test split it scores
        alone = build_split(tiny_spec, "test")
        assert len(alone) == len(tiny_splits.test)
        for a, b in zip(alone, tiny_splits.test):
            assert (a.video_id, a.frame_idx, a.label) == (b.video_id, b.frame_idx, b.label)
            assert np.array_equal(a.pixels, b.pixels)


def _fresh_pair(spec, video_id, frame):
    """An original frame and its fake, generated with empty per-video memos."""
    data._video_base.cache_clear()
    data._tamper_plan.cache_clear()
    orig = gen_original(spec, video_id, frame)
    return orig, gen_manipulated(orig, spec)


class TestPerVideoReuse:
    """Each video's base image and tamper plan are computed once and shared
    by its frames; the frames must not change because of it."""

    # seed 9 gives each family all four tamper styles
    PINNED_SPEC = {"train_count": 16, "val_count": 8, "test_count": 8,
                   "frames_per_video": 3, "seed": 9}
    # sha256 of the tree `bolf gen-data` writes with PINNED_SPEC
    # (manifest.csv, then every image in path order)
    PINNED = {
        ("A", 1): "2754032e17da68f8cc2f1b43b4aabfbd649aedbb26e87d6b0bb7939291a6e776",
        ("A", 3): "f81125fd771995ec2947709894e24b4a41cd5fdb9291e3f4cf35cf008ee366c9",
        ("B", 1): "4d228735a4108253498d201a1f9cd1f17d3cd2cd552fb5e259dac12acf74f462",
        ("B", 3): "e06efa9cc888c5867daaee03989fa39cf03e9975814a025dc272953047d517c4",
    }
    # sha256 of every sample's float pixels and tamper mask, in split order,
    # from build_dataset on the same spec: the written images round to 8
    # bits and would miss a last-bit change in the pixels the model reads
    PINNED_SAMPLES = {
        ("A", 1): "6a1cbbcff9dc5ada00737ec430b7747eba108147e824a40a7f285329949c9f53",
        ("A", 3): "e0cca2783caa5d276aca88cd2a3c6026da949ad6f94ab15317686954894c25a9",
        ("B", 1): "bd0d533742bf81983edd767024c6be5da493906ccdac6b324a3379ebfb676922",
        ("B", 3): "8309c07fb3739bc49c023a1ca6a1334d800fa809b4bb127e4a7a8e53311fbae5",
    }

    @pytest.mark.parametrize("family, channels", sorted(PINNED))
    def test_gen_data_corpus_is_pinned(self, tmp_path, family, channels):
        argv = ["gen-data", "--out", str(tmp_path)]
        for key, value in {**self.PINNED_SPEC, "family": family, "channels": channels}.items():
            argv += ["--set", f"data.{key}={value}"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        digest = hashlib.sha256()
        files = [tmp_path / "manifest.csv"] + sorted((tmp_path / "images").rglob("*.p?m"))
        assert len(files) == 1 + 32
        for path in files:
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.PINNED[family, channels]

    @pytest.mark.parametrize("family, channels", sorted(PINNED_SAMPLES))
    def test_build_dataset_samples_are_pinned(self, family, channels):
        splits = build_dataset(DatasetSpec(family=family, channels=channels,
                                           **self.PINNED_SPEC))
        digest = hashlib.sha256()
        for name in ("train", "val", "test"):
            for sample in splits.split(name):
                digest.update(sample.pixels.tobytes())
                if sample.tamper_mask is not None:
                    digest.update(sample.tamper_mask.tobytes())
        assert digest.hexdigest() == self.PINNED_SAMPLES[family, channels]

    def test_build_split_matches_fresh_per_frame_calls(self):
        # 7 and 5 originals over videos of 3 frames: each split ends on a
        # partial video
        spec = DatasetSpec(family="B", channels=3, train_count=14, val_count=10,
                           test_count=4, frames_per_video=3, seed=4)
        for split in ("train", "val"):
            samples = build_split(spec, split)
            for i in range(0, len(samples), 2):
                orig, fake = samples[i], samples[i + 1]
                want_orig, want_fake = _fresh_pair(spec, orig.video_id, orig.frame_idx)
                for got, want in ((orig, want_orig), (fake, want_fake)):
                    assert (got.video_id, got.frame_idx, got.label) == \
                        (want.video_id, want.frame_idx, want.label)
                    assert got.pixels.tobytes() == want.pixels.tobytes()
                assert np.array_equal(fake.tamper_mask, want_fake.tamper_mask)

    def test_writing_a_sample_leaves_the_next_frame_alone(self):
        want_orig, want_fake = _fresh_pair(SPEC32, "A-w-000", 1)
        orig = gen_original(SPEC32, "A-w-000", 0)
        fake = gen_manipulated(orig, SPEC32)
        orig.pixels[:] = 0.0
        fake.pixels[:] = 1.0
        fake.tamper_mask[:] = ~fake.tamper_mask
        next_orig = gen_original(SPEC32, "A-w-000", 1)
        next_fake = gen_manipulated(next_orig, SPEC32)
        assert next_orig.pixels.tobytes() == want_orig.pixels.tobytes()
        assert next_fake.pixels.tobytes() == want_fake.pixels.tobytes()
        assert np.array_equal(next_fake.tamper_mask, want_fake.tamper_mask)


class TestPerturbationPin:
    """The float output of the whole perturbation suite, pinned: a change
    to how a distortion is computed must not move a single bit."""

    # every kind at every level, then the composed suites, on a frame whose
    # sides are multiples of 4 and 8 and one whose sides are not, so that
    # edge tiles are partial for every quantization block in 4, 6, 8, 10
    SPECS = ([PerturbationSpec(kind, level) for kind in PERTURBATION_KINDS
              for level in (0, 1, 2, 3, 4, 5, "random")]
             + [PerturbationSpec("mix", level, mix_count=count) for count in (2, 3, 4)
                for level in (1, 3, 5, "random")])
    SEEDS = (0, 7, 1234)
    # sha256 of every output's bytes, frames outermost, then specs, then seeds
    PINNED = "c0380b48cc19be20a6ed94b29faaa6d275f695eeb548b5c3354cc8f85bdb6741"

    def test_perturbation_suite_is_pinned(self):
        frames = (gen_original(SPEC32, "A-p-000", 0).pixels,
                  gen_original(DatasetSpec(height=30, width=28, channels=3), "A-p-001", 0).pixels)
        digest = hashlib.sha256()
        for frame in frames:
            for spec in self.SPECS:
                for seed in self.SEEDS:
                    out = perturb(frame, spec, seed)
                    assert out.shape == frame.shape and out.dtype == np.float64
                    digest.update(out.tobytes())
        assert digest.hexdigest() == self.PINNED

    # A stack is compared with its frames perturbed one at a time, the
    # path whose bits the pin above holds.
    SHAPES = {"32x32x1": (SPEC32, "A-p-000"),
              "30x28x3": (DatasetSpec(height=30, width=28, channels=3), "A-p-001")}

    @classmethod
    def _stack(cls, shape, n):
        spec, video_id = cls.SHAPES[shape]
        return np.stack([gen_original(spec, video_id, f).pixels for f in range(n)])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_stack_of_every_spec_equals_each_frame_alone(self, shape):
        # every spec of the pin, shuffled across the frames, each frame
        # with a seed of its own
        rng = np.random.default_rng(18)
        specs = [self.SPECS[k] for k in rng.permutation(len(self.SPECS))]
        seeds = [int(seed) for seed in rng.integers(0, 2**31, size=len(specs))]
        stack = self._stack(shape, len(specs))
        got = perturb(stack, specs, seeds)
        assert got.shape == stack.shape and got.dtype == np.float64
        for frame, spec, seed, out in zip(stack, specs, seeds, got):
            assert out.tobytes() == perturb(frame, spec, seed).tobytes(), spec

    @pytest.mark.parametrize("level", [0, 3, "random"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_stack_of_a_kind_per_frame_equals_each_frame_alone(self, level, shape):
        # the shape of the report's "sing" and "rand" rows: one drawn kind
        # per frame at one level, seeds in a run
        stack = self._stack(shape, 64)
        kinds = [PERTURBATION_KINDS[k] for k in
                 np.random.default_rng(71).integers(0, len(PERTURBATION_KINDS), size=len(stack))]
        specs = [PerturbationSpec(kind, level) for kind in kinds]
        seeds = [5 * 9_973 + i for i in range(len(stack))]
        got = perturb(stack, specs, seeds)
        for frame, spec, seed, out in zip(stack, specs, seeds, got):
            assert out.tobytes() == perturb(frame, spec, seed).tobytes(), spec


class TestManifest:
    def test_roundtrip(self, tiny_splits, tiny_spec, tmp_path):
        manifest = write_dataset(tiny_splits, tmp_path / "corpus")
        assert manifest.name == "manifest.csv"
        loaded = load_manifest(manifest)
        for name in ("train", "val", "test"):
            saved = tiny_splits.split(name)
            back = loaded.split(name)
            assert len(back) == len(saved)
            for s, b in zip(saved, back):
                assert (b.label, b.video_id, b.frame_idx, b.family) == \
                       (s.label, s.video_id, s.frame_idx, s.family)
                assert b.tamper_mask is None  # masks are not persisted
                assert np.abs(b.pixels - s.pixels).max() <= 0.5 / 255.0 + 1e-12
        assert loaded.train[0].pixels.shape == \
               (tiny_spec.height, tiny_spec.width, tiny_spec.channels)

    def test_reads_images_of_requested_splits_only(self, tiny_splits, tmp_path, monkeypatch):
        import bolf.data
        manifest = write_dataset(tiny_splits, tmp_path / "corpus")
        full = load_manifest(manifest)
        reads = []
        real_read = bolf.data.read_ppm

        def counted_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(bolf.data, "read_ppm", counted_read)
        part = load_manifest(manifest, ("val",))
        assert len(reads) == len(tiny_splits.val)
        assert part.train == [] and part.test == []
        assert [(s.video_id, s.frame_idx) for s in part.val] == \
               [(s.video_id, s.frame_idx) for s in full.val]
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(part.val, full.val))

    def test_no_splits_validates_rows_and_reads_no_image(self, tiny_splits, tmp_path,
                                                          monkeypatch):
        import bolf.data
        manifest = write_dataset(tiny_splits, tmp_path / "corpus")
        reads = []
        monkeypatch.setattr(bolf.data, "read_ppm", reads.append)
        empty = load_manifest(manifest, ())
        assert (empty.train, empty.val, empty.test) == ([], [], [])
        with manifest.open("a") as fh:
            fh.write("images/train/x.pgm,2,v,0,A,train\n")
        with pytest.raises(FormatError, match="bad label"):
            load_manifest(manifest, ())
        assert reads == []
        with pytest.raises(ValueError):
            load_manifest(manifest, ("holdout",))

    @pytest.mark.parametrize("shape", [(8, 8, 1), (16, 16, 3)])
    def test_images_of_mixed_shapes_rejected(self, tiny_splits, tmp_path, shape):
        # a smaller image, or a colour one among grey ones, would otherwise
        # reach np.stack in the middle of a batch
        manifest = write_dataset(tiny_splits, tmp_path / "corpus")
        rows = manifest.read_text().splitlines()
        first, last = rows[1].split(",")[0], rows[-1].split(",")[0]
        write_ppm(manifest.parent / last, np.zeros(shape))
        with pytest.raises(FormatError) as err:
            load_manifest(manifest)
        assert str(err.value) == (f"image {last} has shape {shape}, but {first} "
                                  f"has (16, 16, 1)")

    def test_rewrite_is_byte_identical(self, tiny_splits, tmp_path):
        first = write_dataset(tiny_splits, tmp_path / "c")
        blob = first.read_bytes()
        sample = tiny_splits.train[0]
        img = first.parent / "images" / "train" / sample_filename(sample)
        img_blob = img.read_bytes()
        second = write_dataset(tiny_splits, tmp_path / "c")
        assert second.read_bytes() == blob
        assert img.read_bytes() == img_blob

    def test_header_is_the_column_tuple(self, tiny_splits, tmp_path):
        manifest = write_dataset(tiny_splits, tmp_path / "c")
        header = manifest.read_text().splitlines()[0]
        assert header == ",".join(MANIFEST_COLUMNS)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_manifest(tmp_path / "nope" / "manifest.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(",".join(MANIFEST_COLUMNS) + "\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def _write_row(self, tmp_path, row):
        path = tmp_path / "manifest.csv"
        path.write_text(",".join(MANIFEST_COLUMNS) + "\n" + row + "\n")
        return path

    def test_bad_label_rejected(self, tmp_path, tiny_splits):
        write_dataset(tiny_splits, tmp_path)
        rel = f"images/train/{sample_filename(tiny_splits.train[0])}"
        path = self._write_row(tmp_path, f"{rel},2,v,0,A,train")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_bad_split_rejected(self, tmp_path, tiny_splits):
        write_dataset(tiny_splits, tmp_path)
        rel = f"images/train/{sample_filename(tiny_splits.train[0])}"
        path = self._write_row(tmp_path, f"{rel},0,v,0,A,holdout")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_bad_frame_index_rejected(self, tmp_path, tiny_splits):
        write_dataset(tiny_splits, tmp_path)
        rel = f"images/train/{sample_filename(tiny_splits.train[0])}"
        path = self._write_row(tmp_path, f"{rel},0,v,x1,A,train")
        with pytest.raises(FormatError, match="frame index"):
            load_manifest(path)

    def test_rows_of_unread_splits_are_still_validated(self, tmp_path, tiny_splits):
        write_dataset(tiny_splits, tmp_path)
        rel = f"images/train/{sample_filename(tiny_splits.train[0])}"
        path = self._write_row(tmp_path, f"{rel},2,v,0,A,train")
        with pytest.raises(FormatError):
            load_manifest(path, ("test",))

    def test_mixed_families_rejected(self, tmp_path, tiny_splits):
        manifest = write_dataset(tiny_splits, tmp_path)
        lines = manifest.read_text().splitlines()
        last = lines[-1].split(",")
        assert last[4] == "A"
        last[4] = "B"
        manifest.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
        with pytest.raises(FormatError, match="mixes families"):
            load_manifest(manifest)

    def test_video_with_both_labels_rejected(self, tmp_path, tiny_splits):
        # scoring would fail later, in video-level AUC, outside the exit codes
        manifest = write_dataset(tiny_splits, tmp_path)
        lines = manifest.read_text().splitlines()
        last = lines[-1].split(",")
        same_video = [l for l in lines[1:-1] if l.split(",")[2] == last[2]]
        assert same_video
        last[1] = "1" if last[1] == "0" else "0"
        manifest.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
        with pytest.raises(FormatError, match="both labels"):
            load_manifest(manifest)

    def test_repeated_frame_rejected(self, tmp_path, tiny_splits):
        # the frame would be counted twice in every metric
        manifest = write_dataset(tiny_splits, tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(FormatError, match="listed twice"):
            load_manifest(manifest)

    def test_video_under_two_splits_rejected(self, tmp_path, tiny_splits):
        # the video's frames would leak from one split into another
        manifest = write_dataset(tiny_splits, tmp_path)
        lines = manifest.read_text().splitlines()
        last = lines[-1].split(",")
        assert last[5] == "test"
        last[5] = "val"
        manifest.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
        with pytest.raises(FormatError, match="listed under splits 'test' and 'val'"):
            load_manifest(manifest)

    def test_unknown_family_rejected(self, tmp_path, tiny_splits):
        write_dataset(tiny_splits, tmp_path)
        rel = f"images/train/{sample_filename(tiny_splits.train[0])}"
        path = self._write_row(tmp_path, f"{rel},0,v,0,C,train")
        with pytest.raises(FormatError, match="unknown family"):
            load_manifest(path)

    def test_oversized_field_rejected(self, tmp_path):
        # csv refuses a field longer than its limit of 131072 characters
        path = self._write_row(tmp_path, "x" * 131073 + ",0,v,0,A,train")
        with pytest.raises(FormatError, match="field larger than field limit"):
            load_manifest(path)

    def test_short_row_rejected(self, tmp_path):
        path = self._write_row(tmp_path, "x,0,v,0,A")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_image_file_rejected(self, tmp_path):
        path = self._write_row(tmp_path, "images/train/ghost.pgm,0,v,0,A,train")
        with pytest.raises((FormatError, OSError)):
            load_manifest(path)

    def test_reads_once_without_an_exists_check(self, tiny_splits, tmp_path, monkeypatch,
                                                 capsys):
        manifest = write_dataset(tiny_splits, tmp_path / "c")
        expected = load_manifest(manifest, ("val",))
        missing = tmp_path / "nope" / "manifest.csv"
        (tmp_path / "d" / "manifest.csv").mkdir(parents=True)

        def no_exists(self, *args, **kwargs):
            raise AssertionError(f"Path.exists({self}) called")

        # undone on the way out, so that pytest's own reporting may call it
        with monkeypatch.context() as patched:
            patched.setattr(type(manifest), "exists", no_exists)
            loaded = load_manifest(manifest, ("val",))
            with pytest.raises(FormatError) as err:
                load_manifest(missing)
            # a manifest path that is a directory is a data error, as any OSError
            with pytest.raises(IsADirectoryError):
                load_manifest(tmp_path / "d" / "manifest.csv")
            code = main(["train", "--out", str(tmp_path / "d")])
        assert [(s.video_id, s.frame_idx) for s in loaded.val] == \
               [(s.video_id, s.frame_idx) for s in expected.val]
        assert str(err.value) == f"manifest not found: {missing}"
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: [Errno 21] Is a directory: ")
