"""Seeded synthetic data: procedural "original" images, locally tampered
fakes, perturbation suites, netpbm image I/O, and ``write_file``, which
writes every artifact.

Two generator families (A and B) differ in base-texture statistics and
tamper-style mix, so training on one and evaluating on the other is a
genuine distribution shift. Every output is a pure function of
(seed, identifiers): regenerating a sample always yields identical bits.

As in the video benchmarks the paper follows, a fake is one manipulation
applied to a whole video. Everything that depends only on the spec and the
video id is computed once per video and reused for its frames: an
original's base image (background, blobs, texture, capture blur) and a
fake's tamper plan (region and feather, style and its draws, residue).
Per frame remain an original's jitter and a fake's composition with the
frame's pixels.

The two properties the generators enforce by construction:
  * retention - a fake is bit-identical to its original outside the
    tamper mask;
  * subtlety - the tampered region is a small fraction of the image and
    the global mean absolute change stays well under 0.05.
"""

from __future__ import annotations

import csv
import errno
import functools
import io
import os
import re
import zlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

SPLITS = ("train", "val", "test")
PERTURBATION_KINDS = ("gaussian_noise", "gaussian_blur", "block_quantize", "brightness_shift")

# perturbation level scales (fixed definitional table)
NOISE_SIGMA_PER_LEVEL = 0.02
BLUR_RADIUS_PER_LEVEL = 1  # pixels; gaussian sigma = radius / 2
QUANT_BLOCK_PER_LEVEL = 2
BRIGHTNESS_PER_LEVEL = 0.05


class FormatError(ValueError):
    """Malformed or unsupported image file."""


@dataclass
class ImageSample:
    """A labeled frame. The tamper mask exists only for evaluation; it is
    never an input to the model or the loss."""

    pixels: np.ndarray  # (H, W, C) floats in [0, 1]
    label: int  # 0 original, 1 manipulated
    video_id: str
    frame_idx: int
    tamper_mask: np.ndarray | None = None  # (H, W) bool, present iff label == 1
    family: str = "A"


@dataclass(frozen=True)
class DatasetSpec:
    """Counts are samples per split, split evenly between labels."""

    family: str = "A"
    train_count: int = 512
    val_count: int = 128
    test_count: int = 128
    frames_per_video: int = 20
    height: int = 32
    width: int = 32
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; have {sorted(FAMILIES)}")
        for name in ("train_count", "val_count", "test_count"):
            n = getattr(self, name)
            if n <= 0:
                raise ValueError(f"{name} must be positive, got {n}")
            if n % 2:
                raise ValueError(f"{name} must be even to balance labels, got {n}")
        if self.frames_per_video < 1:
            raise ValueError("frames_per_video must be >= 1")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**32:  # _rng keeps 32 bits: seed 2**32 would be seed 0
            raise ValueError(f"data seed must be < 2**32, got {self.seed}")


@dataclass(frozen=True)
class PerturbationSpec:
    kind: str
    level: int | str = 1  # 1..5, 0 for identity, or "random"
    mix_count: int = 1

    def __post_init__(self):
        if self.mix_count == 1 and self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; have {PERTURBATION_KINDS}")
        if self.level != "random" and not (isinstance(self.level, int) and 0 <= self.level <= 5):
            raise ValueError(f"level must be 0..5 or 'random', got {self.level!r}")
        if not 1 <= self.mix_count <= len(PERTURBATION_KINDS):
            raise ValueError(f"mix_count must be 1..{len(PERTURBATION_KINDS)}")


@dataclass(frozen=True)
class FamilyStyle:
    """Fixed constants that make a generator family what it is."""

    texture: str  # "smooth" | "block"
    texture_std: float
    bg_contrast: float
    blob_amp: tuple[float, float]
    tamper_mix: tuple[float, float, float, float]  # warp, texture_sub, color_shift, patch_blend
    tamper_amp: float


FAMILIES: dict[str, FamilyStyle] = {
    "A": FamilyStyle(texture="smooth", texture_std=0.020, bg_contrast=0.04,
                     blob_amp=(0.02, 0.06), tamper_mix=(0.25, 0.35, 0.20, 0.20),
                     tamper_amp=1.0),
    "B": FamilyStyle(texture="block", texture_std=0.045, bg_contrast=0.06,
                     blob_amp=(0.03, 0.08), tamper_mix=(0.20, 0.20, 0.30, 0.30),
                     tamper_amp=1.15),
}

FAKE_SUFFIX = "-f"  # a fake's video id is its original's plus this suffix
PARTNER_FAMILY = {"A": "B", "B": "A"}  # whose test split a cross_family eval scores

_TAMPER_STYLES = ("warp", "texture_sub", "color_shift", "patch_blend")


def _rng(*keys) -> np.random.Generator:
    """Generator derived stably from a mix of ints and strings, each int
    reduced to its low 32 bits: ``perturb``'s per-frame seeds among them,
    which pass 2**32 from ``data.seed = 4295`` on."""
    entropy = [k if isinstance(k, (int, np.integer)) else zlib.crc32(str(k).encode())
               for k in keys]
    return np.random.default_rng(np.random.SeedSequence([int(k) & 0xFFFFFFFF for k in entropy]))


# ---------------------------------------------------------------------------
# original images
# ---------------------------------------------------------------------------

def _family_texture(style: FamilyStyle, rng: np.random.Generator,
                    h: int, w: int, c: int) -> np.ndarray:
    if style.texture == "smooth":
        raw = gaussian_filter(rng.standard_normal((h, w)), sigma=1.2)
    else:  # blocky 2x2 grain
        half = rng.standard_normal(((h + 1) // 2, (w + 1) // 2))
        raw = np.kron(half, np.ones((2, 2)))[:h, :w]
    raw = raw / max(raw.std(), 1e-9) * style.texture_std
    return np.repeat(raw[:, :, None], c, axis=2)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array that a per-video memo holds as read-only."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=1)
def _video_base(spec: DatasetSpec, video_id: str) -> np.ndarray:
    """The (H, W, C) base image that every frame of a video shares:
    background gradient, blobs, family texture and capture blur.

    Memoized for the last video asked for, since frames come in video
    order; the array is read-only.
    """
    style = FAMILIES[spec.family]
    h, w, c = spec.height, spec.width, spec.channels
    base_rng = _rng(spec.seed, "base", video_id)

    yy, xx = np.meshgrid(np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w), indexing="ij")
    gx, gy = base_rng.uniform(-1.0, 1.0, size=2)
    img2d = 0.5 + style.bg_contrast * ((xx - 0.5) * gx + (yy - 0.5) * gy)

    lo, hi = style.blob_amp
    for _ in range(int(base_rng.integers(2, 5))):
        cx, cy = base_rng.uniform(0.22, 0.78, size=2)
        ax, ay = base_rng.uniform(0.09, 0.30, size=2)
        amp = base_rng.uniform(lo, hi) * base_rng.choice((-1.0, 1.0))
        d = ((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2
        img2d = img2d + amp / (1.0 + np.exp((d - 1.0) / 0.18))

    img = np.repeat(img2d[:, :, None], c, axis=2)
    if c == 3:
        img = img + base_rng.uniform(-0.05, 0.05, size=3)[None, None, :]
    img = img + _family_texture(style, base_rng, h, w, c)

    # Per-video capture finish: some cameras/encoders are soft, some crisp.
    # Varying sharpness within the originals keeps global crispness from
    # carrying any label information.
    if base_rng.random() >= 0.4:
        sigma_v = base_rng.uniform(0.3, 1.1)
        img = gaussian_filter(img, sigma=(sigma_v, sigma_v, 0))
    return _frozen(img)


def gen_original(spec: DatasetSpec, video_id: str, frame_idx: int) -> ImageSample:
    """Procedural face-like frame: smooth background gradient, a few soft
    filled ellipses, and low-amplitude family texture.

    All frames of one video share the same base image (background, blobs,
    texture, capture blur), computed once per video; per frame only the
    jitter is drawn: faint smooth noise and a brightness wobble.
    """
    h, w = spec.height, spec.width
    img = _video_base(spec, video_id)
    frame_rng = _rng(spec.seed, "frame", video_id, frame_idx)
    jitter = gaussian_filter(frame_rng.standard_normal((h, w)), sigma=1.0)
    jitter = jitter / max(jitter.std(), 1e-9) * 0.008
    img = img + jitter[:, :, None] + frame_rng.uniform(-0.008, 0.008)

    return ImageSample(pixels=np.clip(img, 0.0, 1.0), label=0,
                       video_id=video_id, frame_idx=frame_idx,
                       tamper_mask=None, family=spec.family)


# ---------------------------------------------------------------------------
# tampering
# ---------------------------------------------------------------------------

def _tamper_region(rng: np.random.Generator, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """A contiguous rectangle or ellipse inside the central half.

    Returns (mask, feather) where feather ramps from 1 in the interior to
    0 at the mask boundary; the mask covers 2-25% of the image area.
    """
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    area = rng.uniform(0.04, 0.10) * h * w
    aspect = rng.uniform(0.75, 1.3)
    cap = 0.23 * min(h, w)  # keeps the region inside the central half
    shape = rng.choice(("ellipse", "rect"))
    if shape == "ellipse":
        ra = min(np.sqrt(area * aspect / np.pi), cap)
        rb = min(np.sqrt(area / (aspect * np.pi)), cap)
    else:
        ra = min(0.5 * np.sqrt(area * aspect), cap)
        rb = min(0.5 * np.sqrt(area / aspect), cap)
    cy = rng.uniform(0.25 * h + rb, 0.75 * h - rb)
    cx = rng.uniform(0.25 * w + ra, 0.75 * w - ra)
    if shape == "ellipse":
        d = np.sqrt(((xx - cx) / ra) ** 2 + ((yy - cy) / rb) ** 2)
    else:
        d = np.maximum(np.abs(xx - cx) / ra, np.abs(yy - cy) / rb)
    mask = d <= 1.0
    feather = np.clip((1.0 - d) / 0.35, 0.0, 1.0)
    feather[~mask] = 0.0
    return mask, feather


def _lattice(h: int, w: int) -> np.ndarray:
    """±1 checkerboard of 4x4-px blocks."""
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.where((yy // 4 + xx // 4) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class _TamperPlan:
    """Everything one fake video's manipulation draws; no draw depends on
    pixels. Arrays are read-only and broadcast over channels."""

    restyle: Callable[[np.ndarray], np.ndarray]  # a frame's pixels -> its style's content
    mask: np.ndarray  # (H, W) bool
    alpha: np.ndarray  # (H, W, 1) feather
    keep: np.ndarray  # 1 - alpha
    grain_term: np.ndarray  # residue: (alpha * grain) * lattice
    tilt_term: np.ndarray  # residue: alpha * tilt


@functools.lru_cache(maxsize=1)
def _tamper_plan(spec: DatasetSpec, video_id: str) -> _TamperPlan:
    """Draw the manipulation of the source video ``video_id`` once: each
    style's branch draws its values and defines its per-frame content.

    Memoized for the last video asked for, like :func:`_video_base`.
    """
    style = FAMILIES[spec.family]
    h, w = spec.height, spec.width
    rng = _rng(spec.seed, "tamper", video_id)

    mask, feather = map(_frozen, _tamper_region(rng, h, w))
    alpha = feather[:, :, None]
    kind = _TAMPER_STYLES[rng.choice(len(_TAMPER_STYLES), p=style.tamper_mix)]
    amp = style.tamper_amp
    if kind in ("warp", "patch_blend"):  # content moved from elsewhere in the image
        lo, hi = (4, 8) if kind == "warp" else (h // 4, h // 2)
        roll = rng.choice((-1, 1), size=2) * rng.integers(lo, hi, size=2)  # (dy, dx)

        def restyle(src):
            return np.roll(src, roll, axis=(0, 1))
    elif kind == "texture_sub":
        tex = _frozen(rng.standard_normal((h, w)) * 0.18 * amp)[:, :, None]

        def restyle(src):
            return gaussian_filter(src, sigma=(1.2, 1.2, 0)) + tex
    else:  # color_shift
        contrast = rng.uniform(1.4, 1.8) if rng.random() < 0.5 else rng.uniform(0.35, 0.6)
        shift = rng.choice((-1.0, 1.0)) * rng.uniform(0.09, 0.15) * amp

        def restyle(src):
            region_mean = src[mask].mean(axis=0)
            return region_mean + contrast * (src - region_mean) + shift

    # Every style leaves the residue real pipelines do: a blending lattice
    # plus a low-frequency color mismatch, both confined to the mask. The
    # lattice alternates every 4 px (period 8 px), deliberately below the
    # Nyquist reach of the post-hoc distortions: a sigma=1.5 blur keeps
    # half its fundamental and 2x2 averaging keeps it outright, so the
    # signature stays detectable where single-pixel grain would vanish.
    grain = rng.uniform(0.16, 0.24) * amp
    tilt = rng.uniform(0.12, 0.18) * amp
    return _TamperPlan(restyle=restyle, mask=mask, alpha=alpha, keep=_frozen(1.0 - alpha),
                       grain_term=_frozen((alpha * grain) * _lattice(h, w)[:, :, None]),
                       tilt_term=_frozen(alpha * tilt))


def gen_manipulated(original: ImageSample, spec: DatasetSpec) -> ImageSample:
    """Derive a tampered copy of an original frame.

    The region, style, style parameters and residue are drawn once per
    source video (the tamper plan), so all frames of the derived fake
    video share the same manipulation (analogous to one fake video); per
    frame only the composition with the frame's pixels is computed. Pixels
    outside the mask are bit-identical to the original.
    """
    if original.label != 0:
        raise ValueError("gen_manipulated needs an original (label 0) sample")
    plan = _tamper_plan(spec, original.video_id)
    src = original.pixels
    out = plan.alpha * plan.restyle(src) + plan.keep * src
    out = out + plan.grain_term + plan.tilt_term

    out = np.clip(out, 0.0, 1.0)
    pixels = src.copy()
    pixels[plan.mask] = out[plan.mask]
    return ImageSample(pixels=pixels, label=1,
                       video_id=original.video_id + FAKE_SUFFIX,
                       frame_idx=original.frame_idx,
                       tamper_mask=plan.mask.copy(), family=original.family)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def _bands(n: int, block: int) -> list[tuple[slice, int]]:
    """An axis of length n as at most two bands, the full tiles and then
    the short remainder: each band's slice and its tile length."""
    full = n - n % block
    bands = [(slice(0, full), block)] if full else []
    if n % block:
        bands.append((slice(full, n), n % block))
    return bands


def _block_mean(pixels: np.ndarray, block: int) -> np.ndarray:
    """Each block x block tile of an (..., H, W, C) image or stack of images
    replaced by its per-channel mean; tiles start at the top left, so the
    last row and column of tiles may be short.

    Within each of the at most four bands all tiles have one shape; they
    are copied out contiguous and summed along one axis, which adds each
    tile's pixels in the order ``tile.mean(axis=(0, 1))`` does, so the
    result equals the per-tile mean bit for bit, whatever the leading axes.
    """
    *lead, h, w, c = pixels.shape
    out = np.empty_like(pixels)
    for rows, nr in _bands(h, block):
        for cols, nc in _bands(w, block):
            band = pixels[..., rows, cols, :]
            r, q = band.shape[-3] // nr, band.shape[-2] // nc
            tiles = np.moveaxis(band.reshape(*lead, r, nr, q, nc, c), -4, -3)
            means = tiles.reshape(*lead, r, q, nr * nc, c).sum(axis=-2) / (nr * nc)
            # splitting axes only, so this is a view of out's band: each
            # mean is written over its own tile, with no repeated copy
            out_tiles = out[..., rows, cols, :].reshape(*lead, r, nr, q, nc, c)
            out_tiles[...] = means[..., :, None, :, None, :]
    return out


def _apply_kind(stack: np.ndarray, kind: str, level: int,
                rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """One distortion at one level over an (N, H, W, C) stack, as a new
    array. Only noise and brightness consume ``rngs``, one generator per
    frame in stack order, and draw from each as the frame alone would."""
    if kind == "gaussian_noise":
        sigma = NOISE_SIGMA_PER_LEVEL * level
        out = np.empty(stack.shape)
        for frame, rng in zip(out, rngs):
            frame[...] = rng.normal(0.0, sigma, size=frame.shape)
        out += stack  # noise + pixels: the same sum, without a second array
    elif kind == "gaussian_blur":
        radius = BLUR_RADIUS_PER_LEVEL * level
        out = gaussian_filter(stack, sigma=(0, radius / 2.0, radius / 2.0, 0), truncate=2.0)
    elif kind == "block_quantize":
        out = _block_mean(stack, QUANT_BLOCK_PER_LEVEL * level)
    else:  # brightness_shift
        # the same draw as rng.choice((-1.0, 1.0)), without its overhead
        shifts = [(-1.0, 1.0)[rng.integers(0, 2)] * BRIGHTNESS_PER_LEVEL * level
                  for rng in rngs]
        out = stack + np.array(shifts)[:, None, None, None]
    return np.clip(out, 0.0, 1.0, out=out)


def perturb(pixels: np.ndarray, spec: PerturbationSpec | Sequence[PerturbationSpec],
            seed: int | Sequence[int]) -> np.ndarray:
    """Apply the distortion(s) a :class:`PerturbationSpec` describes,
    deterministically for a fixed seed. mix_count > 1 composes that many
    distinct kinds in a seeded order; level 0 is the identity (a copy).
    Image shape is never changed.

    ``pixels`` is one (H, W, C) frame with one spec and one int seed, or
    an (N, H, W, C) stack with a sequence of N specs and N seeds, one of
    each per frame. Every frame draws only from its own seed's generator,
    so its output does not depend on the rest of the stack: a single frame
    is the stack of one, bit for bit. At each composition step the frames
    are grouped by (kind, level), and each group is distorted as one stack.
    """
    single = pixels.ndim == 3
    specs, seeds = ([spec], [seed]) if single else (list(spec), list(seed))
    stack = pixels[None] if single else pixels
    if not len(specs) == len(seeds) == len(stack):
        raise ValueError(f"{len(stack)} frames need as many specs and seeds, "
                         f"got {len(specs)} and {len(seeds)}")
    # frame i's generator, built on its first draw: blur and quantize at a
    # fixed level never draw
    rng = functools.cache(lambda i: _rng(seeds[i], "perturb"))
    kinds = [[PERTURBATION_KINDS[k] for k in
              rng(i).choice(len(PERTURBATION_KINDS), size=s.mix_count, replace=False)]
             if s.mix_count > 1 else [s.kind] for i, s in enumerate(specs)]
    out = stack  # copied before the first write into it
    for step in range(max(map(len, kinds), default=0)):
        groups: dict[tuple[str, int], list[int]] = {}
        for i, (s, steps) in enumerate(zip(specs, kinds)):
            if step < len(steps):
                level = int(rng(i).integers(1, 6)) if s.level == "random" else int(s.level)
                if level:
                    groups.setdefault((steps[step], level), []).append(i)
        for (kind, level), idx in groups.items():
            if len(idx) == len(out):  # every frame, in order
                out = _apply_kind(out, kind, level, map(rng, idx))
                continue
            moved = _apply_kind(out[idx], kind, level, map(rng, idx))
            # noise and brightness lift a float32 frame to float64, as alone
            out = out.astype(np.result_type(out, moved), copy=out is stack)
            out[idx] = moved
    if out is stack:  # every frame at level 0
        out = stack.copy()
    return out[0] if single else out


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplits:
    train: list[ImageSample] = field(default_factory=list)
    val: list[ImageSample] = field(default_factory=list)
    test: list[ImageSample] = field(default_factory=list)
    family: str | None = None  # of every sample, listed or not; None if unknown

    def split(self, name: str) -> list[ImageSample]:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def build_split(spec: DatasetSpec, split: str) -> list[ImageSample]:
    """Generate one split (one of SPLITS) of the dataset build_dataset
    would make; each split depends only on the spec and its name."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    samples: list[ImageSample] = []
    n_orig = getattr(spec, f"{split}_count") // 2
    produced = 0
    vid = 0
    while produced < n_orig:
        video_id = f"{spec.family}-{split}-{vid:03d}"
        frames = min(spec.frames_per_video, n_orig - produced)
        for f in range(frames):
            orig = gen_original(spec, video_id, f)
            samples.append(orig)
            samples.append(gen_manipulated(orig, spec))
        produced += frames
        vid += 1
    return samples


def build_dataset(spec: DatasetSpec) -> DatasetSplits:
    """Generate balanced, video-disjoint train/val/test splits.

    Each original frame is paired with one manipulated derivative whose
    video id carries ``FAKE_SUFFIX``, so labels are exactly 50/50 and no
    video id crosses splits.
    """
    return DatasetSplits(
        train=build_split(spec, "train"),
        val=build_split(spec, "val"),
        test=build_split(spec, "test"),
        family=spec.family)


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def _open_keeping_contents(path, flags: int) -> int:
    # open()'s own flags and mode, less O_TRUNC; a missing parent
    # directory is made, as os.makedirs makes it, and the open tried again
    flags &= ~os.O_TRUNC
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        parent = os.path.dirname(path)
        if not parent:
            raise
        os.makedirs(parent, exist_ok=True)
        return os.open(path, flags, 0o666)


def write_file(path, payload) -> None:
    """Make the file at ``path`` hold exactly the bytes of ``payload``.

    Every artifact is written through here. An existing file is rewritten
    in place: opened without truncation, written over, then cut to the
    payload's length. Truncating a file to zero first, as ``open(path,
    "wb")`` does, makes ext4 (with its default ``auto_da_alloc``) flush
    the file's blocks to disk on close, and that flush costs more than the
    write. Rewriting in place keeps the file's inode, so hard links see
    the new bytes, and a new file gets the bits ``open(path, "wb")`` would
    give it (0o666 less the umask). A missing parent directory is made,
    with its own missing parents, as ``os.makedirs`` makes them.

    If a write fails partway, the file is cut to the bytes written so far
    and the error propagates: a failed rewrite leaves a prefix of the new
    bytes, never a new head on an old tail. Nothing here syncs to disk,
    and no writer did before: the old flush on close was a file-system
    heuristic, not a guarantee.
    """
    with memoryview(payload) as view, \
            open(path, "wb", buffering=0, opener=_open_keeping_contents) as fh:
        try:
            done = 0
            while done < view.nbytes:
                done += fh.write(view[done:])
        finally:
            fh.truncate()  # at the file position: the bytes written so far


# The errnos for which Path.exists() reports that there is no file
_NO_FILE_ERRNOS = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))


def read_if_exists(path: Path) -> bytes | None:
    """The bytes of the file at ``path``, read once, or None where
    ``path.exists()`` would be False: nothing there, a parent that is not
    a directory, a symlink loop, or a path no file can have (one with a
    NUL byte). Any other OSError, such as a directory or a file that may
    not be read, propagates."""
    try:
        return path.read_bytes()
    except OSError as exc:
        if exc.errno in _NO_FILE_ERRNOS:
            return None
        raise
    except ValueError:
        return None


def write_csv(path, rows) -> None:
    """Write ``rows``, the header first, as UTF-8 CSV with "\\n" line ends."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_file(path, text.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# netpbm I/O (binary P6 / P5, maxval 255)
# ---------------------------------------------------------------------------

def write_ppm(path, pixels: np.ndarray) -> None:
    """Write binary PPM (3 channels) or PGM (1 channel), maxval 255."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] not in (1, 3):
        raise FormatError(f"expected (H, W, 1|3) pixels, got shape {pixels.shape}")
    h, w, c = pixels.shape
    magic = b"P6" if c == 3 else b"P5"
    payload = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    write_file(path, magic + b"\n" + f"{w} {h}\n255\n".encode("ascii") + payload.tobytes())


# The header after the magic, in one match: three tokens, each after a
# run of separators (b" \t\r\n") and '#' comments, a comment running to
# the next b"\n". A token may not start with '#', which would have begun
# a comment, and each comment and token must run to its end, so that no
# backtracking splits them: a match either finds the three tokens a
# left-to-right walk finds or fails, which the walk calls a truncated
# header. '#' inside a token is part of it.
_HEADER = re.compile(
    rb"(?:[ \t\r\n]|#[^\n]*(?![^\n]))*([^ \t\r\n#][^ \t\r\n]*)(?![^ \t\r\n])" * 3)


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM/PGM written by :func:`write_ppm` (or compatible).

    Returns (H, W, C) floats in [0, 1]. ASCII variants (P3/P2), other
    magics, maxval != 255, and a payload shorter or longer than the header
    declares are format errors.
    """
    try:
        data = Path(path).read_bytes()
    except ValueError as exc:  # a path no file can have, such as one with a NUL byte
        raise FormatError(f"cannot open {str(path)!r}: {exc}") from None
    magic = data[:2]
    if magic not in (b"P6", b"P5"):
        raise FormatError(f"unsupported magic {magic!r}; only binary P6/P5 are accepted")
    channels = 3 if magic == b"P6" else 1
    header = _HEADER.match(data, 2)
    if header is None:
        raise FormatError("truncated header")
    try:
        w, h, maxval = map(int, header.groups())
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if w < 1 or h < 1:
        raise FormatError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255 is accepted")
    pos = header.end() + 1  # single whitespace byte after maxval
    expected = h * w * channels
    got = max(len(data) - pos, 0)
    if got != expected:
        problem = "truncated" if got < expected else "oversized"
        raise FormatError(f"{problem} payload: expected {expected} bytes, got {got}")
    arr = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(h, w, channels)
    return arr.astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.csv"  # in the corpus directory
MANIFEST_COLUMNS = ("path", "label", "video_id", "frame_idx", "family", "split")


def sample_filename(sample: ImageSample) -> str:
    ext = "ppm" if sample.pixels.shape[2] == 3 else "pgm"
    return f"{sample.video_id}-{sample.frame_idx:03d}.{ext}"


def write_dataset(splits: DatasetSplits, out_dir) -> Path:
    """Write all split images plus the manifest CSV; returns manifest path.

    Idempotent: a re-run with the same spec overwrites identical bytes.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    rows = []
    for split in SPLITS:
        for sample in splits.split(split):
            rel = f"images/{split}/{sample_filename(sample)}"
            write_ppm(out_dir / rel, sample.pixels)
            rows.append((rel, sample.label, sample.video_id, sample.frame_idx,
                         sample.family, split))
    write_csv(manifest_path, [MANIFEST_COLUMNS, *rows])
    return manifest_path


def load_manifest(manifest_path, splits=SPLITS) -> DatasetSplits:
    """Load samples listed in a manifest; pixels come from the image files.

    Every row is validated, but images are read only for the requested
    ``splits``, each of which must list at least one row; the other splits
    come back empty, so ``splits=()`` reads the rows only. All rows must
    name the same, known family, which the result's ``family`` holds, all
    rows of a video the same label and the same split, and no frame of a
    video may be listed twice, and every image read must have the first
    one's shape.
    Tamper masks are not persisted, so loaded fakes carry mask None.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    blob = read_if_exists(manifest_path)
    if blob is None:
        raise FormatError(f"manifest not found: {manifest_path}")
    loaded = {name: [] for name in SPLITS}
    for name in splits:
        if name not in loaded:
            raise ValueError(f"unknown split {name!r}")
    families = set()
    video_labels: dict[str, str] = {}
    video_splits: dict[str, str] = {}
    frames_seen: set[tuple[str, int]] = set()
    first_image = None
    try:
        text = blob.decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {manifest_path}: not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise FormatError(f"manifest {manifest_path}: {exc}") from None
    header = rows[0] if rows else None
    if header != list(MANIFEST_COLUMNS):
        raise FormatError(f"bad manifest header {header!r}")
    if len(rows) == 1:
        raise FormatError(f"manifest {manifest_path} lists no samples")
    for row in rows[1:]:
        if len(row) != len(MANIFEST_COLUMNS):
            raise FormatError(f"bad manifest row {row!r}")
        rel, label, video_id, frame_idx, family, split = row
        if split not in loaded:
            raise FormatError(f"unknown split {split!r} in manifest")
        if label not in ("0", "1"):
            raise FormatError(f"bad label {label!r} in manifest")
        if video_labels.setdefault(video_id, label) != label:
            raise FormatError(f"video {video_id!r} has both labels in manifest")
        try:
            frame = int(frame_idx)
        except ValueError:
            raise FormatError(f"bad frame index {frame_idx!r} in manifest") from None
        if family not in FAMILIES:
            raise FormatError(f"unknown family {family!r} in manifest")
        families.add(family)
        if len(families) > 1:
            raise FormatError(f"manifest mixes families {sorted(families)}")
        first_split = video_splits.setdefault(video_id, split)
        if first_split != split:
            raise FormatError(f"video {video_id!r} is listed under splits "
                              f"{first_split!r} and {split!r} in manifest")
        if (video_id, frame) in frames_seen:
            raise FormatError(f"frame {frame} of video {video_id!r} is listed twice in manifest")
        frames_seen.add((video_id, frame))
        if split in splits:
            pixels = read_ppm(base / rel)
            if first_image is None:
                first_image = (rel, pixels.shape)
            elif pixels.shape != first_image[1]:
                raise FormatError(f"image {rel} has shape {pixels.shape}, but {first_image[0]} "
                                  f"has {first_image[1]}")
            loaded[split].append(ImageSample(
                pixels=pixels, label=int(label), video_id=video_id,
                frame_idx=frame, tamper_mask=None, family=family))
    for name in splits:
        if not loaded[name]:
            raise FormatError(f"manifest {manifest_path} lists no {name!r} samples")
    return DatasetSplits(**loaded, family=families.pop())
