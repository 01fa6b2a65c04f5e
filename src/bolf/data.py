"""Seeded synthetic data: procedural "original" images, locally tampered
fakes, perturbation suites, and netpbm image I/O.

Two generator families (A and B) differ in base-texture statistics and
tamper-style mix, so training on one and evaluating on the other is a
genuine distribution shift. Every output is a pure function of
(seed, identifiers): regenerating a sample always yields identical bits.

The two properties the generators enforce by construction:
  * retention - a fake is bit-identical to its original outside the
    tamper mask;
  * subtlety - the tampered region is a small fraction of the image and
    the global mean absolute change stays well under 0.05.
"""

from __future__ import annotations

import csv
import io
import os
import zlib
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

_TAMPER_STYLES = ("warp", "texture_sub", "color_shift", "patch_blend")


def _rng(*keys) -> np.random.Generator:
    """Generator derived stably from a mix of ints and strings."""
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


def gen_original(spec: DatasetSpec, video_id: str, frame_idx: int) -> ImageSample:
    """Procedural face-like frame: smooth background gradient, a few soft
    filled ellipses, and low-amplitude family texture.

    All frames of one video share the same base image (background, blobs,
    texture); per-frame jitter adds faint smooth noise and a brightness
    wobble.
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


def gen_manipulated(original: ImageSample, spec: DatasetSpec) -> ImageSample:
    """Derive a tampered copy of an original frame.

    The region, style, and style parameters are drawn once per source
    video, so all frames of the derived fake video share the same
    manipulation (analogous to one fake video). Pixels outside the mask
    are bit-identical to the original.
    """
    if original.label != 0:
        raise ValueError("gen_manipulated needs an original (label 0) sample")
    style = FAMILIES[spec.family]
    h, w, c = original.pixels.shape
    rng = _rng(spec.seed, "tamper", original.video_id)

    mask, feather = _tamper_region(rng, h, w)
    alpha = feather[:, :, None]
    kind = _TAMPER_STYLES[rng.choice(len(_TAMPER_STYLES), p=style.tamper_mix)]
    amp = style.tamper_amp
    src = original.pixels

    if kind == "warp":
        dy, dx = rng.choice((-1, 1), size=2) * rng.integers(4, 8, size=2)
        moved = np.roll(src, (int(dy), int(dx)), axis=(0, 1))
        out = alpha * moved + (1.0 - alpha) * src
    elif kind == "texture_sub":
        tex2d = rng.standard_normal((h, w)) * 0.18 * amp
        smooth = gaussian_filter(src, sigma=(1.2, 1.2, 0))
        out = alpha * (smooth + tex2d[:, :, None]) + (1.0 - alpha) * src
    elif kind == "color_shift":
        region_mean = src[mask].mean(axis=0)
        contrast = rng.uniform(1.4, 1.8) if rng.random() < 0.5 else rng.uniform(0.35, 0.6)
        shift = rng.choice((-1.0, 1.0)) * rng.uniform(0.09, 0.15) * amp
        adjusted = region_mean + contrast * (src - region_mean) + shift
        out = alpha * adjusted + (1.0 - alpha) * src
    else:  # patch_blend: foreign content from elsewhere in the image
        dy, dx = rng.choice((-1, 1), size=2) * rng.integers(h // 4, h // 2, size=2)
        foreign = np.roll(src, (int(dy), int(dx)), axis=(0, 1))
        out = alpha * foreign + (1.0 - alpha) * src

    # Every style leaves the residue real pipelines do: a blending lattice
    # plus a low-frequency color mismatch, both confined to the mask. The
    # lattice alternates every 4 px (period 8 px), deliberately below the
    # Nyquist reach of the post-hoc distortions: a sigma=1.5 blur keeps
    # half its fundamental and 2x2 averaging keeps it outright, so the
    # signature stays detectable where single-pixel grain would vanish.
    lattice = _lattice(h, w)
    grain = rng.uniform(0.16, 0.24) * amp
    tilt = rng.uniform(0.12, 0.18) * amp
    out = out + (alpha * grain) * lattice[:, :, None] + alpha * tilt

    out = np.clip(out, 0.0, 1.0)
    pixels = src.copy()
    pixels[mask] = out[mask]
    return ImageSample(pixels=pixels, label=1,
                       video_id=original.video_id + "-f",
                       frame_idx=original.frame_idx,
                       tamper_mask=mask, family=original.family)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def _block_mean(pixels: np.ndarray, block: int) -> np.ndarray:
    out = np.empty_like(pixels)
    h, w = pixels.shape[:2]
    for i in range(0, h, block):
        for j in range(0, w, block):
            tile = pixels[i:i + block, j:j + block]
            out[i:i + block, j:j + block] = tile.mean(axis=(0, 1), keepdims=True)
    return out


def _apply_kind(pixels: np.ndarray, kind: str, level: int,
                rng: np.random.Generator) -> np.ndarray:
    if level == 0:
        return pixels.copy()
    if kind == "gaussian_noise":
        out = pixels + rng.normal(0.0, NOISE_SIGMA_PER_LEVEL * level, size=pixels.shape)
    elif kind == "gaussian_blur":
        radius = BLUR_RADIUS_PER_LEVEL * level
        out = gaussian_filter(pixels, sigma=(radius / 2.0, radius / 2.0, 0), truncate=2.0)
    elif kind == "block_quantize":
        out = _block_mean(pixels, QUANT_BLOCK_PER_LEVEL * level)
    elif kind == "brightness_shift":
        out = pixels + rng.choice((-1.0, 1.0)) * BRIGHTNESS_PER_LEVEL * level
    else:
        raise ValueError(f"unknown kind {kind!r}; have {PERTURBATION_KINDS}")
    return np.clip(out, 0.0, 1.0)


def perturb(pixels: np.ndarray, spec: PerturbationSpec, seed: int) -> np.ndarray:
    """Apply the distortion(s) described by the spec, deterministically for
    a fixed seed. mix_count > 1 composes that many distinct kinds in a
    seeded order. Image shape is never changed."""
    rng = _rng(seed, "perturb")
    if spec.mix_count > 1:
        kinds = [PERTURBATION_KINDS[i] for i in
                 rng.choice(len(PERTURBATION_KINDS), size=spec.mix_count, replace=False)]
    else:
        kinds = [spec.kind]
    out = pixels
    for kind in kinds:
        level = int(rng.integers(1, 6)) if spec.level == "random" else int(spec.level)
        out = _apply_kind(out, kind, level, rng)
    return out


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplits:
    spec: DatasetSpec
    train: list[ImageSample] = field(default_factory=list)
    val: list[ImageSample] = field(default_factory=list)
    test: list[ImageSample] = field(default_factory=list)

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
    video id carries a "-f" suffix, so labels are exactly 50/50 and no
    video id crosses splits.
    """
    return DatasetSplits(
        spec=spec,
        train=build_split(spec, "train"),
        val=build_split(spec, "val"),
        test=build_split(spec, "test"))


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
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos:pos + 1] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise FormatError("truncated header")
    return data[start:pos], pos


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
    pos = 2
    w_tok, pos = _read_header_token(data, pos)
    h_tok, pos = _read_header_token(data, pos)
    max_tok, pos = _read_header_token(data, pos)
    try:
        w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if w < 1 or h < 1:
        raise FormatError(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; only 255 is accepted")
    pos += 1  # single whitespace byte after maxval
    expected = h * w * channels
    payload = data[pos:]
    if len(payload) != expected:
        problem = "truncated" if len(payload) < expected else "oversized"
        raise FormatError(f"{problem} payload: expected {expected} bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)
    return arr.astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

MANIFEST_COLUMNS = ("path", "label", "video_id", "frame_idx", "family", "split")


def sample_filename(sample: ImageSample, channels: int) -> str:
    ext = "ppm" if channels == 3 else "pgm"
    return f"{sample.video_id}-{sample.frame_idx:03d}.{ext}"


def write_dataset(splits: DatasetSplits, out_dir) -> Path:
    """Write all split images plus the manifest CSV; returns manifest path.

    Idempotent: a re-run with the same spec overwrites identical bytes.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.csv"
    rows = []
    for split in SPLITS:
        split_dir = out_dir / "images" / split
        os.makedirs(split_dir, exist_ok=True)
        for sample in splits.split(split):
            rel = f"images/{split}/{sample_filename(sample, splits.spec.channels)}"
            write_ppm(out_dir / rel, sample.pixels)
            rows.append((rel, sample.label, sample.video_id, sample.frame_idx,
                         sample.family, split))
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    return manifest_path


def load_manifest(manifest_path, splits=SPLITS) -> DatasetSplits:
    """Load samples listed in a manifest; pixels come from the image files.

    Every row is validated and counts toward the spec, but images are read
    only for the requested ``splits``, each of which must list at least one
    row; the other splits come back empty. All rows must name the same,
    known family, and all rows of a video the same label. Tamper masks are
    not persisted, so loaded fakes carry mask None.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    if not manifest_path.exists():
        raise FormatError(f"manifest not found: {manifest_path}")
    loaded = {name: [] for name in SPLITS}
    for name in splits:
        if name not in loaded:
            raise ValueError(f"unknown split {name!r}")
    counts = dict.fromkeys(loaded, 0)
    first_rel = None
    families = set()
    video_labels: dict[str, str] = {}
    try:
        text = manifest_path.read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest {manifest_path}: not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise FormatError(f"manifest {manifest_path}: {exc}") from None
    header = rows[0] if rows else None
    if header != list(MANIFEST_COLUMNS):
        raise FormatError(f"bad manifest header {header!r}")
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
        counts[split] += 1
        if first_rel is None:
            first_rel = rel
        if split in splits:
            loaded[split].append(ImageSample(
                pixels=read_ppm(base / rel), label=int(label), video_id=video_id,
                frame_idx=frame, tamper_mask=None, family=family))
    if first_rel is None:
        raise FormatError(f"manifest {manifest_path} lists no samples")
    for name in splits:
        if not counts[name]:
            raise FormatError(f"manifest {manifest_path} lists no {name!r} samples")
    first = next((s.pixels for lst in loaded.values() for s in lst), None)
    h, w, c = (first if first is not None else read_ppm(base / first_rel)).shape
    spec = DatasetSpec(family=family,
                       train_count=max(2, counts["train"] + counts["train"] % 2),
                       val_count=max(2, counts["val"] + counts["val"] % 2),
                       test_count=max(2, counts["test"] + counts["test"] % 2),
                       height=h, width=w, channels=c)
    return DatasetSplits(spec=spec, **loaded)
