"""Bag-of-local-features encoder for binary tamper classification.

An image is cut into non-overlapping patches, each patch is projected to
an embedding (a shared per-patch linear map, equivalent to a convolution
with kernel = stride = patch size), a learned class token is prepended
and learned position embeddings added. A stack of pre-norm encoder
blocks (multi-head self-attention + MLP, each with a residual
connection) mixes patch information; the classifier reads only the
class-token row. The last block's keys and values still cover every
token, but its queries come from the class-token row alone, and all
after them (scores, softmax, value mix, output projection, residual,
MLP, final layer norm) runs on that row. Each block's per-head attention
is returned, one array per block: every row of every block but the last,
and the class-token row of the last, which is all that attention rollout
needs to attribute the decision back to patches.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    DTYPE,
    Tensor,
    ShapeMismatch,
    concat,
    dropout,
    gelu,
    layer_norm,
    matmul,
    narrow,
    reshape,
    softmax_rows,
    transpose,
)

NUM_CLASSES = 2  # the paper's binary decision: 0 original, 1 manipulated

# glibc's mallopt parameters for the free space kept at the top of the
# heap, and for the request size from which a block is mapped on its own
M_TOP_PAD = -2
M_MMAP_THRESHOLD = -3
TOP_PAD_BYTES = 16 << 20

# OpenBLAS's thread-count calls, with "set" or "get" in the braces, under
# the names its builds export: plain, and as numpy's and scipy's wheels
# rename them
OPENBLAS_THREAD_CALLS = tuple(f"{prefix}openblas_{{}}_num_threads{suffix}"
                              for prefix in ("", "scipy_") for suffix in ("", "64_"))


@dataclass(frozen=True)
class ModelConfig:
    """Geometry and width hyperparameters; all shapes derive from these."""

    height: int = 32
    width: int = 32
    channels: int = 1
    patch_size: int = 8
    dim: int = 64
    depth: int = 2
    heads: int = 4
    mlp_ratio: int = 4
    dropout: float = 0.1

    def __post_init__(self):
        # positivity first: the divisibility checks below divide by these
        for name in ("height", "width", "channels", "patch_size", "dim", "depth",
                     "heads", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.height % self.patch_size or self.width % self.patch_size:
            raise ValueError(
                f"patch size {self.patch_size} must tile {self.height}x{self.width} exactly")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} must split evenly over {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def grid_rows(self) -> int:
        return self.height // self.patch_size

    @property
    def grid_cols(self) -> int:
        return self.width // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def patch_len(self) -> int:
        return self.patch_size * self.patch_size * self.channels


def patchify(image, config: ModelConfig) -> np.ndarray:
    """Cut an image, or each image of a (batch, h, w, c) stack, into
    non-overlapping patch_size tiles, row-major over the grid.

    Returns a fresh ([batch,] num_patches, patch_len) array. Each row is
    the row-major flattening of one tile (rows, then columns, then
    channels). Float32 and float64 pixels keep their dtype; other input
    becomes float64.
    """
    pixels = np.asarray(image)
    expect = (config.height, config.width, config.channels)
    if pixels.ndim not in (3, 4) or pixels.shape[-3:] != expect:
        raise ShapeMismatch(f"patchify: image shape {pixels.shape} != configured {expect}")
    p = config.patch_size
    lead = pixels.shape[:-3]
    tiles = (pixels.reshape(lead + (config.grid_rows, p, config.grid_cols, p, config.channels))
             .swapaxes(-4, -3)
             .reshape(lead + (config.num_patches, config.patch_len)))
    return tiles.astype(tiles.dtype if tiles.dtype in (np.float32, np.float64) else DTYPE)


def unpatchify(patches: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Exact inverse of patchify (bit-for-bit roundtrip)."""
    p, c = config.patch_size, config.channels
    lead = patches.shape[:-2]
    tiles = patches.reshape(lead + (config.grid_rows, config.grid_cols, p, p, c))
    return tiles.swapaxes(-4, -3).reshape(lead + (config.height, config.width, c)).copy()


@dataclass
class LayerParams:
    """Parameters of one encoder block."""

    ln1_gamma: Tensor
    ln1_beta: Tensor
    wq: Tensor  # (dim, dim), all heads packed along columns
    wk: Tensor
    wv: Tensor
    wo: Tensor  # (dim, dim) projection of the concatenated head outputs
    ln2_gamma: Tensor
    ln2_beta: Tensor
    mlp_w1: Tensor  # (dim, mlp_ratio * dim)
    mlp_b1: Tensor
    mlp_w2: Tensor  # (mlp_ratio * dim, dim)
    mlp_b2: Tensor


@dataclass
class ModelParams:
    """All trainable tensors; shapes are a pure function of the config."""

    patch_w: Tensor  # (patch_len, dim)
    patch_b: Tensor  # (dim,)
    cls_token: Tensor  # (1, dim)
    pos_embed: Tensor  # (num_patches + 1, dim)
    layers: list[LayerParams]
    ln_f_gamma: Tensor
    ln_f_beta: Tensor
    fc_w: Tensor  # (dim, NUM_CLASSES)
    fc_b: Tensor  # (NUM_CLASSES,)

    def named(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in field order, a block's fields named
        ``layer{i}.{field}``; weights files keep this order."""
        out = []
        for f in fields(self):
            if f.name == "layers":
                out += [(f"layer{i}.{g.name}", getattr(layer, g.name))
                        for i, layer in enumerate(self.layers) for g in fields(LayerParams)]
            else:
                out.append((f.name, getattr(self, f.name)))
        return out

    def with_tensor(self, name: str, tensor: Tensor) -> "ModelParams":
        """Copy of the params with one named tensor swapped out."""
        mapping = dict(self.named())
        if name not in mapping:
            raise KeyError(f"unknown parameter {name!r}")
        mapping[name] = tensor
        return _params_from_mapping(mapping, len(self.layers))

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray],
                    requires_grad: bool = True) -> "ModelParams":
        """Rebuild params from a name -> array mapping, validating names,
        shapes and that every value is finite."""
        expected = {name: shape for name, shape, _ in _param_table(config)}
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing {missing}, unexpected {extra}")
        mapping = {}
        for name, shape in expected.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"parameter {name}: shape {arr.shape} != expected {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name}: non-finite values")
            mapping[name] = Tensor(arr, requires_grad=requires_grad)
        return _params_from_mapping(mapping, config.depth)


def _params_from_mapping(mapping: dict[str, Tensor], depth: int) -> ModelParams:
    layers = [LayerParams(**{f.name: mapping[f"layer{i}.{f.name}"] for f in fields(LayerParams)})
              for i in range(depth)]
    top = {f.name: mapping[f.name] for f in fields(ModelParams) if f.name != "layers"}
    return ModelParams(layers=layers, **top)


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...],
                  std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out


def _param_table(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every parameter, in the order init_params
    draws them: the encoder blocks first, then the embedding and the head.
    init is "weight" (truncated normal), "zeros" or "ones"."""
    d, hidden = config.dim, config.mlp_ratio * config.dim
    block = [("ln1_gamma", (d,), "ones"), ("ln1_beta", (d,), "zeros"),
             ("wq", (d, d), "weight"), ("wk", (d, d), "weight"),
             ("wv", (d, d), "weight"), ("wo", (d, d), "weight"),
             ("ln2_gamma", (d,), "ones"), ("ln2_beta", (d,), "zeros"),
             ("mlp_w1", (d, hidden), "weight"), ("mlp_b1", (hidden,), "zeros"),
             ("mlp_w2", (hidden, d), "weight"), ("mlp_b2", (d,), "zeros")]
    table = [(f"layer{i}.{name}", shape, init)
             for i in range(config.depth) for name, shape, init in block]
    return table + [
        ("patch_w", (config.patch_len, d), "weight"), ("patch_b", (d,), "zeros"),
        ("cls_token", (1, d), "weight"), ("pos_embed", (config.num_patches + 1, d), "zeros"),
        ("ln_f_gamma", (d,), "ones"), ("ln_f_beta", (d,), "zeros"),
        ("fc_w", (d, NUM_CLASSES), "weight"), ("fc_b", (NUM_CLASSES,), "zeros")]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization for a fixed seed: weight matrices and
    the class token from a truncated normal (std 0.02), biases and position
    embeddings zero, layer-norm gamma 1 / beta 0."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def make(shape, init):
        if init == "ones":
            return np.ones(shape)
        if init == "weight":
            return _trunc_normal(rng, shape)
        return np.zeros(shape)

    return _params_from_mapping(
        {name: Tensor(make(shape, init), requires_grad=True)
         for name, shape, init in _param_table(config)}, config.depth)


def embed_patches(patches: np.ndarray, params: ModelParams) -> Tensor:
    """Project each patch of a ([batch,] num_patches, patch_len) array to
    the embedding width, prepend the class token, and add position
    embeddings. Row 0 of each image's tokens is the class-token slot."""
    projected = matmul(patches, params.patch_w) + params.patch_b
    # one class-token row per image: adding zeros broadcasts it over the batch
    cls = params.cls_token + np.zeros(projected.shape[:-2] + params.cls_token.shape)
    return concat([cls, projected], axis=-2) + params.pos_embed


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    """Attention heads: softmax(q k^T / sqrt(head_dim)) v.

    q, k and v are (tokens, head_dim) for one head, or stacks of them with
    any leading axes. Returns the attended values and the row-stochastic
    attention matrices.
    """
    head_dim = q.shape[-1]
    logits = matmul(q, transpose(k)) * (1.0 / math.sqrt(head_dim))
    attn = softmax_rows(logits)
    return matmul(attn, v), attn


def multi_head_attention(z: Tensor, layer: LayerParams, heads: int,
                         cls_only: bool = False) -> tuple[Tensor, Tensor]:
    """Split the packed q/k/v projections of ``z`` ([batch,] tokens, dim)
    into a heads axis, run every head at once, merge the heads back along
    the columns and project by wo. With ``cls_only`` the queries come from
    the class-token row alone, while keys and values cover every token.

    Returns the projected ([batch,] queries, dim) output and the ([batch,]
    heads, queries, tokens) attention matrices, where queries is 1 with
    ``cls_only`` and tokens otherwise.
    """
    lead = z.shape[:-2]
    queries = narrow(z, z.ndim - 2, 0, 1) if cls_only else z
    # swaps the tokens and heads axes; its own inverse
    swap = (*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2)

    def heads_first(t: Tensor) -> Tensor:
        return transpose(reshape(t, (*t.shape[:-1], heads, t.shape[-1] // heads)), swap)

    out, attn = scaled_dot_attention(heads_first(matmul(queries, layer.wq)),
                                     heads_first(matmul(z, layer.wk)),
                                     heads_first(matmul(z, layer.wv)))
    merged = reshape(transpose(out, swap), queries.shape)
    return matmul(merged, layer.wo), attn


def encoder_block(z: Tensor, layer: LayerParams, config: ModelConfig,
                  noise: np.ndarray | None = None,
                  cls_only: bool = False) -> tuple[Tensor, Tensor]:
    """Pre-norm block: attention then MLP, each wrapped in a residual.

    The MLP is linear -> GELU -> dropout -> linear. ``noise`` holds the
    dropout uniforms, one per hidden unit of the rows the MLP runs on;
    ``None`` (eval mode) skips dropout. With ``cls_only`` the layer norm,
    keys and values still cover every token, but the attention takes its
    query from the class-token row only, and everything after it runs on
    that row: the block returns the ([batch,] 1, dim) row the full block
    gives, and the ([batch,] heads, 1, tokens) class-token rows of its
    attention.
    """
    attended, attn = multi_head_attention(
        layer_norm(z, layer.ln1_gamma, layer.ln1_beta), layer, config.heads, cls_only)
    if cls_only:
        z = narrow(z, z.ndim - 2, 0, 1)
    z = attended + z
    h = matmul(layer_norm(z, layer.ln2_gamma, layer.ln2_beta), layer.mlp_w1) + layer.mlp_b1
    h = dropout(gelu(h), config.dropout, noise)
    return (matmul(h, layer.mlp_w2) + layer.mlp_b2) + z, attn


@functools.cache
def _keep_freed_memory() -> None:
    """Ask glibc, once per process, to keep 16 MiB of freed memory at the
    top of the heap, and to take every request smaller than that from the
    heap, not from a mapping of its own. A float64 forward frees about
    2 MB there, above the threshold at which glibc returns it to the
    kernel, so without the pad every forward faults the same pages back
    in. The threshold matters on the scoring threads: a thread's heap made
    before the pad was set (by a thread the caller ran first) has none, and
    each of a forward's larger arrays would be mapped, faulted in and
    unmapped again. Where the C library has no mallopt (macOS, Windows)
    nothing is changed."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_TOP_PAD, TOP_PAD_BYTES)
        libc.mallopt(M_MMAP_THRESHOLD, TOP_PAD_BYTES)
    except (OSError, AttributeError, TypeError):
        pass


@functools.cache
def _single_thread_blas() -> bool:
    """Set every OpenBLAS loaded in the process, once per process, to run
    its kernels on the calling thread alone, and report whether that held
    for at least one of them and failed for none. On two cores, OpenBLAS's
    own second thread and a second scoring thread fight over the same core:
    two scoring threads with OpenBLAS at two threads each score slower than
    one thread does. The libraries are found in ``/proc/self/maps``, so
    this is Linux only; elsewhere, or with no OpenBLAS loaded, nothing is
    changed and the answer is False."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return False
        for name in OPENBLAS_THREAD_CALLS:
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(1)
                if getter() != 1:
                    return False
                break
        else:
            return False
    return bool(paths)


def forward(images, params: ModelParams, config: ModelConfig,
            train: bool = False,
            rng: np.random.Generator | None = None,
            ) -> tuple[Tensor, list[np.ndarray]]:
    """Full pass: standardize, patchify, embed, encoder stack, final layer
    norm, then a fully-connected classifier on the class-token row only.
    The classifier needs no other row, so the last block takes its
    attention queries from the class-token row alone: from there on, that
    block and the final layer norm run on that row.

    ``images`` is a (batch, height, width, channels) stack, which moves
    through every layer as one (batch, tokens, dim) tensor and gives
    (batch, NUM_CLASSES) logits and a list of each block's row-stochastic
    attention: a (batch, heads, tokens, tokens) array for every block but
    the last, and the (batch, heads, 1, tokens) class-token rows of the
    last. A single (height, width, channels) image runs as a batch of one
    and gives (NUM_CLASSES,) logits and the same list without the batch
    axis.

    The pass runs in the dtype of the parameters, float32 or float64, and
    pixels are cast to it. They arrive in [0, 1] and are mapped to [-1, 1]
    first (the usual mean-0.5/std-0.5 image normalization); without it the
    shared DC level of every patch dwarfs the content the encoder should
    attend to.

    Eval mode (train=False) is a pure function of images and params. In
    train mode ``rng`` draws the dropout uniforms of the whole batch in
    one call of shape (batch, (depth - 1) * tokens + 1, mlp_ratio * dim),
    image by image, so each image gets the masks it would get in a pass
    over the images one at a time: the random stream, and hence training,
    does not depend on how the images are batched. Block i < depth - 1
    takes rows ``[i * tokens, (i + 1) * tokens)``; the last block, whose
    MLP runs on the class-token row only, takes the final row.

    The first forward in a process sets the allocator's heap pad
    (:func:`_keep_freed_memory`), whoever calls it.
    """
    _keep_freed_memory()
    pixels = np.asarray(images, dtype=params.patch_w.data.dtype)
    single = pixels.ndim == 3
    if single:
        pixels = pixels[None]
    z = embed_patches(patchify((pixels - 0.5) / 0.5, config), params)
    batch, tokens = z.shape[0], z.shape[1]
    layer_noise = [None] * config.depth
    if train and config.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode forward needs an rng when dropout > 0")
        noise = rng.random((batch, (config.depth - 1) * tokens + 1,
                            config.mlp_ratio * config.dim))
        layer_noise = [noise[:, i * tokens:(i + 1) * tokens] for i in range(config.depth - 1)]
        layer_noise.append(noise[:, -1:])  # the last block's class row
    recorded = []
    for i, (layer, uniforms) in enumerate(zip(params.layers, layer_noise)):
        z, layer_attn = encoder_block(z, layer, config, uniforms,
                                      cls_only=i == config.depth - 1)
        recorded.append(layer_attn.data[0] if single else layer_attn.data)
    cls_rows = layer_norm(z, params.ln_f_gamma, params.ln_f_beta)
    logits = reshape(matmul(cls_rows, params.fc_w) + params.fc_b,
                     (NUM_CLASSES,) if single else (batch, NUM_CLASSES))
    return logits, recorded


def _mixed(attn: np.ndarray) -> np.ndarray:
    """The head mean of ([...,] heads, rows, tokens) attention, mixed with
    the matching rows of the identity (0.5 A + 0.5 I) and row-renormalized."""
    avg = np.mean(attn, axis=-3)
    mixed = 0.5 * avg + 0.5 * np.eye(*avg.shape[-2:])
    return mixed / mixed.sum(axis=-1, keepdims=True)


def attention_rollout(attn: Sequence[np.ndarray]) -> np.ndarray:
    """Attribute the class-token decision to patches across the stack.

    ``attn`` is the per-block record that :func:`forward` returns: one
    ([...,] heads, rows, tokens) array per layer, first layer first, with
    any leading axes shared by all. Each layer but the last needs all of
    its rows; of the last, only the class-token row 0 is read. The result
    is the matching ([...,] num_patches) heatmaps.

    Per layer: average the heads, then mix with the identity (0.5 A +
    0.5 I, row-renormalized) to account for the residual path. Rollout is
    the class-token row of the product of these matrices, last layer
    first, so it is computed as a vector-matrix chain: the last layer's
    mixed class row times each earlier layer's mixed matrix in turn. The
    heatmap is that row restricted to the patch columns, renormalized to
    sum to 1.
    """
    if not len(attn) or any(np.ndim(a) < 3 for a in attn):
        raise ValueError("attention rollout needs one (..., heads, rows, tokens) array per "
                         f"layer, depth >= 1, got shapes {[np.shape(a) for a in attn]}")
    rollout = _mixed(attn[-1][..., :1, :])
    for layer in reversed(attn[:-1]):
        rollout = rollout @ _mixed(layer)
    weights = rollout[..., 0, 1:]
    # a class row with no mass on the patches (pure self-attention) spreads
    # evenly instead of dividing by zero
    weights = np.where(weights.sum(axis=-1, keepdims=True) > 0.0, weights, 1.0)
    return weights / weights.sum(axis=-1, keepdims=True)


def heatmap_to_image(weights: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Spread per-patch rollout weights over pixels: each patch's weight
    fills its tile (nearest-neighbor upsampling at patch granularity)."""
    if weights.shape != (config.num_patches,):
        raise ShapeMismatch(
            f"heatmap weights shape {weights.shape} != ({config.num_patches},)")
    p = config.patch_size
    # at least float64, so that sums over the map (heatmap_mask_mass) of
    # float32 weights still run in float64; each pixel is its weight exactly
    grid = weights.reshape(config.grid_rows, config.grid_cols)
    grid = grid.astype(np.result_type(grid, np.float64), copy=False)
    return grid.repeat(p, axis=0).repeat(p, axis=1)


def heatmap_mask_mass(weights: np.ndarray, mask: np.ndarray,
                      config: ModelConfig) -> float:
    """Fraction of total rollout mass falling inside a pixel mask."""
    pixel_map = heatmap_to_image(weights, config)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pixel_map.shape:
        raise ShapeMismatch(f"mask shape {mask.shape} != image {pixel_map.shape}")
    total = pixel_map.sum()
    # weights sum to 1 and every tile has positive area, so total > 0
    return float(pixel_map[mask].sum() / total)
