"""Bag-of-local-features encoder for binary tamper classification.

An image is cut into non-overlapping patches, each patch is projected to
an embedding (a shared per-patch linear map, equivalent to a convolution
with kernel = stride = patch size), a learned class token is prepended
and learned position embeddings added. A stack of pre-norm encoder
blocks (multi-head self-attention + MLP, each with a residual
connection) mixes patch information; the classifier reads only the
class-token row. Everything after the last block's attention is
row-wise, so that block's MLP and the final layer norm run on the
class-token row alone. Per-head attention matrices are recorded whole,
for every token of every layer, so the decision can be attributed back
to patches via attention rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .tensor import (
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

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class PatchBag:
    """The patch matrix plus the grid geometry needed to invert it."""

    patches: Tensor  # ([batch,] num_patches, patch_len), row-major over the grid
    grid_rows: int
    grid_cols: int
    patch_size: int
    channels: int


def patchify(image, config: ModelConfig) -> PatchBag:
    """Cut an image, or each image of a (batch, h, w, c) stack, into
    non-overlapping patch_size tiles, row-major.

    Each bag row is the row-major flattening of one tile
    (rows, then columns, then channels). Float32 and float64 pixels keep
    their dtype; other input becomes a float64 bag.
    """
    pixels = image.data if isinstance(image, Tensor) else np.asarray(image)
    expect = (config.height, config.width, config.channels)
    if pixels.ndim not in (3, 4) or pixels.shape[-3:] != expect:
        raise ShapeMismatch(f"patchify: image shape {pixels.shape} != configured {expect}")
    p = config.patch_size
    gh, gw = config.grid_rows, config.grid_cols
    lead = pixels.shape[:-3]
    tiles = (pixels.reshape(lead + (gh, p, gw, p, config.channels))
             .swapaxes(-4, -3)
             .reshape(lead + (config.num_patches, config.patch_len)))
    return PatchBag(Tensor(tiles.copy()), gh, gw, p, config.channels)


def unpatchify(bag: PatchBag) -> np.ndarray:
    """Exact inverse of patchify (bit-for-bit roundtrip)."""
    p, c = bag.patch_size, bag.channels
    gh, gw = bag.grid_rows, bag.grid_cols
    lead = bag.patches.shape[:-2]
    tiles = bag.patches.data.reshape(lead + (gh, gw, p, p, c))
    return tiles.swapaxes(-4, -3).reshape(lead + (gh * p, gw * p, c)).copy()


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

    def tensors(self) -> Iterator[Tensor]:
        for _, t in self.named():
            yield t

    def num_parameters(self) -> int:
        return sum(t.size for t in self.tensors())

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
        """Rebuild params from a name -> array mapping, validating shapes."""
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


def embed_patches(bag: PatchBag, params: ModelParams) -> Tensor:
    """Project each patch to the embedding width, prepend the class token,
    and add position embeddings. Row 0 of each bag is the class-token slot."""
    projected = matmul(bag.patches, params.patch_w) + params.patch_b
    # one class-token row per bag: adding zeros broadcasts it over the batch
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


def multi_head_attention(z: Tensor, layer: LayerParams,
                         heads: int) -> tuple[Tensor, Tensor]:
    """Split the packed q/k/v projections of ``z`` ([batch,] tokens, dim)
    into a heads axis, run every head at once, merge the heads back along
    the columns and project by wo.

    Returns the projected output and the ([batch,] heads, tokens, tokens)
    attention matrices.
    """
    *lead, tokens, dim = z.shape
    split = (*lead, tokens, heads, dim // heads)
    # swaps the tokens and heads axes; its own inverse
    swap = (*range(len(lead)), len(lead) + 1, len(lead), len(lead) + 2)

    def heads_first(t: Tensor) -> Tensor:
        return transpose(reshape(t, split), swap)

    out, attn = scaled_dot_attention(heads_first(matmul(z, layer.wq)),
                                     heads_first(matmul(z, layer.wk)),
                                     heads_first(matmul(z, layer.wv)))
    merged = reshape(transpose(out, swap), z.shape)
    return matmul(merged, layer.wo), attn


def encoder_block(z: Tensor, layer: LayerParams, config: ModelConfig,
                  noise: np.ndarray | None = None,
                  cls_only: bool = False) -> tuple[Tensor, Tensor]:
    """Pre-norm block: attention then MLP, each wrapped in a residual.

    The MLP is linear -> GELU -> dropout -> linear. ``noise`` holds the
    dropout uniforms, one per hidden unit of the rows the MLP runs on;
    ``None`` (eval mode) skips dropout. With ``cls_only`` the attention
    still mixes every token and returns every row of its matrices, but the
    MLP runs on the class-token row only, and the block returns that
    ([batch,] 1, dim) row: the MLP is row-wise, so the row is the one the
    full block gives.
    """
    attended, attn = multi_head_attention(
        layer_norm(z, layer.ln1_gamma, layer.ln1_beta), layer, config.heads)
    z = attended + z
    if cls_only:
        z = narrow(z, z.ndim - 2, 0, 1)
    h = matmul(layer_norm(z, layer.ln2_gamma, layer.ln2_beta), layer.mlp_w1) + layer.mlp_b1
    h = dropout(gelu(h), config.dropout, noise)
    return (matmul(h, layer.mlp_w2) + layer.mlp_b2) + z, attn


@dataclass
class AttentionRecord:
    """Per-layer, per-head row-stochastic attention matrices."""

    layers: list  # [depth] of (heads, tokens, tokens) stacks, one matrix per head

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def heads(self) -> int:
        return len(self.layers[0]) if self.layers else 0


def forward(images, params: ModelParams, config: ModelConfig,
            train: bool = False,
            rng: np.random.Generator | None = None,
            ) -> tuple[Tensor, AttentionRecord | list[AttentionRecord]]:
    """Full pass: standardize, patchify, embed, encoder stack, final layer
    norm, then a fully-connected classifier on the class-token row only.
    The classifier needs no other row, so the last block narrows to the
    class-token row once its attention residual is added: its MLP and the
    final layer norm run on that row alone.

    ``images`` is a (batch, height, width, channels) stack, which moves
    through every layer as one (batch, tokens, dim) tensor and gives
    (batch, NUM_CLASSES) logits and one AttentionRecord per image. A single
    (height, width, channels) image runs as a batch of one and gives
    (NUM_CLASSES,) logits and its AttentionRecord.

    The pass runs in the dtype of the parameters, float32 or float64, and
    pixels are cast to it. They arrive in [0, 1] and are mapped to [-1, 1]
    first (the usual mean-0.5/std-0.5 image normalization); without it the
    shared DC level of every patch dwarfs the content the encoder should
    attend to.

    Eval mode (train=False) is a pure function of images and params. In
    train mode ``rng`` draws the dropout uniforms of the whole batch in
    one call of shape (batch, depth, tokens, mlp_ratio * dim), image by
    image, so each image gets the masks it would get in a pass over the
    images one at a time: the random stream, and hence training, does not
    depend on how the images are batched. Block i takes slice
    ``[:, i]``; the last block takes only its class-token row, the
    uniforms that row drew when that block's MLP ran on every token.
    """
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
        noise = rng.random((batch, config.depth, tokens, config.mlp_ratio * config.dim))
        layer_noise = [noise[:, i] for i in range(config.depth - 1)]
        layer_noise.append(noise[:, -1, :1])  # the last block's class row
    recorded = []
    for i, (layer, uniforms) in enumerate(zip(params.layers, layer_noise)):
        z, attn = encoder_block(z, layer, config, uniforms, cls_only=i == config.depth - 1)
        recorded.append(attn.data)
    cls_rows = layer_norm(z, params.ln_f_gamma, params.ln_f_beta)
    logits = reshape(matmul(cls_rows, params.fc_w) + params.fc_b,
                     (NUM_CLASSES,) if single else (batch, NUM_CLASSES))
    records = [AttentionRecord([attn[b] for attn in recorded]) for b in range(batch)]
    return logits, records[0] if single else records


def attention_rollout(record: AttentionRecord) -> np.ndarray:
    """Attribute the class-token decision to patches across the stack.

    Per layer: average the heads, then mix with the identity
    (0.5 A + 0.5 I, row-renormalized) to account for the residual path.
    The adjusted matrices are multiplied last-layer-first; the heatmap is
    the class-token row restricted to the patch columns, renormalized to
    sum to 1.
    """
    if not record.layers:
        raise ValueError("attention rollout needs at least one recorded layer")
    rollout = None
    for heads in record.layers:
        avg = np.mean(heads, axis=0)
        mixed = 0.5 * avg + 0.5 * np.eye(avg.shape[0])
        mixed = mixed / mixed.sum(axis=1, keepdims=True)
        rollout = mixed if rollout is None else mixed @ rollout
    weights = rollout[0, 1:]
    total = weights.sum()
    if total <= 0.0:
        # cannot happen for row-stochastic inputs; guard anyway
        return np.full_like(weights, 1.0 / weights.size)
    return weights / total


def heatmap_to_image(weights: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Spread per-patch rollout weights over pixels: each patch's weight
    fills its tile (nearest-neighbor upsampling at patch granularity)."""
    if weights.shape != (config.num_patches,):
        raise ShapeMismatch(
            f"heatmap weights shape {weights.shape} != ({config.num_patches},)")
    grid = weights.reshape(config.grid_rows, config.grid_cols)
    return np.kron(grid, np.ones((config.patch_size, config.patch_size)))


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
