"""Independent NumPy reference for bolf's eval-mode forward pass, its
attention rollout and its loss, plus a pairwise (Mann-Whitney) AUC oracle.

Written from the method's definition, not from ``bolf.model`` or
``bolf.tensor``, which it never imports. Its layout also differs from the
program's: a whole batch moves as one (B, T, D) array and the heads are a
reshaped axis, so a shared mistake would have to be made twice, in two
different forms.

Parameters are the name -> array mapping stored in ``weights.bolf``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5


def as_float64(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}


def _depth(params: dict[str, np.ndarray]) -> int:
    return len({name.split(".")[0] for name in params if name.startswith("layer")})


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + LN_EPS) + beta


def _softmax_last(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward(images, params: dict[str, np.ndarray], *, patch: int,
            heads: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eval-mode logits (B, classes) and per-layer attention (B, heads, T, T)
    for images (B, H, W, C) with pixels in [0, 1]."""
    x = (np.asarray(images, dtype=np.float64) - 0.5) / 0.5
    b, h, w, c = x.shape
    gh, gw = h // patch, w // patch
    tiles = (x.reshape(b, gh, patch, gw, patch, c)
             .transpose(0, 1, 3, 2, 4, 5)
             .reshape(b, gh * gw, patch * patch * c))
    z = tiles @ params["patch_w"] + params["patch_b"]
    d = z.shape[-1]
    cls = np.broadcast_to(params["cls_token"], (b, 1, d))
    z = np.concatenate([cls, z], axis=1) + params["pos_embed"]
    t, hd = z.shape[1], d // heads

    attentions = []
    for i in range(_depth(params)):
        p = {name.split(".", 1)[1]: a for name, a in params.items()
             if name.startswith(f"layer{i}.")}
        y = _layer_norm(z, p["ln1_gamma"], p["ln1_beta"])
        q, k, v = ((y @ p[m]).reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
                   for m in ("wq", "wk", "wv"))
        attn = _softmax_last(q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd))
        mixed = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        z = z + mixed @ p["wo"]
        hidden = _layer_norm(z, p["ln2_gamma"], p["ln2_beta"]) @ p["mlp_w1"] + p["mlp_b1"]
        hidden = 0.5 * hidden * (1.0 + erf(hidden / math.sqrt(2.0)))
        z = z + hidden @ p["mlp_w2"] + p["mlp_b2"]
        attentions.append(attn)
    z = _layer_norm(z, params["ln_f_gamma"], params["ln_f_beta"])
    return z[:, 0, :] @ params["fc_w"] + params["fc_b"], attentions


def fake_scores(logits: np.ndarray) -> np.ndarray:
    """Softmax probability of class 1 (tampered) per row."""
    return _softmax_last(logits)[:, 1]


def mean_cross_entropy(logits: np.ndarray, labels) -> float:
    labels = np.asarray(labels)
    m = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def rollout(attentions: list[np.ndarray]) -> np.ndarray:
    """Attention rollout (Abnar & Zuidema 2020): per layer the head mean
    mixed half-and-half with the identity and row-normalised, multiplied
    last layer first; returns the class-token row over the patches,
    normalised to sum 1, shape (B, patches)."""
    total = None
    for attn in attentions:
        a = 0.5 * attn.mean(axis=1) + 0.5 * np.eye(attn.shape[-1])
        a = a / a.sum(axis=-1, keepdims=True)
        total = a if total is None else a @ total
    weights = total[:, 0, 1:]
    return weights / weights.sum(axis=1, keepdims=True)


def heat_levels(weights: np.ndarray, grid: tuple[int, int], patch: int) -> np.ndarray:
    """8-bit heatmap of one image's rollout: each patch's weight fills its
    tile, min-max scaled to [0, 255]."""
    pixel_map = weights.reshape(grid).repeat(patch, axis=0).repeat(patch, axis=1)
    span = pixel_map.max() - pixel_map.min()
    heat = (pixel_map - pixel_map.min()) / span if span > 1e-12 else 0.0 * pixel_map
    return np.rint(heat * 255.0)


def pairwise_auc(scores, labels, tie_tol: float = 0.0) -> tuple[float, int]:
    """ROC AUC as the share of (positive, negative) pairs the positive wins,
    ties counting one half, by direct enumeration of every pair.

    Also returns how many pairs lie within ``tie_tol`` of a tie: each of
    those may flip when the scores move by rounding error, by at most one
    pair's weight."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    if not len(pos) or not len(neg):
        raise ValueError("AUC needs both classes")
    diff = pos[:, None] - neg[None, :]
    auc = (np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)) / diff.size
    return float(auc), int(np.count_nonzero(np.abs(diff) <= tie_tol))


def video_means(scores, labels, video_ids) -> tuple[np.ndarray, np.ndarray]:
    """Mean score and label per video, videos in first-occurrence order."""
    order: dict[str, list[int]] = {}
    for i, vid in enumerate(video_ids):
        order.setdefault(vid, []).append(i)
    scores, labels = np.asarray(scores), np.asarray(labels)
    return (np.array([np.mean(scores[idx]) for idx in order.values()]),
            np.array([labels[idx[0]] for idx in order.values()]))
