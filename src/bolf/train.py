"""Supervised training: cross-entropy loss, SGD with momentum, and a
per-step cosine-annealed learning rate."""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import ScoredSample, accuracy, roc_auc
from .model import ModelConfig, ModelParams, _single_thread_blas, forward
from .tensor import NumericError, Tape, Tensor, backward, exp, log, matmul, reshape, sum_all

# Training computes in float32. init_params and ModelParams.from_arrays
# build float64 models, which inference from a weights file and the
# gradient checks run on.
TRAIN_DTYPE = np.float32

# Frames per eval-mode forward pass in score_samples. Every scorer uses the
# same chunks, so a frame's score does not depend on which command made it
# or on which thread of the scoring pool ran its chunk.
SCORE_CHUNK = 16

# Scoring threads at most. Each chunk in flight holds about 4 MB of float64
# activations, and the machines bolf targets have two cores.
SCORE_WORKERS = 2


class NonFiniteLoss(NumericError):
    """Training hit a NaN/Inf loss; carries where it happened."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    lr0: float = 0.01
    momentum: float = 0.9
    lr_min: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.lr0 > self.lr_min >= 0.0:
            raise ValueError(f"need lr0 > lr_min >= 0, got lr0={self.lr0} lr_min={self.lr_min}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    """One history row."""

    epoch: int
    mean_loss: float
    train_acc: float
    val_acc: float
    val_auc: float
    lr: float


def cross_entropy(logits: Tensor, label) -> Tensor:
    """-log softmax(logits)[label], in log-sum-exp form (no overflow).

    ``logits`` is one (num_classes,) row with an int label, or a
    (batch, num_classes) stack with one label per row; the loss is summed
    over the rows.
    """
    n = logits.shape[-1]
    labels = np.atleast_1d(np.asarray(label))
    if (labels.dtype.kind not in "iu" or labels.ndim != 1
            or labels.shape[0] != (1 if logits.ndim == 1 else logits.shape[0])):
        raise ValueError(f"labels {label!r} do not match logits {logits.shape}")
    if not ((labels >= 0) & (labels < n)).all():
        raise ValueError(f"label {label} out of range for {n} classes")
    rows = reshape(logits, (len(labels), n))
    # subtracting the row max as a constant keeps exp bounded and leaves
    # the gradient exact: d/dx logsumexp(x - m) = softmax(x)
    shifted = rows - rows.data.max(axis=1, keepdims=True)
    log_sum = log(matmul(exp(shifted), np.ones((n, 1))))
    return sum_all(log_sum) - sum_all(shifted * np.eye(n)[labels])


def cosine_lr(t: int, total_steps: int, lr0: float, lr_min: float = 0.0) -> float:
    """lr_min + (lr0 - lr_min) * (1 + cos(pi * t / T)) / 2 for 0 <= t <= T."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * t / total_steps))


class MomentumSGD:
    """Classic momentum (no Nesterov): v <- m*v + g; p <- p - lr*v.

    The parameters are packed, in order, into one contiguous buffer, and
    each parameter's data becomes a view of its slice; its grad is bound
    for good to its slice of a zeroed gradient buffer, which backward adds
    into in place, and the velocities live in a third buffer. So a step is
    a few calls on whole buffers, and a parameter that backward does not
    reach takes a zero gradient. Each step zeroes the gradient buffer.
    """

    def __init__(self, params: list[Tensor], momentum: float = 0.9):
        self.params = list(params)
        self.momentum = momentum
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params])
        self.velocity = np.zeros_like(self.data)
        self.grad = np.zeros_like(self.data)
        start = 0
        for p in self.params:
            stop = start + p.size
            p.data = self.data[start:stop].reshape(p.shape)
            p.grad = self.grad[start:stop].reshape(p.shape)
            start = stop
        self.t = 0

    def step(self, lr: float) -> None:
        v = self.velocity
        v *= self.momentum
        v += self.grad
        # the gradients are spent: their buffer takes lr * v, so that no
        # step allocates, and is then zeroed for the next backward
        np.multiply(v, lr, out=self.grad)
        self.data -= self.grad
        self.grad.fill(0)
        self.t += 1


def fake_score(logits: np.ndarray) -> np.ndarray:
    """Tampered-class probability along the last axis of raw logits."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e[..., 1] / e.sum(axis=-1)


@functools.cache
def _score_pool() -> ThreadPoolExecutor:
    """The process-wide pool that score_samples runs its forwards on.

    It has SCORE_WORKERS threads, but no more than the cores this process
    may run on, once every loaded OpenBLAS runs on one thread for the rest
    of the process (:func:`bolf.model._single_thread_blas`). Where that
    cannot be done it has one thread, which scores the chunks one after
    another, as a plain loop would.
    """
    workers = (min(SCORE_WORKERS, len(os.sched_getaffinity(0)))
               if _single_thread_blas() else 1)
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="bolf-score")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads, so it makes its own
    os.register_at_fork(after_in_child=_score_pool.cache_clear)


def score_samples(params: ModelParams, samples, config: ModelConfig,
                  pixels: np.ndarray | None = None) -> list[ScoredSample]:
    """Eval-mode scores for a list of image samples, in order, from
    batched forward passes over SCORE_CHUNK-frame views of one
    (N, H, W, C) stack, run on the scoring pool's threads (``_score_pool``).

    ``pixels`` is that stack, one frame per sample, frame i scored with
    ``samples[i]``'s label and video id; by default it is the samples' own
    pixels, stacked once. A stack of another length is a ValueError,
    raised before any forward runs. An error raised by a chunk's forward
    comes out of this call.
    """
    if pixels is None:
        # np.stack needs a frame; no samples are an empty stack
        pixels = np.stack([s.pixels for s in samples]) if samples else np.empty(0)
    elif len(pixels) != len(samples):
        raise ValueError(f"{len(pixels)} frames to score for {len(samples)} samples")

    def chunk_scores(start: int) -> np.ndarray:
        logits, _ = forward(pixels[start:start + SCORE_CHUNK], params, config)
        return fake_score(logits.data)

    scores = _score_pool().map(chunk_scores, range(0, len(pixels), SCORE_CHUNK))
    return [ScoredSample(float(p), s.label, s.video_id)
            for p, s in zip(itertools.chain.from_iterable(scores), samples)]


def evaluate(params: ModelParams, samples, config: ModelConfig,
             threshold: float = 0.5) -> tuple[float, float]:
    """(accuracy, frame-level AUC) on a held-out list of samples."""
    scored = score_samples(params, samples, config)
    return accuracy(scored, threshold), roc_auc(scored)


def _shuffled_order(samples, rng: np.random.Generator) -> np.ndarray:
    """Pair-preserving shuffle of a balanced original/tampered set.

    Every tampered sample derives from one original frame (video id plus a
    "-f" suffix, same frame index) and is bit-identical to it outside the
    tamper region. Keeping each such pair adjacent makes every even-sized
    batch exactly label-balanced AND content-matched, so the shared image
    content cancels inside the batch gradient and what remains is the
    tamper signal. Pairs are shuffled, and the within-pair order is
    random. Sets without the pair structure fall back to label-stratified
    interleaving, then to a plain permutation.
    """
    by_frame = {(s.video_id, s.frame_idx): i
                for i, s in enumerate(samples) if s.label == 0}
    pairs = []
    matched = set()
    for i, s in enumerate(samples):
        if s.label == 1 and s.video_id.endswith("-f"):
            j = by_frame.get((s.video_id[:-2], s.frame_idx))
            if j is not None:
                pairs.append((j, i))
                matched.add(j)
                matched.add(i)
    if len(matched) != len(samples):
        idx0 = np.flatnonzero([s.label == 0 for s in samples])
        idx1 = np.flatnonzero([s.label == 1 for s in samples])
        if len(idx0) != len(idx1):
            return rng.permutation(len(samples))
        rng.shuffle(idx0)
        rng.shuffle(idx1)
        pairs = list(zip(idx0, idx1))
    arr = np.array(pairs)
    rng.shuffle(arr)
    flips = rng.random(len(arr)) < 0.5
    arr[flips] = arr[flips, ::-1]
    return arr.reshape(-1)


def train(params: ModelParams, splits, train_cfg: TrainConfig, model_cfg: ModelConfig,
          threshold: float = 0.5) -> tuple[ModelParams, list[EpochStats]]:
    """Run the full training loop; deterministic for a fixed seed.

    Training runs in float32: on entry every parameter tensor of
    ``params`` is cast to TRAIN_DTYPE and the optimizer packs them into one
    buffer, each tensor's data becoming a view of it; the same tensors are
    then updated in place and returned. Each tensor's gradient is a view of
    the optimizer's gradient buffer, which every step zeroes, so a
    parameter that backward does not reach is stepped with a zero gradient.
    ``splits`` needs non-empty ``train`` and ``val`` lists of image
    samples. Each minibatch runs as one batched forward and backward pass
    on one tape. One generator, seeded from the config, drives shuffling
    and dropout in a fixed order: ``forward`` draws all of a minibatch's
    dropout uniforms in one call and hands each block its slice.

    The cosine learning-rate schedule is stepped once per optimizer step,
    with T = epochs * ceil(len(train) / batch_size). A non-finite loss or
    gradient stops training before the update, naming where it happened.
    Every epoch ends with an eval-mode pass over ``val``; its accuracy
    counts a score at or above ``threshold`` as a fake.
    """
    train_set = splits.train
    val_set = splits.val
    if not train_set or not val_set:
        raise ValueError("train and val splits must both be non-empty")
    named = params.named()
    for _, t in named:
        t.data = t.data.astype(TRAIN_DTYPE, copy=False)
    opt = MomentumSGD([t for _, t in named], momentum=train_cfg.momentum)

    rng = np.random.default_rng(train_cfg.seed)
    steps_per_epoch = math.ceil(len(train_set) / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    history: list[EpochStats] = []
    for epoch in range(train_cfg.epochs):
        order = _shuffled_order(train_set, rng)
        loss_sum = 0.0
        correct = 0
        last_lr = math.nan
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + train_cfg.batch_size]]
            labels = np.array([s.label for s in batch])
            last_lr = cosine_lr(opt.t, total_steps, train_cfg.lr0, train_cfg.lr_min)
            with Tape() as tape:
                logits, _ = forward(np.stack([s.pixels for s in batch]), params,
                                    model_cfg, train=True, rng=rng)
                loss = cross_entropy(logits, labels)
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"non-finite loss {value} at epoch {epoch} step {opt.t} "
                    f"(batch from video {batch[0].video_id} frame {batch[0].frame_idx})")
            backward(loss, tape)
            loss_sum += value
            correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
            # mean-over-batch gradient keeps lr robust to batch size
            opt.grad *= 1.0 / len(batch)
            if not np.isfinite(opt.grad).all():
                name = next(n for n, t in named if not np.isfinite(t.grad).all())
                raise NonFiniteLoss(f"non-finite gradient of {name} at epoch {epoch} "
                                    f"step {opt.t}")
            opt.step(last_lr)

        val_acc, val_auc = evaluate(params, val_set, model_cfg, threshold)
        history.append(EpochStats(
            epoch=epoch,
            mean_loss=loss_sum / len(train_set),
            train_acc=correct / len(train_set),
            val_acc=val_acc,
            val_auc=val_auc,
            lr=last_lr))
    return params, history
