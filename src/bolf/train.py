"""Supervised training: cross-entropy loss, SGD with momentum, and a
per-step cosine-annealed learning rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import ScoredSample, accuracy, roc_auc
from .model import ModelConfig, ModelParams, forward
from .tensor import NumericError, Tape, Tensor, backward, exp, log, matmul, reshape, sum_all

# Frames per eval-mode forward pass in score_samples. Every scorer uses the
# same chunks, so a frame's score does not depend on which command made it.
SCORE_CHUNK = 16


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
    eval_every: int = 1
    weight_decay: float = 0.0  # off unless set
    clip_norm: float = 0.0  # off unless set

    def __post_init__(self):
        if not self.lr0 > self.lr_min >= 0.0:
            raise ValueError(f"need lr0 > lr_min >= 0, got lr0={self.lr0} lr_min={self.lr_min}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.weight_decay < 0.0 or self.clip_norm < 0.0:
            raise ValueError("weight_decay and clip_norm must be >= 0")


@dataclass
class EpochStats:
    """One history row; val columns are None on non-eval epochs."""

    epoch: int
    mean_loss: float
    train_acc: float
    val_acc: float | None
    val_auc: float | None
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

    Weight decay, when enabled, adds wd*p to the raw gradient; clip_norm,
    when enabled, rescales the global gradient norm first. Grads are
    cleared after each step.
    """

    def __init__(self, params: list[Tensor], momentum: float = 0.9,
                 weight_decay: float = 0.0, clip_norm: float = 0.0):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.velocities = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"parameter {i} has no gradient; run backward first")
        if self.clip_norm > 0.0:
            norm = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in self.params))
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
                for p in self.params:
                    p.grad *= scale
        for p, v in zip(self.params, self.velocities):
            g = p.grad
            if self.weight_decay > 0.0:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= lr * v
            p.grad = None
        self.t += 1


def _fake_probs(logits: np.ndarray) -> np.ndarray:
    """Tampered-class probability along the last axis of raw logits."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e[..., 1] / e.sum(axis=-1)


def fake_score(logits: Tensor) -> float:
    """Probability of the tampered class from raw logits."""
    return float(_fake_probs(logits.data))


def score_samples(params: ModelParams, samples, config: ModelConfig) -> list[ScoredSample]:
    """Eval-mode scores for a list of image samples, in order, from
    batched forward passes of SCORE_CHUNK frames."""
    out = []
    for start in range(0, len(samples), SCORE_CHUNK):
        chunk = samples[start:start + SCORE_CHUNK]
        logits, _ = forward(np.stack([s.pixels for s in chunk]), params, config)
        out += [ScoredSample(float(p), s.label, s.video_id)
                for p, s in zip(_fake_probs(logits.data), chunk)]
    return out


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


def train(params: ModelParams, splits, train_cfg: TrainConfig,
          model_cfg: ModelConfig) -> tuple[ModelParams, list[EpochStats]]:
    """Run the full training loop; deterministic for a fixed seed.

    ``splits`` needs non-empty ``train`` and ``val`` lists of image
    samples. Each minibatch runs as one batched forward and backward pass
    on one tape. One generator, seeded from the config, drives shuffling
    and dropout in a fixed order: ``forward`` draws all of a minibatch's
    dropout uniforms in one call and hands each block its slice. The
    schedule is stepped once per optimizer step with
    T = epochs * ceil(len(train) / batch_size). A non-finite loss or
    gradient stops training before the update, naming where it happened.
    """
    train_set = splits.train
    val_set = splits.val
    if not train_set or not val_set:
        raise ValueError("train and val splits must both be non-empty")
    if train_cfg.epochs == 0:
        return params, []

    rng = np.random.default_rng(train_cfg.seed)
    steps_per_epoch = math.ceil(len(train_set) / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch
    named = params.named()
    opt = MomentumSGD([t for _, t in named],
                      momentum=train_cfg.momentum,
                      weight_decay=train_cfg.weight_decay,
                      clip_norm=train_cfg.clip_norm)

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
            inv = 1.0 / len(batch)
            for name, p in named:
                p.grad *= inv
                if not np.isfinite(p.grad).all():
                    raise NonFiniteLoss(f"non-finite gradient of {name} at epoch {epoch} "
                                        f"step {opt.t}")
            opt.step(last_lr)

        val_acc = val_auc = None
        if (epoch + 1) % train_cfg.eval_every == 0 or epoch == train_cfg.epochs - 1:
            val_acc, val_auc = evaluate(params, val_set, model_cfg)
        history.append(EpochStats(
            epoch=epoch,
            mean_loss=loss_sum / len(train_set),
            train_acc=correct / len(train_set),
            val_acc=val_acc,
            val_auc=val_auc,
            lr=last_lr))
    return params, history
