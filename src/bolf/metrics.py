"""Frame-level and video-level accuracy / ROC-AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedMetric(ValueError):
    """The metric is undefined for this input (e.g. single-class AUC)."""


@dataclass(frozen=True)
class ScoredSample:
    """One scored prediction: probability of the tampered class."""

    score: float
    label: int
    video_id: str = ""


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank.

    These are ``scipy.stats.rankdata(values, method="average")``, computed
    here because importing scipy.stats adds about 45 MB of resident memory
    and a second of start-up to every process that scores.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)] - 1  # last index of each run of ties
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def roc_auc(samples: list[ScoredSample]) -> float:
    """Probability that a random positive outscores a random negative,
    ties counted half (rank / Mann-Whitney formulation)."""
    labels = np.array([s.label for s in samples])
    scores = np.array([s.score for s in samples], dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric(
            f"AUC needs both classes, got {n_pos} positive / {n_neg} negative")
    ranks = _tied_ranks(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(samples: list[ScoredSample], threshold: float = 0.5) -> float:
    """Fraction where (score >= threshold) agrees with the label.

    Scores exactly at the threshold classify as tampered.
    """
    if not samples:
        raise UndefinedMetric("accuracy of an empty sample list")
    hits = sum((s.score >= threshold) == (s.label == 1) for s in samples)
    return hits / len(samples)


def video_level(samples: list[ScoredSample]) -> list[ScoredSample]:
    """Aggregate frames to one sample per video: mean score, shared label.

    Videos appear in first-occurrence order. A video whose frames carry
    conflicting labels is an error.
    """
    by_video: dict[str, list[ScoredSample]] = {}
    for s in samples:
        by_video.setdefault(s.video_id, []).append(s)
    out = []
    for vid, group in by_video.items():
        labels = {s.label for s in group}
        if len(labels) > 1:
            raise ValueError(f"video {vid!r} mixes labels {sorted(labels)}")
        mean_score = float(np.mean([s.score for s in group]))
        out.append(ScoredSample(mean_score, group[0].label, vid))
    return out
