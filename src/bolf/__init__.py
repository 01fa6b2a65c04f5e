"""Bag-of-local-feature transformer for face-manipulation detection.

A small, fully inspectable stack: a reverse-mode autodiff tensor core, a
patch-bag transformer encoder with attention rollout, an SGD/momentum
trainer with cosine learning-rate annealing, seeded synthetic data with
local tampering, and rank-based evaluation metrics.
"""

from .tensor import (DTYPE, GradCheckReport, NumericError, ShapeMismatch, Tape,
                     TapeError, Tensor, backward, grad_check)
from .model import (ModelConfig, ModelParams, attention_rollout, embed_patches, forward,
                    heatmap_mask_mass, heatmap_to_image, init_params, multi_head_attention,
                    patchify, scaled_dot_attention, unpatchify)
from .metrics import ScoredSample, UndefinedMetric, accuracy, roc_auc, video_level
from .train import (EpochStats, MomentumSGD, NonFiniteLoss, TrainConfig,
                    cosine_lr, cross_entropy, evaluate, fake_score)
from .data import (DatasetSpec, DatasetSplits, FormatError, ImageSample,
                   PerturbationSpec, build_dataset, gen_manipulated, gen_original,
                   load_manifest, perturb, read_ppm, write_dataset, write_ppm)
from .weights import WeightsError, load_weights, save_weights
from .config import ConfigError, RunConfig, load_config, serialize

__version__ = "0.1.0"

__all__ = [
    "DTYPE", "Tensor", "Tape", "backward", "grad_check", "GradCheckReport",
    "ShapeMismatch", "NumericError", "TapeError",
    "ModelConfig", "ModelParams",
    "patchify", "unpatchify", "embed_patches", "scaled_dot_attention",
    "multi_head_attention", "forward", "init_params", "attention_rollout",
    "heatmap_to_image", "heatmap_mask_mass",
    "ScoredSample", "roc_auc", "accuracy", "video_level", "UndefinedMetric",
    "TrainConfig", "EpochStats", "MomentumSGD", "NonFiniteLoss",
    "cross_entropy", "cosine_lr", "evaluate", "fake_score",
    "DatasetSpec", "DatasetSplits", "ImageSample", "PerturbationSpec",
    "FormatError", "build_dataset", "gen_original", "gen_manipulated",
    "perturb", "read_ppm", "write_ppm", "write_dataset", "load_manifest",
    "WeightsError", "save_weights", "load_weights",
    "ConfigError", "RunConfig", "load_config", "serialize",
]
