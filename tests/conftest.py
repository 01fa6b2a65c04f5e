"""Shared fixtures: a small model/data pairing used across test modules.

The tiny configuration (16x16 images, 4 patches, width-8 embeddings)
exists purely to keep unit tests fast; the acceptance suite uses the
full-size defaults.
"""

import numpy as np
import pytest

from bolf.data import DatasetSpec, build_dataset
from bolf.model import ModelConfig, ModelParams, init_params


@pytest.fixture(scope="session")
def tiny_model_cfg():
    return ModelConfig(height=16, width=16, channels=1, patch_size=8,
                       dim=8, depth=1, heads=2, mlp_ratio=2, dropout=0.1)


@pytest.fixture(scope="session")
def flat_params():
    """Builds the params of a config that are zero everywhere except the
    layer-norm gammas, which are one: every projection is zero, so
    attention is uniform and each block is the identity."""
    def build(cfg: ModelConfig) -> ModelParams:
        return ModelParams.from_arrays(cfg, {
            name: np.ones(t.shape) if name.endswith("_gamma") else np.zeros(t.shape)
            for name, t in init_params(cfg, seed=0).named()})
    return build


@pytest.fixture(scope="session")
def tiny_spec():
    return DatasetSpec(train_count=8, val_count=4, test_count=4,
                       frames_per_video=2, height=16, width=16,
                       channels=1, seed=0)


@pytest.fixture(scope="session")
def tiny_splits(tiny_spec):
    # Samples are treated as read-only by every consumer.
    return build_dataset(tiny_spec)
