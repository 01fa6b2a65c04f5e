"""Tests for the patch-bag encoder: geometry, initialization, forward
invariants, a hand-computed attention oracle, and attention rollout."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bolf.model import (
    NUM_CLASSES,
    ModelConfig,
    ModelParams,
    attention_rollout,
    embed_patches,
    encoder_block,
    forward,
    heatmap_mask_mass,
    heatmap_to_image,
    init_params,
    patchify,
    scaled_dot_attention,
    unpatchify,
)
from bolf.tensor import (ShapeMismatch, Tape, Tensor, backward, layer_norm, matmul, narrow,
                         reshape)
from bolf.train import cross_entropy


def _image(cfg: ModelConfig, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((cfg.height, cfg.width, cfg.channels))


class TestModelConfig:
    def test_derived_geometry(self):
        cfg = ModelConfig()
        assert (cfg.grid_rows, cfg.grid_cols) == (4, 4)
        assert cfg.num_patches == 16
        assert cfg.patch_len == 64
        assert cfg.head_dim == 16

    def test_patch_must_tile_image(self):
        with pytest.raises(ValueError):
            ModelConfig(height=30)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            ModelConfig(dim=64, heads=5)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.0)
        with pytest.raises(ValueError):
            ModelConfig(dropout=-0.1)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            ModelConfig(depth=0)


class TestPatchify:
    def test_roundtrip_is_bit_exact(self, tiny_model_cfg):
        img = _image(tiny_model_cfg, seed=7)
        assert np.array_equal(unpatchify(patchify(img, tiny_model_cfg), tiny_model_cfg), img)

    def test_roundtrip_full_size(self):
        cfg = ModelConfig()
        img = _image(cfg, seed=1)
        assert np.array_equal(unpatchify(patchify(img, cfg), cfg), img)

    def test_known_tile_layout(self):
        # patches are row-major over the grid; each row is the row-major
        # flattening of its tile
        cfg = ModelConfig(height=4, width=4, channels=1, patch_size=2,
                          dim=4, depth=1, heads=1, mlp_ratio=1)
        img = np.arange(16.0).reshape(4, 4, 1)
        patches = patchify(img, cfg)
        assert patches.shape == (4, 4)
        assert np.array_equal(patches[0], [0.0, 1.0, 4.0, 5.0])
        assert np.array_equal(patches[1], [2.0, 3.0, 6.0, 7.0])
        assert np.array_equal(patches[2], [8.0, 9.0, 12.0, 13.0])

    def test_channels_flatten_last(self):
        cfg = ModelConfig(height=2, width=2, channels=3, patch_size=2,
                          dim=4, depth=1, heads=1, mlp_ratio=1)
        img = np.arange(12.0).reshape(2, 2, 3)
        # (row, col, channel) order within the single tile
        assert np.array_equal(patchify(img, cfg)[0], np.arange(12.0))

    def test_wrong_shape_rejected(self, tiny_model_cfg):
        with pytest.raises(ShapeMismatch):
            patchify(np.zeros((8, 8, 1)), tiny_model_cfg)

    def test_dtype_and_fresh_copy(self, tiny_model_cfg):
        img = _image(tiny_model_cfg)
        assert patchify(img.astype(np.float32), tiny_model_cfg).dtype == np.float32
        assert patchify((img * 255).astype(np.uint8), tiny_model_cfg).dtype == np.float64
        patches = patchify(img, tiny_model_cfg)
        patches[...] = 0.0
        assert not np.shares_memory(patches, img)
        back = unpatchify(patches, tiny_model_cfg)
        assert not np.shares_memory(back, patches)


class TestParams:
    def test_parameter_count_default_config(self):
        # hand count: embedding 4096+64, cls 64, pos 17*64, two blocks of
        # 49728, final norm 128, classifier 130
        params = init_params(ModelConfig(), seed=0)
        assert sum(t.size for _, t in params.named()) == 105026

    def test_init_is_deterministic(self):
        a = init_params(ModelConfig(), seed=3)
        b = init_params(ModelConfig(), seed=3)
        for (name_a, ta), (name_b, tb) in zip(a.named(), b.named()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a = init_params(ModelConfig(), seed=0)
        b = init_params(ModelConfig(), seed=1)
        assert not np.array_equal(a.patch_w.data, b.patch_w.data)

    def test_truncated_normal_bounds(self):
        params = init_params(ModelConfig(), seed=5)
        assert np.abs(params.patch_w.data).max() <= 0.04
        assert np.abs(params.layers[0].wq.data).max() <= 0.04

    def test_structured_zeros_and_ones(self):
        params = init_params(ModelConfig(), seed=0)
        assert np.array_equal(params.patch_b.data, np.zeros(64))
        assert np.array_equal(params.pos_embed.data, np.zeros((17, 64)))
        assert np.array_equal(params.ln_f_gamma.data, np.ones(64))
        assert np.array_equal(params.layers[1].mlp_b1.data, np.zeros(256))

    def test_init_draw_order(self):
        # digest of the default seed-0 init: moving a draw changes it
        digest = hashlib.sha256()
        for name, t in init_params(ModelConfig(), seed=0).named():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == (
            "7643324de05c734937bee67034faec6d43c6fbf1e6242ffcc74dc0f33d08c73d")

    def test_named_order(self):
        # the order of weights.bolf and of the gradcheck lines
        named = init_params(ModelConfig(depth=1), seed=0).named()
        assert [name for name, _ in named] == [
            "patch_w", "patch_b", "cls_token", "pos_embed",
            "layer0.ln1_gamma", "layer0.ln1_beta", "layer0.wq", "layer0.wk",
            "layer0.wv", "layer0.wo", "layer0.ln2_gamma", "layer0.ln2_beta",
            "layer0.mlp_w1", "layer0.mlp_b1", "layer0.mlp_w2", "layer0.mlp_b2",
            "ln_f_gamma", "ln_f_beta", "fc_w", "fc_b"]

    def test_named_covers_everything_once(self):
        cfg = ModelConfig()
        named = init_params(cfg, seed=0).named()
        names = [n for n, _ in named]
        assert len(names) == len(set(names))
        assert len(names) == 4 + cfg.depth * 12 + 4

    def test_with_tensor_swaps_only_target(self):
        params = init_params(ModelConfig(), seed=0)
        swapped = params.with_tensor("patch_b", Tensor(np.full(64, 9.0)))
        assert np.array_equal(swapped.patch_b.data, np.full(64, 9.0))
        assert swapped.patch_w is params.patch_w
        with pytest.raises(KeyError):
            params.with_tensor("nonexistent", Tensor(np.zeros(1)))

    def test_from_arrays_roundtrip(self):
        cfg = ModelConfig()
        params = init_params(cfg, seed=2)
        arrays = {name: t.data for name, t in params.named()}
        rebuilt = ModelParams.from_arrays(cfg, arrays)
        for (_, a), (_, b) in zip(params.named(), rebuilt.named()):
            assert np.array_equal(a.data, b.data)

    def test_from_arrays_validates_names_and_shapes(self):
        cfg = ModelConfig()
        arrays = {name: t.data for name, t in init_params(cfg, seed=0).named()}
        missing = dict(arrays)
        del missing["fc_b"]
        with pytest.raises(ValueError, match="missing"):
            ModelParams.from_arrays(cfg, missing)
        extra = dict(arrays, bogus=np.zeros(3))
        with pytest.raises(ValueError, match="unexpected"):
            ModelParams.from_arrays(cfg, extra)
        bad = dict(arrays, fc_b=np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            ModelParams.from_arrays(cfg, bad)

    def test_from_arrays_builds_no_throwaway_model(self, tiny_model_cfg, monkeypatch):
        import bolf.model
        arrays = {name: t.data for name, t in init_params(tiny_model_cfg, seed=0).named()}

        def refuse(*args, **kwargs):
            raise AssertionError("from_arrays must not initialize a model")

        monkeypatch.setattr(bolf.model, "init_params", refuse)
        rebuilt = ModelParams.from_arrays(tiny_model_cfg, arrays, requires_grad=False)
        assert [name for name, _ in rebuilt.named()] == list(arrays)


class TestForward:
    def test_logit_shape_and_determinism(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        img = _image(tiny_model_cfg)
        la, _ = forward(img, params, tiny_model_cfg)
        lb, _ = forward(img, params, tiny_model_cfg)
        assert la.shape == (2,)
        assert np.array_equal(la.data, lb.data)

    def test_train_mode_requires_rng_when_dropout_active(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        with pytest.raises(ValueError):
            forward(_image(tiny_model_cfg), params, tiny_model_cfg, train=True)

    def test_attention_record_geometry(self, tiny_model_cfg):
        # every row of each block but the last; the last block's class row
        cfg = dataclasses.replace(tiny_model_cfg, depth=3)
        params = init_params(cfg, seed=0)
        _, attn = forward(_image(cfg), params, cfg)
        tokens = cfg.num_patches + 1
        assert isinstance(attn, list)
        assert [a.shape for a in attn] == [(cfg.heads, tokens, tokens)] * 2 + [
            (cfg.heads, 1, tokens)]

    def test_attention_rows_are_stochastic(self):
        cfg = ModelConfig()
        params = init_params(cfg, seed=0)
        _, attn = forward(_image(cfg), params, cfg)
        for block in attn:
            assert np.allclose(block.sum(axis=-1), 1.0, atol=1e-12)
            assert (block >= 0.0).all()

    def test_residual_identity_with_zeroed_block_weights(self, tiny_model_cfg, flat_params):
        # with wq..wo and both MLP matrices zero the block must return its
        # input unchanged, bit for bit (x + 0.0 == x)
        params = flat_params(tiny_model_cfg)
        z = Tensor(np.random.default_rng(1).normal(size=(5, tiny_model_cfg.dim)))
        out, _ = encoder_block(z, params.layers[0], tiny_model_cfg)
        assert np.array_equal(out.data, z.data)

    def test_patch_permutation_invariance_without_positions(self, tiny_model_cfg):
        # default init keeps pos_embed at zero, so shuffling the tiles of
        # the image permutes tokens without changing the logits
        params = init_params(tiny_model_cfg, seed=0)
        img = _image(tiny_model_cfg, seed=3)
        perm = np.random.default_rng(0).permutation(tiny_model_cfg.num_patches)
        shuffled = unpatchify(patchify(img, tiny_model_cfg)[perm], tiny_model_cfg)
        base, _ = forward(img, params, tiny_model_cfg)
        mixed, _ = forward(shuffled, params, tiny_model_cfg)
        assert np.allclose(base.data, mixed.data, atol=1e-8)

    def test_embed_prepends_class_token(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        z = embed_patches(patchify(_image(tiny_model_cfg), tiny_model_cfg), params)
        assert z.shape == (tiny_model_cfg.num_patches + 1, tiny_model_cfg.dim)
        # pos_embed is zero at init, so row 0 is exactly the class token
        assert np.array_equal(z.data[0], params.cls_token.data[0])


class TestBatchedForward:
    """A stack of images through one batched pass must agree with the
    images run one at a time. Batching changes only how BLAS groups the
    products, so agreement is to rounding, not bit for bit."""

    def _stack(self, cfg, n=5):
        return np.stack([_image(cfg, seed=s) for s in range(n)])

    def test_batch_matches_single_images(self):
        cfg = ModelConfig()
        params = init_params(cfg, seed=1)
        images = self._stack(cfg)
        logits, attn = forward(images, params, cfg)
        tokens = cfg.num_patches + 1
        assert logits.shape == (len(images), NUM_CLASSES)
        assert [a.shape for a in attn] == [(len(images), cfg.heads, tokens, tokens),
                                           (len(images), cfg.heads, 1, tokens)]
        for i, (image, row) in enumerate(zip(images, logits.data)):
            one, one_attn = forward(image, params, cfg)
            assert np.max(np.abs(row - one.data)) <= 1e-12
            for block, one_block in zip(attn, one_attn, strict=True):
                assert one_block.shape == block[i].shape
                assert np.max(np.abs(block[i] - one_block)) <= 1e-12

    def test_batch_gradient_is_sum_of_sample_gradients(self, tiny_model_cfg):
        cfg = tiny_model_cfg
        params = init_params(cfg, seed=2)
        images = self._stack(cfg, n=4)
        labels = np.array([0, 1, 1, 0])

        with Tape() as tape:
            logits, _ = forward(images, params, cfg)
            loss = cross_entropy(logits, labels)
        backward(loss, tape)
        batched = {name: t.grad.copy() for name, t in params.named()}
        for _, t in params.named():
            t.grad = None

        for image, label in zip(images, labels):
            with Tape() as tape:
                logits, _ = forward(image, params, cfg)
                loss = cross_entropy(logits, int(label))
            backward(loss, tape)
        for name, t in params.named():
            assert np.max(np.abs(batched[name] - t.grad)) <= 1e-12, name

    def test_single_image_is_a_batch_of_one(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        img = _image(tiny_model_cfg)
        one, attn = forward(img, params, tiny_model_cfg)
        stacked, stacked_attn = forward(img[None], params, tiny_model_cfg)
        assert np.array_equal(one.data, stacked.data[0])
        for block, stacked_block in zip(attn, stacked_attn, strict=True):
            assert np.array_equal(block, stacked_block[0])

    def test_batched_patchify_roundtrip(self, tiny_model_cfg):
        images = self._stack(tiny_model_cfg, n=3)
        stacked = patchify(images, tiny_model_cfg)
        assert stacked.shape == (3, tiny_model_cfg.num_patches, tiny_model_cfg.patch_len)
        for image, patches in zip(images, stacked):
            assert np.array_equal(patches, patchify(image, tiny_model_cfg))
        assert np.array_equal(unpatchify(stacked, tiny_model_cfg), images)


class TestClassRowOnlyLastBlock:
    """forward runs the last block's attention queries, everything after
    them and the final layer norm on the class-token row only. The
    reference below runs every block on every row and narrows after the
    final layer norm; both must agree, and in train mode the class row
    must get the dropout mask the trimmed draw gives it."""

    @staticmethod
    def _full_rows(images, params, cfg, rng=None):
        """(batch, NUM_CLASSES) logits and per-layer (batch, heads, tokens,
        tokens) attention with every block on every row; train mode when
        rng is given, drawing what forward draws."""
        z = embed_patches(patchify((images - 0.5) / 0.5, cfg), params)
        tokens = z.shape[1]
        noise = None if rng is None else rng.random(
            (len(images), (cfg.depth - 1) * tokens + 1, cfg.mlp_ratio * cfg.dim))
        recorded = []
        for i, layer in enumerate(params.layers):
            uniforms = None
            if noise is not None and i < cfg.depth - 1:
                uniforms = noise[:, i * tokens:(i + 1) * tokens]
            elif noise is not None:
                # the last block's other rows never reach the logits, so
                # any uniforms serve them
                uniforms = np.repeat(noise[:, -1:], tokens, axis=1)
            z, attn = encoder_block(z, layer, cfg, uniforms)
            recorded.append(attn.data)
        z = narrow(layer_norm(z, params.ln_f_gamma, params.ln_f_beta), 1, 0, 1)
        logits = matmul(z, params.fc_w) + params.fc_b
        return reshape(logits, (len(images), NUM_CLASSES)), recorded

    @staticmethod
    def _full_rollout(full_attn):
        """Rollout as the product of whole mixed matrices, last layer
        first, then the class row over the patches."""
        rollout = None
        for attn in full_attn:
            avg = attn.mean(axis=-3)
            mixed = 0.5 * avg + 0.5 * np.eye(avg.shape[-1])
            mixed = mixed / mixed.sum(axis=-1, keepdims=True)
            rollout = mixed if rollout is None else mixed @ rollout
        weights = rollout[..., 0, 1:]
        return weights / weights.sum(axis=-1, keepdims=True)

    def test_eval_logits_and_attention_match_full_rows(self):
        cfg = ModelConfig()
        params = init_params(cfg, seed=1)
        images = np.stack([_image(cfg, seed=s) for s in range(5)])
        logits, attn = forward(images, params, cfg)
        ref_logits, ref_attn = self._full_rows(images, params, cfg)
        assert np.max(np.abs(logits.data - ref_logits.data)) <= 1e-12
        # blocks before the last run the same products either way
        for block, ref_block in zip(attn[:-1], ref_attn[:-1], strict=True):
            assert np.array_equal(block, ref_block)
        # the last block's class row is a one-row product, which BLAS may
        # sum in another order (a vector-matrix kernel)
        assert attn[-1].shape == (len(images), cfg.heads, 1, cfg.num_patches + 1)
        assert np.max(np.abs(attn[-1] - ref_attn[-1][:, :, :1])) <= 1e-12
        # a batch of one makes the last block's products one row long too
        one, one_attn = forward(images[0], params, cfg)
        assert np.max(np.abs(one.data - ref_logits.data[0])) <= 1e-12
        for block, ref_block in zip(one_attn[:-1], ref_attn[:-1], strict=True):
            assert np.array_equal(block, ref_block[0])
        assert np.max(np.abs(one_attn[-1] - ref_attn[-1][0, :, :1])) <= 1e-12

    def test_train_logits_gradients_and_stream_match_full_rows(self):
        cfg = ModelConfig(height=16, width=16, channels=1, patch_size=4, dim=16,
                          depth=2, heads=2, mlp_ratio=2, dropout=0.1)
        params = init_params(cfg, seed=3)
        images = np.stack([_image(cfg, seed=s) for s in range(4)])
        labels = np.array([0, 1, 1, 0])

        def run(pass_fn):
            for _, t in params.named():
                t.grad = None
            rng = np.random.default_rng(7)
            with Tape() as tape:
                logits = pass_fn(rng)
                loss = cross_entropy(logits, labels)
            backward(loss, tape)
            grads = {name: t.grad.copy() for name, t in params.named()}
            return logits.data, grads, rng.random(8)

        logits, grads, next_draw = run(
            lambda rng: forward(images, params, cfg, train=True, rng=rng)[0])
        ref_logits, ref_grads, ref_next = run(
            lambda rng: self._full_rows(images, params, cfg, rng)[0])
        assert np.max(np.abs(logits - ref_logits)) <= 1e-12
        for name, grad in grads.items():
            assert np.max(np.abs(grad - ref_grads[name])) <= 1e-12, name
        assert np.array_equal(next_draw, ref_next)

    def test_dropout_draw_is_per_image_and_trimmed(self):
        # a stack draws what its images draw one at a time, and each image
        # takes (depth - 1) * tokens + 1 rows of mlp_ratio * dim uniforms
        cfg = ModelConfig(height=16, width=16, channels=1, patch_size=4, dim=16,
                          depth=3, heads=2, mlp_ratio=2, dropout=0.5)
        params = init_params(cfg, seed=3)
        images = np.stack([_image(cfg, seed=s) for s in range(4)])
        rng, one_rng = np.random.default_rng(7), np.random.default_rng(7)
        stacked = forward(images, params, cfg, train=True, rng=rng)[0].data
        for image, row in zip(images, stacked):
            one = forward(image, params, cfg, train=True, rng=one_rng)[0].data
            assert np.max(np.abs(row - one)) <= 1e-12
        per_image = ((cfg.depth - 1) * (cfg.num_patches + 1) + 1) * cfg.mlp_ratio * cfg.dim
        skipped = np.random.default_rng(7)
        skipped.random(len(images) * per_image)
        after = rng.random(8)
        assert np.array_equal(after, one_rng.random(8))
        assert np.array_equal(after, skipped.random(8))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_rollout_matches_full_matrix_product(self, depth):
        cfg = ModelConfig(depth=depth)
        params = init_params(cfg, seed=1)
        images = np.stack([_image(cfg, seed=s) for s in range(5)])
        _, full_attn = self._full_rows(images, params, cfg)
        want = self._full_rollout(full_attn)
        stacked = attention_rollout(forward(images, params, cfg)[1])
        assert stacked.shape == want.shape == (len(images), cfg.num_patches)
        assert np.max(np.abs(stacked - want)) <= 1e-12
        one = attention_rollout(forward(images[0], params, cfg)[1])
        assert np.max(np.abs(one - self._full_rollout([a[0] for a in full_attn]))) <= 1e-12

    def test_cls_only_block_returns_the_class_row(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        z = Tensor(np.random.default_rng(2).normal(size=(3, 5, tiny_model_cfg.dim)))
        full, full_attn = encoder_block(z, params.layers[0], tiny_model_cfg)
        row, attn = encoder_block(z, params.layers[0], tiny_model_cfg, cls_only=True)
        assert row.shape == (3, 1, tiny_model_cfg.dim)
        assert attn.shape == (3, tiny_model_cfg.heads, 1, 5)
        assert np.max(np.abs(attn.data - full_attn.data[:, :, :1])) <= 1e-12
        assert np.max(np.abs(row.data - full.data[:, :1])) <= 1e-12


class TestAttentionOracle:
    def test_two_token_hand_computation(self):
        """Two tokens, head width 2, worked by hand with scalar math."""
        q = [[1.0, 0.0], [0.0, 2.0]]
        k = [[1.0, 1.0], [-1.0, 0.5]]
        v = [[1.0, 2.0], [3.0, 4.0]]
        out, attn = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))

        scale = 1.0 / math.sqrt(2.0)
        want_attn = []
        want_out = []
        for qi in q:
            logits = [scale * (qi[0] * kj[0] + qi[1] * kj[1]) for kj in k]
            m = max(logits)
            e = [math.exp(l - m) for l in logits]
            s = sum(e)
            row = [x / s for x in e]
            want_attn.append(row)
            want_out.append([row[0] * v[0][0] + row[1] * v[1][0],
                             row[0] * v[0][1] + row[1] * v[1][1]])
        assert np.max(np.abs(attn.data - want_attn)) < 1e-6
        assert np.max(np.abs(out.data - want_out)) < 1e-6

    def test_uniform_when_query_is_orthogonal(self):
        # a zero query gives equal logits, hence exactly uniform attention
        q = Tensor(np.zeros((1, 4)))
        k = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        v = Tensor(np.eye(3, 4))
        _, attn = scaled_dot_attention(q, k, v)
        assert np.allclose(attn.data, 1.0 / 3.0, atol=1e-15)


class TestRollout:
    @staticmethod
    def _single_head(mats):
        """Per-layer (1, tokens, tokens) attention, one head per layer."""
        return [np.array(m, dtype=float)[None] for m in mats]

    def test_weights_sum_to_one(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        _, attn = forward(_image(tiny_model_cfg), params, tiny_model_cfg)
        weights = attention_rollout(attn)
        assert weights.shape == (tiny_model_cfg.num_patches,)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert (weights >= 0.0).all()

    def test_uniform_attention_gives_uniform_heatmap(self):
        n = 5
        uniform = np.full((n, n), 1.0 / n)
        weights = attention_rollout(self._single_head([uniform, uniform]))
        assert np.allclose(weights, 0.25, atol=1e-12)

    def test_identity_attention_falls_back_to_uniform(self):
        # pure self-attention leaves zero mass on the patch columns of the
        # class-token row; the guard spreads it evenly instead of dividing
        # by zero
        weights = attention_rollout(self._single_head([np.eye(4)]))
        assert np.allclose(weights, 1.0 / 3.0)

    def test_single_layer_rollout_matches_closed_form(self):
        rng = np.random.default_rng(8)
        raw = rng.random((4, 4))
        attn = raw / raw.sum(axis=1, keepdims=True)
        mixed = 0.5 * attn + 0.5 * np.eye(4)
        mixed = mixed / mixed.sum(axis=1, keepdims=True)
        want = mixed[0, 1:] / mixed[0, 1:].sum()
        got = attention_rollout(self._single_head([attn]))
        assert np.allclose(got, want, atol=1e-12)

    def test_head_averaging(self):
        # two heads whose average is uniform must behave like the uniform
        # single-head case
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        weights = attention_rollout([np.array([a, b])])
        assert np.allclose(weights, [1.0])

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            attention_rollout([])
        with pytest.raises(ValueError):
            attention_rollout([np.eye(4)])  # no heads axis

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stack_equals_single_image_calls(self, dtype):
        # random row-stochastic records of 3 layers for a batch of 5: two
        # (5, heads, tokens, tokens) layers and the last layer's class rows;
        # image 2 is pure self-attention and takes the uniform fallback
        rng = np.random.default_rng(4)
        raw = [rng.random((5, 4, 17, 17)), rng.random((5, 4, 17, 17)), rng.random((5, 4, 1, 17))]
        for layer in raw:
            layer[2] = np.eye(*layer.shape[-2:])
        attn = [(layer / layer.sum(axis=-1, keepdims=True)).astype(dtype) for layer in raw]
        stacked = attention_rollout(attn)
        assert stacked.shape == (5, 16)
        for i, row in enumerate(stacked):
            assert np.array_equal(row, attention_rollout([layer[i] for layer in attn]))
        assert np.array_equal(stacked[2], np.full(16, 1.0 / 16))
        # leading axes beyond one batch axis roll out the same way
        assert np.array_equal(
            attention_rollout([layer[:, None] for layer in attn])[:, 0], stacked)


class TestHeatmap:
    def test_patch_fill_layout(self):
        cfg = ModelConfig(height=4, width=4, channels=1, patch_size=2,
                          dim=4, depth=1, heads=1, mlp_ratio=1)
        img = heatmap_to_image(np.array([0.1, 0.2, 0.3, 0.4]), cfg)
        assert img.shape == (4, 4)
        assert (img[:2, :2] == 0.1).all()
        assert (img[:2, 2:] == 0.2).all()
        assert (img[2:, :2] == 0.3).all()
        assert (img[2:, 2:] == 0.4).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_kron_byte_for_byte(self, dtype):
        cfg = ModelConfig(height=32, width=32, channels=1, patch_size=8,
                          dim=4, depth=1, heads=1, mlp_ratio=1)
        rng = np.random.default_rng(7)
        grids = [rng.standard_normal(16) for _ in range(50)]
        grids.append(np.array([-0.0, 0.0, 1e-300, -1.5] * 4))
        for weights in grids:
            weights = weights.astype(dtype)
            want = np.kron(weights.reshape(4, 4), np.ones((8, 8)))
            got = heatmap_to_image(weights, cfg)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ShapeMismatch):
            heatmap_to_image(np.ones(5), ModelConfig())

    def test_mask_mass_selects_patch(self):
        cfg = ModelConfig(height=4, width=4, channels=1, patch_size=2,
                          dim=4, depth=1, heads=1, mlp_ratio=1)
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2, :2] = True  # exactly the first tile
        assert heatmap_mask_mass(weights, mask, cfg) == pytest.approx(0.4, abs=1e-12)
        assert heatmap_mask_mass(weights, np.ones((4, 4), bool), cfg) == pytest.approx(1.0)

    def test_mask_shape_validated(self):
        with pytest.raises(ShapeMismatch):
            heatmap_mask_mass(np.full(16, 1 / 16), np.zeros((8, 8), bool), ModelConfig())
