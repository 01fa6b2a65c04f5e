"""Tests for the loss, schedule, optimizer, and the supervised loop.

Closed-form oracles: cross-entropy of symmetric logits is ln 2, two
momentum steps under a constant gradient displace by 2.9 * lr * g.
"""

import importlib
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bolf.model import ModelConfig, ModelParams, forward, init_params
from bolf.tensor import NumericError, Tape, Tensor, backward, grad_check, mul, sum_all
from bolf.train import (
    SCORE_CHUNK,
    SCORE_WORKERS,
    TRAIN_DTYPE,
    EpochStats,
    MomentumSGD,
    NonFiniteLoss,
    TrainConfig,
    cosine_lr,
    cross_entropy,
    evaluate,
    fake_score,
    score_samples,
    train,
    _shuffled_order,
)


class TestCrossEntropy:
    def test_symmetric_logits_give_ln2(self):
        assert cross_entropy(Tensor([0.0, 0.0]), 0).item() == pytest.approx(
            0.6931471805599453, abs=1e-15)

    def test_hand_computed_value(self):
        # -log(e^2 / (e^1 + e^2)) = log(1 + e^-1)
        assert cross_entropy(Tensor([1.0, 2.0]), 1).item() == pytest.approx(
            0.31326168751822286, abs=1e-15)

    def test_batch_sums_row_losses(self):
        rows = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.1]])
        labels = [1, 0, 0]
        total = cross_entropy(Tensor(rows), np.array(labels)).item()
        want = sum(cross_entropy(Tensor(r), y).item() for r, y in zip(rows, labels))
        assert total == pytest.approx(want, abs=1e-14)
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rows), np.array([0, 1]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([0.0, 0.0]), 2)
        with pytest.raises(ValueError):
            cross_entropy(Tensor([0.0, 0.0]), -1)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        a = cross_entropy(Tensor(logits), 1).item()
        b = cross_entropy(Tensor(logits + 300.0), 1).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        assert cross_entropy(Tensor([1000.0, 0.0]), 0).item() == pytest.approx(0.0)
        assert cross_entropy(Tensor([1000.0, 0.0]), 1).item() == pytest.approx(1000.0)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor([0.5, -0.3, 1.1], requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy(logits, 2)
        backward(loss, tape)
        e = np.exp(logits.data - logits.data.max())
        want = e / e.sum() - np.array([0.0, 0.0, 1.0])
        assert np.allclose(logits.grad, want, atol=1e-12)

    def test_gradient_against_central_differences(self):
        x0 = np.random.default_rng(0).normal(size=(4,))
        assert grad_check(lambda t: cross_entropy(t, 1), x0).passed


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.4) == pytest.approx(0.4)
        assert cosine_lr(100, 100, 0.4) == pytest.approx(0.0)
        assert cosine_lr(50, 100, 0.4, lr_min=0.1) == pytest.approx(0.25)
        assert cosine_lr(100, 100, 0.4, lr_min=0.1) == pytest.approx(0.1)

    def test_monotone_decrease(self):
        values = [cosine_lr(t, 40, 0.1) for t in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 0, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.1)


class TestMomentumSGD:
    def _param(self, value=1.0):
        return Tensor(np.array([value]), requires_grad=True)

    def test_two_step_displacement_oracle(self):
        # v1 = g, v2 = (1 + m) g; total displacement = (2 + m) lr g
        p = self._param(0.0)
        opt = MomentumSGD([p], momentum=0.9)
        for _ in range(2):
            p.grad[...] = 2.0
            opt.step(0.1)
        assert p.data[0] == pytest.approx(-2.9 * 0.1 * 2.0, abs=1e-15)

    def test_velocity_matches_geometric_recursion(self):
        m, lr, g = 0.7, 0.05, 3.0
        p = self._param(0.0)
        opt = MomentumSGD([p], momentum=m)
        expect, v = 0.0, 0.0
        for _ in range(6):
            p.grad[...] = g
            opt.step(lr)
            v = m * v + g
            expect -= lr * v
        assert p.data[0] == pytest.approx(expect, abs=1e-14)

    def test_zero_momentum_is_plain_sgd(self):
        p = self._param(5.0)
        opt = MomentumSGD([p], momentum=0.0)
        p.grad[...] = 10.0
        opt.step(0.01)
        assert p.data[0] == pytest.approx(4.9)

    def test_gradients_cleared_and_step_counted(self):
        p = self._param()
        opt = MomentumSGD([p])
        p.grad[...] = 1.0
        opt.step(0.1)
        assert np.shares_memory(p.grad, opt.grad)
        assert p.grad.tobytes() == np.zeros(1).tobytes()
        assert opt.t == 1

    def test_two_backward_passes_then_one_step_use_the_summed_gradient(self):
        p = self._param(1.0)
        opt = MomentumSGD([p], momentum=0.9)
        for weight in (2.0, 3.0):
            with Tape() as tape:
                loss = sum_all(mul(p, np.array([weight])))
            backward(loss, tape)
        assert p.grad[0] == 5.0
        opt.step(0.1)
        assert p.data[0] == 1.0 - 0.1 * 5.0
        assert opt.velocity[0] == 5.0


class TestTrainConfigValidation:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 20
        assert cfg.batch_size == 8

    @pytest.mark.parametrize("kwargs", [
        {"lr0": 0.0},
        {"lr0": 0.1, "lr_min": 0.2},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"batch_size": 0},
        {"epochs": -1},
        {"seed": -1},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


train_module = importlib.import_module("bolf.train")


@pytest.fixture
def fresh_pool():
    """score_samples builds its pool afresh in the test, and the test's
    pool is shut down after it."""
    def drop():
        if train_module._score_pool.cache_info().currsize:
            train_module._score_pool().shutdown()
        train_module._score_pool.cache_clear()
    drop()
    yield
    drop()


def _threads_of_forward(monkeypatch, fail_at=None) -> list[threading.Thread]:
    """Wrap train's forward so that it notes the thread of each call, and
    raises a NumericError on the chunk whose first frame is ``fail_at``."""
    threads = []
    real = train_module.forward

    def noting(pixels, *args, **kwargs):
        threads.append(threading.current_thread())
        if fail_at is not None and np.array_equal(pixels[0], fail_at):
            raise NumericError("layer_norm variance is not finite")
        return real(pixels, *args, **kwargs)

    monkeypatch.setattr(train_module, "forward", noting)
    return threads


# scores in a child forked after the parent's pool had run, which must
# make a pool of its own: the parent's threads do not exist in the child
FORK_AFTER_SCORING = """
import os
from bolf.data import DatasetSpec, build_split
from bolf.model import ModelConfig, init_params
from bolf.train import score_samples
cfg = ModelConfig(height=16, width=16, patch_size=8, dim=8, depth=1, heads=2, mlp_ratio=2)
params = init_params(cfg, seed=0)
samples = build_split(DatasetSpec(test_count=40, height=16, width=16), "test")
want = score_samples(params, samples, cfg)
pid = os.fork()
if pid == 0:
    os._exit(0 if score_samples(params, samples, cfg) == want else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def _serial_scores(params, config, stack) -> list[float]:
    """The stack's scores from one forward per chunk, on this thread."""
    chunks = [fake_score(forward(stack[i:i + SCORE_CHUNK], params, config)[0].data)
              for i in range(0, len(stack), SCORE_CHUNK)]
    return [float(p) for p in np.concatenate(chunks)]


class TestScoring:
    def test_fake_score_is_softmax_of_class_one(self):
        assert fake_score(np.array([math.log(1.0), math.log(3.0)])) == pytest.approx(0.75)
        assert fake_score(np.array([50.0, -50.0])) < 1e-6
        assert fake_score(np.array([-50.0, 50.0])) > 1.0 - 1e-6
        # one probability per row of a stack
        rows = np.array([[0.0, 0.0], [50.0, -50.0], [math.log(1.0), math.log(3.0)]])
        assert fake_score(rows) == pytest.approx([0.5, 0.0, 0.75], abs=1e-6)

    def test_score_samples_preserves_order_and_ids(self, tiny_splits, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        scored = score_samples(params, tiny_splits.val, tiny_model_cfg)
        assert len(scored) == len(tiny_splits.val)
        for s, original in zip(scored, tiny_splits.val):
            assert s.label == original.label
            assert s.video_id == original.video_id
            assert 0.0 <= s.score <= 1.0

    def test_stack_scores_as_samples_carrying_its_pixels(self, tiny_splits, tiny_model_cfg):
        # 37 frames: two full SCORE_CHUNKs and a partial one
        samples = ((tiny_splits.train + tiny_splits.val + tiny_splits.test) * 3)[:37]
        stack = np.random.default_rng(3).random((37, 16, 16, 1))
        params = init_params(tiny_model_cfg, seed=0)
        carried = [replace(s, pixels=p) for s, p in zip(samples, stack)]
        want = score_samples(params, carried, tiny_model_cfg)
        assert score_samples(params, samples, tiny_model_cfg, stack) == want
        # the default stack is the samples' own pixels, scored chunk by chunk
        chunks = [fake_score(forward(np.stack([s.pixels for s in carried[i:i + SCORE_CHUNK]]),
                                     params, tiny_model_cfg)[0].data)
                  for i in range(0, 37, SCORE_CHUNK)]
        assert [s.score for s in want] == [float(p) for p in np.concatenate(chunks)]

    def test_pool_scores_more_chunks_than_workers_as_serial_forwards(
            self, tiny_splits, tiny_model_cfg, monkeypatch):
        # 37 frames: three chunks on at most two threads, scored in order
        samples = ((tiny_splits.train + tiny_splits.val + tiny_splits.test) * 3)[:37]
        stack = np.random.default_rng(4).random((37, 16, 16, 1))
        params = init_params(tiny_model_cfg, seed=0)
        threads = _threads_of_forward(monkeypatch)
        scored = score_samples(params, samples, tiny_model_cfg, stack)
        assert [s.score for s in scored] == _serial_scores(params, tiny_model_cfg, stack)
        assert [(s.label, s.video_id) for s in scored] == \
               [(s.label, s.video_id) for s in samples]
        assert len(threads) == 3
        assert threading.current_thread() not in threads
        assert len(set(threads)) <= SCORE_WORKERS

    def test_numeric_error_in_one_chunk_comes_out(self, tiny_splits, tiny_model_cfg,
                                                  monkeypatch):
        samples = ((tiny_splits.train + tiny_splits.val + tiny_splits.test) * 3)[:37]
        stack = np.random.default_rng(5).random((37, 16, 16, 1))
        _threads_of_forward(monkeypatch, fail_at=stack[SCORE_CHUNK])
        with pytest.raises(NumericError, match="layer_norm"):
            score_samples(init_params(tiny_model_cfg, seed=0), samples, tiny_model_cfg, stack)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_scores_on_a_pool_of_its_own(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", FORK_AFTER_SCORING],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]

    def test_without_a_pinned_blas_one_thread_scores_the_same(
            self, tiny_splits, tiny_model_cfg, fresh_pool, monkeypatch):
        samples = ((tiny_splits.train + tiny_splits.val + tiny_splits.test) * 3)[:37]
        stack = np.random.default_rng(6).random((37, 16, 16, 1))
        params = init_params(tiny_model_cfg, seed=0)
        monkeypatch.setattr(train_module, "_single_thread_blas", lambda: False)
        threads = _threads_of_forward(monkeypatch)
        scored = score_samples(params, samples, tiny_model_cfg, stack)
        assert [s.score for s in scored] == _serial_scores(params, tiny_model_cfg, stack)
        assert train_module._score_pool()._max_workers == 1
        assert len(threads) == 3 and len(set(threads)) == 1

    def test_score_samples_of_no_samples(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        assert score_samples(params, [], tiny_model_cfg) == []
        assert score_samples(params, [], tiny_model_cfg, np.empty((0, 16, 16, 1))) == []

    def test_score_samples_rejects_a_stack_of_another_length(self, tiny_splits,
                                                            tiny_model_cfg, monkeypatch):
        params = init_params(tiny_model_cfg, seed=0)
        threads = _threads_of_forward(monkeypatch)
        for n in (3, 5, 20):
            with pytest.raises(ValueError):
                score_samples(params, tiny_splits.val, tiny_model_cfg, np.zeros((n, 16, 16, 1)))
        assert threads == []  # no forward ran

    def test_evaluate_matches_metrics_pipeline(self, tiny_splits, tiny_model_cfg):
        from bolf.metrics import accuracy, roc_auc
        params = init_params(tiny_model_cfg, seed=0)
        acc, auc = evaluate(params, tiny_splits.val, tiny_model_cfg)
        scored = score_samples(params, tiny_splits.val, tiny_model_cfg)
        assert acc == accuracy(scored)
        assert auc == roc_auc(scored)


class TestShuffledOrder:
    def test_paired_set_keeps_pairs_adjacent(self, tiny_splits):
        samples = tiny_splits.train
        order = _shuffled_order(samples, np.random.default_rng(0))
        assert sorted(order) == list(range(len(samples)))
        for i in range(0, len(order), 2):
            a, b = samples[order[i]], samples[order[i + 1]]
            assert {a.label, b.label} == {0, 1}
            fake = a if a.label == 1 else b
            real = b if a.label == 1 else a
            assert fake.video_id == real.video_id + "-f"
            assert fake.frame_idx == real.frame_idx

    def test_pair_order_varies_with_rng(self, tiny_splits):
        samples = tiny_splits.train
        a = _shuffled_order(samples, np.random.default_rng(1))
        b = _shuffled_order(samples, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_unpaired_balanced_set_interleaves_labels(self):
        from bolf.data import ImageSample
        img = np.zeros((2, 2, 1))
        samples = [ImageSample(img, i % 2, f"v{i}", 0) for i in range(10)]
        order = _shuffled_order(samples, np.random.default_rng(3))
        for i in range(0, 10, 2):
            labels = {samples[order[i]].label, samples[order[i + 1]].label}
            assert labels == {0, 1}

    def test_unbalanced_set_is_plain_permutation(self):
        from bolf.data import ImageSample
        img = np.zeros((2, 2, 1))
        samples = [ImageSample(img, 0, f"v{i}", 0) for i in range(4)]
        samples.append(ImageSample(img, 1, "w-f", 0))
        order = _shuffled_order(samples, np.random.default_rng(4))
        assert sorted(order) == list(range(5))


class TestTrainLoop:
    @pytest.fixture()
    def quick_cfg(self):
        return TrainConfig(epochs=2, batch_size=4, lr0=0.05, seed=0)

    def test_zero_epochs_returns_input_unchanged(self, tiny_splits, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        out, history = train(params, tiny_splits, TrainConfig(epochs=0), tiny_model_cfg)
        assert out is params
        assert history == []

    def test_empty_split_rejected(self, tiny_splits, tiny_model_cfg, quick_cfg):
        from bolf.data import DatasetSplits
        empty = DatasetSplits(train=[], val=tiny_splits.val)
        params = init_params(tiny_model_cfg, seed=0)
        with pytest.raises(ValueError):
            train(params, empty, quick_cfg, tiny_model_cfg)

    def test_history_shape_and_lr_decay(self, tiny_splits, tiny_model_cfg, quick_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        _, history = train(params, tiny_splits, quick_cfg, tiny_model_cfg)
        assert len(history) == quick_cfg.epochs
        assert [h.epoch for h in history] == [0, 1]
        for h in history:
            assert isinstance(h, EpochStats)
            assert math.isfinite(h.mean_loss)
            assert 0.0 <= h.train_acc <= 1.0
            assert 0.0 < h.lr <= quick_cfg.lr0
        assert history[1].lr < history[0].lr

    def test_training_is_deterministic(self, tiny_splits, tiny_model_cfg, quick_cfg):
        runs = []
        for _ in range(2):
            params = init_params(tiny_model_cfg, seed=0)
            params, history = train(params, tiny_splits, quick_cfg, tiny_model_cfg)
            runs.append(({n: t.data.copy() for n, t in params.named()}, history))
        (wa, ha), (wb, hb) = runs
        assert ha == hb
        for name in wa:
            assert np.array_equal(wa[name], wb[name])

    def test_training_moves_parameters(self, tiny_splits, tiny_model_cfg, quick_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        before = params.patch_w.data.astype(np.float32)  # train's starting point
        train(params, tiny_splits, quick_cfg, tiny_model_cfg)
        assert not np.array_equal(before, params.patch_w.data)

    def test_non_finite_loss_is_reported(self, tiny_splits, tiny_model_cfg,
                                         quick_cfg, monkeypatch):
        # fault injection: force an infinite loss and check it surfaces as
        # NonFiniteLoss with context, not as a silent divergence
        monkeypatch.setattr(train_module, "cross_entropy",
                            lambda logits, label: Tensor(float("inf")))
        params = init_params(tiny_model_cfg, seed=0)
        with pytest.raises(NonFiniteLoss, match="epoch 0"):
            train(params, tiny_splits, quick_cfg, tiny_model_cfg)

    def test_non_finite_gradient_is_reported(self, tiny_splits, tiny_model_cfg,
                                             quick_cfg, monkeypatch):
        # fault injection: a finite loss whose backward leaves a NaN in one
        # gradient must stop training before the update, naming the
        # parameter, instead of surfacing steps later in some other op
        params = init_params(tiny_model_cfg, seed=0)
        # train casts the parameters to float32 before its first step
        before = params.layers[0].wv.data.astype(np.float32)

        def poisoned_backward(loss, tape):
            backward(loss, tape)
            params.layers[0].wv.grad[0, 0] = float("nan")

        monkeypatch.setattr(train_module, "backward", poisoned_backward)
        with pytest.raises(NonFiniteLoss, match=r"layer0\.wv at epoch 0 step 0"):
            train(params, tiny_splits, quick_cfg, tiny_model_cfg)
        assert np.array_equal(params.layers[0].wv.data, before)


class TestTrainingDtype:
    """Training computes in float32; a fresh or a loaded model is float64,
    for inference from a weights file and for gradient checks."""

    @staticmethod
    def _dtypes(params):
        return {t.data.dtype for _, t in params.named()}

    def test_init_and_from_arrays_are_float64(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        assert self._dtypes(params) == {np.dtype(np.float64)}
        arrays = {name: t.data.astype(np.float32) for name, t in params.named()}
        loaded = ModelParams.from_arrays(tiny_model_cfg, arrays)
        assert self._dtypes(loaded) == {np.dtype(np.float64)}

    def test_train_casts_the_callers_tensors_in_place(self, tiny_splits, tiny_model_cfg):
        assert TRAIN_DTYPE == np.float32
        params = init_params(tiny_model_cfg, seed=0)
        tensors = [t for _, t in params.named()]
        expected = [t.data.astype(np.float32) for t in tensors]
        out, _ = train(params, tiny_splits, TrainConfig(epochs=0), tiny_model_cfg)
        assert all(a is b for (_, a), b in zip(out.named(), tensors))
        for t, want in zip(tensors, expected):
            assert t.data.dtype == np.float32
            assert np.array_equal(t.data, want)

    def test_one_step_is_float32_throughout(self, tiny_splits, tiny_model_cfg, monkeypatch):
        real_forward, real_loss, real_step = (train_module.forward, train_module.cross_entropy,
                                              MomentumSGD.step)
        seen = {"forward": [], "loss": [], "grad": [], "velocity": []}

        def recording_forward(*args, **kwargs):
            logits, attn = real_forward(*args, **kwargs)
            seen["forward"].append((kwargs.get("train", False), logits, attn))
            return logits, attn

        def recording_loss(logits, labels):
            loss = real_loss(logits, labels)
            seen["loss"].append(loss.data.dtype)
            return loss

        def recording_step(opt, lr):
            seen["grad"] += [p.grad.dtype for p in opt.params]
            real_step(opt, lr)
            seen["velocity"].append(opt.velocity.dtype)

        monkeypatch.setattr(train_module, "forward", recording_forward)
        monkeypatch.setattr(train_module, "cross_entropy", recording_loss)
        monkeypatch.setattr(MomentumSGD, "step", recording_step)
        cfg = TrainConfig(epochs=1, batch_size=len(tiny_splits.train), seed=0)
        params = init_params(tiny_model_cfg, seed=0)
        train(params, tiny_splits, cfg, tiny_model_cfg)

        # one training step (dropout on), then the eval pass over val
        assert [mode for mode, _, _ in seen["forward"]] == [True, False]
        f32 = np.dtype(np.float32)
        for _, logits, attn in seen["forward"]:
            assert logits.data.dtype == f32
            assert {block.dtype for block in attn} == {f32}
        n = len(params.named())
        assert seen["loss"] == [f32]
        assert seen["grad"] == [f32] * n
        assert seen["velocity"] == [f32]
        assert self._dtypes(params) == {f32}


class _PerTensorSGD:
    """The optimizer before the flat buffers: one velocity per tensor, and
    each gradient as backward left it."""

    def __init__(self, params, momentum):
        self.params = params
        self.momentum = momentum
        self.velocities = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, lr):
        for p, v in zip(self.params, self.velocities):
            v *= self.momentum
            v += p.grad
            p.data -= lr * v
            p.grad = None
        self.t += 1


def _per_tensor_train(params, splits, cfg, model_cfg):
    """train()'s loop before the flat buffers: a cast per tensor, then per
    step a 1/B scale, a finite check and a momentum update per tensor."""
    train_module = importlib.import_module("bolf.train")
    named = params.named()
    for _, t in named:
        t.data = t.data.astype(TRAIN_DTYPE, copy=False)
    rng = np.random.default_rng(cfg.seed)
    total_steps = cfg.epochs * math.ceil(len(splits.train) / cfg.batch_size)
    opt = _PerTensorSGD([t for _, t in named], cfg.momentum)
    history = []
    for epoch in range(cfg.epochs):
        order = _shuffled_order(splits.train, rng)
        loss_sum, correct, lr = 0.0, 0, math.nan
        for start in range(0, len(order), cfg.batch_size):
            batch = [splits.train[i] for i in order[start:start + cfg.batch_size]]
            labels = np.array([s.label for s in batch])
            lr = cosine_lr(opt.t, total_steps, cfg.lr0, cfg.lr_min)
            with Tape() as tape:
                logits, _ = train_module.forward(np.stack([s.pixels for s in batch]), params,
                                                 model_cfg, train=True, rng=rng)
                loss = cross_entropy(logits, labels)
            backward(loss, tape)
            loss_sum += loss.item()
            correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
            for _, p in named:
                p.grad *= 1.0 / len(batch)
                assert np.isfinite(p.grad).all()
            opt.step(lr)
        val_acc, val_auc = evaluate(params, splits.val, model_cfg)
        history.append(EpochStats(epoch, loss_sum / len(splits.train),
                                  correct / len(splits.train), val_acc, val_auc, lr))
    return opt.velocities, history


class TestFlatBuffers:
    """train() packs the parameters, their gradients and the velocities into
    one buffer each; it must train exactly as the per-tensor loop did."""

    def test_train_matches_the_per_tensor_loop(self, tiny_splits, tiny_model_cfg, monkeypatch):
        cfg = TrainConfig(epochs=2, batch_size=4, lr0=0.05, seed=0)
        ref_params = init_params(tiny_model_cfg, seed=0)
        ref_velocities, ref_history = _per_tensor_train(ref_params, tiny_splits, cfg,
                                                        tiny_model_cfg)

        made = []

        class Recorded(MomentumSGD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(train_module, "MomentumSGD", Recorded)
        params, history = train(init_params(tiny_model_cfg, seed=0), tiny_splits, cfg,
                                tiny_model_cfg)
        assert history == ref_history
        for (name, got), (_, want) in zip(params.named(), ref_params.named()):
            assert got.data.dtype == want.data.dtype == TRAIN_DTYPE, name
            assert got.data.tobytes() == want.data.tobytes(), name
        (opt,) = made
        assert opt.velocity.dtype == TRAIN_DTYPE
        assert opt.velocity.tobytes() == np.concatenate(
            [v.reshape(-1) for v in ref_velocities]).tobytes()

    def test_parameters_are_views_of_one_buffer(self, tiny_model_cfg):
        params = init_params(tiny_model_cfg, seed=0)
        named = params.named()
        for _, t in named:
            t.data = t.data.astype(np.float32)
        want = [t.data.copy() for _, t in named]
        opt = MomentumSGD([t for _, t in named])
        assert opt.data.dtype == np.float32 and opt.data.flags.c_contiguous
        assert opt.data.size == sum(w.size for w in want)
        for (_, t), w in zip(named, want):
            assert np.shares_memory(t.data, opt.data)
            assert t.data.tobytes() == w.tobytes()

    @pytest.mark.parametrize("momentum", [0.9, 0.5, 0.0])
    def test_negative_zero_gradient_moves_no_weight(self, momentum):
        # added into the zeroed buffer, a first gradient of -0.0 becomes
        # +0.0; the weights still take exactly the per-tensor steps
        start = np.array([0.0, 1.5, -2.0, 0.25, 1e-45, -1e-45], dtype=np.float32)
        grads = [np.array(g, dtype=np.float32) for g in (
            [-0.0, -0.0, 3.0, -0.0, -1e-45, 1e-45],
            [-1.0, -0.0, -0.0, -0.0, -0.0, -0.0],
            [-0.0, 2.0, -0.0, -1e-45, -0.0, -0.0],
            [-0.0] * 6)]
        ref = Tensor(start.copy())
        ref_opt = _PerTensorSGD([ref], momentum)
        p = Tensor(start.copy(), requires_grad=True)
        opt = MomentumSGD([p], momentum=momentum)
        for g in grads:
            ref.grad = g.copy()
            assert (np.signbit(g) & (g == 0)).any()
            ref_opt.step(0.1)
            with Tape() as tape:
                loss = sum_all(mul(p, g))
            backward(loss, tape)
            assert np.array_equal(np.signbit(p.grad), np.signbit(g) & (g != 0))
            opt.step(0.1)
            assert p.data.tobytes() == ref.data.tobytes()

    def test_bound_parameter_that_backward_misses_takes_a_zero_gradient(self):
        # every parameter's gradient is its slice of the zeroed buffer, so
        # one that backward leaves alone takes a zero gradient
        reached = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        missed = Tensor(np.array([3.0]), requires_grad=True)
        opt = MomentumSGD([reached, missed])
        for _ in range(2):
            with Tape() as tape:
                loss = sum_all(mul(reached, np.array([0.5, -1.0])))
            backward(loss, tape)
            assert missed.grad.tobytes() == np.zeros(1).tobytes()
            opt.step(0.1)
        assert missed.data.tobytes() == np.array([3.0]).tobytes()
        assert opt.velocity[2:].tobytes() == np.zeros(1).tobytes()
        assert not np.array_equal(reached.data, [1.0, 2.0])
