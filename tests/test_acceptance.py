"""Release gates, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion.  The learning-dependent gates (4-7) share a single five-seed
training run through a module fixture; everything downstream of the fixed
seeds is deterministic, so the margins observed here reproduce exactly.

Add ``-rA`` to also see the recorded per-seed numbers (cross-family drop,
perturbation degradation, localization ratios).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from bolf.cli import EXIT_OK, main as cli_main
from bolf.data import (
    PERTURBATION_KINDS,
    DatasetSpec,
    PerturbationSpec,
    build_dataset,
    gen_original,
    perturb,
)
from bolf.metrics import ScoredSample, accuracy, roc_auc
from bolf.model import (
    ModelConfig,
    attention_rollout,
    embed_patches,
    encoder_block,
    forward,
    heatmap_mask_mass,
    init_params,
    patchify,
    scaled_dot_attention,
    unpatchify,
)
from bolf.tensor import GRAD_CHECK_STEP, GRAD_CHECK_TOL, Tensor, matmul
from bolf.train import TrainConfig, fake_score, score_samples, train

GATE_MODEL = ModelConfig()
GATE_DATA = DatasetSpec(train_count=512, val_count=128, test_count=128, seed=0)
SEEDS = (0, 1, 2, 3, 4)

DETERMINISM_CFG = """\
data.train_count = 8
data.val_count = 4
data.test_count = 4
data.frames_per_video = 2
data.height = 16
data.width = 16
train.epochs = 2
train.batch_size = 4
model.dim = 16
model.depth = 1
model.heads = 2
model.mlp_ratio = 2
"""


@pytest.fixture(scope="module")
def family_a():
    return build_dataset(GATE_DATA)


@pytest.fixture(scope="module")
def trained(family_a):
    """Five independently seeded training runs on the family-A corpus.

    Each entry carries the fitted parameters, the held-out test metrics,
    and the wall time for training plus that evaluation.
    """
    runs = []
    for seed in SEEDS:
        start = time.perf_counter()
        params, history = train(init_params(GATE_MODEL, seed=seed), family_a,
                                TrainConfig(seed=seed), GATE_MODEL)
        scored = score_samples(params, family_a.test, GATE_MODEL)
        elapsed = time.perf_counter() - start
        acc = accuracy(scored)
        auc = roc_auc(scored)
        runs.append({"seed": seed, "params": params, "history": history,
                     "elapsed": elapsed, "acc": acc, "auc": auc,
                     "passing": auc >= 0.95 and acc >= 0.90})
    return runs


def _passing(trained):
    return [r for r in trained if r["passing"]]


# -- criterion 1: gradient fidelity -----------------------------------------

def test_gradient_fidelity(capsys):
    """Every primitive and every model parameter tensor passes a central-
    difference gradient check (step 1e-3, rel tol 1e-2) inside two minutes."""
    start = time.perf_counter()
    code = cli_main(["gradcheck"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out

    checks = [l for l in out.splitlines() if "worst_rel=" in l]
    assert code == EXIT_OK
    assert all(l.endswith(" ok") for l in checks)
    # 21 primitive probes plus 4 + 12*depth + 4 parameter tensors
    assert len(checks) == 21 + 4 + 12 * GATE_MODEL.depth + 4
    assert elapsed < 120.0

    assert GRAD_CHECK_STEP == 1e-3
    assert GRAD_CHECK_TOL == 1e-2


# -- criterion 2: architectural invariants ----------------------------------

def test_architectural_invariants():
    img = gen_original(GATE_DATA, "A-gate-000", 0).pixels
    params = init_params(GATE_MODEL, seed=0)

    # attention matrices are row-stochastic
    _, attn = forward(img, params, GATE_MODEL)
    for block in attn:
        assert (block >= 0.0).all()
        assert np.allclose(block.sum(axis=-1), 1.0, atol=1e-5)

    # rollout is a distribution over patches
    weights = attention_rollout(attn)
    assert weights.shape == (GATE_MODEL.num_patches,)
    assert abs(weights.sum() - 1.0) <= 1e-5

    # patch extraction round-trips bit-for-bit
    assert np.array_equal(unpatchify(patchify(img, GATE_MODEL), GATE_MODEL), img)

    # residual path: blocks whose output projections are zeroed change
    # nothing, exactly
    zeroed = params
    for i in range(GATE_MODEL.depth):
        for name in (f"layer{i}.wo", f"layer{i}.mlp_w2", f"layer{i}.mlp_b2"):
            shape = dict(zeroed.named())[name].shape
            zeroed = zeroed.with_tensor(name, Tensor(np.zeros(shape)))
    z = embed_patches(patchify(img, GATE_MODEL), zeroed)
    for layer in zeroed.layers:
        z_out, _ = encoder_block(z, layer, GATE_MODEL)
        assert np.array_equal(z_out.data, z.data)
        z = z_out

    # with the position embedding zeroed, logits ignore patch order
    flat = params.with_tensor(
        "pos_embed", Tensor(np.zeros(dict(params.named())["pos_embed"].shape)))
    base, _ = forward(img, flat, GATE_MODEL)
    perm = np.random.default_rng(7).permutation(GATE_MODEL.num_patches)
    shuffled_img = unpatchify(patchify(img, GATE_MODEL)[perm], GATE_MODEL)
    moved, _ = forward(shuffled_img, flat, GATE_MODEL)
    assert np.allclose(moved.data, base.data, atol=1e-4)


# -- criterion 3: oracle equivalence ----------------------------------------

def _pairwise_auc(scores, labels):
    """Brute-force AUC: concordant pairs count 1, tied pairs count 1/2."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = float((pos > neg).sum())
    ties = float((pos == neg).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_oracle_equivalence():
    # AUC equals the pairwise oracle exactly on randomized instances,
    # including heavily tied score sets
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1  # both classes present
        if rng.integers(2):
            scores = rng.integers(0, 8, size=n) / 8.0
        else:
            scores = rng.random(n)
        samples = [ScoredSample(float(s), int(l), f"v{i}")
                   for i, (s, l) in enumerate(zip(scores, labels))]
        assert roc_auc(samples) == _pairwise_auc(scores, labels)

    # two-token attention against a scalar-arithmetic hand computation
    rng = np.random.default_rng(3)
    d = 4
    q, k, v = rng.normal(size=(2, d)), rng.normal(size=(2, d)), rng.normal(size=(2, d))
    attended, attn = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    for i in range(2):
        s = [sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d)
             for j in range(2)]
        e = [math.exp(x - max(s)) for x in s]
        p = [x / (e[0] + e[1]) for x in e]
        for j in range(2):
            assert abs(attn.data[i, j] - p[j]) <= 1e-6
        for t in range(d):
            want = p[0] * v[0, t] + p[1] * v[1, t]
            assert abs(attended.data[i, t] - want) <= 1e-6

    # matmul against a triple loop, exact on integer-valued inputs
    rng = np.random.default_rng(11)
    a = rng.integers(-9, 10, size=(7, 4)).astype(float)
    b = rng.integers(-9, 10, size=(4, 5)).astype(float)
    want = [[sum(a[i, t] * b[t, j] for t in range(4)) for j in range(5)]
            for i in range(7)]
    assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, np.array(want))


# -- criterion 4: learning gate ---------------------------------------------

def test_learning_gate(trained):
    """At least 4 of 5 seeds reach test AUC >= 0.95 and accuracy >= 0.90
    within 20 epochs, with the whole five-seed run under ten minutes."""
    for r in trained:
        assert len(r["history"]) <= 20
        print(f"seed {r['seed']}: acc {r['acc']:.3f}  auc {r['auc']:.4f}  "
              f"{r['elapsed']:.1f}s  {'pass' if r['passing'] else 'FAIL'}")
    total = sum(r["elapsed"] for r in trained)
    print(f"total train+eval time {total:.1f}s")
    assert len(_passing(trained)) >= 4
    assert total <= 600.0


# -- criterion 5: generalization across generator families -------------------

def test_generalization_cross_family(trained):
    spec_b = dataclasses.replace(GATE_DATA, family="B",
                                 train_count=8, val_count=8)
    test_b = build_dataset(spec_b).test
    for r in _passing(trained):
        auc_b = roc_auc(score_samples(r["params"], test_b, GATE_MODEL))
        print(f"seed {r['seed']}: family A auc {r['auc']:.4f} -> "
              f"family B auc {auc_b:.4f} (drop {r['auc'] - auc_b:+.4f})")
        assert auc_b >= 0.60


# -- criterion 6: robustness to image-level distortions ----------------------

def test_robustness_perturbations(trained, family_a):
    """One randomly drawn distortion per test image at level 3 may cost at
    most 0.25 AUC absolute and must leave AUC at or above 0.60.  The
    random-level and three-way-composition variants are reported only."""
    prng = np.random.default_rng(1234)
    sing = [dataclasses.replace(
                s, pixels=perturb(s.pixels,
                                  PerturbationSpec(PERTURBATION_KINDS[int(prng.integers(4))], 3),
                                  1000 + i))
            for i, s in enumerate(family_a.test)]
    prng = np.random.default_rng(4321)
    rand = [dataclasses.replace(
                s, pixels=perturb(s.pixels,
                                  PerturbationSpec(PERTURBATION_KINDS[int(prng.integers(4))], "random"),
                                  2000 + i))
            for i, s in enumerate(family_a.test)]
    mix3 = [dataclasses.replace(
                s, pixels=perturb(s.pixels,
                                  PerturbationSpec("mix", 3, mix_count=3),
                                  3000 + i))
            for i, s in enumerate(family_a.test)]

    for r in _passing(trained):
        auc_sing = roc_auc(score_samples(r["params"], sing, GATE_MODEL))
        auc_rand = roc_auc(score_samples(r["params"], rand, GATE_MODEL))
        auc_mix = roc_auc(score_samples(r["params"], mix3, GATE_MODEL))
        drop = r["auc"] - auc_sing
        print(f"seed {r['seed']}: clean {r['auc']:.4f}  sing {auc_sing:.4f} "
              f"(drop {drop:+.4f})  rand {auc_rand:.4f}  mix3 {auc_mix:.4f}")
        assert auc_sing >= 0.60
        assert drop <= 0.25


# -- criterion 7: localization through attention rollout ---------------------

def test_localization_rollout_mass(trained, family_a):
    """Over correctly classified fakes, rollout mass inside the tamper mask
    must average at least twice the mask's area fraction."""
    fakes = [s for s in family_a.test if s.label == 1]
    per_seed = []
    for r in _passing(trained):
        # one forward pass and one rollout over the stack of every test fake
        logits, attn = forward(np.stack([s.pixels for s in fakes]), r["params"], GATE_MODEL)
        scores, heatmaps = fake_score(logits.data), attention_rollout(attn)
        ratios = [heatmap_mask_mass(weights, s.tamper_mask, GATE_MODEL)
                  / float(np.mean(s.tamper_mask))
                  for s, score, weights in zip(fakes, scores, heatmaps) if score > 0.5]
        assert ratios, f"seed {r['seed']} classified no fakes correctly"
        per_seed.append(float(np.mean(ratios)))
        print(f"seed {r['seed']}: mean mass ratio {per_seed[-1]:.2f}x "
              f"over {len(ratios)} fakes")
    assert float(np.mean(per_seed)) >= 2.0


# -- criterion 8: bit-identical reruns ---------------------------------------

def test_determinism_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DETERMINISM_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for sub in ("gen-data", "train", "eval"):
            assert cli_main([sub, "--config", str(cfg),
                             "--out", str(out)]) == EXIT_OK
        outs.append(out)
    capsys.readouterr()

    first, second = outs
    for rel in ("manifest.csv", "history.csv", "weights.bolf", "report.csv"):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    name = next((first / "images" / "test").glob("*.pgm")).name
    assert (first / "images" / "test" / name).read_bytes() == \
           (second / "images" / "test" / name).read_bytes()
