"""The benchmark's output checks accept the program's output and reject
deliberately corrupted copies of it.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from pointreg import datagen, evaluator, trainer


def _pair(index, scale=3.0, shift=(1.5, -4.0)):
    """A deformed, jittered fish pair moved out of the unit box."""
    cfg = datagen.SynthConfig(noise_kind="pd", noise_level=0.02, seed=11, pair_count=2)
    src = workloads.fish()
    tgt = datagen.make_target(src, cfg, index)
    return src * scale + shift, tgt * scale + shift


@pytest.fixture(scope="module")
def registered():
    weights = workloads.make_weights(7)
    out = []
    for i in range(2):
        src, tgt = _pair(i)
        out.append((src, tgt, evaluator.register(weights, src, tgt)))
    return out


def test_program_output_passes(registered):
    for src, tgt, res in registered:
        assert checks.check_warp("p", src, res.theta, res.transformed) == []
        assert checks.check_chamfer("p", src, tgt, res.transformed, res.cd_pre, res.cd_post) == []


def test_perturbed_transformed_points_rejected(registered):
    src, tgt, res = registered[0]
    bad = res.transformed.copy()
    bad[5] += 1e-3 * np.abs(src - src.mean(axis=0)).max()
    assert checks.check_warp("p", src, res.theta, bad)
    alone = (res.transformed, res.theta, res.cd_post)
    assert checks.check_same_registration("p", (bad, res.theta, res.cd_post), alone)


def test_reordered_transformed_points_rejected(registered):
    src, _, res = registered[0]
    assert checks.check_warp("p", src, res.theta, res.transformed[::-1])


def test_swapped_cd_post_rejected(registered):
    (s0, t0, r0), (s1, t1, r1) = registered
    assert r0.cd_post != r1.cd_post
    assert checks.check_chamfer("p", s0, t0, r0.transformed, r0.cd_pre, r1.cd_post)
    assert checks.check_chamfer("p", s1, t1, r1.transformed, r1.cd_pre, r0.cd_post)


def test_identity_warp_rejected(registered):
    src, _, _ = registered[0]
    theta = checks.CONTROL.copy()
    problems = checks.check_warp("p", src, theta, checks.expected_transformed(src, theta))
    assert len(problems) == 1 and "identity" in problems[0]


def test_reference_warp_reproduces_affine_maps():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(20, 2))
    a = np.array([[1.1, 0.2], [-0.3, 0.9]])
    np.testing.assert_allclose(checks.tps_warp(checks.CONTROL @ a.T + 0.5, pts), pts @ a.T + 0.5,
                               atol=1e-9)


def test_reference_chamfer_by_hand():
    assert checks.chamfer([[0.0, 0.0]], [[3.0, 4.0], [6.0, 8.0]]) == (25 + 25 + 100) / 3


def _history(val_cd, losses=(-3.0, -4.0)):
    return [trainer.EpochStats(epoch=e, sigma=0.5, lr=1e-4, train_loss=loss, val_cd=val_cd)
            for e, loss in enumerate(losses, start=1)]


def test_val_cd_no_better_than_identity_rejected():
    assert checks.check_training(_history(0.07), 8, 8, 0.07, 0.08) == []
    assert checks.check_training(_history(0.08), 8, 8, 0.08, 0.08)
    assert checks.check_training(_history(0.09), 8, 8, 0.09, 0.08)


def test_nonfinite_loss_and_missed_steps_rejected():
    assert checks.check_training(_history(0.07, (-3.0, float("nan"))), 8, 8, 0.07, 0.08)
    assert checks.check_training(_history(0.07), 7, 8, 0.07, 0.08)


def test_checkpoint_bit_flip_rejected():
    weights = workloads.make_weights(3).named_arrays()
    copy = {k: v.copy() for k, v in weights.items()}
    assert checks.check_same_arrays("w", copy, weights) == []
    flat = copy["fc1.bias"].view(np.uint32)
    flat[0] ^= 1
    assert checks.check_same_arrays("w", copy, weights) == ["w: array fc1.bias differs"]



def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
