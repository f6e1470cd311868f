"""Tests for batch evaluation, reports, and SVG overlays."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pointreg import datagen, evaluator, losses, model


def small_config(dim=2):
    if dim == 3:
        return model.PrNetConfig(
            dim=3, grid_shape=(3, 3, 3), mlp_widths=(8, 16),
            conv_channels=(8, 12, 16), conv_kernels=(2, 1, 1), fc_hidden=16,
        )
    return model.PrNetConfig(
        grid_shape=(7, 7), mlp_widths=(8, 16, 32),
        conv_channels=(16, 24, 32), conv_kernels=(3, 3, 3), fc_hidden=24,
    )


def identity_weights(dim=2, seed=1):
    return model.init_weights(small_config(dim), seed=seed)


def randomized_weights(dim=2, seed=1):
    weights = identity_weights(dim, seed)
    rng = np.random.default_rng(99)
    for p in weights.params():
        p.data += rng.uniform(-0.05, 0.05, size=p.data.shape).astype(p.data.dtype)
    return weights


@pytest.fixture(scope="module")
def fish_pairs():
    shape = datagen.sample_shape("fish", 48)
    cfg = datagen.SynthConfig(deformation_level=0.4, seed=21, pair_count=10)
    return [(shape, datagen.make_target(shape, cfg, i)) for i in range(10)]


class TestRegister:
    def test_result_fields(self, fish_pairs):
        src, tgt = fish_pairs[0]
        r = evaluator.register(randomized_weights(), src, tgt)
        assert r.transformed.shape == src.shape
        assert r.theta.shape == (9, 2)
        assert r.cd_pre > 0 and r.cd_post > 0
        assert r.elapsed > 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_theta_rewarps_to_transformed_bit_for_bit(self, fish_pairs, dim):
        # theta is the float64 theta the warp multiplied, not one rebuilt
        # from the predicted displacements
        weights = randomized_weights(dim)
        rng = np.random.default_rng(7)
        pairs = fish_pairs[:3] if dim == 2 else [(rng.uniform(-1, 2, size=(30, 3)),
                                                 rng.uniform(-1, 2, size=(25, 3))) for _ in range(3)]
        for (src, _), r in zip(pairs, evaluator.evaluate(weights, pairs).results):
            norm = model.fit_normalizer(src)
            _, basis = model.prepare_source(norm.apply(src), weights)
            assert r.theta.dtype == np.float64
            assert not np.array_equal(r.theta, weights.config.control_points)
            assert np.array_equal(norm.invert(basis @ r.theta), r.transformed)

    def test_identity_weights_leave_source_in_place(self, fish_pairs):
        src, tgt = fish_pairs[0]
        r = evaluator.register(identity_weights(), src, tgt)
        assert np.allclose(r.transformed, model.canonical_order(src), atol=1e-9)
        assert abs(r.cd_post - r.cd_pre) < 1e-12

    def test_source_equal_to_target(self):
        src = datagen.sample_shape("fish", 40)
        r = evaluator.register(identity_weights(), src, src)
        assert r.cd_pre == 0.0
        assert r.cd_post < 1e-18

    def test_no_mutation(self, fish_pairs):
        src, tgt = fish_pairs[1]
        src_bytes, tgt_bytes = src.tobytes(), tgt.tobytes()
        weights = randomized_weights()
        before = {k: v.copy() for k, v in weights.named_arrays().items()}
        evaluator.register(weights, src, tgt)
        assert src.tobytes() == src_bytes and tgt.tobytes() == tgt_bytes
        for k, v in weights.named_arrays().items():
            assert v.tobytes() == before[k].tobytes(), k

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        good = rng.normal(size=(10, 2))
        for src, tgt in ((rng.normal(size=(10, 3)), rng.normal(size=(10, 3))),
                         (np.zeros(5), np.zeros(5)), (good, np.zeros(5)),
                         (good, rng.normal(size=(10, 3))), (rng.normal(size=(10, 1)), good)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                evaluator.register(identity_weights(), src, tgt)


class TestEvaluate:
    def test_identical_pairs_identity_model(self):
        src = datagen.sample_shape("fish", 40)
        summary = evaluator.evaluate(identity_weights(), [(src, src)] * 5)
        assert summary.pair_count == 5
        assert summary.cd_pre_mean == 0.0
        assert summary.cd_pre_std == 0.0
        # the warp reproduces the source to solver precision, not bitwise
        assert summary.cd_post_mean < 1e-18
        assert summary.cd_post_std < 1e-18

    def test_statistics_match_hand_oracle(self, fish_pairs):
        summary = evaluator.evaluate(randomized_weights(), fish_pairs)
        post = [r.cd_post for r in summary.results]
        n = len(post)
        mean = sum(post) / n
        var = sum((v - mean) ** 2 for v in post) / n
        assert abs(summary.cd_post_mean - mean) < 1e-12
        assert abs(summary.cd_post_std - var ** 0.5) < 1e-12
        pre = [r.cd_pre for r in summary.results]
        mean_pre = sum(pre) / n
        assert abs(summary.cd_pre_mean - mean_pre) < 1e-12

    def test_pure_fold_identical_statistics(self, fish_pairs):
        weights = randomized_weights()
        a = evaluator.evaluate(weights, fish_pairs)
        b = evaluator.evaluate(weights, fish_pairs)
        assert a.cd_pre_mean == b.cd_pre_mean
        assert a.cd_post_mean == b.cd_post_mean
        assert a.cd_post_std == b.cd_post_std
        for ra, rb in zip(a.results, b.results):
            assert ra.cd_post == rb.cd_post
            assert ra.theta.tobytes() == rb.theta.tobytes()

    def test_batched_matches_single_pair_register(self, fish_pairs, monkeypatch):
        # ten pairs in chunks of four: the head batches cross chunk boundaries
        monkeypatch.setattr(model, "EVAL_CHUNK", 4)
        weights = randomized_weights()
        summary = evaluator.evaluate(weights, fish_pairs)
        for (src, tgt), r in zip(fish_pairs, summary.results):
            single = evaluator.register(weights, src, tgt)
            assert np.allclose(r.transformed, single.transformed, rtol=1e-3, atol=1e-6)
            assert np.isclose(r.cd_post, single.cd_post, rtol=1e-2, atol=1e-8)

    def test_mixed_sources_match_single_pair_register(self, fish_pairs, monkeypatch):
        # runs of shared and of own sources, in chunks of three pairs that
        # split the runs; each pair is normalized by and warps its own source
        monkeypatch.setattr(model, "EVAL_CHUNK", 3)
        weights = randomized_weights()
        scales = (1.0, 1.0, 1.3, 1.0, 0.8, 0.8, 0.8, 1.1, 1.0, 1.0)
        pairs = [(src * k + (k - 1.0), tgt) for (src, tgt), k in zip(fish_pairs, scales)]
        summary = evaluator.evaluate(weights, pairs)
        assert summary.pair_count == len(pairs)
        for (src, tgt), r in zip(pairs, summary.results):
            single = evaluator.register(weights, src, tgt)
            np.testing.assert_allclose(r.transformed, single.transformed, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(r.theta, single.theta, rtol=1e-4, atol=1e-6)
            assert r.cd_pre == single.cd_pre

    def test_per_pair_times_cover_the_total(self, fish_pairs):
        summary = evaluator.evaluate(randomized_weights(), fish_pairs)
        assert sum(r.elapsed for r in summary.results) == pytest.approx(
            summary.model_time_s, rel=0.01
        )
        assert summary.model_time_s <= summary.total_time_s

    def test_dataset_directory_input(self, tmp_path):
        shape = datagen.sample_shape("fish", 32)
        datagen.generate_dataset(
            shape, datagen.SynthConfig(seed=3, pair_count=4), tmp_path / "ds"
        )
        summary = evaluator.evaluate(identity_weights(), tmp_path / "ds")
        assert summary.dataset_id == "ds"
        assert summary.pair_count == 4

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no pairs"):
            evaluator.evaluate(identity_weights(), [])

    def test_dimension_mismatch(self):
        # every set is checked, not only the first pair's source
        rng = np.random.default_rng(1)
        good = (rng.normal(size=(12, 2)), rng.normal(size=(12, 2)))
        for bad in ((rng.normal(size=(12, 3)), rng.normal(size=(12, 3))),
                    (np.zeros(5), np.zeros(5)), (good[0], np.zeros(5)),
                    (good[0], rng.normal(size=(12, 3))), (rng.normal(size=(12, 4)), good[1])):
            for pairs in ([bad], [good, bad]):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    evaluator.evaluate(identity_weights(), pairs)

    def test_deformation_sweep_trend(self):
        # an identity model scores cd_post == cd_pre, so the sweep reduces to
        # the synthesis difficulty trend; trained-model sweeps live in the
        # acceptance suite
        shape = datagen.sample_shape("fish", 48)
        weights = identity_weights()
        means = []
        for level in (0.2, 0.3, 0.8, 1.0):
            cfg = datagen.SynthConfig(deformation_level=level, seed=17, pair_count=12)
            pairs = [(shape, datagen.make_target(shape, cfg, i)) for i in range(12)]
            means.append(evaluator.evaluate(weights, pairs).cd_post_mean)
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestReportCsv:
    def test_schema_and_round_trip(self, tmp_path, fish_pairs):
        summary = evaluator.evaluate(randomized_weights(), fish_pairs)
        path = tmp_path / "report.csv"
        evaluator.write_report_csv(summary, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("# pointreg-report-v1")
        assert lines[1] == ("dataset_id,pair_count,cd_pre_mean,cd_pre_std,"
                            "cd_post_mean,cd_post_std,model_time_s,total_time_s")
        cols = lines[2].split(",")
        assert cols[0] == "pairs"
        assert int(cols[1]) == summary.pair_count
        assert float(cols[4]) == summary.cd_post_mean
        assert float(cols[5]) == summary.cd_post_std


class TestOverlaySvg:
    def test_well_formed_xml_with_legend(self, tmp_path, fish_pairs):
        src, tgt = fish_pairs[0]
        r = evaluator.register(randomized_weights(), src, tgt)
        path = tmp_path / "pair.svg"
        evaluator.emit_overlay_svg(src, tgt, r.transformed, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text()
        for label in ("source", "target", "transformed"):
            assert label in text

    def test_annotation_equals_evaluate_cd_exactly(self, tmp_path, fish_pairs):
        weights = randomized_weights()
        summary = evaluator.evaluate(weights, fish_pairs)
        src, tgt = fish_pairs[2]
        r = summary.results[2]
        path = tmp_path / "pair.svg"
        evaluator.emit_overlay_svg(src, tgt, r.transformed, path)
        text = path.read_text()
        annotated = text.split("cd_post=")[1].split("<")[0]
        assert float(annotated) == r.cd_post
        annotated_pre = text.split("cd_pre=")[1].split(" ")[0]
        assert float(annotated_pre) == r.cd_pre

    def test_three_panels_for_3d(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(20, 3))
        path = tmp_path / "three.svg"
        evaluator.emit_overlay_svg(pts, pts + 0.1, pts, path)
        text = path.read_text()
        for label in (">xy<", ">xz<", ">yz<"):
            assert label in text
        root = ET.parse(path).getroot()
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        # 3 sets x 20 points x 3 panels, plus 3 legend swatches
        assert len(circles) == 183

    def test_coincident_sets(self, tmp_path):
        src = datagen.sample_shape("fish", 30)
        path = tmp_path / "same.svg"
        evaluator.emit_overlay_svg(src, src, src, path)
        assert "cd_pre=0.0" in path.read_text()
        ET.parse(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            evaluator.emit_overlay_svg(
                rng.normal(size=(10, 2)), rng.normal(size=(10, 3)),
                rng.normal(size=(10, 2)), tmp_path / "bad.svg",
            )
