"""Tests for synthetic pair generation.

Statistical knobs (drift std, jitter std) are checked against sample
statistics over at least 10^4 draws; count arithmetic and determinism are
checked exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointreg import datagen, losses


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestSynthConfig:
    def test_defaults_valid(self):
        cfg = datagen.SynthConfig()
        assert cfg.noise_kind == "none"

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"deformation_level": -0.1}, "deformation_level"),
            ({"num_deform_controls": 0}, "num_deform_controls"),
            ({"noise_kind": "blur"}, "noise_kind"),
            ({"noise_level": -1.0}, "noise_level"),
            ({"noise_kind": "di", "noise_level": 1.0}, "di"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"pair_count": 0}, "pair_count"),
            ({"noise_kind": "do", "noise_level": 10.5}, "do noise_level"),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            datagen.SynthConfig(**kwargs)

    def test_di_level_below_one_accepted(self):
        datagen.SynthConfig(noise_kind="di", noise_level=0.99)

    def test_do_level_at_bound_accepted(self):
        datagen.SynthConfig(noise_kind="do", noise_level=datagen.MAX_OUTLIERS_PER_POINT)


class TestBuiltinShape:
    def test_fish_point_count_and_box(self):
        pts = datagen.sample_shape("fish", 96)
        assert pts.shape == (96, 2)
        assert np.all(np.abs(pts) < 1.0)

    def test_fish_is_centered(self):
        pts = datagen.sample_shape("fish", 200)
        np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=1e-12)
        assert np.abs(pts).max() == pytest.approx(0.9, abs=1e-12)

    def test_fish_deterministic(self):
        a = datagen.sample_shape("fish", 96)
        b = datagen.sample_shape("fish", 96)
        assert a.tobytes() == b.tobytes()

    def test_target_count_validated(self):
        with pytest.raises(ValueError, match="target_count"):
            datagen.sample_shape("fish", 0)


class TestPointFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        pts = rng.normal(size=(37, 3)) * 1e3
        path = tmp_path / "cloud.txt"
        datagen.save_points_file(path, pts)
        loaded = datagen.load_points_file(path)
        assert loaded.tobytes() == pts.tobytes()

    @pytest.mark.parametrize("text", [
        "-0.0 1e-400\n-1e-400 5.\n+.5\t-2E+3\n",
        "1 2 3\n  4 5 6  \n7 8 9",
    ])
    def test_plain_text_takes_the_whole_file_parse_with_the_line_parser_s_values(self, tmp_path, text,
                                                                                  monkeypatch):
        # every value, sign bits included, is the line parser's float()
        path = tmp_path / "p.txt"
        path.write_text(text)
        assert datagen._plain_points(path.read_bytes()) is not None
        loaded = datagen.load_points_file(path)
        monkeypatch.setattr(datagen, "_plain_points", lambda data: None)
        expected = datagen.load_points_file(path)
        assert loaded.shape == expected.shape and loaded.tobytes() == expected.tobytes()
        assert expected.tobytes() == np.array([[float(t) for t in ln.split()] for ln in text.splitlines()]).tobytes()

    @pytest.mark.parametrize("text,match", [
        ("1 2\n3 1e400\n", r":2: non-finite"),
        ("1 2\n3 -1e200\n", r":2: coordinate beyond"),
        ("1 2\n3 1e\n", r":2: non-numeric"),
        ("1 2\n\n3 4 5\n", r":3: 3 columns in a 2-column file"),
    ])
    def test_plain_looking_text_that_fails_reports_the_line(self, tmp_path, text, match):
        path = tmp_path / "p.txt"
        path.write_text(text)
        assert datagen._plain_points(path.read_bytes()) is None
        with pytest.raises(datagen.PointFileError, match=match):
            datagen.load_points_file(path)

    def test_comments_and_commas_accepted(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# header\n1.0, 2.0\n\n3.0 4.0  # trailing\n")
        np.testing.assert_array_equal(
            datagen.load_points_file(path), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_mesh_vertices_extracted(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("o thing\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        pts = datagen.load_points_file(path)
        assert pts.shape == (3, 3)

    def test_non_numeric_reported_with_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1.0 2.0\n3.0 oops\n")
        with pytest.raises(datagen.PointFileError, match=r":2:"):
            datagen.load_points_file(path)

    def test_wrong_column_count_reported_with_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(datagen.PointFileError, match=r":1:.*2 or 3"):
            datagen.load_points_file(path)

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n1 2 3\n")
        with pytest.raises(datagen.PointFileError, match=r":2:"):
            datagen.load_points_file(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_reported_with_line(self, tmp_path, token):
        path = tmp_path / "p.txt"
        path.write_text(f"1.0 2.0\n3.0 {token}\n")
        with pytest.raises(datagen.PointFileError, match=r"p\.txt:2: non-finite"):
            datagen.load_points_file(path)

    def test_coordinate_beyond_the_limit_reported_with_line(self, tmp_path):
        # the squared distance of two points at the limit, in 3D, is finite;
        # one at 1e200 would overflow the chamfer statistics
        path = tmp_path / "p.txt"
        path.write_text(f"{datagen.MAX_COORDINATE!r} 0 0\n0 0 {-datagen.MAX_COORDINATE!r}\n")
        pts = datagen.load_points_file(path)
        assert np.isfinite(losses.chamfer(pts, -pts))
        path.write_text("1.0 2.0\n3.0 -1e200\n")
        with pytest.raises(datagen.PointFileError, match=r"p\.txt:2: coordinate beyond"):
            datagen.load_points_file(path)

    @pytest.mark.parametrize("text", [",\n", " , ,\n", "v\n"])
    def test_line_without_coordinates_rejected(self, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_text("1.0 2.0\n" + text)
        with pytest.raises(datagen.PointFileError, match=r":2: expected 2 or 3 coordinates, got 0"):
            datagen.load_points_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(datagen.PointFileError, match="no points"):
            datagen.load_points_file(path)

    def test_subsampling_from_file(self, tmp_path, rng):
        pts = rng.normal(size=(500, 3))
        path = tmp_path / "big.txt"
        datagen.save_points_file(path, pts)
        sub = datagen.sample_shape(str(path), 64)
        assert sub.shape == (64, 3)
        # every sampled point is one of the originals
        stored = {row.tobytes() for row in pts}
        assert all(row.tobytes() in stored for row in sub)

    def test_requesting_more_than_available_returns_all(self, tmp_path, rng):
        pts = rng.normal(size=(10, 2))
        path = tmp_path / "small.txt"
        datagen.save_points_file(path, pts)
        out = datagen.sample_shape(str(path), 50)
        assert out.shape == (10, 2)


class TestDeform:
    def test_level_zero_is_identity(self, rng):
        pts = rng.uniform(-0.9, 0.9, size=(60, 2))
        out = datagen.deform(pts, 0.0, 5, rng)
        np.testing.assert_allclose(out, pts, atol=1e-9)

    def test_too_many_controls_rejected(self, rng):
        with pytest.raises(ValueError, match="control"):
            datagen.deform(np.zeros((4, 2)), 0.5, 5, rng)

    def test_negative_level_rejected(self, rng):
        with pytest.raises(ValueError, match="level"):
            datagen.deform(np.zeros((4, 2)), -0.5, 2, rng)

    def test_count_and_dim_preserved(self, rng):
        pts = rng.uniform(-0.9, 0.9, size=(48, 3))
        out = datagen.deform(pts, 0.4, 6, rng)
        assert out.shape == (48, 3)

    def test_drift_std_calibration(self):
        # with every point used as a control, the warp interpolates the
        # drifts, so output - input recovers the drift samples themselves
        level = 0.8
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.9, 0.9, size=(100, 2))
        draws = []
        for _ in range(60):
            out = datagen.deform(pts, level, 100, rng)
            draws.append(out - pts)
        std = np.std(np.concatenate(draws))
        assert draws[0].size * 60 >= 10_000
        assert abs(std - 0.5 * level) < 0.05 * (0.5 * level)

    def test_moderate_level_regime(self):
        # level 0.5 must deform well clear of the post-registration scale:
        # mean pre-registration normalized chamfer above 0.022
        src = datagen.sample_shape("fish", 96)
        cfg = datagen.SynthConfig(deformation_level=0.5, pair_count=1, seed=3)
        cds = [
            losses.chamfer_normalized(src, datagen.make_target(src, cfg, i))
            for i in range(40)
        ]
        assert np.mean(cds) > 0.022


class TestPointDriftNoise:
    def test_level_zero_identity(self, rng):
        pts = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(datagen.add_pd_noise(pts, 0.0, rng), pts)

    def test_count_preserved(self, rng):
        assert datagen.add_pd_noise(np.zeros((55, 3)), 0.2, rng).shape == (55, 3)

    def test_jitter_std_calibration(self):
        level = 0.37
        rng = np.random.default_rng(11)
        out = datagen.add_pd_noise(np.zeros((6000, 2)), level, rng)
        assert out.size >= 10_000
        assert abs(np.std(out) - level) < 0.05 * level

    def test_negative_level_rejected(self, rng):
        with pytest.raises(ValueError, match="level"):
            datagen.add_pd_noise(np.zeros((3, 2)), -0.1, rng)


class TestOutlierNoise:
    def test_count_arithmetic(self, rng):
        out = datagen.add_do_noise(np.zeros((100, 2)), 0.2, rng)
        assert out.shape == (120, 2)

    def test_level_zero_identity(self, rng):
        pts = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(datagen.add_do_noise(pts, 0.0, rng), pts)

    def test_originals_kept_verbatim_as_prefix(self, rng):
        pts = rng.normal(size=(50, 2))
        out = datagen.add_do_noise(pts, 0.3, rng)
        assert out[:50].tobytes() == pts.tobytes()

    def test_outlier_spread_matches_unit_gaussian(self):
        rng = np.random.default_rng(13)
        out = datagen.add_do_noise(np.zeros((100, 2)), 60.0, rng)
        tail = out[100:]
        assert tail.size >= 10_000
        assert abs(np.std(tail) - 1.0) < 0.05


class TestInsufficiencyNoise:
    def test_count_arithmetic(self, rng):
        out = datagen.add_di_noise(np.arange(200.0).reshape(100, 2), 0.5, rng)
        assert out.shape == (50, 2)

    def test_level_zero_identity(self, rng):
        pts = rng.normal(size=(20, 2))
        np.testing.assert_array_equal(datagen.add_di_noise(pts, 0.0, rng), pts)

    def test_survivors_are_a_subset_in_original_order(self, rng):
        pts = np.arange(160.0).reshape(80, 2)
        out = datagen.add_di_noise(pts, 0.3, rng)
        stored = [row.tobytes() for row in pts]
        positions = [stored.index(row.tobytes()) for row in out]
        assert positions == sorted(positions)

    def test_full_removal_rejected(self, rng):
        with pytest.raises(ValueError, match="level"):
            datagen.add_di_noise(np.zeros((10, 2)), 1.0, rng)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 200), level=st.floats(0.0, 0.99))
    def test_count_arithmetic_property(self, n, level):
        pts = np.arange(2.0 * n).reshape(n, 2)
        out = datagen.add_di_noise(pts, level, np.random.default_rng(0))
        assert out.shape[0] == n - int(round(level * n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), level=st.floats(0.0, 3.0))
def test_outlier_count_arithmetic_property(n, level):
    pts = np.zeros((n, 2))
    out = datagen.add_do_noise(pts, level, np.random.default_rng(0))
    assert out.shape[0] == n + int(round(level * n))


class TestDatasets:
    @pytest.fixture
    def cfg(self):
        return datagen.SynthConfig(deformation_level=0.5, seed=42, pair_count=6)

    @pytest.fixture
    def shape(self):
        return datagen.sample_shape("fish", 32)

    def test_records_and_manifest_on_disk(self, tmp_path, cfg, shape):
        ds = datagen.generate_dataset(shape, cfg, tmp_path / "d", shape_name="fish")
        files = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert "manifest" in files
        assert sum(1 for f in files if f.endswith("_src")) == 6
        assert sum(1 for f in files if f.endswith("_tgt")) == 6
        assert ds.pair_count == 6
        assert ds.manifest["shape"] == "fish"
        assert ds.manifest["deformation_level"] == "0.5"
        assert ds.manifest["seed"] == "42"

    def test_same_seed_twice_byte_identical(self, tmp_path, cfg, shape):
        datagen.generate_dataset(shape, cfg, tmp_path / "a")
        datagen.generate_dataset(shape, cfg, tmp_path / "b")
        for pa in sorted((tmp_path / "a").iterdir()):
            pb = tmp_path / "b" / pa.name
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_different_seed_differs(self, tmp_path, shape):
        a = datagen.SynthConfig(seed=1, pair_count=2)
        b = datagen.SynthConfig(seed=2, pair_count=2)
        datagen.generate_dataset(shape, a, tmp_path / "a")
        datagen.generate_dataset(shape, b, tmp_path / "b")
        assert (tmp_path / "a" / "pair_000000_tgt").read_bytes() != (
            tmp_path / "b" / "pair_000000_tgt"
        ).read_bytes()

    def test_pairs_independent_of_pair_count(self, shape):
        # stream-per-pair seeding: the first pairs of a long dataset equal
        # the pairs of a short one
        short = datagen.SynthConfig(seed=5, pair_count=2)
        long = datagen.SynthConfig(seed=5, pair_count=9)
        src = datagen.fit_normalizer(shape).apply(shape)
        for i in range(2):
            a = datagen.make_target(src, short, i)
            b = datagen.make_target(src, long, i)
            assert a.tobytes() == b.tobytes()

    def test_load_round_trip_bit_exact(self, tmp_path, cfg, shape):
        datagen.generate_dataset(shape, cfg, tmp_path / "d")
        ds = datagen.load_dataset(tmp_path / "d")
        src, tgt = ds.load_pair(3)
        expected_src = datagen.fit_normalizer(shape).apply(shape)
        assert src.tobytes() == expected_src.tobytes()
        assert tgt.tobytes() == datagen.make_target(expected_src, cfg, 3).tobytes()

    def test_source_is_normalized(self, tmp_path, cfg, rng):
        raw = rng.normal(size=(40, 2)) * 13.0 + 5.0
        ds = datagen.generate_dataset(raw, cfg, tmp_path / "d")
        src, _ = ds.load_pair(0)
        np.testing.assert_allclose(src.mean(axis=0), 0.0, atol=1e-12)
        assert np.abs(src).max() == pytest.approx(0.9)

    def test_noise_kinds_applied(self, tmp_path, shape):
        for kind, level, delta in (("do", 0.25, 8), ("di", 0.25, -8)):
            cfg = datagen.SynthConfig(noise_kind=kind, noise_level=level, pair_count=1)
            ds = datagen.generate_dataset(shape, cfg, tmp_path / kind)
            _, tgt = ds.load_pair(0)
            assert tgt.shape[0] == 32 + delta

    def test_missing_record_detected(self, tmp_path, cfg, shape):
        datagen.generate_dataset(shape, cfg, tmp_path / "d")
        (tmp_path / "d" / "pair_000004_tgt").unlink()
        with pytest.raises(datagen.DatasetError, match="missing"):
            datagen.load_dataset(tmp_path / "d")

    def test_not_a_dataset_directory(self, tmp_path):
        with pytest.raises(datagen.DatasetError, match="manifest"):
            datagen.load_dataset(tmp_path)

    def test_bad_manifest_line(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "manifest").write_text("format=pointreg-dataset-v1\ngarbage line\n")
        with pytest.raises(datagen.DatasetError, match="key=value"):
            datagen.load_dataset(d)

    def test_unsupported_format_rejected(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "manifest").write_text("format=other-v9\npair_count=0\ndim=2\n")
        with pytest.raises(datagen.DatasetError, match="format"):
            datagen.load_dataset(d)

    @pytest.mark.parametrize("key", ["pair_count", "dim"])
    def test_manifest_lacking_a_required_key_rejected(self, tmp_path, cfg, shape, key):
        datagen.generate_dataset(shape, cfg, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(ln for ln in lines if not ln.startswith(f"{key}=")))
        with pytest.raises(datagen.DatasetError, match=f"missing required key {key}"):
            datagen.load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("key,value", [
        ("pair_count", "six"), ("pair_count", "-2"), ("pair_count", "0"), ("pair_count", "2.0"),
        ("dim", "7"), ("dim", "1"), ("dim", "two"),
    ])
    def test_manifest_count_or_dim_out_of_range_rejected(self, tmp_path, cfg, shape, key, value):
        datagen.generate_dataset(shape, cfg, tmp_path / "d", shape_name="fish")
        manifest = tmp_path / "d" / "manifest"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln for ln in lines))
        with pytest.raises(datagen.DatasetError, match=f"manifest: {key} must be"):
            datagen.load_dataset(tmp_path / "d")

    def test_pair_index_out_of_range(self, tmp_path, cfg, shape):
        ds = datagen.generate_dataset(shape, cfg, tmp_path / "d")
        with pytest.raises(IndexError):
            ds.load_pair(6)

    def test_empty_base_shape_rejected(self, tmp_path, cfg):
        with pytest.raises(ValueError, match="base shape"):
            datagen.generate_dataset(np.zeros((0, 2)), cfg, tmp_path / "d")
