"""End-to-end tests of the command line interface.

All invocations go through cli.main(argv) in-process; exit codes and the
stdout/stderr contract are asserted the way a shell user would see them.
"""

import json

import numpy as np
import pytest

from pointreg import cli, datagen, model, trainer

from conftest import small_identity_checkpoint


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize("sub", ["synth", "train", "register", "eval", "plot"])
    def test_help_documents_every_flag(self, capsys, sub):
        with pytest.raises(SystemExit) as e:
            cli.main([sub, "--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        flags = {
            "synth": ["--shape", "--points", "--level", "--noise", "--noise-level",
                      "--count", "--out"],
            "train": ["--data", "--out", "--epochs", "--batch-size", "--lr",
                      "--lr-decay", "--sigma-floor", "--checkpoint-every",
                      "--checkpoint-dir", "--history"],
            "register": ["--model", "--src", "--tgt", "--out-svg", "--out-points"],
            "eval": ["--model", "--data", "--report"],
            "plot": ["--model", "--data", "--out-dir", "--limit"],
        }[sub]
        for flag in flags + ["--config", "--seed", "--verbose"]:
            assert flag in text, flag
        assert "default:" in text

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["synth", "--frobnicate"])
        assert e.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["transmogrify"])
        assert e.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        code, _, err = run(capsys, )
        assert code == 2
        assert "usage" in err

    def test_runtime_error_exits_1_with_one_line(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "eval", "--model", str(tmp_path / "missing.ckpt"),
            "--data", str(tmp_path), "--report", str(tmp_path / "r.csv"),
        )
        assert code == 1
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1


class TestSynth:
    def test_writes_dataset_and_logs_config(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, stdout, err = run(
            capsys, "synth", "--count", "10", "--level", "0.5",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        assert "wrote 10 pairs" in stdout
        assert "resolved config [synth]" in err
        assert "deformation_level=0.5" in err
        ds = datagen.load_dataset(out)
        assert ds.pair_count == 10

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        argv = ["synth", "--count", "3", "--points", "40", "--seed", "11"]
        run(capsys, *argv, "--out", str(tmp_path / "a"))
        run(capsys, *argv, "--out", str(tmp_path / "b"))
        for name in ["manifest"] + [f"pair_{i:06d}_{k}" for i in range(3)
                                    for k in ("src", "tgt")]:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_config_file_under_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("deformation_level=0.9\npair_count=5\npoint_count=30\n")
        out = tmp_path / "d"
        code, _, err = run(
            capsys, "synth", "--config", str(cfg), "--count", "2", "--out", str(out),
        )
        assert code == 0
        ds = datagen.load_dataset(out)
        assert ds.pair_count == 2
        assert ds.manifest["deformation_level"] == "0.9"
        assert ds.manifest["point_count"] == "30"

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("frobnication_level=3\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "d"))
        assert code == 1
        assert "unknown config keys" in err

    def test_global_flags_accepted_before_subcommand(self, capsys, tmp_path):
        code, _, err = run(capsys, "--seed", "4", "synth", "--count", "2",
                           "--out", str(tmp_path / "d"))
        assert code == 0
        assert "seed=4" in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> artifacts shared by the pipeline tests; one tiny
    full-architecture training run."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    assert cli.main(["synth", "--count", "8", "--points", "48", "--level", "0.4",
                     "--seed", "2", "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--data", str(root / "data"),
                     "--out", str(root / "model.ckpt"), "--epochs", "1",
                     "--batch-size", "4", "--seed", "2"]) == 0
    return root


class TestPipeline:
    def test_train_writes_model_and_history(self, pipeline):
        assert (pipeline / "model.ckpt").exists()
        history = (pipeline / "model.ckpt.history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,sigma,lr,train_loss,val_cd"
        assert len(history) == 2

    def test_trained_checkpoint_resumable(self, pipeline):
        weights, state, epoch = trainer.load_checkpoint(pipeline / "model.ckpt")
        assert epoch == 1
        assert state.step_count > 0

    def test_eval_writes_report(self, capsys, pipeline):
        report = pipeline / "report.csv"
        code, stdout, _ = run(
            capsys, "eval", "--model", str(pipeline / "model.ckpt"),
            "--data", str(pipeline / "data"), "--report", str(report),
        )
        assert code == 0
        assert "cd_post_mean=" in stdout
        lines = report.read_text().strip().split("\n")
        assert lines[1].startswith("dataset_id,pair_count,")
        assert lines[2].split(",")[0] == "data"
        assert int(lines[2].split(",")[1]) == 8

    def test_register_prints_cd_and_writes_svg(self, capsys, pipeline, tmp_path):
        svg = tmp_path / "pair.svg"
        out_pts = tmp_path / "warped.txt"
        code, stdout, _ = run(
            capsys, "register", "--model", str(pipeline / "model.ckpt"),
            "--src", str(pipeline / "data" / "pair_000000_src"),
            "--tgt", str(pipeline / "data" / "pair_000000_tgt"),
            "--out-svg", str(svg), "--out-points", str(out_pts),
        )
        assert code == 0
        assert stdout.startswith("cd_pre=")
        assert svg.exists()
        warped = datagen.load_points_file(out_pts)
        assert warped.shape == (48, 2)

    def test_plot_writes_limited_overlays(self, capsys, pipeline, tmp_path):
        out = tmp_path / "plots"
        code, stdout, _ = run(
            capsys, "plot", "--model", str(pipeline / "model.ckpt"),
            "--data", str(pipeline / "data"), "--out-dir", str(out),
            "--limit", "2",
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["pair_000000.svg", "pair_000001.svg"]


class TestEvalIdentityModel:
    def test_pre_equals_post_in_report(self, capsys, tmp_path):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        assert cli.main(["synth", "--count", "5", "--points", "40",
                        "--seed", "6", "--out", str(tmp_path / "d")]) == 0
        report = tmp_path / "r.csv"
        code, _, _ = run(capsys, "eval", "--model", str(ckpt),
                         "--data", str(tmp_path / "d"), "--report", str(report))
        assert code == 0
        row = report.read_text().strip().split("\n")[2].split(",")
        cd_pre_mean, cd_post_mean = float(row[2]), float(row[4])
        assert cd_post_mean == pytest.approx(cd_pre_mean, abs=1e-9)



class TestNonFinitePoints:
    """A NaN or infinite coordinate in any points file ends in one
    ``error:`` line naming file and line, and exit code 1."""

    def test_register_rejects_non_finite_target(self, capsys, tmp_path):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        src = tmp_path / "src"
        datagen.save_points_file(src, datagen.sample_shape("fish", 20))
        tgt = tmp_path / "tgt"
        tgt.write_text(src.read_text() + "0.5 nan\n")
        out_points = tmp_path / "warped"
        code, out, err = run(capsys, "register", "--model", str(ckpt), "--src", str(src),
                             "--tgt", str(tgt), "--out-points", str(out_points))
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1 and f"{tgt}:21: non-finite" in lines[0], err
        assert not out_points.exists()

    def test_eval_rejects_dataset_with_non_finite_pair(self, capsys, tmp_path):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        data = tmp_path / "d"
        assert cli.main(["synth", "--count", "3", "--points", "30",
                         "--seed", "5", "--out", str(data)]) == 0
        bad = data / "pair_000001_tgt"
        bad.write_text("inf 0.0\n" + bad.read_text())
        report = tmp_path / "r.csv"
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(data),
                           "--report", str(report))
        assert code == 1
        assert "error: " in err and f"{bad}:1: non-finite" in err
        assert not report.exists()


def write_container(path, manifest, payload=b""):
    """Checkpoint bytes assembled by hand: magic, ``<u4`` manifest length,
    the JSON manifest, then ``payload``."""
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(b"PTREGCK1" + len(blob).to_bytes(4, "little") + blob + payload)
    return path


def rewrite_checkpoint(src, dst, edit_arrays=None, edit_meta=None):
    """Re-save the checkpoint ``src`` to ``dst`` after editing its arrays
    and meta in place; the result is a valid container."""
    arrays, meta = model.read_checkpoint(src)
    if edit_arrays:
        edit_arrays(arrays)
    if edit_meta:
        edit_meta(meta)
    model.write_checkpoint(dst, arrays, meta)
    return dst


def _entry(drop=None, **fields):
    """A manifest entry for two floats, with ``fields`` replaced and the
    field ``drop`` removed."""
    entry = {"name": "x", "shape": [2], "dtype": "<f4", **fields}
    entry.pop(drop, None)
    return entry


class TestMalformedCheckpoint:
    """Every malformed model file ends in one ``error:`` line and exit code 1
    from ``pointreg register``, never a traceback."""

    @pytest.fixture
    def points(self, tmp_path):
        path = tmp_path / "pts"
        datagen.save_points_file(path, datagen.sample_shape("fish", 20))
        return path

    @pytest.fixture
    def valid(self, tmp_path):
        return small_identity_checkpoint(tmp_path / "valid.ckpt")

    def assert_rejected(self, capsys, path, points, match):
        code, out, err = run(capsys, "register", "--model", str(path),
                             "--src", str(points), "--tgt", str(points))
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1 and match in lines[0], err
        assert "Traceback" not in err

    def test_file_shorter_than_header(self, capsys, tmp_path, points):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"PTREGCK1\x05\x00")
        self.assert_rejected(capsys, path, points, "inside the header")

    def test_manifest_length_past_end_of_file(self, capsys, tmp_path, points):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"PTREGCK1" + (1000).to_bytes(4, "little") + b'{"arrays":[]}')
        self.assert_rejected(capsys, path, points, "runs past the end")

    def test_manifest_not_a_dict(self, capsys, tmp_path, points):
        path = write_container(tmp_path / "m.ckpt", [{"arrays": [], "meta": {}}])
        self.assert_rejected(capsys, path, points, "not a JSON object")

    @pytest.mark.parametrize("arrays", [None, {"x": [2]}, "x"], ids=["missing", "dict", "str"])
    def test_arrays_missing_or_not_a_list(self, capsys, tmp_path, points, arrays):
        manifest = {"meta": {"kind": "pointreg-model"}}
        if arrays is not None:
            manifest["arrays"] = arrays
        path = write_container(tmp_path / "m.ckpt", manifest)
        self.assert_rejected(capsys, path, points, "no list of arrays")

    @pytest.mark.parametrize("entry", [
        _entry(drop="name"), _entry(drop="shape"), _entry(drop="dtype"), ["x", [2], "<f4"],
    ], ids=["no-name", "no-shape", "no-dtype", "list"])
    def test_entry_lacks_a_field(self, capsys, tmp_path, points, entry):
        path = write_container(tmp_path / "m.ckpt", {"arrays": [entry], "meta": {}}, bytes(8))
        self.assert_rejected(capsys, path, points, "lacks a name, shape or dtype")

    def test_repeated_array_name(self, capsys, tmp_path, points):
        path = write_container(tmp_path / "m.ckpt", {"arrays": [_entry(), _entry()], "meta": {}}, bytes(16))
        self.assert_rejected(capsys, path, points, "bad or repeated name")

    @pytest.mark.parametrize("dtype", ["<i4", "not a dtype", "|O", ">f4", "float32", 4, None])
    def test_unsupported_dtype(self, capsys, tmp_path, points, dtype):
        path = write_container(tmp_path / "m.ckpt", {"arrays": [_entry(dtype=dtype)], "meta": {}}, bytes(8))
        self.assert_rejected(capsys, path, points, "unsupported dtype")

    @pytest.mark.parametrize("shape", [[-2], [2.0], ["2"], [True, 2], 2, None])
    def test_invalid_shape(self, capsys, tmp_path, points, shape):
        path = write_container(tmp_path / "m.ckpt", {"arrays": [_entry(shape=shape)], "meta": {}}, bytes(8))
        self.assert_rejected(capsys, path, points, "invalid shape")

    @pytest.mark.parametrize("meta", [[1, 2], "pointreg-model", None])
    def test_meta_not_a_dict(self, capsys, tmp_path, points, meta):
        path = write_container(tmp_path / "m.ckpt", {"arrays": [], "meta": meta})
        self.assert_rejected(capsys, path, points, "meta is not a JSON object")

    def test_meta_without_config(self, capsys, tmp_path):
        path = str(tmp_path / "m.ckpt")
        f = str(tmp_path / "pts")
        datagen.save_points_file(f, datagen.sample_shape("fish", 20))
        model.write_checkpoint(path, {"x": np.zeros(3, np.float32)}, {"kind": "pointreg-model"})
        code = cli.main(["register", "--model", path, "--src", f, "--tgt", f])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: " in err and "has no config" in err

    @pytest.mark.parametrize("field", ["dim", "grid_shape", "conv_kernels", "dtype"])
    def test_config_field_missing(self, capsys, tmp_path, points, valid, field):
        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt",
                                  edit_meta=lambda m: m["config"].pop(field))
        self.assert_rejected(capsys, path, points, f"config lacks {field}")

    @pytest.mark.parametrize("field,value", [
        ("dim", "2"), ("dim", 2.0), ("grid_shape", 7), ("grid_shape", [7, "7"]),
        ("mlp_widths", [8, -16, 32]), ("conv_channels", []), ("conv_kernels", [3, 3]),
        ("fc_hidden", 24.5), ("leaky_slope", "0.1"), ("dtype", "int32"), ("dtype", ["float32"]),
    ])
    def test_config_field_ill_typed(self, capsys, tmp_path, points, valid, field, value):
        def edit(meta):
            meta["config"][field] = value

        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_meta=edit)
        self.assert_rejected(capsys, path, points, "invalid config")

    def test_model_array_dtype_differs_from_config(self, capsys, tmp_path, points, valid):
        def edit(arrays):
            arrays["fc1.bias"] = arrays["fc1.bias"].astype(np.float64)

        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_arrays=edit)
        self.assert_rejected(capsys, path, points, "array fc1.bias has dtype float64")

    def test_optimizer_array_dtype_differs_from_parameter(self, capsys, tmp_path, points, valid):
        def edit(arrays):
            arrays["adam.v.004"] = arrays["adam.v.004"].astype(np.float64)

        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_arrays=edit)
        self.assert_rejected(capsys, path, points, "optimizer array adam.v.004 has dtype float64")

    def test_optimizer_meta_ill_typed(self, capsys, tmp_path, points, valid):
        def edit(meta):
            meta["adam_step_count"] = [3]

        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_meta=edit)
        self.assert_rejected(capsys, path, points, "invalid training meta")
