"""End-to-end tests of the command line interface.

All invocations go through cli.main(argv) in-process; exit codes and the
stdout/stderr contract are asserted the way a shell user would see them.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointreg import cli, datagen, model, trainer

from conftest import small_identity_checkpoint, write_checkpoint_file


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
        for flag in flags + ["--config", "--verbose"]:
            assert flag in text, flag
        # only synth and train read a seed
        assert ("--seed" in text) == (sub in ("synth", "train"))
        assert "default:" in text

    @pytest.mark.parametrize("argv", [
        ["register", "--model", "m", "--src", "s", "--tgt", "t", "--seed", "3"],
        ["eval", "--model", "m", "--data", "d", "--report", "r", "--seed", "3"],
        ["plot", "--model", "m", "--data", "d", "--out-dir", "o", "--seed", "3"],
        # the top-level flag is parsed before the subcommand is known
        ["--seed", "3", "register", "--model", "m", "--src", "s", "--tgt", "t"],
        ["--seed", "3", "eval", "--model", "m", "--data", "d", "--report", "r"],
        ["--seed", "3", "plot", "--model", "m", "--data", "d", "--out-dir", "o"],
    ])
    def test_seed_flag_after_a_seedless_subcommand_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        expected = (f"argument --seed: {argv[2]} reads no seed" if argv[0] == "--seed"
                    else "unrecognized arguments: --seed 3")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("sub, cls, flags", [
        ("synth", datagen.SynthConfig, {"--level": "deformation_level", "--noise": "noise_kind",
                                        "--noise-level": "noise_level", "--count": "pair_count",
                                        "--seed": "seed"}),
        ("train", trainer.TrainConfig, {"--batch-size": "batch_size", "--lr": "learning_rate",
                                        "--lr-decay": "lr_decay", "--sigma-floor": "sigma_floor",
                                        "--checkpoint-every": "checkpoint_every",
                                        "--checkpoint-dir": "checkpoint_dir", "--seed": "seed"}),
    ])
    def test_help_prints_each_field_default(self, capsys, sub, cls, flags):
        with pytest.raises(SystemExit):
            cli.main([sub, "--help"])
        options = " ".join(capsys.readouterr().out.split()).split("options:", 1)[1]
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for flag, name in flags.items():
            entry = options[options.index(f" {flag} "):]
            shown = entry[entry.index("(default: ") + len("(default: "):entry.index(")")]
            assert shown == str(defaults[name]), flag

    def test_importing_and_help_start_no_thread(self):
        # a fresh interpreter: the MLP's worker threads start with its first
        # call, so importing the CLI and printing its help leave one thread
        code = ("import contextlib, io, threading\n"
                "import pointreg.cli\n"
                "assert threading.active_count() == 1, threading.enumerate()\n"
                "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
                "    pointreg.cli.main(['--help'])\n"
                "assert threading.active_count() == 1, threading.enumerate()\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

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

    @pytest.mark.parametrize("argv", [
        ["synth", "--count", "0", "--out", "d"],
        ["synth", "--points", "-2", "--out", "d"],
        ["train", "--epochs", "0", "--data", "d", "--out", "m"],
        ["plot", "--limit", "-1", "--model", "m", "--data", "d", "--out-dir", "o"],
    ])
    def test_out_of_range_count_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "integer, got" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sub, cls", [("synth", datagen.SynthConfig), ("train", trainer.TrainConfig)])
    def test_no_flag_or_config_resolves_each_field_to_its_default(self, capsys, tmp_path, sub, cls):
        # train stops at the missing dataset, after logging what it resolved
        argv = ["--out", str(tmp_path / "out")]
        if sub == "train":
            argv += ["--epochs", "1", "--data", str(tmp_path / "no_data")]
        _, _, err = run(capsys, sub, *argv)
        line = next(ln for ln in err.splitlines() if f"resolved config [{sub}]: " in ln)
        resolved = dict(item.split("=", 1) for item in line.split("]: ", 1)[1].split(", "))
        for f in dataclasses.fields(cls):
            want = "1" if f.name == "epochs" else str(f.default)
            assert resolved[f.name] == want, f.name

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

    @staticmethod
    def assert_rejected(code, err, out):
        # exit 1 with one error line, and nothing a reader would reject on disk
        assert code == 1
        assert len([ln for ln in err.splitlines() if ln.startswith("error: ")]) == 1
        assert not (out / "manifest").exists()
        for path in out.glob("pair_*"):
            datagen.load_points_file(path)

    @pytest.mark.parametrize("argv", [
        ["--noise", "pd", "--noise-level", "nan"],
        ["--noise", "pd", "--noise-level", "inf"],
        ["--noise", "pd", "--noise-level", "1e308"],
        ["--noise", "do", "--noise-level", "inf"],
        ["--level", "nan"],
        ["--level", "inf"],
        ["--level", "1e308"],
        ["--noise", "do", "--noise-level", "1e308"],
        ["--noise", "do", "--noise-level", "1e9"],
        ["--noise", "do", "--noise-level", "11"],
    ])
    def test_level_beyond_float_range_exits_1(self, capsys, tmp_path, argv):
        out = tmp_path / "d"
        code, _, err = run(capsys, "synth", "--count", "3", *argv, "--out", str(out))
        self.assert_rejected(code, err, out)

    @pytest.mark.parametrize("entries", [
        "noise_kind=pd\nnoise_level=nan\n",
        "noise_kind=pd\nnoise_level=1e308\n",
        "deformation_level=inf\n",
        "deformation_level=1e308\n",
    ])
    def test_level_beyond_float_range_in_config_exits_1(self, capsys, tmp_path, entries):
        cfg = tmp_path / "cfg"
        cfg.write_text(entries)
        out = tmp_path / "d"
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--count", "3", "--out", str(out))
        self.assert_rejected(code, err, out)

    def test_unknown_noise_kind_exits_1(self, capsys, tmp_path):
        # the kinds are SynthConfig's to check, so the message lists them
        out = tmp_path / "d"
        code, _, err = run(capsys, "synth", "--count", "3", "--noise", "xy", "--out", str(out))
        self.assert_rejected(code, err, out)
        assert "noise_kind must be one of ('none', 'pd', 'do', 'di'), got 'xy'" in err

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

    def test_commands_read_no_optimizer_member(self, capsys, pipeline, tmp_path, monkeypatch):
        # register, eval and plot need the weights only; the Adam moments
        # are more than half the file and stay unread
        read = []
        open_member = zipfile.ZipFile.open

        def spy(archive, name, *args, **kwargs):
            read.append(name.removesuffix(".npy"))
            return open_member(archive, name, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "open", spy)
        data, ckpt = pipeline / "data", str(pipeline / "model.ckpt")
        for argv in (["register", "--model", ckpt, "--src", str(data / "pair_000000_src"),
                      "--tgt", str(data / "pair_000000_tgt")],
                     ["eval", "--model", ckpt, "--data", str(data), "--report", str(tmp_path / "r.csv")],
                     ["plot", "--model", ckpt, "--data", str(data), "--out-dir", str(tmp_path / "o"),
                      "--limit", "1"]):
            read.clear()
            assert run(capsys, *argv)[0] == 0, argv[0]
            assert "meta" in read and "fc1.weight" in read, argv[0]
            assert [k for k in read if k.startswith("adam.")] == [], argv[0]

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


    def test_plot_limit_from_config_under_flag_precedence(self, capsys, pipeline, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("limit=1\n")
        for argv, count in (([], 1), (["--limit", "2"], 2)):
            out = tmp_path / f"plots_{count}"
            code, stdout, err = run(capsys, "plot", "--config", str(cfg), "--model", str(pipeline / "model.ckpt"),
                                    "--data", str(pipeline / "data"), "--out-dir", str(out), *argv)
            assert code == 0, err
            assert f"wrote {count} overlays" in stdout
            assert sorted(p.name for p in out.iterdir()) == [f"pair_{i:06d}.svg" for i in range(count)]
        # a config value gets the check --limit gets from argparse
        cfg.write_text("limit=-1\n")
        code, _, err = run(capsys, "plot", "--config", str(cfg), "--model", str(pipeline / "model.ckpt"),
                           "--data", str(pipeline / "data"), "--out-dir", str(tmp_path / "plots_bad"))
        assert code == 1 and "limit: expected a non-negative integer, got -1" in err, err

    def test_plot_limit_reads_only_the_pairs_it_plots(self, capsys, pipeline, tmp_path):
        # a malformed pair after the limit is never read, and the overlays
        # equal those of the clean dataset
        bad = tmp_path / "bad"
        shutil.copytree(pipeline / "data", bad)
        (bad / "pair_000004_tgt").write_text("1.0 2.0\nnot a point\n")
        outs = {}
        for name, data in (("clean", pipeline / "data"), ("bad", bad)):
            outs[name] = tmp_path / f"plots_{name}"
            code, stdout, err = run(capsys, "plot", "--model", str(pipeline / "model.ckpt"),
                                    "--data", str(data), "--out-dir", str(outs[name]), "--limit", "2")
            assert code == 0, err
            assert "wrote 2 overlays" in stdout
        names = ["pair_000000.svg", "pair_000001.svg"]
        assert sorted(p.name for p in outs["bad"].iterdir()) == names
        for name in names:
            assert (outs["bad"] / name).read_bytes() == (outs["clean"] / name).read_bytes(), name


class TestTrainInputs:
    def test_source_shared_by_no_neighbour_trains(self, capsys, tmp_path):
        # pair 3's source is its own; it trains in one forward with the
        # rest of its batch
        data = tmp_path / "data"
        assert cli.main(["synth", "--count", "8", "--points", "48", "--level", "0.4",
                         "--seed", "2", "--out", str(data)]) == 0
        src = data / "pair_000003_src"
        datagen.save_points_file(src, datagen.load_points_file(src) * 0.9)
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                           "--epochs", "1", "--batch-size", "4", "--seed", "2")
        assert code == 0, err

    def test_missing_epochs_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("batch_size=4\n")
        code, out, err = run(capsys, "train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                             "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1 and "--epochs is required" in lines[0], err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_out_of_range_epochs_in_config_exits_1(self, capsys, tmp_path, value):
        # the config value gets the check --epochs gets from argparse
        data = tmp_path / "data"
        assert run(capsys, "synth", "--count", "4", "--points", "24", "--out", str(data))[0] == 0
        cfg = tmp_path / "cfg"
        cfg.write_text(f"epochs={value}\n")
        code, out, err = run(capsys, "train", "--config", str(cfg), "--data", str(data),
                             "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert out == "" and "Traceback" not in err
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1 and "epochs" in lines[0] and value in lines[0], err
        assert not (tmp_path / "m.ckpt").exists()

    def test_infinite_sigma_floor_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "train", "--data", str(tmp_path / "data"),
                             "--out", str(tmp_path / "m.ckpt"), "--epochs", "1",
                             "--sigma-floor", "inf")
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1 and "sigma_floor must be positive and finite" in lines[0], err


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

    @pytest.mark.parametrize("key", ["pair_count", "dim"])
    def test_manifest_lacking_a_required_key_exits_1(self, capsys, tmp_path, key):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        assert cli.main(["synth", "--count", "2", "--points", "40", "--out", str(tmp_path / "d")]) == 0
        manifest = tmp_path / "d" / "manifest"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(ln for ln in lines if not ln.startswith(f"{key}=")))
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(tmp_path / "d"),
                           "--report", str(tmp_path / "r.csv"))
        assert code == 1
        lines = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert len(lines) == 1 and f"missing required key {key}" in lines[0], err



    @pytest.mark.parametrize("subcommand", ["eval", "train"])
    @pytest.mark.parametrize("key,value", [("pair_count", "six"), ("pair_count", "-2"), ("dim", "7")])
    def test_manifest_count_or_dim_out_of_range_exits_1(self, capsys, tmp_path, subcommand, key, value):
        assert run(capsys, "synth", "--count", "2", "--points", "40", "--out", str(tmp_path / "d"))[0] == 0
        manifest = tmp_path / "d" / "manifest"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln for ln in lines))
        if subcommand == "eval":
            ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
            argv = ["eval", "--model", str(ckpt), "--report", str(tmp_path / "r.csv")]
        else:
            argv = ["train", "--epochs", "1", "--out", str(tmp_path / "m.ckpt")]
        code, out, err = run(capsys, *argv, "--data", str(tmp_path / "d"))
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert len(lines) == 1 and f"manifest: {key} must be" in lines[0], err


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


class TestOutOfRangePoints:
    """A finite coordinate too large for the network dtype once normalized
    ends in one ``error:`` line and exit code 1, not in NaN output."""

    def test_register_rejects_huge_target(self, capsys, tmp_path):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        src = tmp_path / "src"
        datagen.save_points_file(src, datagen.sample_shape("fish", 20))
        tgt = tmp_path / "tgt"
        tgt.write_text(src.read_text() + "1e100 0\n")
        out_points = tmp_path / "warped"
        code, out, err = run(capsys, "register", "--model", str(ckpt), "--src", str(src),
                             "--tgt", str(tgt), "--out-points", str(out_points))
        assert code == 1
        assert out == ""
        lines = [ln for ln in err.strip().split("\n") if ln.startswith("error: ")]
        assert len(lines) == 1 and "float32 range" in lines[0], err
        assert not out_points.exists()

    def test_eval_rejects_dataset_with_huge_pair(self, capsys, tmp_path):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        data = tmp_path / "d"
        assert cli.main(["synth", "--count", "3", "--points", "30",
                         "--seed", "5", "--out", str(data)]) == 0
        bad = data / "pair_000001_tgt"
        bad.write_text("1e100 0.0\n" + bad.read_text())
        report = tmp_path / "r.csv"
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(data),
                           "--report", str(report))
        assert code == 1
        assert "error: " in err and "float32 range" in err
        assert not report.exists()


DEGENERATE = {
    "single": np.array([[0.3, -0.2]]),
    "identical": np.tile([[0.3, -0.2]], (20, 1)),
}


class TestDegenerateInputs:
    """A single point, or 20 copies of one point, as source, target or
    both: the identity model registers it with finite output and leaves
    the Chamfer distance as it was."""

    @staticmethod
    def pair(kind, role):
        fish = datagen.sample_shape("fish", 20)
        pts = DEGENERATE[kind]
        return (pts if role != "target" else fish), (pts if role != "source" else fish)

    @pytest.mark.parametrize("role", ["source", "target", "both"])
    @pytest.mark.parametrize("kind", sorted(DEGENERATE))
    def test_register(self, capsys, tmp_path, kind, role):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        src, tgt = self.pair(kind, role)
        datagen.save_points_file(tmp_path / "src", src)
        datagen.save_points_file(tmp_path / "tgt", tgt)
        out_points = tmp_path / "warped"
        code, out, _ = run(capsys, "register", "--model", str(ckpt), "--src", str(tmp_path / "src"),
                           "--tgt", str(tmp_path / "tgt"), "--out-points", str(out_points))
        assert code == 0
        warped = datagen.load_points_file(out_points)
        assert warped.shape == src.shape and np.all(np.isfinite(warped))
        cd = dict(field.split("=") for field in out.split())
        assert float(cd["cd_post"]) == pytest.approx(float(cd["cd_pre"]), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("role", ["source", "target", "both"])
    @pytest.mark.parametrize("kind", sorted(DEGENERATE))
    def test_eval(self, capsys, tmp_path, kind, role):
        ckpt = small_identity_checkpoint(tmp_path / "id.ckpt")
        data = tmp_path / "d"
        assert cli.main(["synth", "--count", "1", "--points", "20",
                         "--seed", "5", "--out", str(data)]) == 0
        src, tgt = self.pair(kind, role)
        datagen.save_points_file(data / "pair_000000_src", src)
        datagen.save_points_file(data / "pair_000000_tgt", tgt)
        report = tmp_path / "r.csv"
        code, _, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(data),
                         "--report", str(report))
        assert code == 0
        row = [float(v) for v in report.read_text().strip().split("\n")[2].split(",")[1:]]
        assert np.all(np.isfinite(row))
        cd_pre_mean, cd_post_mean = row[1], row[3]
        assert cd_post_mean == pytest.approx(cd_pre_mean, rel=1e-12, abs=1e-15)


def rewrite_checkpoint(src, dst, edit_arrays=None, edit_meta=None):
    """Re-save the checkpoint ``src`` to ``dst`` after editing its arrays
    and meta in place; the result is a sound ``.npz``."""
    arrays, meta = model.read_checkpoint(src)
    if edit_arrays:
        edit_arrays(arrays)
    if edit_meta:
        edit_meta(meta)
    return write_checkpoint_file(dst, arrays, meta)


def rezip(src, dst, edit):
    """Copy the checkpoint ``src`` to ``dst`` after ``edit`` has changed its
    list of ``[member name, bytes]`` in place. Every CRC-32 is written
    anew, so what is wrong with the file is the edit alone."""
    with zipfile.ZipFile(src) as z:
        members = [[info.filename, z.read(info)] for info in z.infolist()]
    edit(members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of a repeated name
        with zipfile.ZipFile(dst, "w") as z:
            for name, data in members:
                z.writestr(name, data)
    return dst


def _entry(drop=None, **fields):
    """The ``.npy`` header fields of the member ``fc1.bias``, which holds
    24 float32 zeros, with ``fields`` replaced and the field ``drop`` removed."""
    entry = {"name": "fc1.bias", "shape": [24], "dtype": "<f4", **fields}
    entry.pop(drop, None)
    return entry


def with_entry(src, dst, entry):
    """``src`` with the member ``fc1.bias`` replaced by one written by hand
    from ``entry``: its name, and a ``.npy`` header of its shape and dtype
    (or, when ``entry`` is a list, that list in place of the header)."""
    if isinstance(entry, dict):
        header = {"descr": entry["dtype"]} if "dtype" in entry else {}
        header["fortran_order"] = False
        if "shape" in entry:
            shape = entry["shape"]
            header["shape"] = tuple(shape) if isinstance(shape, list) else shape
        name = entry.get("name", "")
    else:
        header, name = entry, "fc1.bias"
    text = repr(header).encode("latin1")
    text += b" " * (-(len(text) + 11) % 64) + b"\n"
    member = b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(96)

    def edit(members):
        members[[n for n, _ in members].index("fc1.bias.npy")] = [f"{name}.npy", member]

    return rezip(src, dst, edit)


class TestMalformedCheckpoint:
    """Every malformed model file ends in one ``error:`` line and exit code 1
    from ``pointreg register``, never a traceback. ``register`` reads no
    optimizer state; ``trainer.load_checkpoint`` checks that directly."""

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
        # the zip magic, then less than a local file header
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"PK\x03\x04\x05\x00")
        self.assert_rejected(capsys, path, points, "not an .npz checkpoint")

    def test_manifest_length_past_end_of_file(self, capsys, tmp_path, points, valid):
        # the end record sizes the central directory, the zip's list of
        # members, past the start of the file
        raw = bytearray(valid.read_bytes())
        end = raw.rindex(b"PK\x05\x06")
        raw[end + 12:end + 16] = (len(raw) + 1000).to_bytes(4, "little")
        path = tmp_path / "m.ckpt"
        path.write_bytes(bytes(raw))
        self.assert_rejected(capsys, path, points, "not an .npz checkpoint")

    @pytest.mark.parametrize("kind", ["v1", "text", "npy"])
    def test_not_an_npz_file(self, capsys, tmp_path, points, kind):
        path = tmp_path / "m.ckpt"
        if kind == "v1":
            # the former PTREGCK1 container: magic, <u4 manifest length, manifest
            blob = json.dumps({"arrays": [], "meta": {"kind": "pointreg-model"}, "version": 1}).encode()
            path.write_bytes(b"PTREGCK1" + len(blob).to_bytes(4, "little") + blob)
        elif kind == "text":
            path.write_text("0.5 0.25\n")
        else:
            with open(path, "wb") as f:
                np.save(f, np.zeros(3, dtype=np.float32))
        self.assert_rejected(capsys, path, points, "not an .npz checkpoint")

    def test_manifest_not_a_dict(self, capsys, tmp_path, points, valid):
        # the meta member is the file's one JSON document
        arrays, _ = model.read_checkpoint(valid)
        path = write_checkpoint_file(tmp_path / "m.ckpt", arrays, [{"arrays": [], "meta": {}}])
        self.assert_rejected(capsys, path, points, "not a JSON object")

    @pytest.mark.parametrize("meta", [None, b"{\"kind\": ", b"\xff\xfe{}"], ids=["missing", "not-json", "not-utf8"])
    def test_meta_member_missing_or_unreadable(self, capsys, tmp_path, points, valid, meta):
        arrays, _ = model.read_checkpoint(valid)
        path = tmp_path / "m.ckpt"
        if meta is None:
            with open(path, "wb") as f:
                np.savez(f, **arrays)
        else:
            write_checkpoint_file(path, arrays, meta)
        self.assert_rejected(capsys, path, points, "no meta member" if meta is None else "unreadable meta")

    # a zip lists its members in its central directory, which holds no dict
    # or string in place of the list; what can be missing is every array
    @pytest.mark.parametrize("arrays", ["missing"])
    def test_arrays_missing_or_not_a_list(self, capsys, tmp_path, points, valid, arrays):
        # a file holding the meta member alone
        _, meta = model.read_checkpoint(valid)
        path = write_checkpoint_file(tmp_path / "m.ckpt", {}, meta)
        self.assert_rejected(capsys, path, points, "missing array mlp0.weight")

    def test_weight_missing(self, capsys, tmp_path, points, valid):
        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_arrays=lambda a: a.pop("fc1.bias"))
        self.assert_rejected(capsys, path, points, "missing array fc1.bias")

    def test_hand_written_entry_is_sound(self, capsys, tmp_path, points, valid):
        # the control for the cases below: with every field intact, the
        # hand-written member loads as fc1.bias
        path = with_entry(valid, tmp_path / "m.ckpt", _entry())
        assert model.load_model(path)[0].fc1.bias.data.tobytes() == bytes(96)
        code, _, _ = run(capsys, "register", "--model", str(path), "--src", str(points), "--tgt", str(points))
        assert code == 0

    @pytest.mark.parametrize("entry", [
        _entry(drop="name"), _entry(drop="shape"), _entry(drop="dtype"), ["fc1.bias", [24], "<f4"],
    ], ids=["no-name", "no-shape", "no-dtype", "list"])
    def test_entry_lacks_a_field(self, capsys, tmp_path, points, valid, entry):
        path = with_entry(valid, tmp_path / "m.ckpt", entry)
        self.assert_rejected(capsys, path, points, "fc1.bias")

    def test_repeated_array_name(self, capsys, tmp_path, points, valid):
        def edit(members):
            members.append(next(m for m in members if m[0] == "fc1.bias.npy"))

        path = rezip(valid, tmp_path / "m.ckpt", edit)
        self.assert_rejected(capsys, path, points, "member name is repeated")

    # numpy reads the descr "float32" as the float32 dtype, so that case loads
    @pytest.mark.parametrize("dtype", ["<i4", "not a dtype", "|O", ">f4", 4, None])
    def test_unsupported_dtype(self, capsys, tmp_path, points, valid, dtype):
        path = with_entry(valid, tmp_path / "m.ckpt", _entry(dtype=dtype))
        self.assert_rejected(capsys, path, points, "fc1.bias")

    def test_object_dtype_member(self, capsys, tmp_path, points, valid):
        arrays, meta = model.read_checkpoint(valid)
        arrays["fc1.bias"] = np.array([None] * 24, dtype=object)
        blob = json.dumps(meta).encode()
        path = tmp_path / "m.ckpt"
        with open(path, "wb") as f:
            np.savez(f, meta=np.frombuffer(blob, dtype=np.uint8), **arrays)
        self.assert_rejected(capsys, path, points, "unreadable member fc1.bias")

    @pytest.mark.parametrize("shape", [[-2], [2.0], ["2"], [True, 2], 2, None])
    def test_invalid_shape(self, capsys, tmp_path, points, valid, shape):
        path = with_entry(valid, tmp_path / "m.ckpt", _entry(shape=shape))
        self.assert_rejected(capsys, path, points, "fc1.bias")

    @pytest.mark.parametrize("meta", [[1, 2], "pointreg-model", None])
    def test_meta_not_a_dict(self, capsys, tmp_path, points, valid, meta):
        arrays, _ = model.read_checkpoint(valid)
        path = write_checkpoint_file(tmp_path / "m.ckpt", arrays, meta)
        self.assert_rejected(capsys, path, points, "meta is not a JSON object")

    def test_meta_without_config(self, capsys, tmp_path):
        path = str(tmp_path / "m.ckpt")
        f = str(tmp_path / "pts")
        datagen.save_points_file(f, datagen.sample_shape("fish", 20))
        write_checkpoint_file(path, {"x": np.zeros(3, np.float32)}, {"kind": "pointreg-model"})
        code = cli.main(["register", "--model", path, "--src", f, "--tgt", f])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: " in err and "has no config" in err

    @pytest.mark.parametrize("field", ["dim", "grid_shape", "conv_kernels", "dtype"])
    def test_config_field_missing(self, capsys, tmp_path, points, valid, field):
        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt",
                                  edit_meta=lambda m: m["config"].pop(field))
        self.assert_rejected(capsys, path, points, f"config lacks {field}")

    # leaky_slope is no field: a config key that names none is rejected
    # whatever its value
    @pytest.mark.parametrize("field,value", [
        ("dim", "2"), ("dim", 2.0), ("grid_shape", 7), ("grid_shape", [7, "7"]),
        ("mlp_widths", [8, -16, 32]), ("conv_channels", []), ("conv_kernels", [3, 3]),
        ("fc_hidden", 24.5), ("leaky_slope", "0.1"), ("dtype", "int32"), ("dtype", ["float32"]),
        ("leaky_slope", 1.5), ("leaky_slope", 0.0), ("leaky_slope", float("nan")),
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

    def test_optimizer_array_dtype_differs_from_parameter(self, tmp_path, valid):
        def edit(arrays):
            arrays["adam.v.004"] = arrays["adam.v.004"].astype(np.float64)

        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_arrays=edit)
        with pytest.raises(model.CorruptCheckpointError, match="optimizer array adam.v.004 has dtype float64"):
            trainer.load_checkpoint(path)

    def test_optimizer_meta_ill_typed(self, tmp_path, valid):
        # the counters are JSON integers >= 0 (``true`` is not one), the
        # rates finite and positive; Infinity once crashed ``int()``
        cases = [("adam_step_count", [3]), ("epoch", float("inf")), ("adam_step_count", float("inf")),
                 ("epoch", 1.7), ("epoch", True), ("adam_step_count", -1), ("epoch", "1"),
                 ("adam_learning_rate", -1.0), ("adam_learning_rate", 0), ("adam_learning_rate", float("nan")),
                 ("adam_decay", float("inf")), ("adam_decay", 0.0)]
        for i, (key, value) in enumerate(cases):
            def edit(meta):
                meta[key] = value

            path = rewrite_checkpoint(valid, tmp_path / f"m{i}.ckpt", edit_meta=edit)
            with pytest.raises(model.CorruptCheckpointError, match=re.escape(f"invalid training meta ({key} is")):
                trainer.load_checkpoint(path)

    def test_optimizer_array_missing(self, capsys, tmp_path, points, valid):
        # register reads no moment, so it runs as on the intact file; a
        # resume needs them all
        path = rewrite_checkpoint(valid, tmp_path / "m.ckpt", edit_arrays=lambda a: a.pop("adam.v.003"))
        outputs = []
        for model_path, out in ((valid, tmp_path / "intact.txt"), (path, tmp_path / "pruned.txt")):
            code, stdout, _ = run(capsys, "register", "--model", str(model_path), "--src", str(points),
                                  "--tgt", str(points), "--out-points", str(out))
            assert code == 0
            outputs.append((stdout.split(" elapsed_s=")[0], out.read_bytes()))
        assert outputs[0] == outputs[1]
        with pytest.raises(model.CorruptCheckpointError, match="missing optimizer array adam.v.003"):
            trainer.load_checkpoint(path)


# values a fuzzed manifest or config line may carry: small integers, floats
# at the edges of the range, and text with no digit in it, so that no count
# (epochs above all) can get large; checkpoint_dir is never fuzzed and only
# names a directory inside the example's own temporary one
_FUZZ_VALUE = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "1e-3", "0.5", "2.0", "+2", " 3 ", "0_1",
                     "0x2", "2e0", "pointreg-dataset-v1", "fish", "pd"]),
    st.text(alphabet="abz=#-. _\t\u00e9\u4e2d", max_size=6),
)
_FUZZ_MANIFEST_KEYS = ["format", "pair_count", "dim", "point_count", "shape", "seed", "bogus"]
_FUZZ_CONFIG_KEYS = sorted(cli._CONFIG_KEYS - {"checkpoint_dir"}) + ["bogus"]


def _fuzz_lines(keys):
    entry = st.tuples(st.sampled_from(keys), _FUZZ_VALUE).map("=".join)
    other = st.sampled_from(["", "# comment", "no equals sign", "=", "=2", "checkpoint_dir=CKDIR"])
    return st.lists(st.one_of(entry, entry, entry, other), max_size=5)


def _main_output(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _main_output(["synth", "--count", "3", "--points", "12", "--seed", "4", "--out", str(root / "data")])
    return root / "data", small_identity_checkpoint(root / "id.ckpt")


class TestFuzzedManifestAndConfig:
    """Whatever the text of the dataset manifest and of the ``--config``
    file, ``eval`` and ``train`` exit 0, or exit 1 with one ``error:`` line;
    never with a traceback. Fuzzed lines follow the generated manifest and
    an ``epochs=1`` config line, so they override those entries."""

    @staticmethod
    def check(fuzz_env, subcommand, manifest_lines, config_lines):
        data, ckpt = fuzz_env
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copytree(data, tmp / "d")
            with open(tmp / "d" / "manifest", "a", encoding="utf-8") as f:
                f.write("".join(ln + "\n" for ln in manifest_lines))
            config = "".join(ln.replace("CKDIR", str(tmp / "ck")) + "\n" for ln in ["epochs=1", *config_lines])
            (tmp / "cfg").write_text(config, encoding="utf-8")
            argv = [subcommand, "--config", str(tmp / "cfg"), "--data", str(tmp / "d")]
            if subcommand == "eval":
                argv += ["--model", str(ckpt), "--report", str(tmp / "r.csv")]
            else:
                argv += ["--out", str(tmp / "m.ckpt")]
            code, _, err = _main_output(argv)
        assert code in (0, 1), err
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == (code == 1), err

    @given(manifest=_fuzz_lines(_FUZZ_MANIFEST_KEYS), config=_fuzz_lines(_FUZZ_CONFIG_KEYS))
    @settings(max_examples=60, deadline=None)
    def test_eval(self, fuzz_env, manifest, config):
        self.check(fuzz_env, "eval", manifest, config)

    @given(manifest=_fuzz_lines(_FUZZ_MANIFEST_KEYS), config=_fuzz_lines(_FUZZ_CONFIG_KEYS))
    @settings(max_examples=50, deadline=None)
    def test_train(self, fuzz_env, manifest, config):
        self.check(fuzz_env, "train", manifest, config)


# a points-file token: any float, an integer, a word the reader knows, or
# short text; a line is a few tokens under any separator, with an optional
# vertex prefix or trailing comment
_POINT_TOKEN = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "1e-320", "0x1p3", "1_0", "v", "f", "vn", "#", ",", ""]),
    st.text(alphabet="0123456789.e+-, \tv#x", max_size=5),
)
_POINT_LINE = st.builds(
    lambda prefix, tokens, sep, comment: prefix + sep.join(tokens) + comment,
    st.sampled_from(["", "", "v ", "  "]),
    st.lists(_POINT_TOKEN, max_size=4),
    st.sampled_from([" ", " ", ",", "\t", ", "]),
    st.sampled_from(["", "", "", " # note"]),
)
_POINTS_TEXT = st.lists(_POINT_LINE, max_size=8).map(lambda lines: "".join(ln + "\n" for ln in lines))


class TestFuzzedPointsFiles:
    """Whatever the text of a points file, ``register`` and ``eval`` exit 0,
    or exit 1 with one ``error:`` line; never with a traceback. The fuzzed
    text replaces the source or the target of a valid pair."""

    @staticmethod
    def check(argv):
        code, _, err = _main_output(argv)
        assert code in (0, 1), err
        errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == (code == 1), err

    @given(text=_POINTS_TEXT, role=st.sampled_from(["src", "tgt"]))
    @example(text="1e-320 0\n0 0\n", role="src")  # a subnormal spread
    @example(text="1e200 0\n0 0\n", role="tgt")  # squared distances overflow
    @example(text="3e38 0\n", role="tgt")  # in the float32 range, overflows the network
    @example(text=",\n", role="src")  # a line of separators alone
    @settings(max_examples=100, deadline=None)
    def test_register(self, fuzz_env, text, role):
        data, ckpt = fuzz_env
        with tempfile.TemporaryDirectory() as tmp:
            files = {r: Path(tmp) / r for r in ("src", "tgt")}
            for r, path in files.items():
                shutil.copyfile(data / f"pair_000000_{r}", path)
            files[role].write_text(text, encoding="utf-8")
            self.check(["register", "--model", str(ckpt), "--src", str(files["src"]),
                        "--tgt", str(files["tgt"]), "--out-points", str(Path(tmp) / "out")])

    @given(text=_POINTS_TEXT, role=st.sampled_from(["src", "tgt"]))
    @settings(max_examples=60, deadline=None)
    def test_eval(self, fuzz_env, text, role):
        data, ckpt = fuzz_env
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(data, Path(tmp) / "d")
            (Path(tmp) / "d" / f"pair_000001_{role}").write_text(text, encoding="utf-8")
            self.check(["eval", "--model", str(ckpt), "--data", str(Path(tmp) / "d"),
                        "--report", str(Path(tmp) / "r.csv")])
