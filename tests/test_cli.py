import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttrnn
from synthdata import (striped_images, write_array_record_checkpoint,
                       write_idx, write_idx_fixture,
                       write_idx_header_fixture, write_noise_idx_fixture,
                       write_one_record_checkpoint, write_pianoroll_fixture,
                       write_ttmap_header_checkpoint)
from ttrnn import bench
from ttrnn.checkpoint import KIND_ARRAY, save_checkpoint
from ttrnn.cli import main
from ttrnn.config import TrainConfig, parse_kv
from ttrnn.data import ImageDataset
from ttrnn.optim import Adam
from ttrnn.ttmatrix import TTMatrix
from ttrnn.train import build_model, parse_runlog


def write_config(path, **fields):
    lines = [f"{k} = {v}" for k, v in fields.items()]
    path.write_text("# test config\n" + "\n".join(lines) + "\n")
    return str(path)


def corrupt_optimizer_record(path):
    """Rewrite the checkpoint at ``path`` so that its ``opt:m.proj.weight``
    record claims 99 dimensions; returns the path as a string."""
    raw = bytearray(path.read_bytes())
    name = b"opt:m.proj.weight"
    at = raw.index(struct.pack("<q", len(name)) + name) + 8 + len(name) + 16
    raw[at : at + 8] = struct.pack("<q", 99)
    path.write_bytes(bytes(raw))
    return str(path)


def mnist_fields(tmp_path, **overrides):
    images, labels = write_idx_fixture(tmp_path, 60, seed=1, classes=4)
    fields = dict(task="mnist-row", model="srnn", parameterization="dense",
                  hidden=12, hidden_modes="none", input_modes="none",
                  proj=8, batch_size=8, epochs=2, val_count=20, lr="0.01",
                  images=images, labels=labels, out_dir=str(tmp_path / "run"))
    fields.update(overrides)
    return fields


class TestUsageAndErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_argument(self, capsys):
        assert main(["train"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["train", "cfg", "--epochs", "two"]) == 1

    def test_missing_config_file_is_data_error(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "nope.cfg")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_config_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", learning_rat="0.1")
        assert main(["train", cfg]) == 1
        assert "learning_rat" in capsys.readouterr().err

    def test_negative_epochs_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **mnist_fields(tmp_path))
        assert main(["train", cfg, "--epochs", "-3"]) == 1

    @pytest.mark.parametrize("hidden, modes, field", [
        (64, ("8x8", "2x2x8"), "input_modes"),
        (0, ("4294967296x4294967296", "4x8"), "hidden_modes"),
        (0, ("4294967297x4294967297", "4x8"), "hidden_modes"),
    ], ids=["unequal-lengths", "product-2^64", "product-above-2^64"])
    def test_bad_mode_lists_are_config_errors(self, tmp_path, capsys, hidden,
                                              modes, field):
        fields = mnist_fields(tmp_path, parameterization="tt", hidden=hidden,
                              hidden_modes=modes[0], input_modes=modes[1],
                              rank=2, proj=32)
        assert main(["train", write_config(tmp_path / "c.cfg", **fields)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: field {field}: ") and out == ""
        assert not (tmp_path / "run" / "config.resolved").exists()

    def test_out_of_range_float_field_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **mnist_fields(tmp_path,
                                                              clip_norm="-5"))
        assert main(["train", cfg]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("config error: field clip_norm: ") and out == ""
        assert not (tmp_path / "run" / "config.resolved").exists()

    @pytest.mark.parametrize("dims", [(2 ** 32 - 1,) * 3,
                                      (0, 2 ** 32 - 1, 2 ** 32 - 1)],
                             ids=["pixel-bytes", "no-images"])
    def test_oversized_idx_header_is_exit_2(self, tmp_path, capsys, dims):
        images, labels = write_idx_header_fixture(tmp_path, *dims)
        fields = mnist_fields(tmp_path, images=images, labels=labels)
        assert main(["train", write_config(tmp_path / "c.cfg", **fields)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_model_too_large_for_memory_is_config_error(self, tmp_path,
                                                         capsys, monkeypatch):
        # 65536x65536 hidden modes ask for a 96 GiB core; whether the host
        # refuses that at once depends on its overcommit policy, so the
        # allocation failure is simulated rather than provoked.
        def refuse(cls, spec, rng):
            raise MemoryError("Unable to allocate 96.0 GiB")
        monkeypatch.setattr(TTMatrix, "glorot", classmethod(refuse))
        fields = mnist_fields(tmp_path, parameterization="tt", hidden=0,
                              hidden_modes="65536x65536", input_modes="4x8",
                              rank=3, proj=32, epochs=0)
        assert main(["train", write_config(tmp_path / "c.cfg", **fields)]) == 1
        out, err = capsys.readouterr()
        assert err == ("config error: the configured model does not fit in "
                       "memory: Unable to allocate 96.0 GiB\n")
        assert "Traceback" not in err and out == ""

    def test_label_out_of_range_names_file_and_offset(self, tmp_path, capsys):
        fields = mnist_fields(tmp_path)
        raw = bytearray(Path(fields["labels"]).read_bytes())
        raw[8 + 5] = 12
        Path(fields["labels"]).write_bytes(bytes(raw))
        assert main(["train", write_config(tmp_path / "c.cfg", **fields)]) == 2
        out, err = capsys.readouterr()
        assert err == (f"data error: {fields['labels']}: label 12 at offset 13 "
                       f"outside [0, 10)\n")
        assert not parse_runlog(tmp_path / "run" / "run.log")

    @pytest.mark.parametrize("task", ["mnist-row", "mnist-pixel",
                                      "mnist-permuted"])
    def test_images_not_28x28_name_their_file(self, tmp_path, capsys, task):
        small = striped_images(30, seed=2, classes=4)
        images, labels = str(tmp_path / "i20.idx"), str(tmp_path / "l20.idx")
        write_idx(images, labels,
                  ImageDataset(small.images[:, :20, :20], small.labels))
        fields = mnist_fields(tmp_path, task=task, images=images,
                              labels=labels, val_count=10)
        assert main(["train", write_config(tmp_path / "c.cfg", **fields)]) == 2
        out, err = capsys.readouterr()
        assert err == (f"data error: {images}: images are 20x20, mnist tasks "
                       f"need 28x28\n")
        assert not parse_runlog(tmp_path / "run" / "run.log")

    def test_undecodable_pianoroll_is_exit_2(self, tmp_path, capsys):
        train = tmp_path / "tr.txt"
        train.write_bytes(b"60\n61 \xff\n")
        cfg = write_config(tmp_path / "p.cfg", task="pianoroll", model="srnn",
                           parameterization="dense", hidden=4,
                           hidden_modes="none", input_modes="none", proj=0,
                           train_path=str(train), val_path=str(train),
                           out_dir=str(tmp_path / "run"))
        assert main(["train", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert "byte 0xff at offset 6" in err

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"# caf\xe9 au lait\nepochs = 0\n")
        assert main(["train", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "byte 0xe9 at offset 5" in err

    def test_numeric_abort_exit_code(self, tmp_path, capsys):
        fields = mnist_fields(tmp_path, lr="1e308", epochs=1)
        cfg = write_config(tmp_path / "c.cfg", **fields)
        with np.errstate(all="ignore"):
            assert main(["train", cfg]) == 3
        assert "numeric error" in capsys.readouterr().err


class TestTrainCommand:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **mnist_fields(tmp_path))
        assert main(["train", cfg]) == 0
        out = capsys.readouterr().out
        assert "cell params:" in out
        assert "epoch=1" in out
        assert (tmp_path / "run" / "best.ttcp").exists()

    def test_overrides_recorded_in_resolved_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **mnist_fields(tmp_path))
        out_dir = tmp_path / "other"
        assert main(["train", cfg, "--seed", "77", "--epochs", "1",
                     "--out", str(out_dir)]) == 0
        resolved = parse_kv((out_dir / "config.resolved").read_text())
        assert resolved["seed_init"] == "77"
        assert resolved["epochs"] == "1"
        assert resolved["out_dir"] == str(out_dir)
        assert len(parse_runlog(out_dir / "run.log")) == 1

    def test_epochs_zero_logs_tt_gru_count(self, tmp_path, capsys):
        fields = mnist_fields(tmp_path, model="gru", parameterization="tt",
                              hidden=100, hidden_modes="10x10",
                              input_modes="4x8", proj=32, rank=3, epochs=0)
        cfg = write_config(tmp_path / "c.cfg", **fields)
        assert main(["train", cfg]) == 0
        out = capsys.readouterr().out
        assert "cell params: 3180" in out
        assert "epoch=" not in out
        assert "cell params: 3180" in (tmp_path / "run" / "run.log").read_text()

    def test_two_runs_identical_numeric_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", **mnist_fields(tmp_path))
        assert main(["train", cfg]) == 0
        assert main(["train", cfg]) == 0
        rows = [{k: v for k, v in rec.items() if k != "wall_s"}
                for rec in parse_runlog(tmp_path / "run" / "run.log")]
        assert len(rows) == 4
        assert rows[:2] == rows[2:]


class TestEvalCommand:
    def _train(self, tmp_path, capsys, **overrides):
        fields = mnist_fields(tmp_path, **overrides)
        cfg = write_config(tmp_path / "c.cfg", **fields)
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        return cfg

    def test_matches_final_validation_record(self, tmp_path, capsys):
        self._train(tmp_path, capsys)
        last = str(tmp_path / "run" / "last.ttcp")
        assert main(["eval", last]) == 0
        out = capsys.readouterr().out
        fields = dict(tok.split("=", 1) for line in out.splitlines()
                      if not line.startswith("#") for tok in line.split())
        final = parse_runlog(tmp_path / "run" / "run.log")[-1]
        assert fields["loss"] == final["val_loss"]
        assert fields["accuracy"] == final["val_metric"]
        assert fields["split"] == "val"
        assert fields["items"] == "20"

    def test_explicit_config_and_test_split(self, tmp_path, capsys):
        test_i, test_l = write_idx_fixture(tmp_path, 12, seed=9, classes=4)
        self._train(tmp_path, capsys, test_images=test_i, test_labels=test_l)
        best = str(tmp_path / "run" / "best.ttcp")
        assert main(["eval", best, "--config", str(tmp_path / "c.cfg"),
                     "--split", "test"]) == 0
        out = capsys.readouterr().out
        assert "items=12" in out

    def test_shape_mismatch_is_exit_2(self, tmp_path, capsys):
        self._train(tmp_path, capsys)
        other = write_config(tmp_path / "big.cfg",
                             **mnist_fields(tmp_path, hidden=16))
        best = str(tmp_path / "run" / "best.ttcp")
        assert main(["eval", best, "--config", other]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_spare_record_is_exit_2(self, tmp_path, capsys):
        # A 28-wide projection keeps every cell shape of the unprojected
        # model, so only the projection's records are left over.
        self._train(tmp_path, capsys, proj=28)
        other = write_config(tmp_path / "noproj.cfg",
                             **mnist_fields(tmp_path, proj=0))
        best = str(tmp_path / "run" / "best.ttcp")
        assert main(["eval", best, "--config", other]) == 2
        captured = capsys.readouterr()
        assert "spare record 'map:proj.weight'" in captured.err
        assert captured.out == ""

    def test_prediction_metrics_printed(self, tmp_path, capsys):
        train = write_pianoroll_fixture(tmp_path, 6, 24, name="tr.txt")
        val = write_pianoroll_fixture(tmp_path, 2, 24, name="va.txt")
        cfg = write_config(tmp_path / "p.cfg", task="pianoroll", model="srnn",
                           parameterization="tt", hidden=0, hidden_modes="4x4",
                           input_modes="4x4", proj=16, rank=2, batch_size=3,
                           epochs=1, lr="0.01", train_path=train, val_path=val,
                           out_dir=str(tmp_path / "run"))
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "last.ttcp")]) == 0
        out = capsys.readouterr().out
        assert "nll=" in out and "acc=" in out and "frames=" in out

    def test_val_split_needs_no_train_file(self, tmp_path, capsys):
        train = write_pianoroll_fixture(tmp_path, 6, 24, name="tr.txt")
        val = write_pianoroll_fixture(tmp_path, 2, 24, name="va.txt")
        cfg = write_config(tmp_path / "p.cfg", task="pianoroll", model="srnn",
                           parameterization="tt", hidden=0, hidden_modes="4x4",
                           input_modes="4x4", proj=16, rank=2, batch_size=3,
                           epochs=1, lr="0.01", train_path=train, val_path=val,
                           out_dir=str(tmp_path / "run"))
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        last = str(tmp_path / "run" / "last.ttcp")
        assert main(["eval", last]) == 0
        want = capsys.readouterr().out
        (tmp_path / "tr.txt").unlink()
        assert main(["eval", last]) == 0
        assert capsys.readouterr().out == want

    def test_incompatible_error_names_the_file(self, tmp_path, capsys):
        self._train(tmp_path, capsys)
        other = write_config(tmp_path / "big.cfg",
                             **mnist_fields(tmp_path, hidden=16))
        best = str(tmp_path / "run" / "best.ttcp")
        assert main(["eval", best, "--config", other]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"data error: {best}: checkpoint incompatible: ")

    def test_corrupt_optimizer_record_is_exit_2(self, tmp_path, capsys):
        self._train(tmp_path, capsys)
        bad = corrupt_optimizer_record(tmp_path / "run" / "best.ttcp")
        assert main(["eval", bad]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"data error: {bad}: record 'opt:m.proj.weight': "
                       f"implausible ndim 99\n")

    def test_untrained_model_scores_chance(self, tmp_path, capsys):
        # Labels are independent of the pixels, so any fixed predictor is a
        # binomial draw around 1/10; 0.03 is 4.5 standard errors at n=2000.
        images, labels = write_noise_idx_fixture(tmp_path, 2050, seed=4)
        cfg = write_config(tmp_path / "n.cfg", task="mnist-row", model="gru",
                           parameterization="dense", hidden=16,
                           hidden_modes="none", input_modes="none", proj=8,
                           epochs=0, val_count=2000, images=images,
                           labels=labels, out_dir=str(tmp_path / "run"))
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "best.ttcp")]) == 0
        out = capsys.readouterr().out
        fields = dict(tok.split("=", 1) for line in out.splitlines()
                      if not line.startswith("#") for tok in line.split())
        assert fields["items"] == "2000"
        assert abs(float(fields["accuracy"]) - 0.1) < 0.03

    @pytest.mark.parametrize("text, detail", [
        ("task mnist-row\n", ":1: expected 'key = value'"),
        ("task = chess\n", ": field task: must be one of"),
    ], ids=["unparsable-line", "bad-field"])
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_embedded_config_errors_name_the_checkpoint(self, tmp_path, capsys,
                                                        command, text, detail):
        cfg = TrainConfig.from_file(write_config(tmp_path / "c.cfg",
                                                 **mnist_fields(tmp_path)))
        path = tmp_path / "bad-config.ttcp"
        save_checkpoint(path, build_model(cfg, np.random.default_rng(0)), text)
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {path}: embedded config{detail}")
        assert out == ""

    def test_zeroed_predictor_matches_closed_forms(self, tmp_path, capsys):
        # All-zero weights emit logit 0, probability one half per note:
        # per-frame NLL is 88*ln 2 and nothing fires, so TP=0 and acc=0.
        train = write_pianoroll_fixture(tmp_path, 6, 24, name="tr.txt")
        val = write_pianoroll_fixture(tmp_path, 3, 24, name="va.txt")
        text = (f"task = pianoroll\nmodel = srnn\nparameterization = dense\n"
                f"hidden = 12\nhidden_modes = none\ninput_modes = none\n"
                f"proj = 16\ntrain_path = {train}\nval_path = {val}\n")
        cfg = TrainConfig.from_dict(parse_kv(text, "z.cfg"))
        cfg.validate()
        model = build_model(cfg, np.random.default_rng(cfg.seed_init))
        for arr in model.params().values():
            arr[...] = 0.0
        ckpt = tmp_path / "zero.ttcp"
        save_checkpoint(ckpt, model, config_text=cfg.to_text())
        assert main(["eval", str(ckpt)]) == 0
        out = capsys.readouterr().out
        fields = dict(tok.split("=", 1) for line in out.splitlines()
                      if not line.startswith("#") for tok in line.split())
        assert abs(float(fields["nll"]) - 88.0 * math.log(2.0)) < 1e-9
        assert float(fields["acc"]) == 0.0
        assert fields["frames"] == str(3 * 23)


class TestInspectCommand:
    def demo_config(self, tmp_path, name="demo.cfg", **overrides):
        """An epochs-0 config shaped like configs/inspect-demo.cfg."""
        fields = dict(task="pianoroll", model="srnn", parameterization="tt",
                      hidden=0, hidden_modes="8x4x8x4",
                      input_modes="4x4x4x4", proj=256, rank=5,
                      baseline_hidden=512, epochs=0,
                      out_dir=str(tmp_path / "demo"))
        fields.update(overrides)
        return write_config(tmp_path / name, **fields)

    def test_published_tt_cell_counts(self, tmp_path, capsys):
        assert main(["train", self.demo_config(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "demo" / "best.ttcp")]) == 0
        out = capsys.readouterr().out
        assert "cell params: 4864" in out
        assert "compression ratio: 80.95" in out
        assert "map:cell.wx: tt modes 8x4x8x4 by 4x4x4x4 ranks 1-5-5-5-1" in out

    def test_each_tt_map_shows_its_plan(self, tmp_path, capsys):
        # inspect-demo's 1024-wide maps keep the sweep ...
        assert main(["train", self.demo_config(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "demo" / "best.ttcp")]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("map:cell.")]
        assert len(lines) == 2
        assert all(ln.endswith(" plan sweep") for ln in lines)
        # The non-square wx sweeps right to left, the square wh left to right.
        assert [ln.split(":")[1] for ln in lines if " order rtl " in ln] == ["cell.wx"]
        assert [ln.split(":")[1] for ln in lines if " order ltr " in ln] == ["cell.wh"]
        # ... and the mnist-row-ttgru cell's maps are materialized.
        fields = mnist_fields(tmp_path, model="gru", parameterization="tt",
                              hidden=100, hidden_modes="10x10", input_modes="4x8",
                              proj=32, rank=3, epochs=0)
        cfg = write_config(tmp_path / "row.cfg", **fields)
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "run" / "best.ttcp")]) == 0
        out = capsys.readouterr().out
        assert ("map:cell.whh: tt modes 10x10 by 10x10 ranks 1-3-1 params 600 "
                "order ltr plan dense") in out
        assert sum(ln.endswith(" plan dense") for ln in out.splitlines()) == 6
        assert sum(ln.endswith(" order rtl plan dense") for ln in out.splitlines()) == 3

    def test_dense_ratio_is_one(self, tmp_path, capsys):
        fields = mnist_fields(tmp_path, epochs=0)
        cfg = write_config(tmp_path / "c.cfg", **fields)
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "run" / "best.ttcp")]) == 0
        assert "compression ratio: 1.00" in capsys.readouterr().out

    def test_single_core_degenerates_to_dense_count(self, tmp_path, capsys):
        fields = mnist_fields(tmp_path, parameterization="tt", hidden=32,
                              hidden_modes="32", input_modes="32", proj=32,
                              rank=3, epochs=0)
        cfg = write_config(tmp_path / "c.cfg", **fields)
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "run" / "best.ttcp")]) == 0
        out = capsys.readouterr().out
        # 32*32 + 32*32 + 32 = a dense srnn cell of the same size.
        assert "cell params: 2080" in out
        assert "compression ratio: 1.00" in out
        # One core has no internal rank, so the report shows 1 whatever the
        # config's rank.
        assert "tt: hidden modes 32, input modes 32, rank 1" in out

    def test_config_the_records_do_not_fit_is_exit_2(self, tmp_path, capsys):
        # Same cell parameter count (4864) under swapped hidden modes: the
        # embedded config describes maps the file does not hold.
        cfg = TrainConfig.from_file(self.demo_config(tmp_path))
        model = build_model(cfg, np.random.default_rng(0))
        other = TrainConfig.from_file(
            self.demo_config(tmp_path, "other.cfg", hidden_modes="4x8x4x8"))
        path = tmp_path / "swapped.ttcp"
        save_checkpoint(path, model, other.to_text())
        assert main(["inspect", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("data error:") and "map:cell.wx" in err
        assert err.startswith(f"data error: {path}: checkpoint incompatible: "
                              f"map:cell.wx has spec ")

    def test_corrupt_optimizer_record_is_exit_2(self, tmp_path, capsys):
        cfg = TrainConfig.from_file(self.demo_config(tmp_path))
        model = build_model(cfg, np.random.default_rng(0))
        path = tmp_path / "opt.ttcp"
        save_checkpoint(path, model, cfg.to_text(),
                        optimizer=Adam(model.params()), meta={"epoch": 1})
        assert main(["inspect", str(path)]) == 0
        assert "optimizer state: " in capsys.readouterr().out
        corrupt_optimizer_record(path)
        assert main(["inspect", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"data error: {path}: record 'opt:m.proj.weight': "
                       f"implausible ndim 99\n")

    def test_without_config_lists_records_only(self, tmp_path, capsys):
        cfg = TrainConfig.from_file(self.demo_config(tmp_path))
        path = tmp_path / "bare.ttcp"
        save_checkpoint(path, build_model(cfg, np.random.default_rng(0)))
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("map:cell.wx: tt modes 8x4x8x4 by 4x4x4x4 ranks 1-5-5-5-1 "
                "params 1440 order rtl plan sweep") in out
        assert "config hash" not in out and "cell params" not in out

    def test_corrupt_checkpoint_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttcp"
        bad.write_bytes(b"garbage that is not a checkpoint")
        assert main(["inspect", str(bad)]) == 2
        assert f"data error: {bad}: bad magic" in capsys.readouterr().err

    @pytest.mark.parametrize("shape,data", [((-1, -1), [1.0]),
                                            ((2 ** 32, 2 ** 32), [])],
                             ids=["negative", "wrapping"])
    def test_malformed_array_shape_is_exit_2(self, tmp_path, capsys, shape,
                                             data):
        bad = write_array_record_checkpoint(tmp_path / "bad.ttcp", shape, data)
        assert main(["inspect", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("config,name,payload,length,copies", [
        (b"", "arr:x", b"abc", 2 ** 40, 1),
        (b"\xff\xfe", "arr:x", struct.pack("<qqd", 1, 1, 1.0), None, 1),
        (b"", "meta:epoch", struct.pack("<qq", 1, 0), None, 1),
        (b"", "arr:x", struct.pack("<qqd", 1, 1, 1.0), None, 2),
    ], ids=["record-length-2^40", "undecodable-config-text",
            "empty-meta-scalar", "repeated-record-name"])
    def test_malformed_container_is_exit_2(self, tmp_path, capsys, config,
                                           name, payload, length, copies):
        bad = write_one_record_checkpoint(tmp_path / "bad.ttcp", name,
                                          KIND_ARRAY, payload, config, length,
                                          copies)
        assert main(["inspect", bad]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error:") and "Traceback" not in err
        assert out == ""

    def test_oversized_tt_core_is_exit_2(self, tmp_path, capsys):
        bad = write_ttmap_header_checkpoint(tmp_path / "bad.ttcp",
                                            (2 ** 62,), (1,), (1, 1))
        assert main(["inspect", bad]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error:") and "Traceback" not in err
        assert f"{bad}: record 'map:cell.wx'" in err
        assert out == ""


class TestBenchCommand:
    def test_sweep_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", family="tt", sizes="64,256",
                           rank=2, max_mode=8, batch=2)
        out_file = tmp_path / "report.txt"
        assert main(["bench", cfg, "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("family=")]
        assert len(lines) == 2
        assert "family=tt M=64 N=64" in lines[0]
        assert out_file.read_text().strip().splitlines()[1:] == lines

    def test_prints_blas_threads_outside_the_report(self, tmp_path, capsys,
                                                    monkeypatch):
        cfg = write_config(tmp_path / "b.cfg", family="dense", sizes="64",
                           batch=2)
        out_file = tmp_path / "report.txt"
        assert main(["bench", cfg, "--out", str(out_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"# blas threads {bench.sweep_blas_threads()}" in out
        assert "blas" not in out_file.read_text()
        monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
        assert main(["bench", cfg]) == 0
        assert "# blas threads unknown" in capsys.readouterr().out.splitlines()

    def test_three_point_sweep_appends_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", family="tt", sizes="64,128,256",
                           rank=2, max_mode=8, batch=2)
        assert main(["bench", cfg]) == 0
        out = capsys.readouterr().out
        assert any(l.startswith("fit family=tt slope=") for l in out.splitlines())

    def test_malformed_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", family="quantum", sizes="64")
        assert main(["bench", cfg]) == 1
        assert "family" in capsys.readouterr().err

    def test_protocol_floor_enforced(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", sizes="64", reps=5)
        assert main(["bench", cfg]) == 1

    @pytest.mark.parametrize("fields", [
        {"family": "tt", "sizes": "64,1031"},
        {"family": "both", "sizes": "64", "max_mode": "1"},
        {"family": "both", "sizes": "64,16384"},
    ], ids=["prime-above-max-mode", "max-mode-below-2", "dense-over-budget"])
    def test_bad_grid_fails_before_any_timing(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path / "b.cfg", batch=2, **fields)
        assert main(["bench", cfg]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("config error: field ") and out == ""

    def test_unknown_bench_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.cfg", sizzes="64")
        assert main(["bench", cfg]) == 1
        assert "sizzes" in capsys.readouterr().err


class TestEntryPoint:
    @staticmethod
    def env():
        # The child imports the ttrnn under test, installed or not.
        src = str(Path(ttrnn.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ttrnn", "inspect",
             str(tmp_path / "missing.ttcp")],
            capture_output=True, text=True, env=self.env())
        assert result.returncode == 2
        assert "data error" in result.stderr

    def test_help_exits_zero(self):
        result = subprocess.run([sys.executable, "-m", "ttrnn", "--help"],
                                capture_output=True, text=True, env=self.env())
        assert result.returncode == 0
        assert "train" in result.stdout and "bench" in result.stdout
