import importlib.util
import io
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from ttrnn.checkpoint import (
    KIND_ARRAY,
    KIND_TTMAP,
    MAGIC,
    _map_payload,
    _parse_map,
    load_checkpoint,
    load_into_model,
    load_optimizer,
    read_checkpoint,
    save_checkpoint,
)
from ttrnn.cli import main
from ttrnn.errors import FormatError, ShapeError
from ttrnn.linear import TTLinear
from ttrnn.models import build_classifier, build_predictor
from ttrnn.optim import Adam
from ttrnn.ttmatrix import TTMatrix, TTSpec
from synthdata import write_array_record_checkpoint, write_one_record_checkpoint


def tt_classifier(seed=0, rank=2, classes=3):
    rng = np.random.default_rng(seed)
    return build_classifier(5, classes, "gru", 6, rng, proj_dim=4,
                            in_modes=(2, 2), hidden_modes=(2, 3), rank=rank)


def dense_predictor(seed=0):
    rng = np.random.default_rng(seed)
    return build_predictor(4, "srnn", 6, rng, proj_dim=None)


def params_equal(a, b):
    pa, pb = a.params(), b.params()
    assert set(pa) == set(pb)
    return all(np.array_equal(pa[k], pb[k]) for k in pa)


class TestRoundTrip:
    def test_model_states_restore_exactly(self, tmp_path):
        src = tt_classifier(seed=1)
        path = tmp_path / "model.ttcp"
        save_checkpoint(path, src, config_text="k = v\n")
        dst = tt_classifier(seed=2)
        assert not params_equal(src, dst)
        meta = load_checkpoint(path, dst)
        assert params_equal(src, dst)
        assert meta == {}

    def test_dense_model_round_trip(self, tmp_path):
        src = dense_predictor(seed=3)
        path = tmp_path / "model.ttcp"
        save_checkpoint(path, src)
        dst = dense_predictor(seed=4)
        load_checkpoint(path, dst)
        assert params_equal(src, dst)

    def test_config_text_stored(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model, config_text="alpha = 1\n")
        assert read_checkpoint(path).config_text == "alpha = 1\n"

    def test_meta_round_trip(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model, meta={"epoch": 7, "val_loss": 0.25})
        meta = read_checkpoint(path).meta()
        assert meta == {"epoch": 7.0, "val_loss": 0.25}

    def test_record_names_follow_param_prefixes(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model)
        names = set(read_checkpoint(path).records)
        # TT maps one record each; dense maps split into weight/bias arrays.
        assert "map:cell.wxh" in names
        assert "arr:cell.bias_h" in names
        assert "map:proj.weight" in names
        assert "map:head.bias" in names


class TestOptimizerState:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        def loss_step(model, opt, rng):
            x = rng.normal(size=(3, 2, 5))
            mask = np.ones((3, 2))
            labels = np.array([0, 2])
            model.zero_grads()
            model.loss_and_grads(x, mask, labels)
            opt.step(model.grads())

        # Straight-through run: 6 steps.
        a = tt_classifier(seed=5)
        opt_a = Adam(a.params(), lr=0.01)
        rng = np.random.default_rng(11)
        for _ in range(6):
            loss_step(a, opt_a, rng)

        # Same run, checkpointed at step 3 and resumed in fresh objects.
        b = tt_classifier(seed=5)
        opt_b = Adam(b.params(), lr=0.01)
        rng = np.random.default_rng(11)
        for _ in range(3):
            loss_step(b, opt_b, rng)
        path = tmp_path / "mid.ttcp"
        save_checkpoint(path, b, optimizer=opt_b)

        c = tt_classifier(seed=99)
        opt_c = Adam(c.params(), lr=0.01)
        load_checkpoint(path, c, optimizer=opt_c)
        for _ in range(3):
            loss_step(c, opt_c, rng)
        assert params_equal(a, c)

    def test_missing_optimizer_state_rejected(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model)  # no optimizer records
        opt = Adam(model.params())
        with pytest.raises(ShapeError, match="optimizer"):
            load_optimizer(read_checkpoint(path), opt)


class TestCompatibility:
    def test_rank_mismatch(self, tmp_path):
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, tt_classifier(rank=2))
        with pytest.raises(ShapeError, match="incompatible"):
            load_checkpoint(path, tt_classifier(rank=3))

    def test_parameterization_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = build_classifier(5, 3, "gru", 6, rng, proj_dim=4)
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, dense)
        with pytest.raises(ShapeError, match="incompatible"):
            load_checkpoint(path, tt_classifier())

    def test_shape_mismatch_in_dense_map(self, tmp_path):
        rng = np.random.default_rng(0)
        small = build_predictor(4, "srnn", 6, rng)
        big = build_predictor(4, "srnn", 8, rng)
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, small)
        with pytest.raises(ShapeError, match="incompatible"):
            load_checkpoint(path, big)

    @pytest.mark.parametrize("spare,like", [("arr:cell.extra", "arr:cell.bias_h"),
                                            ("map:spare.weight", "map:head.weight")])
    def test_spare_record_rejected(self, tmp_path, spare, like):
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, tt_classifier(seed=1))
        ckpt = read_checkpoint(path)
        ckpt.records[spare] = ckpt.records[like]
        model = tt_classifier()
        with pytest.raises(ShapeError, match=f"spare record '{spare}'"):
            load_into_model(ckpt, model)
        # Every model record passed its checks, but none was copied.
        assert params_equal(model, tt_classifier())

    def test_missing_record(self, tmp_path):
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, tt_classifier(seed=1))
        ckpt = read_checkpoint(path)
        del ckpt.records["arr:cell.bias_h"]
        model = tt_classifier()
        with pytest.raises(ShapeError, match="bias_h"):
            load_into_model(ckpt, model)
        assert params_equal(model, tt_classifier())


@pytest.mark.parametrize("edit,model,message", [
    (None, lambda: tt_classifier(rank=3), r"map:cell\.wxr has spec "),
    (lambda c: c.records.pop("arr:cell.bias_h"), tt_classifier,
     "missing record 'arr:cell.bias_h'"),
    (lambda c: c.records.update({"arr:x": c.records["arr:cell.bias_h"]}),
     tt_classifier, "spare record 'arr:x'"),
    (None, lambda: tt_classifier(classes=4), r"map:head\.weight has shape "),
], ids=["spec", "missing", "spare", "shape"])
def test_load_errors_name_the_file(tmp_path, edit, model, message):
    path = tmp_path / "m.ttcp"
    save_checkpoint(path, tt_classifier())
    ckpt = read_checkpoint(path)
    if edit is not None:
        edit(ckpt)
    prefix = f"^{re.escape(str(path))}: checkpoint incompatible: "
    with pytest.raises(ShapeError, match=prefix + message):
        load_into_model(ckpt, model())
    with pytest.raises(ShapeError, match=prefix + "no optimizer state"):
        load_optimizer(ckpt, Adam(tt_classifier().params()))


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttcp"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: bad magic"):
            read_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) - 9])
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.ttcp"
        path.write_bytes(MAGIC + struct.pack("<q", 9))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: unsupported .* version"):
            read_checkpoint(path)

    def test_record_kind_guard(self, tmp_path):
        model = tt_classifier()
        path = tmp_path / "m.ttcp"
        save_checkpoint(path, model)
        ckpt = read_checkpoint(path)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .* not a TT map"):
            ckpt.ttmap("arr:cell.bias_h")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .* not an array"):
            ckpt.array("map:cell.wxh")


    @pytest.mark.parametrize("shape,data", [((-1, -1), [1.0]),
                                            ((2 ** 32, 2 ** 32), [])],
                             ids=["negative", "wrapping"])
    def test_malformed_array_shape(self, tmp_path, shape, data):
        # (-1, -1) made an element count of 1 and reached reshape;
        # (2^32, 2^32) wrapped an int64 element count to 0 and did too.
        # Every record is parsed as the file is read.
        path = write_array_record_checkpoint(tmp_path / "bad.ttcp", shape, data)
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: record "
                                              f"'arr:cell.bias'"):
            read_checkpoint(path)

    def test_repeated_record_name(self, tmp_path):
        payload = struct.pack("<qqd", 1, 1, 1.0)
        path = write_one_record_checkpoint(tmp_path / "dup.ttcp", "arr:x",
                                           KIND_ARRAY, payload, copies=2)
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: record "
                                              f"'arr:x': name repeated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("shape,data", [((0,), []), ((2,), [1.0, 2.0])],
                             ids=["empty", "two-values"])
    def test_meta_record_holds_one_value(self, tmp_path, shape, data):
        path = write_array_record_checkpoint(tmp_path / "bad.ttcp", shape, data,
                                             name="meta:epoch")
        with pytest.raises(FormatError, match="meta:epoch"):
            read_checkpoint(path).meta()


def random_map(out_modes, in_modes, ranks, seed=0) -> TTLinear:
    spec = TTSpec(out_modes, in_modes, ranks)
    rng = np.random.default_rng(seed)
    return TTLinear(TTMatrix(spec, [rng.standard_normal(spec.core_shape(k))
                                    for k in range(spec.ndim)]))


class TestSerialization:
    """The TTM1 blob of a kind-1 record: ``_map_payload`` and ``_parse_map``."""

    def test_round_trip(self):
        lm = random_map((3, 4, 2), (2, 5, 3), (1, 2, 3, 1), seed=9)
        back = _parse_map(_map_payload(lm), "buf")
        assert back.spec == lm.tt.spec
        for ga, gb in zip(back.cores, lm.tt.cores):
            np.testing.assert_array_equal(ga, gb)

    def test_header_layout(self):
        # Fixed layout: magic, then little-endian int64 d, out modes, in
        # modes, ranks, bias flag (always 0), then float64 core payloads.
        spec = TTSpec((2,), (3,), (1, 1))
        raw = _map_payload(TTLinear(TTMatrix(spec, [np.arange(6.0).reshape(2, 3, 1, 1)])))
        assert raw[:4] == b"TTM1"
        header = np.frombuffer(raw[4:4 + 8 * 6], dtype="<i8")
        np.testing.assert_array_equal(header, [1, 2, 3, 1, 1, 0])
        payload = np.frombuffer(raw[4 + 8 * 6:], dtype="<f8")
        np.testing.assert_array_equal(payload, np.arange(6.0))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            _parse_map(b"TTMX" + b"\x00" * 64, "buf")

    def test_truncated(self):
        raw = _map_payload(random_map((2, 3), (4, 5), (1, 2, 1)))
        for cut in [2, 8, 40, len(raw) - 8]:
            with pytest.raises(FormatError):
                _parse_map(raw[:cut], "buf")

    def test_oversized_core_is_format_error(self):
        # Mode 2**62 passes TTSpec, but the core's 8 * 2**62 bytes do not
        # fit an index.
        raw = b"TTM1" + struct.pack("<6q", 1, 2 ** 62, 1, 1, 1, 0)
        with pytest.raises(FormatError, match="core 0"):
            _parse_map(raw, "buf")

    def test_trailing_bytes(self):
        raw = _map_payload(random_map((2, 3), (4, 5), (1, 2, 1)))
        with pytest.raises(FormatError):
            _parse_map(raw + b"\x00", "buf")

    def test_invalid_header_fields(self):
        raw = bytearray(_map_payload(random_map((2, 3), (4, 5), (1, 2, 1))))
        # Corrupt the first rank field (must be 1).
        raw[4 + 8 * 5:4 + 8 * 6] = (7).to_bytes(8, "little", signed=True)
        with pytest.raises(FormatError):
            _parse_map(bytes(raw), "buf")

    def test_flagged_record_is_format_error(self, tmp_path, capsys):
        # A blob with the bias flag set and a bias after its cores, the
        # layout a TT map's own bias once had: a data error naming the
        # record, from the reader and from inspect alike (exit 2).
        lm = random_map((2, 3), (4, 5), (1, 2, 1))
        raw = bytearray(_map_payload(lm))
        flag = 4 + 8 * (3 * lm.tt.spec.ndim + 2)
        raw[flag:flag + 8] = struct.pack("<q", 1)
        payload = bytes(raw) + np.ones(lm.out_dim).tobytes()
        with pytest.raises(FormatError, match="^buf: bias flag must be 0, got 1"):
            _parse_map(payload, "buf")
        path = write_one_record_checkpoint(tmp_path / "flagged.ttcp", "map:cell.wx",
                                           KIND_TTMAP, payload)
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: record "
                                              f"'map:cell.wx': bias flag"):
            read_checkpoint(path)
        assert main(["inspect", path]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error:") and "Traceback" not in err
        assert f"{path}: record 'map:cell.wx': bias flag" in err
        assert out == ""


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import ttrnn.checkpoint as C

        path = tmp_path / "best.ttcp"
        save_checkpoint(path, tt_classifier(seed=0), config_text="k = v\n")
        before = path.read_bytes()

        real_write_str = C._write_str
        calls = []

        def failing_write_str(fh, text):
            calls.append(text)
            if len(calls) == 3:  # header and first record already written
                raise OSError("disk full")
            real_write_str(fh, text)

        monkeypatch.setattr(C, "_write_str", failing_write_str)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, tt_classifier(seed=1), config_text="k = w\n")

        assert path.read_bytes() == before
        assert read_checkpoint(path).config_text == "k = v\n"
        restored = tt_classifier(seed=5)
        load_into_model(read_checkpoint(path), restored)
        assert params_equal(restored, tt_classifier(seed=0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ttcp"]


DATA = Path(__file__).parent / "data"


def load_fixture_module():
    spec = importlib.util.spec_from_file_location(
        "make_parent_fixtures", DATA / "make_parent_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tt_maps(model):
    return [m for m in model.named_maps().values() if isinstance(m, TTLinear)]


class TestParentCheckpoints:
    """Checkpoints written before sweep directions and the zero-state step
    (see ``tests/data/make_parent_fixtures.py``) load, evaluate and train
    to within rounding of what their writer computed."""

    @pytest.mark.parametrize("name", ["gru-sweep", "srnn-dense"])
    def test_loads_and_evaluates_within_rounding(self, name, tmp_path):
        fixtures = load_fixture_module()
        path = DATA / f"{name}.ttcp"
        model = fixtures.build(name, 0)
        load_checkpoint(path, model)
        assert any(m.tt.spec.right_to_left for m in tt_maps(model))
        # The TTM1 records keep the (m, n, r_prev, r_next) core layout:
        # saving the loaded model writes the same bytes.
        again = tmp_path / "again.ttcp"
        save_checkpoint(again, model)
        assert again.read_bytes() == path.read_bytes()
        want = np.load(DATA / f"{name}.npz")

        def assert_within_rounding(got, key):
            # Relative to the array's largest entry; measured <= 1.9e-15.
            bound = 1e-13 * np.abs(want[key]).max()
            np.testing.assert_allclose(got, want[key], rtol=0, atol=bound,
                                       err_msg=key)

        x_seq, mask, targets = fixtures.batch(name)
        assert_within_rounding(model.forward(x_seq, mask), "forward")
        model.zero_grads()
        loss, _ = model.loss_and_grads(x_seq, mask, targets)
        assert_within_rounding(loss, "loss")
        for key, g in model.grads().items():
            assert_within_rounding(g, f"grad:{key}")
