from pathlib import Path

import pytest

from ttrnn.config import BenchConfig, TrainConfig, parse_kv
from ttrnn.errors import ConfigError


class TestParseKV:
    def test_basic(self):
        text = "a = 1\nb = hello world\n"
        assert parse_kv(text) == {"a": "1", "b": "hello world"}

    def test_comments_and_blanks(self):
        text = "# header\n\na = 1  # trailing\n   \n# more\nb = 2\n"
        assert parse_kv(text) == {"a": "1", "b": "2"}

    def test_later_key_wins(self):
        assert parse_kv("a = 1\na = 2\n") == {"a": "2"}

    def test_no_equals_is_an_error_with_line_number(self):
        with pytest.raises(ConfigError, match="cfg:3"):
            parse_kv("a = 1\n\njust words\n", source="cfg")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv("= 5\n")

    def test_value_may_contain_equals(self):
        assert parse_kv("a = x=y\n") == {"a": "x=y"}


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig.from_dict({})
        assert cfg.task == "mnist-row"
        assert cfg.hidden == 100
        assert cfg.hidden_modes == (10, 10)
        assert cfg.seed_permutation == 8888

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="lerning_rate"):
            TrainConfig.from_dict({"lerning_rate": "0.1"})

    def test_bad_int_named(self):
        with pytest.raises(ConfigError, match="field epochs"):
            TrainConfig.from_dict({"epochs": "three"})

    def test_bad_bool_named(self):
        with pytest.raises(ConfigError, match="field early_stop"):
            TrainConfig.from_dict({"early_stop": "yes"})

    def test_early_stop_needs_patience(self):
        # With patience 0 every epoch, even one that improved, would stop.
        with pytest.raises(ConfigError,
                           match="field patience: must be >= 1 when early_stop is true"):
            TrainConfig.from_dict({"early_stop": "true", "patience": "0"})
        assert TrainConfig.from_dict({"early_stop": "true", "patience": "1"}).patience == 1
        assert TrainConfig.from_dict({"patience": "0"}).patience == 0

    @pytest.mark.parametrize("name, value", [
        ("lr", "-0.001"), ("lr", "0"), ("lr", "nan"), ("lr", "inf"),
        ("beta1", "1.0"), ("beta1", "-0.1"), ("beta1", "nan"),
        ("beta2", "2"), ("beta2", "1.0"),
        ("eps", "0"), ("eps", "-1e-8"), ("eps", "inf"),
        ("clip_norm", "-5"), ("clip_norm", "inf"), ("clip_norm", "nan"),
    ])
    def test_float_fields_range_checked(self, name, value):
        with pytest.raises(ConfigError, match=f"field {name}: must be finite"):
            TrainConfig.from_dict({name: value})

    @pytest.mark.parametrize("name, value", [
        ("lr", "1e-300"), ("beta1", "0"), ("beta2", "0.9999"), ("eps", "1e-12"),
        ("clip_norm", "0"), ("clip_norm", "5.0"),
    ])
    def test_float_fields_in_range_accepted(self, name, value):
        assert getattr(TrainConfig.from_dict({name: value}), name) == float(value)

    def test_modes_accept_x_and_comma(self):
        a = TrainConfig.from_dict({"hidden_modes": "10x10"})
        b = TrainConfig.from_dict({"hidden_modes": "10,10"})
        assert a.hidden_modes == b.hidden_modes == (10, 10)

    def test_bad_modes_named(self):
        with pytest.raises(ConfigError, match="hidden_modes"):
            TrainConfig.from_dict({"hidden_modes": "10by10"})

    def test_enum_fields_validated(self):
        with pytest.raises(ConfigError, match="field task"):
            TrainConfig.from_dict({"task": "cifar"})
        with pytest.raises(ConfigError, match="field model"):
            TrainConfig.from_dict({"model": "lstm"})
        with pytest.raises(ConfigError, match="parameterization"):
            TrainConfig.from_dict({"parameterization": "sparse"})

    def test_tt_needs_modes(self):
        with pytest.raises(ConfigError, match="hidden_modes"):
            TrainConfig.from_dict({"hidden_modes": "none"})

    @pytest.mark.parametrize("name, fields", [
        # Both products still check out (64 and the cell input width 32).
        ("hidden_modes", {"hidden": "0", "hidden_modes": "-8x-8"}),
        ("input_modes", {"hidden": "64", "hidden_modes": "8x8",
                         "input_modes": "-4x-8"}),
        ("hidden_modes", {"hidden": "0", "hidden_modes": "0x8"}),
    ], ids=["negative-hidden", "negative-input", "zero-hidden"])
    def test_tt_modes_must_be_positive(self, name, fields):
        with pytest.raises(ConfigError, match=f"field {name}: mode dims must be >= 1"):
            TrainConfig.from_dict(fields)

    def test_dense_needs_no_modes(self):
        cfg = TrainConfig.from_dict({"parameterization": "dense",
                                     "hidden_modes": "none",
                                     "input_modes": "none"})
        assert cfg.hidden == 100

    def test_hidden_must_match_mode_product(self):
        with pytest.raises(ConfigError, match="hidden"):
            TrainConfig.from_dict({"hidden_modes": "8x4x8x4"})  # hidden still 100

    def test_mode_lists_must_have_equal_length(self):
        # Both products check out (64 and the cell input width 32).
        with pytest.raises(ConfigError, match="field input_modes: 3 modes, but "
                                              "hidden_modes has 2"):
            TrainConfig.from_dict({"hidden": "64", "hidden_modes": "8x8",
                                   "input_modes": "2x2x8"})

    @pytest.mark.parametrize("hidden", ["0", "100"])
    @pytest.mark.parametrize("modes", ["4294967296x4294967296",
                                       "4294967297x4294967297"])
    def test_mode_product_must_fit_64_bits(self, modes, hidden):
        # Both products reach 2^64, where a fixed-width product wraps.
        with pytest.raises(ConfigError, match="field hidden_modes: product of "
                                              "mode dims .* overflows 64 bits"):
            TrainConfig.from_dict({"hidden": hidden, "hidden_modes": modes})

    def test_hidden_zero_means_derive_from_modes(self):
        cfg = TrainConfig.from_dict({"hidden": "0", "hidden_modes": "8x4x8x4",
                                     "input_modes": "4x4x4x4", "proj": "256"})
        assert cfg.hidden == 1024

    def test_input_modes_must_match_cell_input(self):
        # proj 32 but input modes multiply to 64
        with pytest.raises(ConfigError, match="input_modes"):
            TrainConfig.from_dict({"input_modes": "8x8"})

    def test_input_modes_against_frame_dim_when_no_projection(self):
        cfg = TrainConfig.from_dict({"proj": "0", "task": "mnist-row",
                                     "input_modes": "4x7"})
        assert cfg.cell_input_dim() == 28

    def test_frame_dims(self):
        dims = {"mnist-row": 28, "mnist-pixel": 1, "mnist-permuted": 1,
                "pianoroll": 88}
        for task, dim in dims.items():
            cfg = TrainConfig()
            cfg.task = task
            assert cfg.frame_dim() == dim

    def test_classification_flag(self):
        cfg = TrainConfig()
        assert cfg.is_classification()
        cfg.task = "pianoroll"
        assert not cfg.is_classification()


    def test_tt_args(self):
        cfg = TrainConfig()
        assert cfg.tt_args() == {"in_modes": (4, 8), "hidden_modes": (10, 10),
                                 "rank": 3}
        dense = TrainConfig.from_dict({"parameterization": "dense",
                                       "hidden_modes": "none",
                                       "input_modes": "none"})
        assert dense.tt_args() == {"in_modes": None, "hidden_modes": None,
                                   "rank": None}


class TestResolvedDump:
    def test_round_trip(self):
        cfg = TrainConfig.from_dict({"task": "pianoroll", "model": "srnn",
                                     "hidden": "0", "hidden_modes": "8x4x8x4",
                                     "input_modes": "4x4x4x4", "proj": "256",
                                     "rank": "5", "lr": "0.01",
                                     "early_stop": "true"})
        again = TrainConfig.from_dict(parse_kv(cfg.to_text()))
        assert again == cfg

    def test_round_trip_dense(self):
        cfg = TrainConfig.from_dict({"parameterization": "dense",
                                     "hidden_modes": "none",
                                     "input_modes": "none"})
        assert TrainConfig.from_dict(parse_kv(cfg.to_text())) == cfg

    def test_dump_contains_every_field(self):
        cfg = TrainConfig.from_dict({})
        dumped = parse_kv(cfg.to_text())
        assert set(dumped) == set(TrainConfig.kinds())

    def test_dump_preserves_float_precision(self):
        cfg = TrainConfig.from_dict({"lr": "0.1000000000000123"})
        again = TrainConfig.from_dict(parse_kv(cfg.to_text()))
        assert again.lr == cfg.lr

    def test_digest_stable_and_sensitive(self):
        cfg = TrainConfig.from_dict({})
        h1 = cfg.digest()
        assert h1 == TrainConfig.from_dict({}).digest()
        assert len(h1) == 12
        other = TrainConfig.from_dict({"epochs": "6"})
        assert other.digest() != h1


def test_bench_digest_is_of_resolved_values():
    # Comments and spelled-out defaults do not change the hash.
    a = BenchConfig.from_dict(parse_kv("# sweep\nsizes = 64,128\n"))
    b = BenchConfig.from_dict({"sizes": "64x128", "rank": "4"})
    assert a.digest() == b.digest()
    assert BenchConfig.from_dict({"sizes": "64"}).digest() != a.digest()


class TestBenchConfig:
    @pytest.mark.parametrize("family", ["tt", "both"])
    def test_tt_sizes_must_factor_under_max_mode(self, family):
        with pytest.raises(ConfigError, match="field sizes: 1031 has a prime "
                                              "factor above max_mode 16"):
            BenchConfig.from_dict({"family": family, "sizes": "64,1031"})
        with pytest.raises(ConfigError, match="field max_mode: .*max_mode >= 2"):
            BenchConfig.from_dict({"family": family, "sizes": "64",
                                   "max_mode": "1"})

    def test_dense_sizes_need_no_modes(self):
        cfg = BenchConfig.from_dict({"family": "dense", "sizes": "1031",
                                     "max_mode": "1"})
        assert cfg.sizes == (1031,)

    @pytest.mark.parametrize("family", ["dense", "both"])
    def test_dense_sizes_must_fit_the_budget(self, family):
        # 2 * 8 * 16384^2 bytes is over the 1.5 GB budget; 8192 is under it.
        BenchConfig.from_dict({"family": family, "sizes": "8192"})
        with pytest.raises(ConfigError, match="field sizes: dense 16384x16384 "
                                              "needs 4294967296 bytes"):
            BenchConfig.from_dict({"family": family, "sizes": "64,16384"})

    def test_tt_sizes_have_no_dense_budget(self):
        cfg = BenchConfig.from_dict({"family": "tt", "sizes": "65536"})
        assert cfg.sizes == (65536,)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    cls = BenchConfig if path.name == "bench.cfg" else TrainConfig
    cfg = cls.from_file(path)
    assert cls.from_dict(parse_kv(cfg.to_text())) == cfg
