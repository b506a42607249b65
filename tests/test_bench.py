"""Benchmark harness: mode balancing, analytic memory, slope fitting, and
quick timing sanity checks (the full scaling sweep runs in the acceptance
suite)."""

import numpy as np
import pytest

from ttrnn import DataError, ShapeError, SizeError, TTSpec, bench
from ttrnn.bench import (
    BenchPoint,
    balanced_modes,
    dense_work_bytes,
    fit_loglog_slope,
    measure_dense,
    run_scaling_sweep,
    tt_work_bytes,
)


class TestBalancedModes:
    def test_frozen_factorizations(self):
        assert balanced_modes(1024, 16) == (16, 16, 4)
        assert balanced_modes(4096, 16) == (16, 16, 16)
        assert balanced_modes(65536, 16) == (16, 16, 16, 16)
        assert balanced_modes(12, 4) == (4, 3)
        assert balanced_modes(1, 16) == (1,)
        assert balanced_modes(7, 16) == (7,)

    def test_product_and_bound_properties(self):
        for total in [2, 30, 256, 1000, 1024, 59049]:
            modes = balanced_modes(total, 16)
            assert int(np.prod(modes)) == total
            assert all(m <= 16 for m in modes)

    def test_prime_above_cap_rejected(self):
        with pytest.raises(ShapeError):
            balanced_modes(17 * 4, 16)


class TestAnalyticMemory:
    def test_tt_work_bytes_hand_case(self):
        # out (2,3), in (4,5), ranks (1,2,1), batch 1:
        # step 0 holds z_in 1*(1*4)*5=20 and z_out 1*(2*2)*5=20 -> 40 floats
        # step 1 holds z_in 2*(2*5)*1=20 and z_out 2*(3*1)*1=6 -> 26 floats
        spec = TTSpec((2, 3), (4, 5), (1, 2, 1))
        assert tt_work_bytes(spec, batch=1) == 8 * 40
        assert tt_work_bytes(spec, batch=3) == 3 * 8 * 40

    def test_dense_work_bytes(self):
        assert dense_work_bytes(6, 20, batch=3) == 8 * 3 * 26

    def test_param_byte_ratio_equals_count_ratio(self):
        # Memory is 8 bytes per stored float on both sides, so the byte
        # ratio must be exactly the parameter-count ratio.
        spec = TTSpec.with_rank((8, 4, 8, 4), (4, 4, 4, 4), 5)
        dense_bytes = 8 * spec.dense_param_count()
        tt_bytes = 8 * spec.param_count()
        assert dense_bytes / tt_bytes == spec.dense_param_count() / spec.param_count()

    def test_tt_work_grows_linearly_not_quadratically(self):
        small = tt_work_bytes(TTSpec.with_rank(balanced_modes(1024, 16),
                                               balanced_modes(1024, 16), 4), 1)
        big = tt_work_bytes(TTSpec.with_rank(balanced_modes(4096, 16),
                                             balanced_modes(4096, 16), 4), 1)
        assert big / small < 8  # 4x size -> far below 16x


class TestSlopeFit:
    def test_exact_square_law(self):
        pairs = [(s, 3.0 * s ** 2) for s in [64, 128, 256, 512]]
        slope, resid = fit_loglog_slope(pairs)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert resid == pytest.approx(0.0, abs=1e-9)

    def test_constant_times(self):
        slope, _ = fit_loglog_slope([(s, 0.5) for s in [10, 100, 1000]])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_accepts_benchpoints(self):
        pts = [BenchPoint("tt", s, s, 2, 4, 16, 1, 1e-6 * s, 0.0, 0, 0)
               for s in [32, 64, 128]]
        slope, _ = fit_loglog_slope(pts)
        assert slope == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DataError):
            fit_loglog_slope([(10, 1.0), (20, 2.0)])
        with pytest.raises(DataError):
            fit_loglog_slope([(10, 1.0), (10, 2.0), (10, 3.0)])
        with pytest.raises(DataError):
            fit_loglog_slope([(10, 1.0), (20, 0.0), (30, 3.0)])


class TestSweep:
    def test_single_point(self):
        pts = run_scaling_sweep("tt", [256], batch=2, seed=3)
        assert len(pts) == 1
        p = pts[0]
        assert p.family == "tt" and p.size_m == 256
        assert p.fwd_seconds > 0 and p.bwd_seconds > 0
        assert p.param_bytes == 8 * TTSpec.with_rank((16, 16), (16, 16), 4).param_count()

    def test_line_format(self):
        (p,) = run_scaling_sweep("dense", [128], batch=2, seed=0)
        line = p.as_line()
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["family"] == "dense"
        assert int(fields["M"]) == 128
        assert float(fields["fwd_s"]) > 0

    def test_dense_budget_enforced(self):
        with pytest.raises(SizeError):
            measure_dense(1 << 15, 1 << 15, 1, np.random.default_rng(0))

    def test_rejects_thin_protocol(self):
        with pytest.raises(DataError):
            run_scaling_sweep("tt", [64], reps=5)
        with pytest.raises(DataError):
            run_scaling_sweep("fft", [64])

    def test_slow_spell_does_not_become_the_time(self, monkeypatch):
        # 11 of 20 calls inside a slow spell make a plain median read the
        # spell; the fastest of the three block medians reads the code.
        durations = [0.024] * 11 + [0.00086] * 9
        ticks = [0.0] + [x for d in durations for x in (d, 0.0)]
        clock = iter(np.cumsum(ticks))
        monkeypatch.setattr(bench.time, "perf_counter", lambda: next(clock))
        assert bench._median_time(lambda: None, 20, 0) == pytest.approx(0.00086)

    def test_sweep_pins_one_blas_thread_and_restores(self, monkeypatch):
        count = [2]
        seen = []
        monkeypatch.setattr(bench, "_openblas_threads", lambda: (
            lambda: count[0], lambda n: count.__setitem__(0, n)))
        real = bench.measure_dense

        def measure(*args):
            seen.append(count[0])
            if len(seen) == 2:
                raise SizeError("stop")
            return real(*args)

        monkeypatch.setattr(bench, "measure_dense", measure)
        run_scaling_sweep("dense", [32], batch=2)
        assert seen == [1] and count == [2]
        with pytest.raises(SizeError):
            run_scaling_sweep("dense", [32], batch=2)
        assert count == [2]  # restored when a point fails too

    def test_sweep_runs_where_threads_cannot_be_pinned(self, monkeypatch):
        monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
        assert bench.sweep_blas_threads() == "unknown"
        (p,) = run_scaling_sweep("dense", [32], batch=2)
        assert p.fwd_seconds > 0

    def test_real_blas_thread_count_restored(self):
        calls = bench._openblas_threads()
        before = calls[0]() if calls else None
        run_scaling_sweep("dense", [32], batch=2)
        assert (calls[0]() if calls else None) == before

    def test_batch_doubling_scales_time(self):
        # Linearity in batch size, wide band for timer noise.
        (a,) = run_scaling_sweep("dense", [512], batch=64, seed=1)
        (b,) = run_scaling_sweep("dense", [512], batch=128, seed=1)
        assert 1.5 <= b.fwd_seconds / a.fwd_seconds <= 2.8
