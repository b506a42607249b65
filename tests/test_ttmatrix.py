"""TT matrix format: mode checks, densification, init."""

import math
import tracemalloc

import numpy as np
import pytest

from ttrnn import (
    DENSE_CAP,
    ShapeError,
    SizeError,
    TTMatrix,
    TTSpec,
)
from ttrnn.ttmatrix import check_dims


def random_tt(out_modes, in_modes, ranks, seed=0):
    spec = TTSpec(out_modes, in_modes, ranks)
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal(spec.core_shape(k)) for k in range(spec.ndim)]
    return TTMatrix(spec, cores)


def element_oracle(tt, i, j):
    """Independent slice-product oracle for the entry at 1-based ``(i, j)``,
    using an explicit row-vector sweep."""
    rows = np.unravel_index(i - 1, tt.spec.out_modes)
    cols = np.unravel_index(j - 1, tt.spec.in_modes)
    vec = np.array([1.0])
    for g, ik, jk in zip(tt.cores, rows, cols):
        slab = g[ik, jk]
        vec = np.array([np.dot(vec, slab[:, c]) for c in range(slab.shape[1])])
    assert vec.shape == (1,)
    return float(vec[0])


class TestSpec:
    def test_frozen_param_counts(self):
        # 10x10 output modes against 4x8 input modes at rank 5:
        # 10*4*1*5 + 10*8*5*1 = 200 + 400.
        spec = TTSpec.with_rank((10, 10), (4, 8), 5)
        assert spec.param_count() == 600
        assert spec.dense_param_count() == 100 * 32
        # Mixed ranks: 4*3*1*3 + 5*2*3*1 = 36 + 30.
        spec = TTSpec((4, 5), (3, 2), (1, 3, 1))
        assert spec.param_count() == 66
        # d=1 TT stores exactly the dense matrix.
        spec = TTSpec((12,), (7,), (1, 1))
        assert spec.param_count() == 84 == spec.dense_param_count()

    def test_core_shape(self):
        spec = TTSpec((2, 3, 4), (5, 6, 7), (1, 2, 3, 1))
        assert spec.core_shape(0) == (2, 5, 1, 2)
        assert spec.core_shape(1) == (3, 6, 2, 3)
        assert spec.core_shape(2) == (4, 7, 3, 1)
        assert spec.out_dim == 24 and spec.in_dim == 210

    def test_sweep_shapes(self):
        # Step k: (B*P_k, m_k r_k, r_{k-1} n_k, Q_k) at B = 3.
        spec = TTSpec((2, 3), (4, 5), (1, 2, 1))
        assert spec.sweep_shapes(3) == [(3, 4, 4, 5), (6, 3, 10, 1)]
        assert TTSpec((7,), (5,), (1, 1)).sweep_shapes(2) == [(2, 7, 5, 1)]

    def test_sweep_shapes_right_to_left(self):
        # The transposed shape sweeps right to left, core 1 first: step k is
        # (B n_1..n_{k-1}, r_{k-1} m_k, n_k r_k, m_{k+1}..m_d) at B = 3.
        spec = TTSpec((4, 5), (2, 3), (1, 2, 1))
        assert spec.right_to_left
        assert list(spec.sweep_order()) == [1, 0]
        assert spec.sweep_shapes(3) == [(6, 10, 3, 1), (3, 4, 4, 5)]
        # Left to right it would cost 2 * (48 + 120) = 336 per row.
        assert spec.flops_per_row() == 2 * (60 + 80)
        spec = TTSpec((4, 3, 2, 3), (2, 2, 3, 2), (1, 3, 2, 4, 1))
        assert spec.sweep_shapes(1) == [(12, 12, 2, 1), (4, 4, 12, 3),
                                        (2, 9, 4, 6), (1, 4, 6, 18)]

    @pytest.mark.parametrize("out_modes, in_modes, ranks, rtl, flops", [
        # Every shipped non-square wx sweeps right to left; square maps tie.
        # The wide TT-SRNN's wx (819,200 flops per row left to right) and
        # its wh.
        ((16, 16, 16), (4, 8, 8), (1, 4, 4, 1), True, 425_984),
        ((16, 16, 16), (16, 16, 16), (1, 4, 4, 1), False, 3_145_728),
        # inspect-demo's wx (368,640 left to right).
        ((8, 4, 8, 4), (4, 4, 4, 4), (1, 5, 5, 5, 1), True, 256_000),
        # mnist-row-ttgru's wx* and wh* (6,720 left to right for wx*).
        ((10, 10), (4, 8), (1, 3, 1), True, 4_320),
        ((10, 10), (10, 10), (1, 3, 1), False, 12_000),
        # pianoroll-ttsrnn's wx (6,144 left to right) and wh.
        ((8, 8), (4, 8), (1, 4, 1), True, 4_096),
        ((8, 8), (8, 8), (1, 4, 1), False, 8_192),
        # The same cost either way keeps the left-to-right sweep.
        ((2, 2, 3), (2, 3, 3), (1, 3, 2, 1), False, 792),
        ((7,), (5,), (1, 1), False, 70),
    ])
    def test_direction_is_the_cheaper_sweep(self, out_modes, in_modes, ranks,
                                            rtl, flops):
        spec = TTSpec(out_modes, in_modes, ranks)
        assert spec.right_to_left == rtl
        assert spec.flops_per_row() == flops
        order = list(range(spec.ndim))
        assert list(spec.sweep_order()) == (order[::-1] if rtl else order)

    def test_validation(self):
        with pytest.raises(ShapeError):
            TTSpec((2, 3), (4,), (1, 1))  # length mismatch
        with pytest.raises(ShapeError):
            TTSpec((2, 3), (4, 5), (1, 2, 2))  # boundary rank != 1
        with pytest.raises(ShapeError):
            TTSpec((2, 3), (4, 5), (1, 1))  # rank vector too short
        with pytest.raises(ShapeError):
            TTSpec((2, 0), (4, 5), (1, 2, 1))  # zero mode
        with pytest.raises(ShapeError):
            TTSpec((2, 3), (4, 5), (1, 0, 1))  # zero rank

    def test_cores_must_match_spec(self):
        spec = TTSpec((2, 3), (4, 5), (1, 2, 1))
        good = [np.zeros(spec.core_shape(k)) for k in range(2)]
        TTMatrix(spec, good)
        bad = [good[0], np.zeros((3, 5, 3, 1))]
        with pytest.raises(ShapeError):
            TTMatrix(spec, bad)
        with pytest.raises(ShapeError):
            TTMatrix(spec, good[:1])


class TestCheckDims:
    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="non-empty"):
            check_dims(())
        with pytest.raises(ShapeError, match=">= 1"):
            check_dims((3, 0))
        assert check_dims([4, 7]) == (4, 7)


class TestElement:
    def test_all_ones_rank3(self):
        # Every slice product collapses to summing r=3 ones.
        spec = TTSpec((2, 3), (4, 5), (1, 3, 1))
        tt = TTMatrix(spec, [np.ones(spec.core_shape(k)) for k in range(2)])
        dense = tt.to_dense()
        np.testing.assert_allclose(dense, np.full((6, 20), 3.0))

    def test_one_hot_placement(self):
        # A single nonzero slice pins down the row-major layout exactly.
        # out modes (2, 3), in modes (3, 2); light up (i_1, i_2) = (2, 3) and
        # (j_1, j_2) = (1, 2): row = (2-1)*3 + 3 = 6, col = (1-1)*2 + 2 = 2.
        spec = TTSpec((2, 3), (3, 2), (1, 1, 1))
        g1 = np.zeros(spec.core_shape(0))
        g2 = np.zeros(spec.core_shape(1))
        g1[1, 0, 0, 0] = 1.0
        g2[2, 1, 0, 0] = 1.0
        tt = TTMatrix(spec, [g1, g2])
        dense = tt.to_dense()
        assert dense[5, 1] == pytest.approx(1.0)
        assert np.count_nonzero(dense) == 1
        assert element_oracle(tt, 6, 2) == pytest.approx(1.0)


class TestDense:
    def test_dense_matches_element_loop(self):
        # to_dense contracts cores in one chain; the oracle multiplies
        # slices one entry at a time. Agreement checks both.
        for out_m, in_m, ranks, seed in [
            ((2, 3), (4, 5), (1, 2, 1), 0),
            ((3, 4, 2), (2, 5, 3), (1, 2, 3, 1), 1),
            ((5,), (6,), (1, 1), 2),
            ((2, 2, 2, 2), (2, 2, 2, 2), (1, 3, 2, 3, 1), 3),
        ]:
            tt = random_tt(out_m, in_m, ranks, seed=seed)
            dense = tt.to_dense()
            m_dim, n_dim = tt.shape
            assert dense.shape == (m_dim, n_dim)
            full = np.array([[element_oracle(tt, i, j)
                              for j in range(1, n_dim + 1)]
                             for i in range(1, m_dim + 1)])
            np.testing.assert_allclose(dense, full, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("out_modes, in_modes, rank", [
        ((16, 16, 8), (16, 16, 8), 4),  # 2048 x 2048
        ((4, 16, 16), (4, 8, 8), 5),  # 1024 x 256
    ], ids=["2048x2048-r4", "1024x256-r5"])
    def test_writes_w_once(self, out_modes, in_modes, rank):
        # The last contraction writes W in place, so the traced peak is W
        # plus the much smaller partial product; a second copy of W (a
        # transposed result) would read 2x.
        tt = TTMatrix.glorot(TTSpec.with_rank(out_modes, in_modes, rank),
                             np.random.default_rng(0))
        tracemalloc.start()
        try:
            dense = tt.to_dense(force=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dense.flags.c_contiguous
        assert peak < 1.5 * dense.nbytes, f"peak {peak / dense.nbytes:.2f}x W"

    def test_cap(self):
        spec = TTSpec.with_rank((64, 128), (128, 64), 2)
        tt = TTMatrix(spec, [np.zeros(spec.core_shape(k)) for k in range(spec.ndim)])
        assert spec.dense_param_count() == (1 << 26) > DENSE_CAP
        with pytest.raises(SizeError):
            tt.to_dense()


class TestGlorot:
    def test_core_std(self):
        # sigma_k = sqrt(2 / (n_k r_k + m_k r_{k-1})); sample std must land
        # within a few percent on a core with many entries.
        spec = TTSpec((40, 4), (50, 5), (1, 3, 1))
        tt = TTMatrix.glorot(spec, np.random.default_rng(0))
        sigma0 = math.sqrt(2.0 / (50 * 3 + 40 * 1))
        sigma1 = math.sqrt(2.0 / (5 * 1 + 4 * 3))
        assert tt.cores[0].std() == pytest.approx(sigma0, rel=0.05)
        assert tt.cores[1].std() == pytest.approx(sigma1, rel=0.1)
        assert abs(tt.cores[0].mean()) < 3 * sigma0 / math.sqrt(tt.cores[0].size)

    def test_dense_special_case(self):
        # d=1: sigma = sqrt(2 / (n + m)), plain Glorot on the full matrix.
        spec = TTSpec((300,), (200,), (1, 1))
        tt = TTMatrix.glorot(spec, np.random.default_rng(0))
        assert tt.cores[0].std() == pytest.approx(math.sqrt(2.0 / 500), rel=0.05)

    def test_deterministic_under_seed(self):
        spec = TTSpec.with_rank((4, 8), (8, 4), 3)
        a = TTMatrix.glorot(spec, np.random.default_rng(123))
        b = TTMatrix.glorot(spec, np.random.default_rng(123))
        for ga, gb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ga, gb)

