import math
import sys
import threading
import time

import numpy as np
import pytest

from streamstab import (BilateralConfig, DepthMap, Intrinsics,
                        bilateral_depth, depth_to_points, refine_cloud, spatial)
from streamstab.errors import InvalidValue, NoValidPixels

STRIP = spatial._STRIP_ROWS


def bilateral_loop_oracle(depth_map, cfg):
    """The bilateral filter as a per-offset loop over whole shifted frames;
    bilateral_depth must match it bit for bit."""
    d = depth_map.depths
    valid = depth_map.valid
    sigma_r = cfg.effective_sigma_r(depth_map)
    w = cfg.window
    h, wid = d.shape

    weight_sum = np.zeros_like(d)
    value_sum = np.zeros_like(d)
    for dy in range(-w, w + 1):
        for dx in range(-w, w + 1):
            # shifted neighbor views; out-of-bounds neighbors contribute nothing
            y0, y1 = max(0, -dy), min(h, h - dy)
            x0, x1 = max(0, -dx), min(wid, wid - dx)
            if y0 >= y1 or x0 >= x1:
                continue
            nd = d[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
            nv = valid[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
            cd = d[y0:y1, x0:x1]
            spatial = np.exp(-(dy * dy + dx * dx) / (2.0 * cfg.sigma_s ** 2))
            rng = np.exp(-((cd - nd) ** 2) / (2.0 * sigma_r ** 2))
            wgt = np.where(nv, spatial * rng, 0.0)
            weight_sum[y0:y1, x0:x1] += wgt
            value_sum[y0:y1, x0:x1] += wgt * nd

    out = np.array(d, copy=True)
    ok = valid & (weight_sum >= 1e-300)
    out[ok] = value_sum[ok] / weight_sum[ok]
    return out


def gaussian_blur_oracle(depths, valid, window, sigma_s):
    """Truncated-Gaussian blur over valid pixels, plain nested loops."""
    h, w = depths.shape
    out = depths.copy()
    for y in range(h):
        for x in range(w):
            if not valid[y, x]:
                continue
            wsum = 0.0
            vsum = 0.0
            for dy in range(-window, window + 1):
                for dx in range(-window, window + 1):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and valid[ny, nx]:
                        wgt = np.exp(-(dy * dy + dx * dx) / (2 * sigma_s ** 2))
                        wsum += wgt
                        vsum += wgt * depths[ny, nx]
            out[y, x] = vsum / wsum
    return out


class TestBilateralDepth:
    def test_constant_map_identity(self):
        dm = DepthMap.from_depths(np.full((6, 8), 3.5))
        out = bilateral_depth(dm, BilateralConfig(sigma_r=0.5))
        assert np.max(np.abs(out.depths - 3.5)) < 1e-12

    def test_huge_sigma_r_matches_gaussian_blur(self):
        rng = np.random.default_rng(0)
        depths = rng.uniform(1.0, 5.0, size=(10, 12))
        valid = rng.uniform(size=depths.shape) > 0.2
        valid[0, 0] = True  # keep at least one valid pixel
        dm = DepthMap(np.where(valid, depths, 0.0), valid)
        cfg = BilateralConfig(window=2, sigma_s=1.5, sigma_r=1e12)
        out = bilateral_depth(dm, cfg)
        oracle = gaussian_blur_oracle(dm.depths, valid, 2, 1.5)
        assert np.max(np.abs(out.depths[valid] - oracle[valid])) < 1e-9

    def test_step_edge_preserved(self):
        depths = np.where(np.arange(12)[None, :] < 6, 1.0, 10.0) * np.ones((8, 1))
        dm = DepthMap.from_depths(depths)
        out = bilateral_depth(dm, BilateralConfig(window=2, sigma_s=2.0, sigma_r=0.1))
        assert np.max(np.abs(out.depths - depths)) < 1e-6

    def test_output_within_window_bounds(self):
        rng = np.random.default_rng(1)
        depths = rng.uniform(1.0, 9.0, size=(9, 9))
        dm = DepthMap.from_depths(depths)
        out = bilateral_depth(dm, BilateralConfig(window=1, sigma_s=1.0, sigma_r=5.0))
        for y in range(9):
            for x in range(9):
                nb = depths[max(0, y - 1):y + 2, max(0, x - 1):x + 2]
                assert nb.min() - 1e-12 <= out.depths[y, x] <= nb.max() + 1e-12

    def test_offset_equivariance(self):
        rng = np.random.default_rng(2)
        depths = rng.uniform(1.0, 5.0, size=(7, 7))
        cfg = BilateralConfig(window=2, sigma_s=1.0, sigma_r=0.4)
        base = bilateral_depth(DepthMap.from_depths(depths), cfg)
        shifted = bilateral_depth(DepthMap.from_depths(depths + 11.0), cfg)
        assert np.max(np.abs(shifted.depths - (base.depths + 11.0))) < 1e-9

    def test_tiny_sigma_s_identity(self):
        rng = np.random.default_rng(3)
        depths = rng.uniform(1.0, 5.0, size=(6, 6))
        dm = DepthMap.from_depths(depths)
        out = bilateral_depth(dm, BilateralConfig(sigma_s=1e-6, sigma_r=1.0))
        assert np.max(np.abs(out.depths - depths)) < 1e-9

    def test_validity_mask_preserved(self):
        rng = np.random.default_rng(4)
        depths = rng.uniform(1.0, 5.0, size=(6, 6))
        valid = rng.uniform(size=(6, 6)) > 0.4
        valid[3, 3] = True
        dm = DepthMap(np.where(valid, depths, 0.0), valid)
        out = bilateral_depth(dm, BilateralConfig(sigma_r=0.5))
        assert np.array_equal(out.valid, valid)
        assert np.array_equal(out.depths[~valid], dm.depths[~valid])

    def test_no_valid_pixels(self):
        dm = DepthMap(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
        with pytest.raises(NoValidPixels):
            bilateral_depth(dm)


class TestBilateralMatchesLoop:
    """The kernel against the per-offset loop, compared with array_equal."""

    @staticmethod
    def bordered_map(shape, seed):
        # a smooth surface with noise, so range weights span many magnitudes;
        # invalid pixels on every border and corner, and some inside
        rng = np.random.default_rng(seed)
        h, w = shape
        yy, xx = np.mgrid[0:h, 0:w]
        depths = 2.0 + 0.01 * xx + 0.02 * yy + rng.normal(0.0, 0.05, shape)
        valid = rng.uniform(size=shape) > 0.1
        valid[0, ::2] = False
        valid[-1, 1::2] = False
        valid[::3, 0] = False
        valid[1::3, -1] = False
        valid[[0, 0, -1, -1], [0, -1, 0, -1]] = False
        if not valid.any():
            valid[h // 2, w // 2] = True
        return DepthMap(np.where(valid, depths, 0.0), valid)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 4),
                                       (33, 17), (70, 45), (384, 512)])
    @pytest.mark.parametrize("window", [0, 1, 2, 5])
    @pytest.mark.parametrize("sigma_r", [None, 0.08])
    def test_bit_identical(self, shape, window, sigma_r):
        dm = self.bordered_map(shape, seed=window)
        cfg = BilateralConfig(window=window, sigma_s=1.7, sigma_r=sigma_r)
        out = bilateral_depth(dm, cfg)
        assert np.array_equal(out.depths, bilateral_loop_oracle(dm, cfg))
        assert np.array_equal(out.valid, dm.valid)

    @pytest.mark.parametrize("reuse_bytes", [0, 20_000, 150_000])
    def test_capped_weight_reuse_bit_identical(self, monkeypatch, reuse_bytes):
        # no kept weights (0 and 20,000 bytes), and only the first dy row
        # kept (150,000 bytes hold its 7 x 1,537 weights, not two rows')
        monkeypatch.setattr("streamstab.spatial._REUSE_BYTES", reuse_bytes)
        dm = self.bordered_map((45, 38), seed=3)
        cfg = BilateralConfig(window=3, sigma_s=1.2)
        assert np.array_equal(bilateral_depth(dm, cfg).depths,
                              bilateral_loop_oracle(dm, cfg))

    def test_all_valid_bit_identical(self):
        rng = np.random.default_rng(7)
        dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(40, 29)))
        cfg = BilateralConfig(window=3, sigma_s=2.5, sigma_r=0.3)
        assert np.array_equal(bilateral_depth(dm, cfg).depths,
                              bilateral_loop_oracle(dm, cfg))

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, -1.0])
    def test_invalid_values_do_not_reach_neighbours(self, fill):
        dm = self.bordered_map((37, 23), seed=11)
        cfg = BilateralConfig(window=2, sigma_r=0.1)
        clean = bilateral_depth(dm, cfg)
        dirty_depths = np.where(dm.valid, dm.depths, fill)
        dirty = bilateral_depth(DepthMap(dirty_depths, dm.valid), cfg)
        assert np.array_equal(dirty.depths[dm.valid], clean.depths[dm.valid])
        invalid = ~dm.valid
        assert np.array_equal(dirty.depths[invalid], dirty_depths[invalid],
                              equal_nan=True)

    @pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
    def test_adaptive_sigma_r_count_parity_bit_identical(self, parity):
        dm = self.bordered_map((41, 36), seed=12)
        valid = dm.valid.copy()
        if np.count_nonzero(valid) % 2 != parity:
            valid[20, 18] = not valid[20, 18]
        dm = DepthMap(np.where(valid, 2.0 + dm.depths, 0.0), valid)
        assert np.count_nonzero(dm.valid) % 2 == parity
        cfg = BilateralConfig(window=2, sigma_s=1.5, sigma_r=None)
        assert np.array_equal(bilateral_depth(dm, cfg).depths,
                              bilateral_loop_oracle(dm, cfg))

    @pytest.mark.parametrize("sigma_r", [None, 0.05])
    def test_isolated_valid_pixel_bit_identical(self, sigma_r):
        # no valid neighbour: the centre term alone gives the weight sum
        depths = np.zeros((9, 11))
        depths[4, 5] = 2.7182818284590451
        depths[0, 0] = 1.5
        depths[8, 10] = 3.25
        depths[2:4, 8:10] = 1.125
        dm = DepthMap.from_depths(depths)
        cfg = BilateralConfig(window=2, sigma_r=sigma_r)
        out = bilateral_depth(dm, cfg)
        assert np.array_equal(out.depths, bilateral_loop_oracle(dm, cfg))
        assert out.depths[4, 5] == depths[4, 5]

    def test_nan_hole_from_depths(self):
        dm = DepthMap.from_depths([[1, np.nan, 1], [1, 1, 1], [1, 1, 1]])
        out = bilateral_depth(dm, BilateralConfig(sigma_r=0.1))
        assert np.array_equal(out.depths, dm.depths, equal_nan=True)


class TestBilateralBands:
    """The strips in one band or two (one on a worker thread) against the
    per-offset loop, bit for bit."""

    @staticmethod
    def force_bands(monkeypatch, bands):
        # count the calls that run a band on the worker thread
        calls = []
        in_parallel = spatial._in_parallel

        def counted(upper, lower):
            calls.append(1)
            in_parallel(upper, lower)

        monkeypatch.setattr("streamstab.spatial._MAX_BANDS", bands)
        monkeypatch.setattr("streamstab.spatial._in_parallel", counted)
        return calls

    @pytest.mark.parametrize("bands", [1, 2])
    @pytest.mark.parametrize("height", [1, STRIP - 1, STRIP, STRIP + 1,
                                        2 * STRIP + 1, 384])
    @pytest.mark.parametrize("window", [0, 1, 2, 5])
    def test_bit_identical(self, monkeypatch, bands, height, window):
        calls = self.force_bands(monkeypatch, bands)
        dm = TestBilateralMatchesLoop.bordered_map((height, 37), seed=height)
        cfg = BilateralConfig(window=window, sigma_s=1.7)
        out = bilateral_depth(dm, cfg)
        assert np.array_equal(out.depths, bilateral_loop_oracle(dm, cfg))
        assert len(calls) == (bands == 2 and height > STRIP)

    @pytest.mark.parametrize("bands", [1, 2])
    def test_stream_size_bit_identical(self, monkeypatch, bands):
        calls = self.force_bands(monkeypatch, bands)
        dm = TestBilateralMatchesLoop.bordered_map((384, 512), seed=13)
        cfg = BilateralConfig()
        out = bilateral_depth(dm, cfg)
        assert np.array_equal(out.depths, bilateral_loop_oracle(dm, cfg))
        assert len(calls) == bands - 1

    @pytest.mark.parametrize("reuse_bytes", [0, 150_000])
    def test_capped_weight_reuse_two_bands(self, monkeypatch, reuse_bytes):
        calls = self.force_bands(monkeypatch, 2)
        monkeypatch.setattr("streamstab.spatial._REUSE_BYTES", reuse_bytes)
        dm = TestBilateralMatchesLoop.bordered_map((2 * STRIP + 5, 38), seed=3)
        cfg = BilateralConfig(window=3, sigma_s=1.2)
        assert np.array_equal(bilateral_depth(dm, cfg).depths,
                              bilateral_loop_oracle(dm, cfg))
        assert len(calls) == 1

    @staticmethod
    def lower_band_overflow_map():
        # 1e200 next to 1.0 overflows the squared difference; the pixel is in
        # the lower band, beyond the rows the upper band reads
        depths = np.ones((2 * STRIP, 9))
        depths[STRIP + STRIP // 2, 4] = 1e200
        return DepthMap.from_depths(depths)

    def test_worker_fault_reaches_caller(self, monkeypatch):
        calls = self.force_bands(monkeypatch, 2)
        dm = self.lower_band_overflow_map()
        cfg = BilateralConfig(window=1, sigma_r=0.1)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                bilateral_depth(dm, cfg)
        assert len(calls) == 1
        top = DepthMap(dm.depths[:STRIP], dm.valid[:STRIP])
        with np.errstate(over="raise"):
            bilateral_depth(top, cfg)  # the upper band alone does not fault

    def test_worker_keeps_caller_fp_state(self, monkeypatch):
        # a new thread starts from NumPy's default errstate, which warns on
        # overflow, and warnings fail this suite
        calls = self.force_bands(monkeypatch, 2)
        dm = self.lower_band_overflow_map()
        cfg = BilateralConfig(window=1, sigma_r=0.1)
        with np.errstate(over="ignore"):
            out = bilateral_depth(dm, cfg)
            expected = bilateral_loop_oracle(dm, cfg)
        assert np.array_equal(out.depths, expected)
        assert len(calls) == 1

    def test_concurrent_callers(self, monkeypatch):
        # more threads than CPUs, each call running two bands, with a short
        # switch interval: every call keeps its own bits
        self.force_bands(monkeypatch, 2)
        cfg = BilateralConfig(window=2, sigma_s=1.3)
        maps = [TestBilateralMatchesLoop.bordered_map((2 * STRIP + 7, 29),
                                                      seed=20 + k)
                for k in range(4)]
        expected = [bilateral_loop_oracle(dm, cfg) for dm in maps]
        results = {}

        def call(k):
            for _ in range(5):
                out = bilateral_depth(maps[k], cfg).depths
                results.setdefault(k, []).append(
                    np.array_equal(out, expected[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {k: [True] * 5 for k in range(4)}

    def test_in_parallel_reraises_after_join(self):
        ran = []

        def lower():
            time.sleep(0.05)
            ran.append("lower")
            raise MemoryError("worker")

        with pytest.raises(MemoryError, match="worker"):
            spatial._in_parallel(lambda: ran.append("upper"), lower)
        assert sorted(ran) == ["lower", "upper"]


class TestBilateralSubnormalClamp:
    """Weights below e**-700 are raised to about e**-700, a normal float."""

    @staticmethod
    def stripes(gap, sigma_r=0.1, shape=(64, 96)):
        # 2-pixel vertical stripes `gap` sigma_r apart
        cols = (np.arange(shape[1]) // 2) % 2
        depths = 1.0 + gap * sigma_r * cols * np.ones((shape[0], 1))
        return DepthMap.from_depths(depths), BilateralConfig(sigma_r=sigma_r)

    # at sigma_s 0.3 the spatial weights reach 8e-20; at 0.026 the nearest
    # is subnormal itself, and at 1e-6 every one is 0.0
    @pytest.mark.parametrize("sigma_s", [2.0, 0.3, 0.026, 1e-6])
    @pytest.mark.parametrize("gap", [38.1, 10.0, 1000.0])
    def test_stripes_bit_identical(self, sigma_s, gap):
        dm, cfg = self.stripes(gap)
        cfg = BilateralConfig(sigma_s=sigma_s, sigma_r=cfg.sigma_r)
        with np.errstate(under="ignore"):
            expected = bilateral_loop_oracle(dm, cfg)
        assert np.array_equal(bilateral_depth(dm, cfg).depths, expected)

    def test_tiny_centre_under_large_neighbours(self):
        # a valid depth about 1e295 times smaller than its neighbours: the
        # raised weights, 24 of about 1e-304, are no longer below
        # half an ulp of the centre term 1e-295. The centre moves by about
        # 2.4e-8 relative; every other pixel keeps its bits
        depths = np.ones((5, 5))
        depths[2, 2] = 1e-295
        dm = DepthMap.from_depths(depths)
        cfg = BilateralConfig(sigma_r=0.026)
        out = bilateral_depth(dm, cfg).depths
        with np.errstate(under="ignore"):
            expected = bilateral_loop_oracle(dm, cfg)
        assert expected[2, 2] == 1e-295
        assert out[2, 2] != expected[2, 2]
        assert abs(out[2, 2] - expected[2, 2]) <= 1e-7 * expected[2, 2]
        rest = np.ones((5, 5), dtype=bool)
        rest[2, 2] = False
        assert np.array_equal(out[rest], expected[rest])


class TestBilateralConfig:
    @pytest.mark.parametrize("field, value", [
        ("window", -1),
        ("sigma_s", 0.0), ("sigma_s", -2.0), ("sigma_s", np.nan),
        ("sigma_s", np.inf),
        ("sigma_r", 0.0), ("sigma_r", -1.0), ("sigma_r", np.nan),
        ("sigma_r", np.inf),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            BilateralConfig(**{field: value})

    @pytest.mark.parametrize("shape", [(4, 5), (1, 1), (7, 2)])
    def test_window_past_map_is_clamped(self, shape):
        # offsets past the map add exactly 0.0, so any window from
        # max(H, W) - 1 on gives the same bits
        dm = TestBilateralMatchesLoop.bordered_map(shape, seed=5)
        clamped = BilateralConfig(window=max(shape) - 1, sigma_r=0.3)
        out = bilateral_depth(dm, clamped).depths
        assert np.array_equal(out, bilateral_loop_oracle(dm, clamped))
        for window in (max(shape), 99_999_999):
            cfg = BilateralConfig(window=window, sigma_r=0.3)
            assert np.array_equal(bilateral_depth(dm, cfg).depths, out)

    def test_window_zero_is_identity(self):
        rng = np.random.default_rng(8)
        dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(5, 6)))
        out = bilateral_depth(dm, BilateralConfig(window=0, sigma_r=0.1))
        assert np.array_equal(out.depths, dm.depths)


class TestAdaptiveSigmaR:
    @staticmethod
    def median_oracle(depth_map):
        return 0.05 * float(np.median(depth_map.depths[depth_map.valid]))

    @pytest.mark.parametrize("count", [1, 2, 3, 100, 101])
    @pytest.mark.parametrize("ties", [False, True])
    def test_equals_np_median_bit_for_bit(self, count, ties):
        rng = np.random.default_rng(count)
        for _ in range(50):
            values = 10.0 ** rng.uniform(-3.0, 3.0, size=count)
            if ties:
                values = rng.choice(values[:3], size=count)
            depths = np.zeros(count + 7)
            valid = np.zeros(count + 7, dtype=bool)
            slots = rng.permutation(count + 7)[:count]
            depths[slots] = values
            valid[slots] = True
            dm = DepthMap(depths.reshape(1, -1), valid.reshape(1, -1))
            before = dm.depths.copy()
            got = BilateralConfig().effective_sigma_r(dm)
            assert got == self.median_oracle(dm)
            assert np.array_equal(dm.depths, before)

    @pytest.mark.parametrize("count", [1, 2, 3, 100, 101])
    def test_nan_depth_is_rejected(self, count):
        # a valid NaN depth gave a NaN sigma_r; the map can no longer hold one
        rng = np.random.default_rng(count)
        for i in range(count):
            depths = rng.uniform(0.1, 10.0, size=(1, count))
            depths[0, i] = np.nan
            with pytest.raises(InvalidValue):
                DepthMap(depths, np.ones_like(depths, dtype=bool))

    def test_no_valid_pixels(self):
        # np.median gave NaN and a RuntimeWarning here
        dm = DepthMap(np.ones((3, 3)), np.zeros((3, 3), dtype=bool))
        with pytest.raises(NoValidPixels):
            BilateralConfig().effective_sigma_r(dm)

    def test_set_sigma_r_is_returned(self):
        dm = DepthMap.from_depths(np.ones((2, 2)))
        assert BilateralConfig(sigma_r=0.3).effective_sigma_r(dm) == 0.3


class TestDepthMapInvariant:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                     -0.0])
    def test_valid_depth_must_be_finite_and_positive(self, bad):
        depths = np.full((3, 4), 2.0)
        depths[1, 2] = bad
        with pytest.raises(InvalidValue):
            DepthMap(depths, np.ones((3, 4), dtype=bool))
        # an invalid pixel may store it, and the filter passes it through
        valid = np.ones((3, 4), dtype=bool)
        valid[1, 2] = False
        out = bilateral_depth(DepthMap(depths, valid),
                              BilateralConfig(window=1, sigma_r=0.1))
        assert np.array_equal(out.depths, depths, equal_nan=True)
        assert np.array_equal(out.valid, valid)

    def test_smallest_and_largest_floats_accepted(self):
        depths = np.array([[5e-324, 1.7976931348623157e308]])
        dm = DepthMap(depths, np.ones((1, 2), dtype=bool))
        assert np.array_equal(dm.depths, depths)


class TestIntrinsics:
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        values = {"fx": 10.0, "fy": 10.0, "cx": 2.0, "cy": 2.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            Intrinsics(**values)


class TestDepthToPoints:
    def test_principal_ray(self):
        dm = DepthMap.from_depths(np.full((5, 5), 2.0))
        pts = depth_to_points(dm, Intrinsics(100.0, 100.0, 2.0, 2.0))
        # pixel (u=2, v=2) is the principal point -> (0, 0, 2)
        idx = 2 * 5 + 2
        assert np.allclose(pts.points[idx], [0, 0, 2])

    def test_unit_intrinsics(self):
        depths = np.zeros((6, 6))
        depths[4, 3] = 1.0  # v=4, u=3
        dm = DepthMap.from_depths(depths)
        pts = depth_to_points(dm, Intrinsics(1.0, 1.0, 0.0, 0.0))
        assert len(pts) == 1
        assert np.allclose(pts.points[0], [3, 4, 1])

    def test_matches_stacked_formula(self):
        rng = np.random.default_rng(9)
        depths = rng.uniform(0.5, 4.0, size=(13, 17))
        depths[rng.uniform(size=depths.shape) < 0.2] = 0.0
        dm = DepthMap.from_depths(depths)
        intr = Intrinsics(51.3, 47.9, 8.3, 6.1)
        vs, us = np.nonzero(dm.valid)
        z = depths[vs, us]
        expected = np.stack([(us - intr.cx) * z / intr.fx,
                             (vs - intr.cy) * z / intr.fy, z], axis=1)
        assert np.array_equal(depth_to_points(dm, intr).points, expected)

    def test_projection_round_trip(self):
        rng = np.random.default_rng(6)
        depths = rng.uniform(0.5, 4.0, size=(8, 10))
        dm = DepthMap.from_depths(depths)
        intr = Intrinsics(50.0, 60.0, 4.5, 3.5)
        pts = depth_to_points(dm, intr)
        vs, us = np.nonzero(dm.valid)
        u_back = pts.points[:, 0] * intr.fx / pts.points[:, 2] + intr.cx
        v_back = pts.points[:, 1] * intr.fy / pts.points[:, 2] + intr.cy
        assert np.max(np.abs(u_back - us)) < 1e-9
        assert np.max(np.abs(v_back - vs)) < 1e-9
        assert np.max(np.abs(pts.points[:, 2] - depths[vs, us])) < 1e-9


class TestRefineCloud:
    def test_constant_map_unchanged(self):
        dm = DepthMap.from_depths(np.full((6, 6), 2.0))
        intr = Intrinsics(10.0, 10.0, 3.0, 3.0)
        refined = refine_cloud(dm, intr, BilateralConfig(sigma_r=0.5))
        raw = depth_to_points(dm, intr)
        assert np.allclose(refined.points, raw.points, atol=1e-12)

    def test_noisy_plane_rmse_decreases(self):
        intr = Intrinsics(20.0, 20.0, 8.0, 8.0)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            depths = 5.0 + rng.normal(0.0, 0.02, size=(16, 16))
            dm = DepthMap.from_depths(depths)
            cfg = BilateralConfig(window=2, sigma_s=2.0, sigma_r=0.5)
            refined = refine_cloud(dm, intr, cfg)
            rmse_after = np.sqrt(np.mean((refined.points[:, 2] - 5.0) ** 2))
            rmse_before = np.sqrt(np.mean((depths - 5.0) ** 2))
            if rmse_after < rmse_before:
                wins += 1
        assert wins >= 95

    def test_step_edge_points_unchanged(self):
        depths = np.where(np.arange(12)[None, :] < 6, 1.0, 10.0) * np.ones((8, 1))
        dm = DepthMap.from_depths(depths)
        intr = Intrinsics(10.0, 10.0, 6.0, 4.0)
        refined = refine_cloud(dm, intr, BilateralConfig(sigma_r=0.1))
        raw = depth_to_points(dm, intr)
        assert np.max(np.abs(refined.points - raw.points)) < 1e-6
