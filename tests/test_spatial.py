import numpy as np
import pytest

from streamstab import (BilateralConfig, DepthMap, Intrinsics,
                        bilateral_depth, depth_to_points, refine_cloud)
from streamstab.errors import NoValidPixels


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

    @pytest.mark.parametrize("reuse_bytes", [0, 20_000])
    def test_capped_weight_reuse_bit_identical(self, monkeypatch, reuse_bytes):
        # no kept weights, and only the first few offsets kept
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

    def test_nan_hole_from_depths(self):
        dm = DepthMap.from_depths([[1, np.nan, 1], [1, 1, 1], [1, 1, 1]])
        out = bilateral_depth(dm, BilateralConfig(sigma_r=0.1))
        assert np.array_equal(out.depths, dm.depths, equal_nan=True)


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

    def test_window_zero_is_identity(self):
        rng = np.random.default_rng(8)
        dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(5, 6)))
        out = bilateral_depth(dm, BilateralConfig(window=0, sigma_r=0.1))
        assert np.array_equal(out.depths, dm.depths)


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
