import numpy as np
import pytest

from streamstab import (BilateralConfig, DepthMap, Intrinsics,
                        bilateral_depth, depth_to_points, refine_cloud)
from streamstab.errors import NoValidPixels


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
