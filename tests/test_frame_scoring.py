import math

import numpy as np
import pytest

from streamstab import (GrayImage, Pose, Quaternion, ScoreConfig,
                        adaptive_update_weight, dft2_magnitude_centered,
                        highfreq_ratio, motion_score, quality_score,
                        score_frame, score_terms, to_grayscale)
from streamstab.errors import EmptyImage, NegativeMagnitude
from streamstab.geometry import quat_to_matrix

from conftest import random_unit_quat


def naive_dft2_magnitude_centered(pixels: np.ndarray) -> np.ndarray:
    """O(N^4) double-sum DFT oracle, independently shifted to the center."""
    h, w = pixels.shape
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (u * ys / h + v * xs / w))
            out[u, v] = np.sum(pixels * phase)
    mags = np.abs(out)
    return np.roll(np.roll(mags, h // 2, axis=0), w // 2, axis=1)


def checkerboard(n: int) -> np.ndarray:
    y, x = np.mgrid[0:n, 0:n]
    return np.where((x + y) % 2 == 0, 1.0, -1.0)


class TestToGrayscale:
    def test_white(self):
        img = to_grayscale(np.ones((2, 2, 3)))
        assert np.allclose(img.pixels, 1.0)

    def test_pure_red(self):
        rgb = np.zeros((1, 1, 3))
        rgb[0, 0, 0] = 1.0
        assert to_grayscale(rgb).pixels[0, 0] == pytest.approx(0.299)

    def test_gray_fixed_point(self):
        rgb = np.full((3, 3, 3), 0.5)
        assert np.allclose(to_grayscale(rgb).pixels, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyImage):
            to_grayscale(np.zeros((0, 0, 3)))


class TestDft:
    def test_constant_image_dc_only(self):
        n, c = 8, 0.7
        spec = dft2_magnitude_centered(GrayImage(np.full((n, n), c)))
        expected = np.zeros((n, n))
        expected[n // 2, n // 2] = c * n * n
        assert np.max(np.abs(spec - expected)) < 1e-9

    def test_impulse_flat_spectrum(self):
        n = 8
        px = np.zeros((n, n))
        px[0, 0] = 1.0
        spec = dft2_magnitude_centered(GrayImage(px))
        assert np.max(np.abs(spec - 1.0)) < 1e-9

    @pytest.mark.parametrize("size", [8, 16])
    def test_matches_naive_oracle(self, size):
        rng = np.random.default_rng(10)
        for _ in range(50):
            px = rng.uniform(size=(size, size))
            spec = dft2_magnitude_centered(GrayImage(px))
            oracle = naive_dft2_magnitude_centered(px)
            assert np.max(np.abs(spec - oracle)) < 1e-9

    def test_non_power_of_two(self):
        rng = np.random.default_rng(11)
        px = rng.uniform(size=(6, 10))
        spec = dft2_magnitude_centered(GrayImage(px))
        oracle = naive_dft2_magnitude_centered(px)
        assert np.max(np.abs(spec - oracle)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            px = rng.uniform(size=(16, 16))
            spec = dft2_magnitude_centered(GrayImage(px))
            lhs = np.sum(px ** 2) * px.size
            rhs = np.sum(spec ** 2)
            assert abs(lhs - rhs) / rhs < 1e-9


class TestHighfreqRatio:
    def test_constant_image_zero(self):
        spec = dft2_magnitude_centered(GrayImage(np.full((8, 8), 0.5)))
        assert highfreq_ratio(spec, radius=1.0) == 0.0

    def test_checkerboard_one(self):
        spec = dft2_magnitude_centered(GrayImage(checkerboard(8)))
        assert highfreq_ratio(spec, radius=2.0) == pytest.approx(1.0, abs=1e-9)

    def test_impulse_bin_count(self):
        n, r = 16, 4
        px = np.zeros((n, n))
        px[0, 0] = 1.0
        spec = dft2_magnitude_centered(GrayImage(px))
        u = np.arange(n)[None, :] - n // 2
        v = np.arange(n)[:, None] - n // 2
        count = int(np.sum(u * u + v * v > r * r))
        got = highfreq_ratio(spec, radius=r, epsilon=0.0)
        assert got == pytest.approx(count / (n * n), abs=1e-12)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(13)
        spec = dft2_magnitude_centered(GrayImage(rng.uniform(size=(16, 16))))
        ratios = [highfreq_ratio(spec, r) for r in (1, 2, 3, 4, 6)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestQualityScore:
    def test_midpoint(self):
        assert quality_score(0.1) == 0.5

    def test_zero(self):
        assert quality_score(0.0) == pytest.approx(1.0 / (1.0 + math.exp(2.0)), abs=1e-12)
        assert quality_score(0.0) == pytest.approx(0.1192029, abs=1e-7)

    def test_one(self):
        assert quality_score(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-18.0)), abs=1e-12)

    def test_strictly_increasing(self):
        values = [quality_score(r) for r in np.linspace(0, 1, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestMotionScore:
    def test_zero(self):
        assert motion_score(0, 0, 3.0, 5.0) == 0.0

    def test_linear_combination(self):
        assert motion_score(0.2, 0.1, 0.5, 2.0) == pytest.approx(0.3)

    def test_unit(self):
        assert motion_score(1.0, 0.0, 1.0, 1.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeMagnitude):
            motion_score(-0.1, 0.0, 1.0, 1.0)


class TestAdaptiveUpdateWeight:
    def test_product(self):
        assert adaptive_update_weight(0.6, 0.5) == pytest.approx(0.3)

    def test_clipped(self):
        assert adaptive_update_weight(3.0, 0.9) == 1.0

    def test_zero(self):
        assert adaptive_update_weight(0.0, 0.7) == 0.0

    def test_range_random(self):
        rng = np.random.default_rng(14)
        for _ in range(10000):
            s1 = rng.uniform(0, 10)
            s2 = rng.uniform(0, 1)
            w = adaptive_update_weight(s1, s2)
            assert 0.0 <= w <= 1.0


class TestScoreFrame:
    def test_identical_poses(self):
        rng = np.random.default_rng(15)
        p = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        img = GrayImage(rng.uniform(size=(16, 16)))
        assert score_frame(p, p, img) == 0.0

    def test_first_frame_initial_weight(self):
        img = GrayImage(np.full((8, 8), 0.5))
        assert score_frame(None, Pose(np.zeros(3), Quaternion.identity()), img) == 1.0

    def test_constant_image_composition(self):
        a = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        b = Pose(np.array([1.0, 0, 0]), Quaternion.identity(), 1.0)
        img = GrayImage(np.full((16, 16), 0.5))
        expected = 1.0 / (1.0 + math.exp(2.0))  # s1 = 1, s2 at R = 0
        assert score_frame(a, b, img) == pytest.approx(expected, abs=1e-9)
        terms = score_terms(a, b, img)
        assert (terms.delta_x, terms.delta_q, terms.s1, terms.ratio) == (1.0, 0.0, 1.0, 0.0)
        assert terms.weight == score_frame(a, b, img)

    def test_first_frame_terms(self):
        img = GrayImage(checkerboard(8))
        cur = Pose(np.zeros(3), Quaternion.identity())
        terms = score_terms(None, cur, img, ScoreConfig(initial_weight=0.25))
        assert terms[:3] == (0.0, 0.0, 0.0)
        assert terms.ratio == pytest.approx(1.0, abs=1e-9)
        assert terms.s2 == quality_score(terms.ratio)
        assert terms.weight == 0.25

    def test_large_motion_clipped(self):
        a = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        b = Pose(np.array([10.0, 0, 0]), Quaternion.identity(), 1.0)
        img = GrayImage(checkerboard(16))
        assert score_frame(a, b, img) == 1.0

    def test_rigid_invariance(self):
        rng = np.random.default_rng(16)
        img = GrayImage(rng.uniform(size=(8, 8)))
        a = Pose(rng.standard_normal(3), random_unit_quat(rng), 0.0)
        b = Pose(rng.standard_normal(3), random_unit_quat(rng), 1.0)
        base = score_frame(a, b, img)
        offset = rng.standard_normal(3)
        rot = random_unit_quat(rng)
        rm = quat_to_matrix(rot)
        a2 = Pose(rm @ a.t + offset, rot.multiply(a.q), 0.0)
        b2 = Pose(rm @ b.t + offset, rot.multiply(b.q), 1.0)
        assert score_frame(a2, b2, img) == pytest.approx(base, abs=1e-9)
