import math

import numpy as np
import pytest

from streamstab import (GrayImage, Pose, Quaternion, ScoreConfig,
                        adaptive_update_weight, dft2_magnitude_centered,
                        highfreq_ratio, motion_score, quality_score,
                        score_frame, score_terms, to_grayscale)
from streamstab.errors import (DegenerateConfiguration, EmptyImage,
                               InvalidValue, NegativeMagnitude,
                               NonFiniteResult, NonUnitQuaternion)
from streamstab.frame_scoring import _outside_disk
from streamstab.geometry import _SPLIT_ROWS, quat_to_matrix

from conftest import quat_multiply, random_unit_quat


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


def fft2_magnitude_oracle(pixels: np.ndarray) -> np.ndarray:
    """The full-spectrum magnitude, centred by fftshift; the spectrum was
    computed this way before it was mirrored from rfft2."""
    return np.abs(np.fft.fftshift(np.fft.fft2(pixels)))


def rfft2_mirror_oracle(pixels: np.ndarray) -> np.ndarray:
    """The centred spectrum as one serial np.fft.rfft2 and np.abs, with the
    columns left of centre mirrored from it: the code before each pass was
    split between the caller and the worker thread."""
    h, w = pixels.shape
    half = np.abs(np.fft.rfft2(pixels))
    r0, c = h // 2, w // 2
    full = np.empty((h, w))
    full[r0:, c:] = half[:h - r0, :w - c]
    full[:r0, c:] = half[h - r0:, :w - c]
    left = full[:, :c][:, ::-1]
    left[:r0 + 1] = half[r0::-1, 1:c + 1]
    left[r0 + 1:] = half[:r0:-1, 1:c + 1]
    return full


def outside_disk_oracle(h: int, w: int, radius: float) -> np.ndarray:
    v = np.arange(h)[:, None] - h // 2
    u = np.arange(w)[None, :] - w // 2
    return (u * u + v * v) > radius * radius


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

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_gray_image_must_be_2d(self, shape):
        with pytest.raises(EmptyImage, match="2D raster"):
            GrayImage(np.zeros(shape))


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


class TestSpectrumSplit:
    """The rfft and fft passes, split in halves between the caller and the
    worker thread, against one serial rfft2, bit for bit."""

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 7), (7, 1), (2, 2), (31, 33), (384, 512),
        # one row either side of the size floor, and widths whose column
        # halves are empty or one column
        (_SPLIT_ROWS - 1, 9), (_SPLIT_ROWS, 1), (_SPLIT_ROWS, 2),
        (_SPLIT_ROWS + 1, 3), (2 * _SPLIT_ROWS + 1, 64)])
    def test_bit_identical(self, monkeypatch, shape):
        monkeypatch.setattr("streamstab.geometry._THREADS", 2)
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for scale in (1.0, 1e-300, 1e300):
            px = rng.uniform(size=shape) * scale
            assert np.array_equal(dft2_magnitude_centered(GrayImage(px)),
                                  rfft2_mirror_oracle(px))


class TestHalfSpectrumMirror:
    SHAPES = [(1, 1), (1, 7), (7, 1), (2, 1), (1, 2), (3, 5), (6, 10),
              (385, 511), (384, 512)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_full_spectrum_oracle(self, shape):
        px = np.random.default_rng(17).uniform(size=shape)
        oracle = fft2_magnitude_oracle(px)
        spec = dft2_magnitude_centered(GrayImage(px))
        assert spec.shape == shape
        assert np.max(np.abs(spec - oracle)) <= 1e-12 * np.max(oracle)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ratio_matches_on_either_spectrum(self, shape):
        px = np.random.default_rng(18).uniform(size=shape)
        spec = dft2_magnitude_centered(GrayImage(px))
        oracle = fft2_magnitude_oracle(px)
        for radius in (0.0, 0.5, 1.0, min(shape) // 8, max(shape) / 3):
            assert abs(highfreq_ratio(spec, radius)
                       - highfreq_ratio(oracle, radius)) <= 1e-12


class TestOutsideDiskCache:
    def test_cached_mask_is_read_only(self):
        mask = _outside_disk(8, 8, 2.0)
        with pytest.raises(ValueError):
            mask[0, 0] = False
        assert np.array_equal(_outside_disk(8, 8, 2.0),
                              outside_disk_oracle(8, 8, 2.0))

    def test_interleaved_keys_match_fresh_masks(self):
        # more keys than the cache holds, revisited out of order
        rng = np.random.default_rng(19)
        keys = [(h, w, r) for h, w in [(1, 1), (7, 3), (16, 16), (384, 512)]
                for r in (0.0, 1.0, 2.5, 48.0)]
        for i in rng.integers(len(keys), size=60):
            h, w, r = keys[i]
            mags = rng.uniform(size=(h, w))
            mask = outside_disk_oracle(h, w, r)
            expected = float(mags[mask].sum()) / (float(mags.sum()) + 1e-8)
            assert highfreq_ratio(mags, r) == expected
            assert np.array_equal(_outside_disk(h, w, r), mask)


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

    @pytest.mark.parametrize("args", [(2.0, 0.0, 1e308, 1.0),
                                      (0.0, 2.0, 1.0, 1e308),
                                      (1.0, 1.0, 1e308, 1e308),
                                      (2.0, 2.0, 1e308, -1e308)])
    def test_overflow_is_an_error(self, args):
        # the weighted sum was inf or NaN, which score printed with exit 0
        with pytest.raises(NonFiniteResult, match="motion score"):
            motion_score(*args)
        assert motion_score(1.0, 1.0, 1e307, 1e307) == 2e307


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
        a2 = Pose(rm @ a.t + offset, quat_multiply(rot, a.q), 0.0)
        b2 = Pose(rm @ b.t + offset, quat_multiply(rot, b.q), 1.0)
        assert score_frame(a2, b2, img) == pytest.approx(base, abs=1e-9)


def test_nan_quaternion_weight_is_an_error():
    # it scored weight 0.0: its geodesic angle read 0, as for no rotation
    prev = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    cur = Pose(np.zeros(3), Quaternion(math.nan, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(NonUnitQuaternion):
        score_frame(prev, cur, GrayImage(np.full((8, 8), 0.5)))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_pixel_is_invalid_value(x):
    # a NaN pixel gave a NaN weight, and an inf one warned "invalid value
    # encountered in fft"; neither image can now be built
    prev = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    cur = Pose(np.ones(3), Quaternion.identity(), 1.0)
    px = np.full((16, 16), 0.5)
    px[3, 4] = x
    with pytest.raises(InvalidValue, match="pixels must be finite"):
        score_terms(prev, cur, GrayImage(px))
    with pytest.raises(InvalidValue, match="pixels must be finite"):
        to_grayscale(np.repeat(px[:, :, None], 3, axis=2))


def test_quality_score_past_exp_range_is_its_limit():
    # math.exp overflowed below a ratio of about -35.4
    assert quality_score(-40.0) == 0.0
    assert quality_score(-1e300) == 0.0
    ratio = -35.38  # the least ratio tried whose exp is finite keeps its bits
    assert quality_score(ratio) == 1.0 / (1.0 + math.exp(-20.0 * (ratio - 0.1))) > 0.0


def test_highfreq_ratio_of_zero_sum_is_degenerate():
    with pytest.raises(DegenerateConfiguration, match="sum to 0"):
        highfreq_ratio(np.zeros((4, 4)), 1.0, 0.0)


def test_black_frame_without_epsilon_is_degenerate():
    prev = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    cur = Pose(np.ones(3), Quaternion.identity(), 1.0)
    with pytest.raises(DegenerateConfiguration, match="sum to 0"):
        score_frame(prev, cur, GrayImage(np.zeros((16, 16))),
                    ScoreConfig(epsilon=0.0))


def test_overflowing_quaternion_weight_is_not_unit():
    prev = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    cur = Pose(np.zeros(3), Quaternion(1e200, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(NonUnitQuaternion, match="norm inf"):
        score_frame(prev, cur, GrayImage(np.full((8, 8), 0.5)))
