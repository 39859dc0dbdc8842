import math

import numpy as np
import pytest

import streamstab
from streamstab import (Pose, Quaternion, Trajectory, frame_scoring, geometry,
                        quat_geodesic_angle, quat_normalize, relative_pose,
                        slerp, spatial)
from streamstab.errors import (InvalidGamma, InvalidValue, LengthMismatch,
                               NonFiniteResult, NonUnitQuaternion,
                               ZeroQuaternion)

from conftest import quat_power, random_unit_quat


class TestNormalize:
    def test_scaled_identity(self):
        q = quat_normalize(Quaternion(2, 0, 0, 0))
        assert q == Quaternion(1, 0, 0, 0)

    def test_345(self):
        q = quat_normalize(Quaternion(0, 3, 4, 0))
        assert q == Quaternion(0, 0.6, 0.8, 0)

    def test_zero_raises(self):
        with pytest.raises(ZeroQuaternion):
            quat_normalize(Quaternion(0, 0, 0, 0))

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = Quaternion(*rng.standard_normal(4))
            q = quat_normalize(raw)
            assert abs(q.norm() - 1.0) < 1e-9
            # same direction: cross-ratio of components constant
            assert q.dot(raw) == pytest.approx(raw.norm())


class TestGeodesicAngle:
    def test_identity(self):
        e = Quaternion.identity()
        assert quat_geodesic_angle(e, e) == 0.0

    def test_quarter_turn(self):
        h = math.sqrt(0.5)
        a = quat_geodesic_angle(Quaternion.identity(), Quaternion(h, 0, 0, h))
        assert a == pytest.approx(math.pi / 2, abs=1e-12)

    def test_double_cover(self):
        rng = np.random.default_rng(1)
        q = random_unit_quat(rng)
        assert quat_geodesic_angle(q, -q) == pytest.approx(0.0, abs=1e-6)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitQuaternion):
            quat_geodesic_angle(Quaternion(2, 0, 0, 0), Quaternion.identity())

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a, b, c = (random_unit_quat(rng) for _ in range(3))
            ab = quat_geodesic_angle(a, b)
            ba = quat_geodesic_angle(b, a)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= quat_geodesic_angle(a, c) + quat_geodesic_angle(c, b) + 1e-9


class TestSlerp:
    def test_same_endpoints(self):
        rng = np.random.default_rng(3)
        a = random_unit_quat(rng)
        out = slerp(a, a, 0.5)
        assert abs(abs(out.dot(a)) - 1.0) < 1e-9

    def test_endpoints(self):
        rng = np.random.default_rng(4)
        a, b = random_unit_quat(rng), random_unit_quat(rng)
        assert abs(abs(slerp(a, b, 0.0).dot(a)) - 1.0) < 1e-9
        assert abs(abs(slerp(a, b, 1.0).dot(b)) - 1.0) < 1e-9

    def test_midpoint_quarter_turn(self):
        h = math.sqrt(0.5)
        out = slerp(Quaternion.identity(), Quaternion(h, 0, 0, h), 0.5)
        assert out.w == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
        assert out.z == pytest.approx(math.sin(math.pi / 8), abs=1e-12)
        assert out.w == pytest.approx(0.92388, abs=1e-5)
        assert out.z == pytest.approx(0.38268, abs=1e-5)

    def test_invalid_gamma(self):
        e = Quaternion.identity()
        with pytest.raises(InvalidGamma):
            slerp(e, e, 1.5)

    def test_matches_power_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_unit_quat(rng), random_unit_quat(rng)
            if a.dot(b) < 0:
                b = -b
            rel = a.conjugate().multiply(b)
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                expected = a.multiply(quat_power(rel, gamma))
                got = slerp(a, b, gamma)
                got, expected = (np.array(x, dtype=float) for x in (got, expected))
                assert np.allclose(got, expected, atol=1e-9) \
                    or np.allclose(got, -expected, atol=1e-9)

    def test_unit_norm_and_constant_angular_velocity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_unit_quat(rng), random_unit_quat(rng)
            theta = quat_geodesic_angle(a, b)
            gamma = rng.uniform()
            out = slerp(a, b, gamma)
            assert abs(out.norm() - 1.0) < 1e-9
            assert quat_geodesic_angle(a, out) == pytest.approx(
                gamma * theta, abs=1e-7)

    def test_hemisphere_alignment(self):
        rng = np.random.default_rng(7)
        a, b = random_unit_quat(rng), random_unit_quat(rng)
        for gamma in (0.0, 0.3, 0.7, 1.0):
            p = np.array(slerp(a, b, gamma), dtype=float)
            q = np.array(slerp(a, -b, gamma), dtype=float)
            assert np.allclose(p, q, atol=1e-12) or np.allclose(p, -q, atol=1e-12)


class TestRelativePose:
    def test_identical(self):
        p = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        dt, da = relative_pose(p, p)
        assert np.allclose(dt, 0) and da == 0.0

    def test_translation_only(self):
        a = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        b = Pose(np.array([1.0, 2.0, 2.0]), Quaternion.identity(), 1.0)
        dt, da = relative_pose(a, b)
        assert np.allclose(dt, [1, 2, 2]) and da == 0.0
        assert np.linalg.norm(dt) == pytest.approx(3.0)

    def test_rotation_only(self):
        h = math.sqrt(0.5)
        a = Pose(np.zeros(3), Quaternion.identity(), 0.0)
        b = Pose(np.zeros(3), Quaternion(h, 0, 0, h), 1.0)
        dt, da = relative_pose(a, b)
        assert np.allclose(dt, 0)
        assert da == pytest.approx(math.pi / 2, abs=1e-12)


class TestTrajectoryFromArrays:
    def test_one_row_per_pose(self):
        q = [[1.0, 0, 0, 0]] * 3
        with pytest.raises(ValueError, match="one row per pose"):
            Trajectory.from_arrays(np.zeros((3, 3)), q, [0.0, 1.0])
        with pytest.raises(ValueError, match="one row per pose"):
            Trajectory.from_arrays(np.zeros((2, 3)), q, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("ts, step", [([0.0, 1.0, 1.0], "1.0 -> 1.0"),
                                          ([0.0, 2.0, 1.0], "2.0 -> 1.0"),
                                          ([0.0, math.nan, 1.0], "0.0 -> nan")])
    def test_timestamps_strictly_increasing(self, ts, step):
        with pytest.raises(ValueError, match=f"strictly increasing \\({step}\\)"):
            Trajectory.from_arrays(np.zeros((3, 3)), [[1.0, 0, 0, 0]] * 3, ts)


class TestTrajectoryErrorTypes:
    def test_rows_per_pose_is_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="one row per pose"):
            Trajectory.from_arrays(np.zeros((3, 3)), [[1.0, 0, 0, 0]] * 3,
                                   [0.0, 1.0])

    def test_timestamp_order_is_invalid_value(self):
        with pytest.raises(InvalidValue, match="strictly increasing"):
            Trajectory.from_arrays(np.zeros((2, 3)), [[1.0, 0, 0, 0]] * 2,
                                   [1.0, 1.0])


@pytest.mark.parametrize("q", [Quaternion(math.nan, 0.0, 0.0, 0.0),
                               Quaternion(1.0, 0.0, math.nan, 0.0)])
def test_nan_quaternion_is_not_unit(q):
    # abs(nan - 1) > tol is False: a NaN norm must fail the test, not pass it
    with pytest.raises(NonUnitQuaternion, match="norm nan"):
        quat_geodesic_angle(q, Quaternion.identity())
    with pytest.raises(NonUnitQuaternion, match="norm nan"):
        quat_geodesic_angle(Quaternion.identity(), q)


def test_value_types_have_one_class_each():
    # geometry defines them; the package and the algorithm modules that take
    # them name the same class
    assert streamstab.DepthMap is spatial.DepthMap is geometry.DepthMap
    assert streamstab.GrayImage is frame_scoring.GrayImage is geometry.GrayImage


# a component whose square overflows (Python's ** 2 raised OverflowError)
OVERFLOWING = Quaternion(1e200, 0.0, 0.0, 0.0)


def test_overflowing_norm_is_inf():
    assert OVERFLOWING.norm() == math.inf
    assert Quaternion(1e150, 0.0, 0.0, 0.0).norm() == math.sqrt(1e150 * 1e150)


@pytest.mark.parametrize("normalize", [
    quat_normalize,
    lambda q: slerp(Quaternion.identity(), q, 0.5),
    lambda q: slerp(q, Quaternion.identity(), 0.5)])
def test_overflowing_norm_is_non_finite_result(normalize):
    with pytest.raises(NonFiniteResult, match="quaternion norm overflows"):
        normalize(OVERFLOWING)


@pytest.mark.parametrize("q", [Quaternion(math.nan, 0.0, 0.0, 0.0),
                               Quaternion(1.0, 0.0, math.nan, 0.0)])
@pytest.mark.parametrize("normalize", [
    quat_normalize,
    lambda q: slerp(Quaternion.identity(), q, 0.5),
    lambda q: slerp(q, Quaternion.identity(), 0.0)])
def test_nan_norm_is_non_finite_result(normalize, q):
    # a NaN norm passed both checks, and the result was all NaN
    with pytest.raises(NonFiniteResult, match="NaN component"):
        normalize(q)


def test_overflowing_norm_is_not_unit():
    with pytest.raises(NonUnitQuaternion, match="norm inf"):
        quat_geodesic_angle(OVERFLOWING, Quaternion.identity())
    with pytest.raises(NonUnitQuaternion, match="norm inf"):
        quat_geodesic_angle(Quaternion.identity(), OVERFLOWING)


# a row that is not a unit quaternion, and the norm quat_to_matrix reports
@pytest.mark.parametrize("row, norm", [([1.0, 1.0, 1.0, 1.0], "2.0"),
                                       ([0.0, 0.0, 0.0, 0.0], "0.0"),
                                       ([1.0, math.nan, 0.0, 0.0], "nan"),
                                       ([1e200, 0.0, 0.0, 0.0], "inf")])
def test_quat_to_matrix_rejects_non_unit_row(row, norm):
    # the matrix of a non-unit row is not a rotation: RPE read it silently
    q = np.tile([0.5, 0.5, 0.5, 0.5], (5, 1))
    q[3] = row
    with pytest.raises(NonUnitQuaternion, match=f"^quaternion row 3 has norm "
                                                f"{norm}, expected 1$"):
        geometry.quat_to_matrix(q)
    with pytest.raises(NonUnitQuaternion, match="row 0"):
        geometry.quat_to_matrix(row)


def test_quat_to_matrix_takes_rows_within_unit_tolerance():
    q = np.array([[1.0 + 9e-7, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0 - 9e-7]])
    assert geometry.quat_to_matrix(q).shape == (2, 3, 3)
