import numpy as np
import pytest

from streamstab import DepthMap, GrayImage, PointSet, Pose, Quaternion, Trajectory
from streamstab.errors import (MissingProperty, NonMonotonicTimestamps,
                               ParseError, UnsupportedMagic)
from streamstab.io_formats import (_fmt, read_pfm, read_pgm, read_ply_ascii,
                                   read_trajectory_tum, write_pfm, write_pgm,
                                   write_ply_ascii, write_trajectory_tum)

from conftest import random_trajectory


class TestTum:
    def test_identity_pose(self):
        traj = read_trajectory_tum("0.0 0 0 0 0 0 0 1\n")
        assert len(traj) == 1
        pose = traj[0]
        assert pose.timestamp == 0.0
        assert np.allclose(pose.t, 0)
        assert pose.q == Quaternion(1, 0, 0, 0)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1.0 1 2 3 0 0 0 1\n# trailing\n"
        traj = read_trajectory_tum(text)
        assert len(traj) == 1
        assert np.allclose(traj[0].t, [1, 2, 3])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            traj = random_trajectory(rng, 5)
            back = read_trajectory_tum(write_trajectory_tum(traj))
            for a, b in zip(traj, back):
                assert abs(a.timestamp - b.timestamp) < 1e-12
                assert np.max(np.abs(a.t - b.t)) < 1e-12
                assert abs(abs(a.q.dot(b.q)) - 1.0) < 1e-12

    def test_seven_fields_rejected(self):
        with pytest.raises(ParseError) as exc:
            read_trajectory_tum("0 0 0 0 0 0 1\n")
        assert exc.value.line == 1

    def test_line_number_reported(self):
        text = "0 0 0 0 0 0 0 1\nbad line here\n"
        with pytest.raises(ParseError) as exc:
            read_trajectory_tum(text)
        assert exc.value.line == 2

    def test_non_monotonic_rejected(self):
        text = "1 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n"
        with pytest.raises(NonMonotonicTimestamps):
            read_trajectory_tum(text)

    def test_scalar_last_on_disk(self):
        traj = Trajectory([Pose(np.zeros(3), Quaternion(1, 0, 0, 0), 0.0)])
        line = write_trajectory_tum(traj).splitlines()[1]
        assert line.split() == ["0", "0", "0", "0", "0", "0", "0", "1"]

    def test_empty_trajectory_header_only(self):
        out = write_trajectory_tum(Trajectory([]))
        assert out == "# timestamp tx ty tz qx qy qz qw\n"


class TestPgm:
    def test_p2_single_pixel(self):
        img = read_pgm(b"P2\n1 1\n255\n255\n")
        assert img.pixels[0, 0] == 1.0

    def test_p5_quarters(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        img = read_pgm(data)
        assert np.allclose(img.pixels.ravel(), [0, 85 / 255, 170 / 255, 1.0],
                           atol=1e-9)

    def test_p6_rejected(self):
        with pytest.raises(UnsupportedMagic):
            read_pgm(b"P6\n1 1\n255\nxxx")

    def test_sixteen_bit(self):
        data = b"P5\n1 1\n65535\n" + (30000).to_bytes(2, "big")
        img = read_pgm(data)
        assert img.pixels[0, 0] == pytest.approx(30000 / 65535)

    def test_comment_in_header(self):
        img = read_pgm(b"P2\n# a comment\n1 1\n255\n128\n")
        assert img.pixels[0, 0] == pytest.approx(128 / 255)

    def test_truncated_payload(self):
        with pytest.raises(ParseError):
            read_pgm(b"P5\n2 2\n255\n" + bytes([0, 1]))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            read_pgm(b"P5\n1 1\n255\n" + bytes([0, 99]))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.integers(0, 256, size=(5, 7)) / 255.0)
        back = read_pgm(write_pgm(img))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-12

    def test_sixteen_bit_round_trip(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.integers(0, 65536, size=(5, 7)) / 65535.0)
        back = read_pgm(write_pgm(img, maxval=65535))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-12


class TestPfm:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            depths = rng.uniform(0.5, 10.0, size=(6, 9)).astype(np.float32)
            valid = rng.uniform(size=depths.shape) > 0.3
            dm = DepthMap(np.where(valid, depths, 0.0).astype(float), valid)
            back = read_pfm(write_pfm(dm))
            assert np.array_equal(back.valid, valid)
            assert np.array_equal(back.depths[valid],
                                  depths.astype(float)[valid])

    def test_nan_becomes_invalid(self):
        depths = np.array([[1.0, float("nan")], [2.0, -3.0]], dtype="<f4")
        data = b"Pf\n2 2\n-1.0\n" + depths[::-1].tobytes()
        dm = read_pfm(data)
        assert dm.valid.tolist() == [[True, False], [True, False]]

    def test_color_pf_rejected(self):
        with pytest.raises(UnsupportedMagic):
            read_pfm(b"PF\n1 1\n-1.0\n" + b"\0" * 12)

    def test_big_endian_scale(self):
        payload = np.array([[2.5]], dtype=">f4").tobytes()
        dm = read_pfm(b"Pf\n1 1\n1.0\n" + payload)
        assert dm.depths[0, 0] == 2.5

    def test_trailing_garbage(self):
        payload = np.array([[2.5]], dtype="<f4").tobytes()
        with pytest.raises(ParseError):
            read_pfm(b"Pf\n1 1\n-1.0\n" + payload + b"x")

    def test_truncated(self):
        with pytest.raises(ParseError):
            read_pfm(b"Pf\n4 4\n-1.0\n" + b"\0" * 8)


class TestPly:
    def test_single_point_round_trip(self):
        cloud = PointSet(np.array([[1.0, 2.0, 3.0]]))
        back = read_ply_ascii(write_ply_ascii(cloud))
        assert np.array_equal(back.points, cloud.points)
        assert back.confidences is None

    def test_large_round_trip_with_confidence(self):
        rng = np.random.default_rng(3)
        cloud = PointSet(rng.standard_normal((1000, 3)),
                         rng.uniform(0.1, 2.0, size=1000))
        back = read_ply_ascii(write_ply_ascii(cloud))
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.confidences, cloud.confidences)

    def test_writer_matches_per_value_format(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-5, 5, (50, 3))
        points[3] = [-0.0, 0.0, 1e300]
        conf = rng.uniform(0.1, 2.0, size=50)
        lines = ["ply", "format ascii 1.0", "element vertex 50",
                 "property float x", "property float y", "property float z",
                 "property float confidence", "end_header"]
        lines += [" ".join(_fmt(v) for v in (*p, c))
                  for p, c in zip(points, conf)]
        expected = ("\n".join(lines) + "\n").encode("ascii")
        assert write_ply_ascii(PointSet(points, conf)) == expected

    def test_empty_cloud_header_only(self):
        data = write_ply_ascii(PointSet(np.zeros((0, 3))))
        assert data.endswith(b"element vertex 0\nproperty float x\n"
                             b"property float y\nproperty float z\n"
                             b"end_header\n")

    def test_missing_z_rejected(self):
        data = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
                b"property float x\nproperty float y\nend_header\n1 2\n")
        with pytest.raises(MissingProperty):
            read_ply_ascii(data)

    def test_wrong_vertex_count(self):
        data = (b"ply\nformat ascii 1.0\nelement vertex 2\n"
                b"property float x\nproperty float y\nproperty float z\n"
                b"end_header\n1 2 3\n")
        with pytest.raises(ParseError):
            read_ply_ascii(data)

    def test_bad_magic(self):
        with pytest.raises(UnsupportedMagic):
            read_ply_ascii(b"not a ply\n")
