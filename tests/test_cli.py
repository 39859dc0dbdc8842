import ast
import io
import math
import platform
import re
import resource
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamstab import DepthMap, GrayImage, PointSet, Pose, Quaternion, Trajectory
from streamstab import cli
from streamstab.cli import build_parser, main
from streamstab.io_formats import (read_trajectory_tum, write_pfm, write_pgm,
                                   write_ply_ascii, write_trajectory_tum)

from conftest import random_trajectory
from test_acceptance import _write_fixtures
from test_io_formats import FUZZ


@pytest.fixture
def traj_file(tmp_path):
    e = Quaternion.identity()
    traj = Trajectory([Pose(np.array([0.1 * i, 0.0, 0.0]), e, i / 30.0)
                       for i in range(4)])
    path = tmp_path / "traj.txt"
    path.write_text(write_trajectory_tum(traj))
    return path


@pytest.fixture
def frames_dir(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    img = GrayImage(np.full((8, 8), 0.5))
    for i in range(4):
        (d / f"frame_{i:03d}.pgm").write_bytes(write_pgm(img))
    return d


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the command line of each flag that test_out_of_range_flag_usage_error
# checks outside refine; flag values are checked while argv is parsed, before
# any file is read
_FLAG_ARGV = {
    **dict.fromkeys(["--fmin", "--beta-gain", "--default-dt"],
                    ["stabilize", "--in", "t.txt", "--out", "o.txt"]),
    **dict.fromkeys(["--wa", "--wr", "--ws", "--lambda1", "--lambda2",
                     "--lambda3", "--conf-loss", "--rgb-loss"],
                    ["eval-loss", "--pred", "t.txt", "--gt", "t.txt"]),
    **dict.fromkeys(["--frames", "--state-dim", "--seed", "--policy"],
                    ["simulate"]),
    "--k-normals": ["eval-recon", "--pred", "c.ply", "--gt", "c.ply"],
    **dict.fromkeys(["--w1", "--w2", "--radius", "--epsilon", "--clip-max",
                     "--initial-weight"],
                    ["score", "--traj", "t.txt", "--frames", "f"]),
}


class TestScore:
    def test_constant_images(self, capsys, traj_file, frames_dir):
        code, out, _ = run(capsys, ["score", "--traj", str(traj_file),
                                    "--frames", str(frames_dir)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,delta_x,delta_q,s1,R,s2,weight"
        assert len(lines) == 5
        s2_expected = 1.0 / (1.0 + math.exp(2.0))
        for line in lines[2:]:
            s2 = float(line.split(",")[5])
            assert s2 == pytest.approx(s2_expected, abs=1e-6)

    def test_identical_poses_zero_weight(self, capsys, tmp_path, frames_dir):
        e = Quaternion.identity()
        traj = Trajectory([Pose(np.zeros(3), e, i / 30.0) for i in range(4)])
        path = tmp_path / "still.txt"
        path.write_text(write_trajectory_tum(traj))
        code, out, _ = run(capsys, ["score", "--traj", str(path),
                                    "--frames", str(frames_dir)])
        assert code == 0
        row2 = out.strip().splitlines()[2].split(",")
        assert float(row2[6]) == 0.0

    def test_count_mismatch(self, capsys, traj_file, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, ["score", "--traj", str(traj_file),
                                    "--frames", str(empty)])
        assert code == 2
        assert "0 frames" in err

    def test_bad_trajectory_exit_2(self, capsys, tmp_path, frames_dir):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        code, _, _ = run(capsys, ["score", "--traj", str(bad),
                                  "--frames", str(frames_dir)])
        assert code == 2

    def test_bound_flag_values_accepted(self, capsys, traj_file, frames_dir):
        code, out, _ = run(capsys, [
            "score", "--traj", str(traj_file), "--frames", str(frames_dir),
            "--w1", "0", "--w2", "0", "--radius", "0", "--clip-max", "0",
            "--initial-weight", "0", "--epsilon", "1e-300"])
        assert code == 0
        assert [row.split(",")[6] for row in out.splitlines()[1:]] == ["0"] * 4

    @pytest.mark.parametrize("flag", ["--w1", "--w2"])
    def test_motion_score_overflow_exit_3(self, capsys, tmp_path, frames_dir,
                                          flag):
        # w * delta overflowed: `inf` in the s1 column, with exit 0
        # steps of 2 units and of pi radians
        traj = Trajectory([Pose(np.array([2.0 * i, 0, 0]),
                                Quaternion(0, 0, 0, 1) if i % 2 else
                                Quaternion.identity(), i / 30.0)
                           for i in range(4)])
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(traj))
        code, out, err = run(capsys, ["score", "--traj", str(path),
                                      "--frames", str(frames_dir),
                                      flag, "1e308"])
        assert code == 3
        assert "inf" not in out
        assert err == ("error: motion score is not finite: a weighted term "
                       "overflows\n")

    def test_all_black_frames(self, capsys, traj_file, tmp_path):
        d = tmp_path / "black"
        d.mkdir()
        for i in range(4):
            (d / f"{i}.pgm").write_bytes(write_pgm(GrayImage(np.zeros((8, 8)))))
        code, out, _ = run(capsys, ["score", "--traj", str(traj_file),
                                    "--frames", str(d)])
        assert code == 0
        assert all(row.split(",")[4] == "0" for row in out.splitlines()[1:])

    @pytest.mark.parametrize("payload, message", [
        (b"P2\n2 2\n255\n1 2\n3 \xff\n", "non-ASCII"),
        (b"P2\n2 2\n255\n1 2\n3 -3\n", "negative PGM sample"),
        (b"P2\n2 2\n255\n1 2\n3 1_0\n", "non-integer PGM sample"),
        (b"P2\n2 2\n255\n1 2\n3 " + b"9" * 400 + b"\n",
         "sample exceeds maxval"),
    ], ids=["non-ascii", "negative", "python-int", "past-float-range"])
    def test_bad_p2_frame_parse_error(self, capsys, traj_file, frames_dir,
                                      payload, message):
        (frames_dir / "frame_002.pgm").write_bytes(payload)
        code, out, err = run(capsys, ["score", "--traj", str(traj_file),
                                      "--frames", str(frames_dir)])
        assert code == 2
        assert message in err
        assert len(out.splitlines()) == 3  # the header and frames 0 and 1

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's dynamic malloc thresholds")
    def test_each_frame_reuses_the_heap(self, tmp_path):
        # a 384x512 frame makes ~7 MB of temporaries; if glibc trimmed them
        # off the heap each frame would fault them in again, ~880 page faults
        rng = np.random.default_rng(11)
        traj = random_trajectory(rng, 40)
        frames = [write_pgm(GrayImage(rng.uniform(size=(384, 512))))
                  for _ in range(40)]

        def score(n):
            (tmp_path / f"traj{n}.txt").write_text(
                write_trajectory_tum(traj[:n]))
            (tmp_path / f"frames{n}").mkdir()
            for i, frame in enumerate(frames[:n]):
                (tmp_path / f"frames{n}" / f"{i:03d}.pgm").write_bytes(frame)
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = subprocess.run(
                [sys.executable, "-m", "streamstab", "score", "--traj",
                 str(tmp_path / f"traj{n}.txt"), "--frames",
                 str(tmp_path / f"frames{n}")],
                capture_output=True, text=True, check=True)
            after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            return proc.stdout, after - before

        out10, faults10 = score(10)
        out40, faults40 = score(40)
        assert out40.splitlines()[:11] == out10.splitlines()
        assert (faults40 - faults10) / 30 < 100


class TestStabilize:
    def test_passthrough(self, capsys, traj_file, tmp_path):
        out_path = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["stabilize", "--in", str(traj_file),
                                  "--out", str(out_path), "--fmin", "1e9"])
        assert code == 0
        orig = read_trajectory_tum(traj_file.read_text())
        smoothed = read_trajectory_tum(out_path.read_text())
        for a, b in zip(orig, smoothed):
            assert np.max(np.abs(a.t - b.t)) < 1e-9

    def test_byte_stable(self, capsys, traj_file, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["stabilize", "--in", str(traj_file),
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("quaternion", ["1e200 1e200 0 0", "0 0 0 0"])
    def test_bad_quaternion_parse_error_with_line(self, capsys, tmp_path,
                                                  quaternion):
        src = tmp_path / "t.txt"
        src.write_text(f"# header\n0 0 0 0 {quaternion}\n")
        code, _, err = run(capsys, ["stabilize", "--in", str(src),
                                    "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "line 2" in err

    def test_bad_flag_usage_error(self, traj_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["stabilize", "--in", str(traj_file),
                  "--out", str(tmp_path / "o.txt"), "--fmin", "abc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--fmin", "1e308"],
                                       ["--beta-gain", "1e308"], []],
                             ids=["fmin", "beta-gain", "tiny-dt"])
    def test_overflowing_cutoff_exit_0(self, capsys, traj_file, tmp_path,
                                       flags):
        # 2 pi f dt overflowed, and inf / inf ended in exit 3 with
        # "error: gamma nan outside [0, 1]"
        src = traj_file
        if not flags:  # a step of 5e-324 s: the speed overflows
            src = tmp_path / "tiny.txt"
            src.write_text("0 0 0 0 0 0 0 1\n5e-324 1 0 0 0 0 0 1\n")
        dst = tmp_path / "o.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["stabilize", "--in", str(src),
                                          "--out", str(dst), *flags])
        assert (code, out, err) == (0, "", "")
        smoothed = read_trajectory_tum(dst.read_text())
        if flags:  # alpha is 1.0: the input passes through
            assert np.array_equal(smoothed.t, read_trajectory_tum(
                src.read_text()).t)
        else:  # alpha = x / (x + 1) for x = 2 pi * 0.007 * 1
            assert dst.read_text().splitlines()[2].split()[1] == \
                "0.042129351494096141"


class TestRefine:
    def test_constant_pfm_identity(self, capsys, tmp_path):
        dm = DepthMap.from_depths(np.full((6, 6), 2.0))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        dst = tmp_path / "out.pfm"
        code, _, _ = run(capsys, ["refine", "--in", str(src), "--out", str(dst),
                                  "--sigma-r", "0.5"])
        assert code == 0
        from streamstab.io_formats import read_pfm
        out = read_pfm(dst.read_bytes())
        assert np.max(np.abs(out.depths - 2.0)) < 1e-6

    def test_ply_without_intrinsics_usage_error(self, tmp_path):
        dm = DepthMap.from_depths(np.full((4, 4), 2.0))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--in", str(src), "--out", str(tmp_path / "o.ply")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("out, flags", [
        ("o.ply", ["--fx", "10", "--fy", "10", "--cx", "2"]),
        ("o.png", ["--fx", "10", "--fy", "10", "--cx", "2", "--cy", "2"]),
    ], ids=["ply-without-cy", "png"])
    def test_usage_error_before_reading_or_filtering(self, monkeypatch,
                                                     tmp_path, out, flags):
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 4), 2.0))))

        def never(*args):
            raise AssertionError("the map was read or filtered")
        monkeypatch.setattr("streamstab.io_formats.read_pfm", never)
        monkeypatch.setattr("streamstab.spatial.bilateral_depth", never)
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--in", str(src), "--out", str(tmp_path / out),
                  *flags])
        assert exc.value.code == 2

    def test_ply_output(self, capsys, tmp_path):
        dm = DepthMap.from_depths(np.full((4, 4), 2.0))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        dst = tmp_path / "out.ply"
        code, _, _ = run(capsys, ["refine", "--in", str(src), "--out", str(dst),
                                  "--fx", "10", "--fy", "10",
                                  "--cx", "2", "--cy", "2"])
        assert code == 0
        from streamstab.io_formats import read_ply_ascii
        cloud = read_ply_ascii(dst.read_bytes())
        assert len(cloud) == 16


    @pytest.mark.parametrize("flag, values", [
        ("--window", ["-1", "1.5", "x"]),
        ("--sigma-s", ["0", "-2", "nan", "inf", "x"]),
        ("--sigma-r", ["0", "-1", "nan", "-inf", "x", "0_5", "\u20030.5"]),
        ("--fx", ["0", "-1", "nan", "inf", "x"]),
        ("--fy", ["0", "-1", "nan", "-inf", "x"]),
        ("--cx", ["nan", "inf", "-inf", "x"]),
        ("--cy", ["nan", "inf", "-inf", "x"]),
        ("--fmin", ["0", "-1", "nan", "inf", "x"]),
        ("--beta-gain", ["-0.1", "nan", "inf", "x"]),
        ("--default-dt", ["0.1"]),
        ("--wa", ["nan", "inf", "x"]),
        ("--wr", ["nan", "-inf"]),
        ("--ws", ["nan", "inf"]),
        ("--lambda1", ["nan"]),
        ("--lambda2", ["inf"]),
        ("--lambda3", ["-inf"]),
        ("--conf-loss", ["nan"]),
        ("--rgb-loss", ["inf"]),
        ("--frames", ["0", "-3", "1.5", "x", "\u0663", "1_0"]),
        ("--state-dim", ["0", "-1", "x"]),
        ("--policy", ["constant:abc", "constant:nan", "constant:inf",
                      "constant", "constant:", "bogus", "adaptive:1",
                      "constant:1_0", "constant:\u0661"]),
        ("--seed", ["-1", "1.5", "nan", "x", "1_0", "\u0661\u0660"]),
        ("--w1", ["-1", "nan", "inf", "x"]),
        ("--w2", ["-0.5", "nan", "-inf"]),
        ("--radius", ["-1", "nan", "inf"]),
        ("--epsilon", ["0", "-0.0", "-1e-8", "nan", "inf", "x"]),
        ("--clip-max", ["-1", "nan", "inf"]),
        ("--initial-weight", ["-1", "nan", "inf"]),
        ("--k-normals", ["0", "-1", "1.5", "nan", "x"]),
    ])
    def test_out_of_range_flag_usage_error(self, capsys, tmp_path, flag,
                                           values):
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 4), 2.0))))
        argv = _FLAG_ARGV.get(flag, ["refine", "--in", str(src),
                                     "--out", str(tmp_path / "o.pfm")])
        for value in values:
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("config", [False, True], ids=["flag", "config"])
    def test_sigma_r_whose_square_is_zero_exit_3(self, capsys, tmp_path,
                                                 config):
        # 2 * sigma_r**2 underflows to 0: two RuntimeWarnings, then an error
        # about the NaN depths that 0 / -0 made
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 5), 2.0))))
        dst = tmp_path / "o.pfm"
        argv = ["refine", "--in", str(src), "--out", str(dst)]
        if config:
            (tmp_path / "c.cfg").write_text("sigma-r = 1e-200\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        else:
            argv += ["--sigma-r", "1e-200"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == ("error: sigma_r 1e-200 is too small: "
                       "2 * sigma_r**2 underflows to 0\n")
        assert not dst.exists()

    @pytest.mark.parametrize("sigma_r", ["1e-161", "1e-156", "1e-154"])
    def test_tiny_sigma_r_no_warning(self, capsys, tmp_path, sigma_r):
        # a difference over 2 * sigma_r**2 overflowed to -inf, which the
        # exponent floor raises, with an overflow RuntimeWarning
        dm = DepthMap.from_depths(np.full((4, 5), 2.0))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        dst = tmp_path / "o.pfm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["refine", "--in", str(src), "--out",
                                          str(dst), "--sigma-r", sigma_r])
        assert (code, err) == (0, "")
        assert dst.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("flag", ["--sigma-s", "--sigma-r"])
    def test_sigma_whose_square_overflows_same_bytes(self, capsys, tmp_path,
                                                     flag):
        # sigma**2 ended in an OverflowError traceback from about 1.34e154
        # on; every weight of that sigma is 1.0, as at 1e150 on these depths
        rng = np.random.default_rng(7)
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(
            rng.uniform(1.0, 5.0, size=(6, 7)))))
        outputs = []
        for sigma in ("1e150", "1.4e154", "1e308"):
            dst = tmp_path / f"{sigma}.pfm"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, ["refine", "--in", str(src),
                                              "--out", str(dst), flag, sigma])
            assert (code, out, err) == (0, "", "")
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("flags", [["--fx", "1e-308"], ["--cx=-1e308"]])
    def test_point_past_float_range_exit_3(self, capsys, tmp_path, flags):
        # x overflowed to inf: a RuntimeWarning, then `inf` in the PLY, exit 0
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 5), 2.0))))
        dst = tmp_path / "o.ply"
        argv = ["refine", "--in", str(src), "--out", str(dst), "--fx", "50",
                "--fy", "50", "--cx", "2", "--cy", "2", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == ("error: a back-projected point is past float's range: "
                       "the intrinsics are out of scale with the depths\n")
        assert not dst.exists()

    def test_window_past_map_same_bytes(self, capsys, tmp_path):
        # the window is clamped to max(H, W) - 1 = 4; before, the padded copy
        # for 99999999 ended in a MemoryError traceback
        rng = np.random.default_rng(6)
        dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(4, 5)))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        outputs = []
        for window in ("4", "99999999"):
            dst = tmp_path / f"out{window}.pfm"
            code, out, err = run(capsys, ["refine", "--in", str(src),
                                          "--out", str(dst), "--window", window])
            assert (code, err) == (0, "")
            outputs.append((out, dst.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] != src.read_bytes()

    def test_window_zero_returns_input(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(5, 7)))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        dst = tmp_path / "out.pfm"
        code, _, err = run(capsys, ["refine", "--in", str(src),
                                    "--out", str(dst), "--window", "0"])
        assert code == 0
        assert err == ""
        assert dst.read_bytes() == src.read_bytes()

    def test_integer_past_float_range(self, capsys, tmp_path):
        # int flags are not converted to float: a 400-digit --window ended in
        # an OverflowError traceback, and is now clamped like any other
        dm = DepthMap.from_depths(np.full((4, 5), 2.0))
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(dm))
        code, _, err = run(capsys, ["refine", "--in", str(src), "--out",
                                    str(tmp_path / "o.pfm"),
                                    "--window", "1" + "0" * 400])
        assert (code, err) == (0, "")
        assert (tmp_path / "o.pfm").read_bytes() == src.read_bytes()


class TestEval:
    def test_eval_traj_identical(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng, 10)
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(traj))
        code, out, _ = run(capsys, ["eval-traj", "--pred", str(path),
                                    "--gt", str(path)])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "frames,ate,rpe_trans,rpe_rot"
        frames, ate, rpe_t, rpe_r = row.split(",")
        assert frames == "10"
        assert float(ate) < 1e-9
        assert float(rpe_t) < 1e-9

    def test_prefix_frames_clamped_with_warning(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        traj = random_trajectory(rng, 5)
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(traj))
        code, out, err = run(capsys, ["eval-traj", "--pred", str(path),
                                      "--gt", str(path),
                                      "--prefix-frames", "50"])
        assert code == 0
        # one warning for the run, not one per trajectory
        assert err == ("warning: --prefix-frames 50 exceeds trajectory "
                       "length 5; clamping\n")
        assert out.splitlines()[1].startswith("5,")

    def test_prefix_frames_clamped_to_shorter_trajectory(self, capsys,
                                                         tmp_path):
        # the warning said "clamping", then the unequal prefixes were exit 3
        rng = np.random.default_rng(14)
        pred, gt = tmp_path / "p.txt", tmp_path / "g.txt"
        pred.write_text(write_trajectory_tum(random_trajectory(rng, 12)))
        gt.write_text(write_trajectory_tum(random_trajectory(rng, 8)))
        argv = ["eval-traj", "--pred", str(pred), "--gt", str(gt)]
        code, out, err = run(capsys, argv + ["--prefix-frames", "20"])
        assert (code, err) == (0, "warning: --prefix-frames 20 exceeds "
                                  "trajectory length 8; clamping\n")
        assert out.splitlines()[1].startswith("8,")
        assert run(capsys, argv + ["--prefix-frames", "8"]) == (0, out, "")

    def test_non_positive_prefix_frames_usage_error(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(random_trajectory(rng, 5)))
        with pytest.raises(SystemExit) as exc:
            main(["eval-traj", "--pred", str(path), "--gt", str(path),
                  "--prefix-frames", "-3"])
        assert exc.value.code == 2

    def test_eval_depth_scale_mode(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        gt = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        pred = DepthMap.from_depths(1.3 * gt.depths)
        gp, pp = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
        gp.write_bytes(write_pfm(gt))
        pp.write_bytes(write_pfm(pred))
        code, out, _ = run(capsys, ["eval-depth", "--pred", str(pp),
                                    "--gt", str(gp), "--mode", "scale"])
        assert code == 0
        abs_rel, delta = out.strip().splitlines()[1].split(",")
        assert float(abs_rel) == pytest.approx(0.0, abs=1e-6)
        assert float(delta) == 100.0

    def test_eval_depth_constant_pred_scale_and_shift(self, capsys, tmp_path):
        # exited 0 with a RankWarning and a number from an underdetermined fit
        pp, gp = tmp_path / "pred.pfm", tmp_path / "gt.pfm"
        pp.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 5), 1.5))))
        gp.write_bytes(write_pfm(DepthMap.from_depths(
            np.linspace(1.0, 3.0, 20).reshape(4, 5))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eval-depth", "--pred", str(pp),
                                          "--gt", str(gp),
                                          "--mode", "scale_and_shift"])
        assert (code, out) == (3, "")
        assert err == "error: pred depths have no spread\n"

    def test_eval_recon_identical(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointSet(rng.standard_normal((60, 3)))
        path = tmp_path / "c.ply"
        path.write_bytes(write_ply_ascii(cloud))
        code, out, _ = run(capsys, ["eval-recon", "--pred", str(path),
                                    "--gt", str(path)])
        assert code == 0
        acc, comp, nc = (float(v) for v in out.strip().splitlines()[1].split(","))
        assert acc == 0.0 and comp == 0.0
        assert nc == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("header, line", [
        (b"format\nelement vertex 1\n", 2),
        (b"format ascii 1.0\nelement vertex\n", 3),
        (b"format ascii 1.0\nelement vertex x\n", 3),
    ], ids=["bare-format", "vertex-without-count", "vertex-count-not-int"])
    def test_eval_recon_bad_ply_header_parse_error(self, capsys, tmp_path,
                                                   header, line):
        path = tmp_path / "c.ply"
        path.write_bytes(b"ply\n" + header + b"property float x\n"
                         b"property float y\nproperty float z\n"
                         b"end_header\n1 2 3\n")
        code, out, err = run(capsys, ["eval-recon", "--pred", str(path),
                                      "--gt", str(path)])
        assert code == 2
        assert out == ""
        assert f"line {line}" in err

    def test_eval_recon_non_positive_confidence(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        cloud = PointSet(rng.standard_normal((30, 3)), np.ones(30))
        text = write_ply_ascii(cloud).decode("ascii").splitlines()
        text[8 + 4] = text[8 + 4].rsplit(" ", 1)[0] + " -1"  # 8 header lines
        path = tmp_path / "c.ply"
        path.write_text("\n".join(text) + "\n")
        code, out, err = run(capsys, ["eval-recon", "--pred", str(path),
                                      "--gt", str(path)])
        assert (code, out) == (3, "")
        assert err == ("error: confidences must be one finite positive value "
                       "per point\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["--pred", "--gt"])
    def test_eval_recon_non_finite_vertex_parse_error(self, capsys, tmp_path,
                                                      bad, side):
        rng = np.random.default_rng(6)
        good = tmp_path / "good.ply"
        good.write_bytes(write_ply_ascii(PointSet(rng.standard_normal((30, 3)))))
        lines = good.read_text().splitlines()
        lines[7 + 11] = f"0.5 {bad} 1"  # vertex 12, after 7 header lines
        broken = tmp_path / "broken.ply"
        broken.write_text("\n".join(lines) + "\n")
        paths = {"--pred": str(good), "--gt": str(good), side: str(broken)}
        code, out, err = run(capsys, ["eval-recon", "--pred", paths["--pred"],
                                      "--gt", paths["--gt"]])
        assert code == 2
        assert out == ""
        assert "line 19" in err and "non-finite" in err

    def test_eval_recon_k_normals_below_one_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.ply"
        path.write_bytes(write_ply_ascii(PointSet(np.eye(3))))
        with pytest.raises(SystemExit) as exc:
            main(["eval-recon", "--pred", str(path), "--gt", str(path),
                  "--k-normals", "0"])
        assert exc.value.code == 2
        assert "--k-normals" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1_0", "1.5_0", "\u0661"],
                             ids=["underscore", "underscore-fraction",
                                  "arabic-digit"])
    def test_eval_traj_non_decimal_number_parse_error(self, capsys, tmp_path,
                                                      bad):
        rng = np.random.default_rng(7)
        lines = write_trajectory_tum(random_trajectory(rng, 5)).splitlines()
        fields = lines[3].split()
        lines[3] = " ".join(fields[:1] + [bad] + fields[2:])  # pose 3's tx
        path = tmp_path / "t.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["eval-traj", "--pred", str(path),
                                      "--gt", str(path)])
        assert code == 2
        assert out == ""
        assert "line 4" in err and "non-numeric field" in err

    def test_eval_traj_ascii_separator_in_line_parse_error(self, capsys,
                                                          tmp_path):
        # str.split would split pose 3's tx and ty at \x1f, and
        # str.splitlines would end line 2 at \x1c
        rng = np.random.default_rng(9)
        lines = write_trajectory_tum(random_trajectory(rng, 5)).splitlines()
        lines[0] += "\x1c# more"
        fields = lines[3].split()
        lines[3] = " ".join(fields[:1] + ["\x1f".join(fields[1:3])]
                            + fields[3:])
        path = tmp_path / "t.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["eval-traj", "--pred", str(path),
                                      "--gt", str(path)])
        assert code == 2
        assert out == ""
        assert "line 4" in err and "non-numeric field" in err

    @pytest.mark.parametrize("side", ["--pred", "--gt"])
    def test_eval_recon_underscore_vertex_parse_error(self, capsys, tmp_path,
                                                      side):
        rng = np.random.default_rng(8)
        good = tmp_path / "good.ply"
        good.write_bytes(write_ply_ascii(PointSet(rng.standard_normal((30, 3)))))
        lines = good.read_text().splitlines()
        lines[7 + 11] = "0.5 1_0 1"  # vertex 12, after 7 header lines
        broken = tmp_path / "broken.ply"
        broken.write_text("\n".join(lines) + "\n")
        paths = {"--pred": str(good), "--gt": str(good), side: str(broken)}
        code, out, err = run(capsys, ["eval-recon", "--pred", paths["--pred"],
                                      "--gt", paths["--gt"]])
        assert code == 2
        assert out == ""
        assert "line 19" in err and "non-numeric vertex field" in err

    @pytest.mark.parametrize("command", ["eval-traj", "eval-loss"])
    def test_trajectories_of_unequal_length_exit_3(self, capsys, tmp_path,
                                                   command):
        rng = np.random.default_rng(13)
        pred, gt = tmp_path / "p.txt", tmp_path / "g.txt"
        pred.write_text(write_trajectory_tum(random_trajectory(rng, 6)))
        gt.write_text(write_trajectory_tum(random_trajectory(rng, 5)))
        code, out, err = run(capsys, [command, "--pred", str(pred),
                                      "--gt", str(gt)])
        assert (code, out) == (3, "")
        assert err == "error: trajectories must have equal length\n"

    def test_eval_recon_missing_end_header_exit_2(self, capsys, tmp_path):
        good = tmp_path / "good.ply"
        good.write_bytes(write_ply_ascii(PointSet(np.eye(3))))
        broken = tmp_path / "broken.ply"
        broken.write_bytes(good.read_bytes().replace(b"end_header\n", b""))
        code, out, err = run(capsys, ["eval-recon", "--pred", str(broken),
                                      "--gt", str(good)])
        assert (code, out, err) == (2, "", "error: missing end_header\n")

    def test_eval_loss_identical_constant_velocity(self, capsys, tmp_path):
        e = Quaternion.identity()
        traj = Trajectory([Pose(np.array([float(i), 0, 0]), e, float(i))
                           for i in range(5)])
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(traj))
        code, out, _ = run(capsys, ["eval-loss", "--pred", str(path),
                                    "--gt", str(path)])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "ate,rpe,acc,pose,conf,rgb,total"
        values = [float(v) for v in row.split(",")]
        assert all(abs(v) < 1e-9 for v in values)


    @pytest.mark.parametrize("flag", ["--wa", "--wr", "--ws"])
    def test_eval_loss_negative_weight_scales_its_term(self, capsys, tmp_path,
                                                       flag):
        # a term of negative weight was dropped: --wr -1 printed --wr 0's pose
        rng = np.random.default_rng(15)
        pred, gt = tmp_path / "p.txt", tmp_path / "g.txt"
        pred.write_text(write_trajectory_tum(random_trajectory(rng, 6)))
        gt.write_text(write_trajectory_tum(random_trajectory(rng, 6)))
        weights = {"--wa": 1.0, "--wr": 1.0, "--ws": 1.0, flag: -1.0}
        code, out, err = run(capsys, ["eval-loss", "--pred", str(pred),
                                      "--gt", str(gt), flag, "-1"])
        assert (code, err) == (0, "")
        ate, rpe, acc, pose, _, _, total = (
            float(v) for v in out.splitlines()[1].split(","))
        assert pose == (ate * weights["--wa"] + rpe * weights["--wr"]
                        + acc * weights["--ws"])
        assert total == pose

    def test_eval_loss_evaluates_each_term_once(self, capsys, monkeypatch,
                                                tmp_path):
        # the table's terms are summed into pose, not evaluated again by
        # loss_pose: loss_ate calls scale_normalizer twice, loss_rpe
        # hemisphere_align twice and loss_acc once
        from streamstab import losses
        calls = []
        for name in ("scale_normalizer", "hemisphere_align"):
            def counted(*args, _f=getattr(losses, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(losses, name, counted)
        rng = np.random.default_rng(16)
        pred, gt = random_trajectory(rng, 6), random_trajectory(rng, 6)
        p, g = tmp_path / "p.txt", tmp_path / "g.txt"
        p.write_text(write_trajectory_tum(pred))
        g.write_text(write_trajectory_tum(gt))
        code, out, _ = run(capsys, ["eval-loss", "--pred", str(p),
                                    "--gt", str(g)])
        assert code == 0
        assert sorted(calls) == (["hemisphere_align"] * 3
                                 + ["scale_normalizer"] * 2)
        pose = float(out.splitlines()[1].split(",")[3])
        assert pose == losses.loss_pose(read_trajectory_tum(p.read_text()),
                                        read_trajectory_tum(g.read_text()))

    @pytest.mark.parametrize("flags, name", [
        (["--ws", "1e308"], "pose"), (["--wa", "1e308", "--wr", "1e308"], "pose"),
        (["--conf-loss", "1e308", "--lambda1", "2"], "total")])
    def test_eval_loss_overflow_exit_3(self, capsys, tmp_path, flags, name):
        # a weighted term past float's range printed `inf`, with exit 0
        rng = np.random.default_rng(12)
        pred, gt = tmp_path / "p.txt", tmp_path / "g.txt"
        pred.write_text(write_trajectory_tum(random_trajectory(rng, 6)))
        gt.write_text(write_trajectory_tum(random_trajectory(rng, 6)))
        code, out, err = run(capsys, ["eval-loss", "--pred", str(pred),
                                      "--gt", str(gt), *flags])
        assert (code, out) == (3, "")
        assert err == (f"error: {name} loss is not finite: a weighted term "
                       f"overflows\n")


class TestIntegerPastDigitLimit:
    # int() reads at most 4,300 digits by default; one more in a header
    # field ended in exit 3 and a hint to call sys.set_int_max_str_digits
    LONG = b"1" * 4301

    @pytest.mark.parametrize("command", ["refine", "eval-depth", "score",
                                         "eval-recon"])
    def test_parse_error(self, capsys, tmp_path, traj_file, frames_dir,
                         command):
        pfm = tmp_path / "d.pfm"
        pfm.write_bytes(b"Pf\n" + self.LONG + b" 1\n-1.0\n" + bytes(4))
        (frames_dir / "frame_001.pgm").write_bytes(
            b"P5\n8 8\n" + self.LONG + b"\n" + bytes(64))
        ply = tmp_path / "c.ply"
        ply.write_bytes(b"ply\nformat ascii 1.0\nelement vertex " + self.LONG
                        + b"\nproperty float x\nproperty float y\n"
                        b"property float z\nend_header\n1 2 3\n")
        argv = {"refine": ["--in", pfm, "--out", tmp_path / "o.pfm"],
                "eval-depth": ["--pred", pfm, "--gt", pfm],
                "score": ["--traj", traj_file, "--frames", frames_dir],
                "eval-recon": ["--pred", ply, "--gt", ply]}[command]
        code, _, err = run(capsys, [command, *map(str, argv)])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err


class TestSimulate:
    def test_constant_zero_policy(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--frames", "5", "--seed", "3",
                                    "--state-dim", "8",
                                    "--policy", "constant:0"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(float(r[1]) == 0.0 for r in rows)
        assert all(float(r[2]) == 1.0 for r in rows)

    def test_exact_write_policy(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--frames", "8", "--seed", "4",
                                    "--state-dim", "16",
                                    "--policy", "constant:1"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(float(r[3]) < 1e-9 for r in rows)

    def test_seed_determinism(self, capsys):
        _, out1, _ = run(capsys, ["simulate", "--frames", "10", "--seed", "7"])
        _, out2, _ = run(capsys, ["simulate", "--frames", "10", "--seed", "7"])
        assert out1 == out2

    def test_state_dim_bound(self, capsys, tmp_path):
        # parsed only: nothing runs at the bound, and nothing past it
        args = build_parser().parse_args(["simulate", "--state-dim", "4096"])
        assert args.state_dim == 4096
        for value in ("4097", "999999999"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--frames", "1", "--state-dim", value])
            assert exc.value.code == 2
            assert f"--state-dim: must be at most 4096, got {value}" in \
                capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text("state-dim = 4097\n")
        code, out, err = run(capsys, ["simulate", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: invalid value for state_dim")

    @pytest.mark.parametrize("beta, step", [("1e10", 16), ("1e200", 0)])
    def test_divergent_state_exit_3(self, capsys, beta, step):
        # the state grows by about |1 - beta| a step: at 1e10, 184 of the 200
        # rows were nan or inf, after RuntimeWarnings, with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["simulate", "--frames", "200",
                                          "--policy", f"constant:{beta}"])
        assert (code, out) == (3, "")
        assert err == (f"error: memory state diverges at step {step} with "
                       f"beta {float(beta)}: a value or recall is not "
                       f"finite\n")

    def test_large_finite_state_runs(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--frames", "200",
                                    "--policy", "constant:10"])
        assert code == 0
        rows = np.array([line.split(",") for line in out.splitlines()[1:]],
                        dtype=float)
        assert len(rows) == 200 and np.isfinite(rows).all()
        assert rows[-1, 2] > 1e26

    def test_memory_error_exit_3(self, capsys, monkeypatch):
        def simulate_stream(*args):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")
        monkeypatch.setattr("streamstab.simulate.simulate_stream", simulate_stream)
        code, out, err = run(capsys, ["simulate", "--frames", "1"])
        assert (code, out) == (3, "")
        assert err == "error: Unable to allocate 7.28 PiB for an array\n"


class TestNumberSpelling:
    # an integer flag or config value is ASCII digits, as an integer field of
    # the files is; int() also reads a sign and surrounding whitespace
    @pytest.mark.parametrize("argv", [
        ["simulate", "--frames", "+3"],
        ["simulate", "--seed", " 7"],
        ["simulate", "--seed", "7\t"],
        ["simulate", "--state-dim", "-0"],
        ["eval-recon", "--pred", "c.ply", "--gt", "c.ply", "--k-normals", "+4"],
        ["refine", "--in", "d.pfm", "--out", "o.pfm", "--window", "-0"],
    ])
    def test_integer_flag_not_digits_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{argv[-2]}: invalid int value: {argv[-1]!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line", ["frames = +3", "seed=-0"])
    def test_integer_config_value_not_digits_parse_error(self, capsys,
                                                         tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{line}\n")
        code, out, err = run(capsys, ["simulate", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: invalid value for ")

    def test_float_flag_spellings_kept(self):
        parse = build_parser().parse_args
        for text, value in [("+3", 3.0), (" 7 ", 7.0), ("-0", 0.0),
                            (".5", 0.5), ("5.", 5.0), ("1E3", 1e3),
                            ("-1e-3", -1e-3), ("007.5", 7.5)]:
            args = parse(["eval-loss", "--pred", "p", "--gt", "g",
                          "--wa=" + text])
            assert args.wa == value

    @pytest.mark.parametrize("value", ["-1e-3", "-.5e1", "-1E+2"])
    def test_negative_exponent_form_as_own_argument(self, capsys, tmp_path,
                                                    value):
        # argparse before Python 3.13 took `-1e-3` for an option: "expected
        # one argument"
        rng = np.random.default_rng(14)
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(random_trajectory(rng, 6)))
        argv = ["eval-loss", "--pred", str(path), "--gt", str(path)]
        split = run(capsys, argv + ["--wa", value])
        assert split == run(capsys, argv + [f"--wa={value}"])
        assert split[0] == 0

    def test_negative_exponent_form_cx_exit_3(self, capsys, tmp_path):
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 5), 2.0))))
        argv = ["refine", "--in", str(src), "--out", str(tmp_path / "o.ply"),
                "--fx", "50", "--fy", "50", "--cy", "2"]
        split = run(capsys, argv + ["--cx", "-1e308"])
        assert split == run(capsys, argv + ["--cx=-1e308"])
        assert split[:2] == (3, "")

    def test_negative_infinity_still_taken_for_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval-loss", "--pred", "p", "--gt", "g", "--wa", "-inf"])
        assert exc.value.code == 2
        assert "--wa: expected one argument" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, traj_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# stabilizer settings\nfmin=1e9\n")
        out_path = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["stabilize", "--in", str(traj_file),
                                  "--out", str(out_path),
                                  "--config", str(cfg)])
        assert code == 0
        orig = read_trajectory_tum(traj_file.read_text())
        smoothed = read_trajectory_tum(out_path.read_text())
        for a, b in zip(orig, smoothed):
            assert np.max(np.abs(a.t - b.t)) < 1e-9

    def test_flag_overrides_config(self, capsys, traj_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("fmin=1e9\n")
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        main(["stabilize", "--in", str(traj_file), "--out", str(out_a),
              "--config", str(cfg), "--fmin", "0.001"])
        main(["stabilize", "--in", str(traj_file), "--out", str(out_b),
              "--fmin", "0.001"])
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unknown_key_rejected(self, capsys, traj_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        code, _, err = run(capsys, ["stabilize", "--in", str(traj_file),
                                    "--out", str(tmp_path / "o.txt"),
                                    "--config", str(cfg)])
        assert code == 2
        assert "bogus" in err

    def test_unknown_flag_usage_error_unknown_key_parse_error(self, capsys,
                                                              tmp_path):
        # a flag that stabilize does not take (it once took --default-dt) is
        # argparse's exit 2; in a config file it is a ParseError on its line
        argv = ["stabilize", "--in", "t.txt", "--out", "o.txt"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--default-dt", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --default-dt 0.1" in \
            capsys.readouterr().err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# settings\ndefault_dt=0.1\n")
        code, out, err = run(capsys, argv + ["--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == ("error: line 2: unknown config key 'default_dt' "
                       "for stabilize\n")

    def test_int_key_typed_by_flag(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "t.txt"
        path.write_text(write_trajectory_tum(random_trajectory(rng, 10)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("prefix_frames=5\n")
        code, out, _ = run(capsys, ["eval-traj", "--pred", str(path),
                                    "--gt", str(path), "--config", str(cfg)])
        assert code == 0
        assert out.splitlines()[1].startswith("5,")

    @pytest.mark.parametrize("command, line", [
        (["score", "--traj", "t.txt", "--frames", "f"], "w1=abc"),
        (["eval-traj", "--pred", "t.txt", "--gt", "t.txt"], "align=foo"),
        (["eval-traj", "--pred", "t.txt", "--gt", "t.txt"], "prefix_frames=5.0"),
        (["eval-traj", "--pred", "t.txt", "--gt", "t.txt"], "prefix_frames=0"),
        (["refine", "--in", "d.pfm", "--out", "o.pfm"], "window=-1"),
        (["refine", "--in", "d.pfm", "--out", "o.pfm"], "sigma_s=0"),
        (["refine", "--in", "d.pfm", "--out", "o.pfm"], "sigma_r=-1"),
        (["refine", "--in", "d.pfm", "--out", "o.ply"], "fx=nan"),
        (["refine", "--in", "d.pfm", "--out", "o.ply"], "fy=0"),
        (["refine", "--in", "d.pfm", "--out", "o.ply"], "cx=inf"),
        (["refine", "--in", "d.pfm", "--out", "o.ply"], "cy=-inf"),
        (["eval-recon", "--pred", "c.ply", "--gt", "c.ply"], "k_normals=0"),
        (["stabilize", "--in", "t.txt", "--out", "o.txt"], "fmin=inf"),
        (["stabilize", "--in", "t.txt", "--out", "o.txt"], "beta_gain=-1"),
        (["stabilize", "--in", "t.txt", "--out", "o.txt"], "default_dt=0.1"),
        (["eval-loss", "--pred", "t.txt", "--gt", "t.txt"], "wa=nan"),
        (["eval-loss", "--pred", "t.txt", "--gt", "t.txt"], "rgb_loss=inf"),
        (["simulate"], "frames=-3"),
        (["simulate"], "state_dim=0"),
        (["simulate"], "policy=constant:abc"),
        (["simulate"], "policy=constant:nan"),
        (["simulate"], "seed=-1"),
        (["score", "--traj", "t.txt", "--frames", "f"], "w1=nan"),
        (["score", "--traj", "t.txt", "--frames", "f"], "w2=-1"),
        (["score", "--traj", "t.txt", "--frames", "f"], "radius=-inf"),
        (["score", "--traj", "t.txt", "--frames", "f"], "epsilon=0"),
        (["score", "--traj", "t.txt", "--frames", "f"], "clip_max=-1"),
        (["score", "--traj", "t.txt", "--frames", "f"], "initial_weight=inf"),
        (["simulate"], "seed=1_0"),
        (["simulate"], "frames=\u0663"),
        (["simulate"], "frames=3\x1c"),
        (["stabilize", "--in", "t.txt", "--out", "o.txt"], "fmin=0"),
    ])
    def test_bad_value_parse_error_with_line(self, capsys, tmp_path,
                                             command, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# settings\n{line}\n")
        code, _, err = run(capsys, command + ["--config", str(cfg)])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text, line", [
        ("frames=2\x0cseed=5\n", 1),     # \x0c ends no line: one bad value
        ("frames=2\x0b\nseed=x\n", 2),  # \x0b neither, nor is it a line
        ("frames=2\x1dseed=5\n", 1),
        ("frames=2\x85seed=5\n", 1),
        ("\u00a0frames=2\n", 1),        # a non-ASCII space is no space
        ("frames=2\r\nseed=5\rbogus=1\n", 3),
    ])
    def test_lines_end_at_newline_only(self, capsys, tmp_path, text, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(text.encode())
        code, out, err = run(capsys, ["simulate", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ")

    def test_ascii_whitespace_is_stripped(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"\x0b frames\t=\x0c2 \r\n\tseed = 5\x0b\n")
        assert run(capsys, ["simulate", "--config", str(cfg)]) == \
            run(capsys, ["simulate", "--frames", "2", "--seed", "5"])

    @pytest.mark.parametrize("command, line", [
        (["score", "--traj", "t.txt", "--frames", "f"], "traj=t.txt"),
        (["stabilize", "--in", "t.txt", "--out", "o.txt"], "infile=t.txt"),
        (["stabilize", "--in", "t.txt", "--out", "o.txt"], "config=c.txt"),
        (["eval-traj", "--pred", "t.txt", "--gt", "t.txt"], "gt=t.txt"),
        (["simulate"], "help=1"),
    ])
    def test_only_optional_flags_are_keys(self, capsys, tmp_path, command,
                                          line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{line}\n")
        code, _, err = run(capsys, command + ["--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err


# each subcommand with only its required flags
_MINIMAL_ARGV = {
    "score": ["score", "--traj", "t.txt", "--frames", "f"],
    "stabilize": ["stabilize", "--in", "t.txt", "--out", "o.txt"],
    "refine": ["refine", "--in", "d.pfm", "--out", "o.pfm"],
    "eval-traj": ["eval-traj", "--pred", "t.txt", "--gt", "t.txt"],
    "eval-depth": ["eval-depth", "--pred", "d.pfm", "--gt", "d.pfm"],
    "eval-recon": ["eval-recon", "--pred", "c.ply", "--gt", "c.ply"],
    "eval-loss": ["eval-loss", "--pred", "t.txt", "--gt", "t.txt"],
    "simulate": ["simulate"],
}


def _optional_flags(command):
    """The parsed defaults of `command` and its optional flags but --help
    and --config: the keys a config file may set."""
    args = build_parser().parse_args(_MINIMAL_ARGV[command])
    return args, [action for action in args.parser._actions
                  if action.option_strings and not action.required
                  and action.dest not in ("help", "config")]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    _write_fixtures(root)
    return root


_SCORE = ["score", "--traj", "noisy.txt", "--frames", "frames"]
_STABILIZE = ["stabilize", "--in", "noisy.txt", "--out", "{}.txt"]
_REFINE = ["refine", "--in", "pred.pfm", "--out", "{}.pfm"]
_REFINE_PLY = ["refine", "--in", "pred.pfm", "--out", "{}.ply"]
_EVAL_TRAJ = ["eval-traj", "--pred", "noisy.txt", "--gt", "clean.txt"]
_EVAL_LOSS = ["eval-loss", "--pred", "noisy.txt", "--gt", "clean.txt"]

# (argv, key, value): every optional key of every subcommand, with a value
# that changes the output; "{}" names the file the command writes
_KEY_CASES = [
    *[(_SCORE, key, value) for key, value in [
        ("w1", "2.5"), ("w2", "3"), ("radius", "5"), ("epsilon", "0.5"),
        ("clip_max", "0.01"), ("initial_weight", "0.25")]],
    (_STABILIZE, "fmin", "0.5"),
    (_STABILIZE, "beta_gain", "0.5"),
    (_REFINE, "window", "1"),
    (_REFINE, "sigma_s", "0.5"),
    (_REFINE, "sigma_r", "0.01"),
    (_REFINE_PLY + ["--fy", "50", "--cx", "8", "--cy", "8"], "fx", "40"),
    (_REFINE_PLY + ["--fx", "50", "--cx", "8", "--cy", "8"], "fy", "40"),
    (_REFINE_PLY + ["--fx", "50", "--fy", "50", "--cy", "8"], "cx", "6"),
    (_REFINE_PLY + ["--fx", "50", "--fy", "50", "--cx", "8"], "cy", "6"),
    (_EVAL_TRAJ, "prefix_frames", "5"),
    (_EVAL_TRAJ, "align", "sim3"),
    (["eval-depth", "--pred", "pred.pfm", "--gt", "gt.pfm"], "mode", "scale"),
    (["eval-recon", "--pred", "pred.ply", "--gt", "gt.ply"], "k_normals", "5"),
    *[(_EVAL_LOSS, key, "3") for key in ("wa", "wr", "ws", "lambda3",
                                         "conf_loss", "rgb_loss")],
    (_EVAL_LOSS + ["--conf-loss", "0.5"], "lambda1", "3"),
    (_EVAL_LOSS + ["--rgb-loss", "0.5"], "lambda2", "3"),
    *[(["simulate", "--frames", "10"], key, value) for key, value in [
        ("state_dim", "8"), ("seed", "3"), ("policy", "constant:0.5")]],
    (["simulate"], "frames", "5"),
]


def _outputs(capsys, argv, tag):
    """stdout and the bytes of the written file of `argv` run in the cwd."""
    code, out, err = run(capsys, [arg.format(tag) for arg in argv])
    assert code == 0, err
    return out, [Path(arg.format(tag)).read_bytes()
                 for arg in argv if "{}" in arg]


class TestConfigMatchesFlag:
    @pytest.mark.parametrize("argv, key, value", _KEY_CASES,
                             ids=[f"{a[0]}-{k}" for a, k, _ in _KEY_CASES])
    def test_config_key_equals_flag(self, capsys, monkeypatch, fixture_dir,
                                    argv, key, value):
        monkeypatch.chdir(fixture_dir)
        cfg = Path(f"{key}.cfg")
        cfg.write_text(f"# one key\n{key}={value}\n")
        flag = "--" + key.replace("_", "-")
        by_flag = _outputs(capsys, argv + [flag, value], "flag")
        assert _outputs(capsys, argv + ["--config", str(cfg)],
                        "config") == by_flag
        # PLY output needs all four intrinsics: compare with another value
        baseline = argv + ([flag, "7"] if key in ("fx", "fy", "cx", "cy") else [])
        assert _outputs(capsys, baseline, "default") != by_flag

    @pytest.mark.parametrize("command", _MINIMAL_ARGV)
    def test_every_key_has_a_case(self, command):
        _, flags = _optional_flags(command)
        assert ({action.dest for action in flags}
                == {key for argv, key, _ in _KEY_CASES if argv[0] == command})


class TestHelp:
    @pytest.mark.parametrize("command", _MINIMAL_ARGV)
    def test_help_shows_each_default(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        options = text[text.index("options:"):]
        helps = {chunk.split()[0]: chunk
                 for chunk in re.split(r" (?=--[a-z])", options)[1:]}
        args, flags = _optional_flags(command)
        for action in flags:
            default = getattr(args, action.dest)
            chunk = helps[action.option_strings[0]]
            if default is None:
                assert "None" not in chunk
            else:
                assert f"(default {default})" in chunk


class TestNonUtf8Text:
    @pytest.mark.parametrize("argv", [
        ["stabilize", "--in", "{bad}", "--out", "{out}"],
        ["eval-traj", "--pred", "{bad}", "--gt", "{traj}"],
        ["stabilize", "--in", "{traj}", "--out", "{out}", "--config", "{bad}"],
    ], ids=["stabilize-in", "eval-traj-pred", "config"])
    def test_parse_error(self, capsys, traj_file, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# \xff\xfe\n")
        code, out, err = run(capsys, [
            arg.format(bad=bad, out=tmp_path / "o.txt", traj=traj_file)
            for arg in argv])
        assert code == 2
        assert out == ""
        assert "decode" in err


class TestUtf8Text:
    # each text read and write names UTF-8, so no EncodingWarning is raised:
    # the locale's encoding would decide what a text file means
    @pytest.mark.parametrize("argv", [
        ["stabilize", "--in", "noisy.txt", "--out", "o.txt", "--config",
         "s.cfg"],
        ["eval-traj", "--pred", "noisy.txt", "--gt", "clean.txt", "--config",
         "e.cfg"],
        ["eval-loss", "--pred", "noisy.txt", "--gt", "clean.txt"],
        ["score", "--traj", "noisy.txt", "--frames", "frames"],
    ], ids=lambda argv: argv[0])
    def test_no_default_encoding(self, tmp_path, argv):
        _write_fixtures(tmp_path)
        (tmp_path / "s.cfg").write_text("fmin = 2\n", encoding="utf-8")
        (tmp_path / "e.cfg").write_text("prefix-frames = 6\n",
                                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "streamstab", *argv],
            cwd=tmp_path, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")


# values that probe each flag's type, range and arithmetic: NaN, the
# infinities, -0, the ends of float's range, a value whose square is past
# it, a negative, the empty string and Python's `_` digit separator
_AWKWARD = ["nan", "inf", "-inf", "-0", "1e308", "1e-308", "1.4e154", "-1",
            "", "1_0"]

# each subcommand on the fixtures under {root}: its inputs, each a choice
# of files, and small sizes (20 steps of simulate)
_FUZZ_ARGV = {
    "score": [["--traj", "{root}/noisy.txt", "--frames", "{root}/frames"]],
    "stabilize": [["--in", "{root}/" + name, "--out", "{root}/fuzz.txt"]
                  for name in ("noisy.txt", "tiny_dt.txt")],
    "refine": [["--in", "{root}/pred.pfm", "--out", "{root}/fuzz.pfm"],
               ["--in", "{root}/pred.pfm", "--out", "{root}/fuzz.ply",
                "--fx", "50", "--fy", "50", "--cx", "8", "--cy", "8"]],
    "eval-traj": [["--pred", "{root}/noisy.txt", "--gt", "{root}/clean.txt"],
                  ["--pred", "{root}/tiny_dt.txt",
                   "--gt", "{root}/tiny_dt.txt"]],
    "eval-depth": [["--pred", "{root}/pred.pfm", "--gt", "{root}/gt.pfm"]],
    "eval-recon": [["--pred", "{root}/pred.ply", "--gt", "{root}/gt.ply"]],
    "eval-loss": [["--pred", "{root}/noisy.txt", "--gt", "{root}/clean.txt"]],
    "simulate": [["--frames", "20"]],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _write_fixtures(root)
    # a step of 5e-324 s, over which a speed overflows
    (root / "tiny_dt.txt").write_text("0 0 0 0 0 0 0 1\n"
                                      "5e-324 1 0 0 0 0 0 1\n"
                                      "1 2 0 0 0 0 0 1\n")
    return root


# the optional flags of each subcommand, as (flag, config key)
_FUZZ_FLAGS = {command: [(action.option_strings[0], action.dest)
                         for action in _optional_flags(command)[1]]
               for command in _FUZZ_ARGV}


@st.composite
def awkward_argv(draw, command):
    """`command`'s argv on the fixtures with one or two of its optional
    flags set to awkward values, and a config text or None: one flag at a
    time, without a config, is test_each_flag_each_awkward_value's."""
    argv = [command, *draw(st.sampled_from(_FUZZ_ARGV[command]))]
    for flag, key in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]),
                                   min_size=1, max_size=2, unique=True)):
        value = draw(st.sampled_from(_AWKWARD))
        if key == "policy":
            value = draw(st.sampled_from(["constant:", ""])) + value
        argv.append(f"{flag}={value}")
    keys = [key for _, key in _FUZZ_FLAGS[command]]
    lines = st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(_AWKWARD))
                     .map("=".join), max_size=2).map("\n".join)
    return argv, draw(st.one_of(st.none(), lines, st.text(max_size=20)))


def _check_main(root, argv, config=None):
    """Run main on `argv` on the fixtures under `root`, with `config` as its
    config file's text if not None: exit 0, 2 or 3 (and 0 or 2 for
    stabilize, as a valid trajectory always smooths), no warning, one
    `error:` line on failure and finite numbers on success."""
    argv = [arg.format(root=root) for arg in argv]
    if config is not None:
        (root / "fuzz.cfg").write_text(config)
        argv += ["--config", str(root / "fuzz.cfg")]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in ((0, 2) if argv[0] == "stabilize" else (0, 2, 3)), \
        (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code:
        assert err.splitlines()[-1].count("error: ") == 1, (argv, err)
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert np.isfinite(np.array(rows, dtype=float)).all(), (argv, out)


class TestMainProperty:
    """Any argv of awkward flag values, and any config text, ends in exit 0,
    2 or 3 with no traceback (an exception out of main fails the test) and
    no warning, and what it prints is finite."""

    @pytest.mark.parametrize("command", _FUZZ_ARGV)
    def test_each_flag_each_awkward_value(self, fuzz_dir, command):
        for argv in _FUZZ_ARGV[command]:
            for flag, key in _FUZZ_FLAGS[command]:
                for value in _AWKWARD + (["constant:" + v for v in _AWKWARD]
                                         if key == "policy" else []):
                    _check_main(fuzz_dir, [command, *argv, f"{flag}={value}"])

    @settings(FUZZ, max_examples=40)
    @given(data=st.data())
    @pytest.mark.parametrize("command", _FUZZ_ARGV)
    def test_awkward_values_exit_0_2_or_3(self, fuzz_dir, command, data):
        _check_main(fuzz_dir, *data.draw(awkward_argv(command)))


def test_stdout_written_only_by_main():
    # each subcommand returns its CSV header and rows, and main prints them;
    # every other print goes to stderr
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def, = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "main"]
    in_main = {id(node) for node in ast.walk(main_def)}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in in_main
             and isinstance(node.func, ast.Name) and node.func.id == "print"
             and not any(kw.arg == "file" and ast.unparse(kw.value) ==
                         "sys.stderr" for kw in node.keywords)]
    assert stray == []
    stdout = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and id(node) not in in_main
              and ast.unparse(node) == "sys.stdout"]
    assert stdout == []


def test_threads_started_only_by_the_worker_helper():
    # one persistent worker serves every split; a thread started per call
    # costs more than the half it runs
    src = Path(cli.__file__).parent
    stray, helper_starts = [], 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  and (path.name, func.name) == ("geometry.py", "_in_parallel")
                  for node in ast.walk(func)}
        starts = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and ast.unparse(node.func).endswith("Thread")]
        helper_starts += sum(id(node) in helper for node in starts)
        stray += [(path.name, node.lineno) for node in starts
                  if id(node) not in helper]
    assert stray == [] and helper_starts == 1


def test_every_square_in_src_is_a_product():
    # a Python float's ** 2 and np.float_power call libm's pow, which on some
    # inputs differs from x * x in the last bit, and by platform; so every
    # square is x * x or np.square, which IEEE rounds the same way everywhere
    src = Path(cli.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            exponent = (node.right if isinstance(node, ast.BinOp) else
                        node.value if isinstance(node, ast.AugAssign) else None)
            if (isinstance(getattr(node, "op", None), ast.Pow)
                    and isinstance(exponent, ast.Constant)
                    and exponent.value == 2) or "float_power" in (
                        getattr(node, "id", None), getattr(node, "attr", None)):
                stray.append((path.name, node.lineno))
    assert stray == []


def test_value_error_neither_caught_by_main_nor_raised_in_src():
    # every input error is a ToolkitError raised at its precondition, so
    # main names no ValueError, and one from a defect ends in a traceback.
    # Only the readers' internal signalling in _decimals and _decimal_table
    # raises a bare ValueError, which the readers turn into a ParseError
    src = Path(cli.__file__).parent
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    main_def, = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "main"]
    caught = [ast.unparse(name) for handler in ast.walk(main_def)
              if isinstance(handler, ast.ExceptHandler)
              for name in (handler.type.elts
                           if isinstance(handler.type, ast.Tuple)
                           else [handler.type])]
    assert "ToolkitError" in caught and "ValueError" not in caught
    stray = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        signalling = {id(node) for func in ast.walk(tree)
                      if isinstance(func, ast.FunctionDef)
                      and path.name == "io_formats.py"
                      and func.name in ("_decimals", "_decimal_table")
                      for node in ast.walk(func)}
        stray += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and ast.unparse(node.exc).split("(")[0] == "ValueError"
                  and id(node) not in signalling]
    assert stray == []


def test_only_the_pipelines_import_algorithm_modules():
    # values (errors, config, geometry) at the bottom, algorithms above them:
    # only the stream pipeline and the CLI compose algorithm modules, and the
    # package's __init__ and __main__ re-export them
    src = Path(cli.__file__).parent
    composers = {"simulate.py", "cli.py", "__init__.py", "__main__.py"}
    stray = []
    for path in sorted(src.glob("*.py")):
        if path.name in composers:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = ["." * node.level + (node.module or "")
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names]
        stray += [(path.name, name) for name in imported
                  if name.startswith((".", "streamstab"))
                  and name.lstrip(".").removeprefix("streamstab.")
                  not in ("errors", "config", "geometry")]
    assert stray == []


def test_bare_value_error_from_a_defect_is_a_traceback(monkeypatch, tmp_path):
    def defect(args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "_cmd_eval_depth", defect)
    with pytest.raises(ValueError, match="broadcast") as excinfo:
        main(["eval-depth", "--pred", str(tmp_path / "p.pfm"),
              "--gt", str(tmp_path / "g.pfm")])
    assert excinfo.type is ValueError


@pytest.fixture(scope="module")
def overflow_dir(tmp_path_factory):
    """Seeded trajectories and clouds whose coordinates' squares or products
    are past float's range (or, at 1e-170, whose variance underflows)."""
    root = tmp_path_factory.mktemp("overflow")
    rng = np.random.default_rng(2100)
    n = 12
    identity = [[1.0, 0.0, 0.0, 0.0]] * n
    alternating = np.zeros((n, 3))
    alternating[:, 0] = 1.7e308 * (-1.0) ** np.arange(n)
    for name, t in [("big154a", rng.standard_normal((n, 3)) * 1e154),
                    ("big154b", rng.standard_normal((n, 3)) * 1e154),
                    ("big160", rng.standard_normal((n, 3)) * 1e160),
                    ("tiny170", rng.standard_normal((n, 3)) * 1e-170),
                    ("unit", rng.standard_normal((n, 3))),
                    ("alt308", alternating)]:
        traj = Trajectory.from_arrays(t, identity, np.arange(n) / 30.0)
        (root / f"{name}.txt").write_text(write_trajectory_tum(traj))
    for name, pts in [("c154a", rng.standard_normal((40, 3)) * 1e154),
                      ("c154b", rng.standard_normal((40, 3)) * 1e154),
                      ("near_p", rng.standard_normal((40, 3)) + 1e154),
                      ("near_m", rng.standard_normal((40, 3)) - 1e154),
                      ("top", np.full((40, 3), 1.7e308))]:
        (root / f"{name}.ply").write_bytes(write_ply_ascii(PointSet(pts)))
    return root


@pytest.mark.parametrize("argv", [
    ["eval-traj", "--pred", "{root}/big154a.txt", "--gt", "{root}/big154b.txt"],
    ["eval-traj", "--pred", "{root}/big160.txt", "--gt", "{root}/unit.txt"],
    ["eval-traj", "--pred", "{root}/big160.txt", "--gt", "{root}/unit.txt",
     "--align", "sim3"],
    ["eval-traj", "--pred", "{root}/tiny170.txt", "--gt", "{root}/unit.txt",
     "--align", "sim3"],
    ["eval-loss", "--pred", "{root}/alt308.txt", "--gt", "{root}/unit.txt"],
    ["eval-recon", "--pred", "{root}/c154a.ply", "--gt", "{root}/c154b.ply"],
    ["eval-recon", "--pred", "{root}/near_p.ply", "--gt", "{root}/near_m.ply"],
    ["eval-recon", "--pred", "{root}/top.ply", "--gt", "{root}/top.ply"]])
def test_out_of_range_coordinates_exit_3(capsys, overflow_dir, argv):
    # exit 3 was a LinAlgError caught as a ValueError, an IndexError
    # traceback, `inf` or `nan` on stdout, or a number from a scale of 0
    _check_main(overflow_dir, argv)
    code, out, err = run(capsys, [a.format(root=overflow_dir) for a in argv])
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: [^\n]* is not finite: [^\n]*\n", err), err
