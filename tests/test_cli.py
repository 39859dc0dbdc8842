import math

import numpy as np
import pytest

from streamstab import DepthMap, GrayImage, PointSet, Pose, Quaternion, Trajectory
from streamstab.cli import main
from streamstab.io_formats import (read_trajectory_tum, write_pfm, write_pgm,
                                   write_ply_ascii, write_trajectory_tum)

from conftest import random_trajectory


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

    def test_bad_flag_usage_error(self, traj_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["stabilize", "--in", str(traj_file),
                  "--out", str(tmp_path / "o.txt"), "--fmin", "abc"])
        assert exc.value.code == 2


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
        ("--sigma-r", ["0", "-1", "nan", "-inf", "x"]),
    ])
    def test_out_of_range_flag_usage_error(self, capsys, tmp_path, flag,
                                           values):
        src = tmp_path / "in.pfm"
        src.write_bytes(write_pfm(DepthMap.from_depths(np.full((4, 4), 2.0))))
        for value in values:
            with pytest.raises(SystemExit) as exc:
                main(["refine", "--in", str(src),
                      "--out", str(tmp_path / "o.pfm"), flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

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
        assert "clamping" in err
        assert out.splitlines()[1].startswith("5,")

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
    ])
    def test_bad_value_parse_error_with_line(self, capsys, tmp_path,
                                             command, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# settings\n{line}\n")
        code, _, err = run(capsys, command + ["--config", str(cfg)])
        assert code == 2
        assert "line 2" in err
