import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from streamstab import DepthMap, GrayImage, PointSet, Pose, Quaternion, Trajectory
from streamstab.cli import build_parser, main
from streamstab.io_formats import (read_trajectory_tum, write_pfm, write_pgm,
                                   write_ply_ascii, write_trajectory_tum)

from conftest import random_trajectory
from test_acceptance import _write_fixtures


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
    ], ids=["non-ascii", "negative", "python-int"])
    def test_bad_p2_frame_parse_error(self, capsys, traj_file, frames_dir,
                                      payload, message):
        (frames_dir / "frame_002.pgm").write_bytes(payload)
        code, out, err = run(capsys, ["score", "--traj", str(traj_file),
                                      "--frames", str(frames_dir)])
        assert code == 2
        assert message in err
        assert len(out.splitlines()) == 3  # the header and frames 0 and 1


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
        ("--frames", ["0", "-3", "1.5", "x"]),
        ("--state-dim", ["0", "-1", "x"]),
        ("--policy", ["constant:abc", "constant:nan", "constant:inf",
                      "constant", "constant:", "bogus", "adaptive:1"]),
        ("--seed", ["-1", "1.5", "nan", "x"]),
        ("--w1", ["-1", "nan", "inf", "x"]),
        ("--w2", ["-0.5", "nan", "-inf"]),
        ("--radius", ["-1", "nan", "inf"]),
        ("--epsilon", ["0", "-0.0", "-1e-8", "nan", "inf", "x"]),
        ("--clip-max", ["-1", "nan", "inf"]),
        ("--initial-weight", ["-1", "nan", "inf"]),
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

    def test_memory_error_exit_3(self, capsys, monkeypatch):
        def simulate_stream(*args):
            raise MemoryError("Unable to allocate 7.28 PiB for an array")
        monkeypatch.setattr("streamstab.cli.simulate_stream", simulate_stream)
        code, out, err = run(capsys, ["simulate", "--frames", "1"])
        assert (code, out) == (3, "")
        assert err == "error: Unable to allocate 7.28 PiB for an array\n"


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
    ])
    def test_bad_value_parse_error_with_line(self, capsys, tmp_path,
                                             command, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# settings\n{line}\n")
        code, _, err = run(capsys, command + ["--config", str(cfg)])
        assert code == 2
        assert "line 2" in err

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
