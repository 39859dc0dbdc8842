"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a full run
doubles as a checklist. Tolerances are part of the contract; do not loosen.
"""

import functools
import math
import subprocess
import sys
import time

import numpy as np

from streamstab import (BilateralConfig, DepthEvalMode, DepthMap, GrayImage,
                        LossWeights, MemoryState, Observation, OneEuroConfig,
                        PointSet, Pose, Quaternion, Trajectory,
                        adaptive_update_weight, apply_update,
                        associative_gradient, bilateral_depth,
                        dft2_magnitude_centered, grad_pose_translations,
                        highfreq_ratio, loss_acc, loss_ate, loss_rpe,
                        metric_ate, metric_depth, metric_recon, quality_score,
                        quat_normalize, score_frame, slerp, smoothing_alpha,
                        stabilize_trajectory, umeyama_align)
from streamstab.io_formats import (write_pfm, write_pgm, write_ply_ascii,
                                   write_trajectory_tum)
from streamstab.geometry import quat_to_matrix
from streamstab.losses import scale_normalizer

from conftest import (quat_conjugate, quat_multiply, quat_power,
                      random_trajectory, random_unit_quat)
from test_frame_scoring import checkerboard, naive_dft2_magnitude_centered
from test_losses import frozen_scale_pose_loss, straight_line
from test_metrics import brute_force_recon, rot_z
from test_spatial import gaussian_blur_oracle
from test_stabilization import noisy_circle


def criterion(num, desc):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL: {desc}")
                raise
            print(f"criterion {num:2d} PASS: {desc}")
        return wrapper
    return decorator


@criterion(1, "quality-score sigmoid anchors")
def test_criterion_01_sigmoid_anchor():
    start = time.perf_counter()
    assert abs(quality_score(0.1) - 0.5) < 1e-12
    assert abs(quality_score(0.0) - 1.0 / (1.0 + math.e ** 2)) < 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(2, "2D DFT matches naive double-sum oracle + Parseval")
def test_criterion_02_dft_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for size in (8, 16):
        for _ in range(50):
            px = rng.uniform(size=(size, size))
            got = dft2_magnitude_centered(GrayImage(px))
            oracle = naive_dft2_magnitude_centered(px)
            assert np.max(np.abs(got - oracle)) < 1e-9
            energy_spec = float(np.sum(got ** 2))
            energy_px = float(np.sum(px ** 2)) * px.size
            assert abs(energy_spec - energy_px) < 1e-9 * energy_px
    assert time.perf_counter() - start < 10.0


@criterion(3, "high-frequency ratio extremes")
def test_criterion_03_ratio_extremes():
    flat = dft2_magnitude_centered(GrayImage(np.full((8, 8), 0.7)))
    assert highfreq_ratio(flat, 2) == 0.0
    board = dft2_magnitude_centered(GrayImage(checkerboard(8)))
    assert abs(highfreq_ratio(board, 2) - 1.0) < 1e-9


@criterion(4, "update weight stays in [0, 1] and clips")
def test_criterion_04_clip():
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        w = adaptive_update_weight(rng.uniform(0.0, 5.0), rng.uniform())
        assert 0.0 <= w <= 1.0
    assert adaptive_update_weight(3.0, 0.9) == 1.0


@criterion(5, "delta-rule exact write and geometric decay")
def test_criterion_05_exact_write():
    rng = np.random.default_rng(102)
    n, c = 12, 8
    for _ in range(100):
        state = MemoryState(rng.standard_normal((n, c)))
        key = rng.standard_normal(c)
        key /= np.linalg.norm(key)
        obs = Observation(key, rng.standard_normal(n))
        written = apply_update(state, associative_gradient(state, obs), 1.0)
        assert np.linalg.norm(written.values @ key - obs.value) < 1e-9
        before = np.linalg.norm(state.values @ key - obs.value)
        for beta in (0.0, 0.25, 0.5, 1.0):
            updated = apply_update(state, associative_gradient(state, obs), beta)
            after = np.linalg.norm(updated.values @ key - obs.value)
            assert abs(after - (1.0 - beta) * before) < 1e-9


@criterion(6, "analytic translation gradients match finite differences")
def test_criterion_06_loss_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    w = LossWeights(1.0, 1.0, 1.0)
    h = 1e-5
    for _ in range(20):
        pred = random_trajectory(rng, 10)
        gt = random_trajectory(rng, 10)
        tp, tg = pred.t, gt.t
        qp, qg = pred.q, gt.q
        sp, sg = scale_normalizer(tp), scale_normalizer(tg)
        grad = grad_pose_translations(pred, gt, w)
        for i in range(10):
            for j in range(3):
                plus, minus = tp.copy(), tp.copy()
                plus[i, j] += h
                minus[i, j] -= h
                fd = (frozen_scale_pose_loss(plus, tg, qp, qg, w, sp, sg)
                      - frozen_scale_pose_loss(minus, tg, qp, qg, w, sp, sg)
                      ) / (2 * h)
                scale = max(abs(fd), abs(grad[i, j]), 1e-8)
                assert abs(grad[i, j] - fd) / scale < 1e-4
    assert time.perf_counter() - start < 30.0


@criterion(7, "trajectory-loss invariances")
def test_criterion_07_loss_invariances():
    rng = np.random.default_rng(104)
    for _ in range(100):
        pred = random_trajectory(rng, 8)
        gt = random_trajectory(rng, 8)
        scale = rng.uniform(0.1, 10.0)
        scaled = Trajectory([Pose(scale * p.t, p.q, p.timestamp) for p in pred])
        assert abs(loss_ate(scaled, gt) - loss_ate(pred, gt)) < 1e-9

        offset = rng.standard_normal(3)
        shifted = Trajectory([Pose(p.t + offset, p.q, p.timestamp) for p in pred])
        assert abs(loss_rpe(shifted, gt) - loss_rpe(pred, gt)) < 1e-9

        line = straight_line(8, step=rng.uniform(0.1, 2.0),
                             axis=int(rng.integers(3)))
        assert loss_acc(line) < 1e-9


@criterion(8, "stabilizer improves smoothness and accuracy on noisy paths")
def test_criterion_08_stabilization_efficacy():
    start = time.perf_counter()
    cfg = OneEuroConfig()
    smoother, closer = 0, 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy, clean = noisy_circle(rng, n=200, fps=30.0, sigma=0.05)
        stabilized = stabilize_trajectory(noisy, cfg)
        if loss_acc(stabilized) < loss_acc(noisy):
            smoother += 1
        if metric_ate(stabilized, clean) <= metric_ate(noisy, clean):
            closer += 1
    assert smoother >= 95
    assert closer >= 90
    assert time.perf_counter() - start < 60.0


@criterion(9, "smoothing-factor anchor and filter causality")
def test_criterion_09_one_euro_anchor():
    assert abs(smoothing_alpha(1.0, 1.0 / 30.0) - 0.173165) < 1e-5
    rng = np.random.default_rng(105)
    for _ in range(20):
        traj = random_trajectory(rng, 30)
        full = stabilize_trajectory(traj)
        k = int(rng.integers(1, 30))
        prefix = stabilize_trajectory(Trajectory(list(traj)[:k]))
        for a, b in zip(prefix, full):
            assert np.array_equal(a.t, b.t)
            assert a.q == b.q


@criterion(10, "bilateral depth filter behaviors")
def test_criterion_10_bilateral():
    flat = DepthMap.from_depths(np.full((8, 8), 3.0))
    out = bilateral_depth(flat, BilateralConfig(sigma_r=0.5))
    assert np.max(np.abs(out.depths - 3.0)) < 1e-12

    step = np.where(np.arange(12)[None, :] < 6, 1.0, 10.0) * np.ones((8, 1))
    out = bilateral_depth(DepthMap.from_depths(step),
                          BilateralConfig(window=2, sigma_s=2.0, sigma_r=0.1))
    assert np.max(np.abs(out.depths - step)) < 1e-6

    rng = np.random.default_rng(106)
    depths = rng.uniform(1.0, 5.0, size=(10, 12))
    dm = DepthMap.from_depths(depths)
    out = bilateral_depth(dm, BilateralConfig(window=2, sigma_s=1.5, sigma_r=1e12))
    oracle = gaussian_blur_oracle(depths, dm.valid, 2, 1.5)
    assert np.max(np.abs(out.depths - oracle)) < 1e-9

    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = 5.0 + rng.normal(0.0, 0.02, size=(16, 16))
        out = bilateral_depth(DepthMap.from_depths(noisy),
                              BilateralConfig(window=2, sigma_s=2.0, sigma_r=0.5))
        if np.sqrt(np.mean((out.depths - 5.0) ** 2)) < \
                np.sqrt(np.mean((noisy - 5.0) ** 2)):
            wins += 1
    assert wins >= 95


@criterion(11, "evaluation-metric oracles")
def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(107)
    src = rng.standard_normal((20, 3))
    rot = rot_z(40.0)
    dst = 1.7 * src @ rot.T + np.array([0.5, -1.0, 2.0])
    sim = umeyama_align(src, dst, with_scale=True)
    assert abs(sim.scale - 1.7) < 1e-9
    assert np.max(np.abs(sim.rotation - rot)) < 1e-9
    assert np.max(np.abs(sim.translation - [0.5, -1.0, 2.0])) < 1e-9

    gt = random_trajectory(rng, 12)
    rigid_rot = quat_to_matrix(random_unit_quat(rng))
    offset = rng.standard_normal(3)
    moved = Trajectory([Pose(rigid_rot @ p.t + offset, p.q, p.timestamp)
                        for p in gt])
    assert metric_ate(moved, gt) < 1e-9

    pred_pts = rng.standard_normal((300, 3))
    gt_pts = rng.standard_normal((300, 3))
    assert metric_recon(PointSet(pred_pts), PointSet(gt_pts)) == \
        brute_force_recon(pred_pts, gt_pts)

    dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
    abs_rel, delta = metric_depth(dm, dm, DepthEvalMode.ORIGINAL)
    acc, comp, nc = metric_recon(PointSet(gt_pts), PointSet(gt_pts))
    assert (abs_rel, delta) == (0.0, 100.0)
    assert (acc, comp) == (0.0, 0.0)
    assert abs(nc - 1.0) < 1e-9


@criterion(12, "slerp matches the quaternion-power oracle")
def test_criterion_12_slerp_oracle():
    rng = np.random.default_rng(108)
    for _ in range(1000):
        a = random_unit_quat(rng)
        b = random_unit_quat(rng)
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = np.array(slerp(a, b, gamma), dtype=float)
            rel = quat_multiply(quat_conjugate(a), b)
            if rel.w < 0:  # same hemisphere convention as slerp
                rel = -rel
            oracle = np.array(quat_multiply(a, quat_power(rel, gamma)),
                              dtype=float)
            err = min(np.max(np.abs(got - oracle)),
                      np.max(np.abs(got + oracle)))
            assert err < 1e-9


def _write_fixtures(root):
    rng = np.random.default_rng(109)
    clean = random_trajectory(rng, 12)
    noisy = Trajectory([Pose(p.t + rng.normal(0.0, 0.02, size=3), p.q,
                             p.timestamp) for p in clean])
    (root / "clean.txt").write_text(write_trajectory_tum(clean))
    (root / "noisy.txt").write_text(write_trajectory_tum(noisy))

    frames = root / "frames"
    frames.mkdir()
    for i in range(12):
        img = GrayImage(np.round(rng.uniform(size=(16, 16)) * 255) / 255.0)
        (frames / f"frame_{i:03d}.pgm").write_bytes(write_pgm(img))

    depths = 3.0 + 0.05 * rng.standard_normal((12, 12))
    (root / "pred.pfm").write_bytes(write_pfm(DepthMap.from_depths(depths)))
    (root / "gt.pfm").write_bytes(
        write_pfm(DepthMap.from_depths(np.full((12, 12), 3.0))))

    (root / "pred.ply").write_bytes(
        write_ply_ascii(PointSet(rng.standard_normal((60, 3)))))
    (root / "gt.ply").write_bytes(
        write_ply_ascii(PointSet(rng.standard_normal((60, 3)))))


@criterion(13, "CLI subcommands are byte-deterministic end to end")
def test_criterion_13_cli_determinism(tmp_path):
    _write_fixtures(tmp_path)
    commands = [
        ["score", "--traj", "noisy.txt", "--frames", "frames"],
        ["stabilize", "--in", "noisy.txt", "--out", "stab.txt"],
        ["refine", "--in", "pred.pfm", "--out", "refined.pfm"],
        ["eval-traj", "--pred", "stab.txt", "--gt", "clean.txt"],
        ["eval-depth", "--pred", "refined.pfm", "--gt", "gt.pfm"],
        ["eval-recon", "--pred", "pred.ply", "--gt", "gt.ply"],
        ["eval-loss", "--pred", "stab.txt", "--gt", "clean.txt"],
        ["simulate", "--frames", "10", "--seed", "1"],
    ]
    output_files = {"stabilize": "stab.txt", "refine": "refined.pfm"}

    start = time.perf_counter()
    first = {}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "streamstab", *argv],
                              cwd=tmp_path, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        first[argv[0]] = (proc.stdout,
                          (tmp_path / output_files[argv[0]]).read_bytes()
                          if argv[0] in output_files else b"")
    assert time.perf_counter() - start < 10.0

    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "streamstab", *argv],
                              cwd=tmp_path, capture_output=True)
        assert proc.returncode == 0
        again = (proc.stdout,
                 (tmp_path / output_files[argv[0]]).read_bytes()
                 if argv[0] in output_files else b"")
        assert again == first[argv[0]], f"{argv[0]} output not deterministic"


@criterion(14, "score_frame under 20 ms median at 512x384")
def test_criterion_14_score_frame_latency():
    rng = np.random.default_rng(110)
    img = GrayImage(rng.uniform(size=(384, 512)))
    prev = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    cur = Pose(np.array([0.05, 0.0, 0.0]),
               quat_normalize(Quaternion(1.0, 0.01, 0.0, 0.0)), 1.0 / 30.0)
    score_frame(prev, cur, img)  # warm-up
    timings = []
    for _ in range(100):
        t0 = time.perf_counter()
        score_frame(prev, cur, img)
        timings.append(time.perf_counter() - t0)
    assert float(np.median(timings)) < 0.020
