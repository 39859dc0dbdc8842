import math

import numpy as np
import pytest

from streamstab import (FilterState, OneEuroConfig, Pose, Quaternion,
                        Trajectory, cutoff_freq, filter_step, loss_acc,
                        quat_normalize, smoothing_alpha, stabilize_trajectory)
from streamstab.errors import NonPositiveDt

from conftest import random_unit_quat


def noisy_circle(rng, n=200, fps=30.0, radius=2.0, sigma=0.05):
    """Smooth circular path plus Gaussian translation noise; returns
    (noisy, clean)."""
    clean, noisy = [], []
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        t = radius * np.array([math.cos(angle), math.sin(angle), 0.0])
        q = quat_normalize(Quaternion(math.cos(angle / 2), 0, 0, math.sin(angle / 2)))
        ts = i / fps
        clean.append(Pose(t, q, ts))
        noisy.append(Pose(t + rng.normal(0.0, sigma, size=3), q, ts))
    return Trajectory(noisy), Trajectory(clean)


class TestSmoothingAlpha:
    def test_zero_frequency(self):
        assert smoothing_alpha(0.0, 0.1) == 0.0

    def test_large_dt_limit(self):
        assert smoothing_alpha(1.0, 1e6) > 0.9999

    def test_video_rate_value(self):
        # 2*pi*(1/30) / (2*pi*(1/30) + 1)
        x = 2.0 * math.pi / 30.0
        assert smoothing_alpha(1.0, 1.0 / 30.0) == pytest.approx(x / (x + 1), abs=1e-12)
        assert smoothing_alpha(1.0, 1.0 / 30.0) == pytest.approx(0.173165, abs=1e-5)

    def test_nonpositive_dt(self):
        with pytest.raises(NonPositiveDt):
            smoothing_alpha(1.0, 0.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = smoothing_alpha(rng.uniform(0, 100), rng.uniform(1e-6, 10))
            assert 0.0 <= a < 1.0


class TestCutoffFreq:
    def test_stationary(self):
        cfg = OneEuroConfig(f_min=1.5)
        assert cutoff_freq(cfg, 0.0) == 1.5

    def test_linear_gain(self):
        cfg = OneEuroConfig(f_min=1.0, beta_gain=0.5)
        assert cutoff_freq(cfg, 2.0) == 2.0

    def test_zero_gain(self):
        cfg = OneEuroConfig(f_min=1.0, beta_gain=0.0)
        assert cutoff_freq(cfg, 123.0) == 1.0

    def test_monotone_in_speed(self):
        cfg = OneEuroConfig(f_min=1.0, beta_gain=0.1)
        dt = 1.0 / 30.0
        alphas = [smoothing_alpha(cutoff_freq(cfg, s), dt) for s in (0, 1, 5, 20)]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))


class TestFilterStep:
    def test_first_frame_passthrough(self):
        rng = np.random.default_rng(1)
        raw = Pose(rng.standard_normal(3), random_unit_quat(rng), 0.5)
        state, out = filter_step(FilterState(), raw, OneEuroConfig())
        assert np.array_equal(out.t, raw.t)
        assert state.initialized

    def test_huge_fmin_passthrough(self):
        rng = np.random.default_rng(2)
        cfg = OneEuroConfig(f_min=1e9)
        state = FilterState()
        for i in range(5):
            raw = Pose(rng.standard_normal(3), random_unit_quat(rng), i / 30.0)
            state, out = filter_step(state, raw, cfg)
            assert np.allclose(out.t, raw.t, atol=1e-6)

    def test_pinned_alpha_midpoint(self):
        e = Quaternion.identity()
        h = math.sqrt(0.5)
        state = FilterState()
        # cutoff 30 / (2 pi) Hz over a 1/30 s step gives alpha = 1 / (1 + 1)
        cfg = OneEuroConfig(f_min=30.0 / (2.0 * math.pi), beta_gain=0.0)
        state, _ = filter_step(state, Pose(np.zeros(3), e, 0.0), cfg)
        raw = Pose(np.array([2.0, 0, 0]), Quaternion(h, 0, 0, h), 1.0 / 30.0)
        _, out = filter_step(state, raw, cfg)
        assert np.allclose(out.t, [1.0, 0, 0])
        assert out.q.w == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
        assert out.q.z == pytest.approx(math.sin(math.pi / 8), abs=1e-12)


class TestStabilizeTrajectory:
    def test_constant_fixed_point(self):
        e = Quaternion.identity()
        t = np.array([1.0, 2.0, 3.0])
        traj = Trajectory([Pose(t, e, i / 30.0) for i in range(10)])
        out = stabilize_trajectory(traj)
        for p in out:
            assert np.allclose(p.t, t, atol=1e-12)
            assert abs(abs(p.q.dot(e)) - 1.0) < 1e-12

    def test_passthrough_config(self):
        rng = np.random.default_rng(3)
        traj, _ = noisy_circle(rng, n=50)
        out = stabilize_trajectory(traj, OneEuroConfig(f_min=1e9))
        for a, b in zip(out, traj):
            assert np.allclose(a.t, b.t, atol=1e-9)

    def test_timestamps_preserved(self):
        rng = np.random.default_rng(4)
        traj, _ = noisy_circle(rng, n=20)
        out = stabilize_trajectory(traj)
        assert np.array_equal(out.timestamps(), traj.timestamps())

    def test_causality_prefix_identity(self):
        rng = np.random.default_rng(5)
        traj, _ = noisy_circle(rng, n=30)
        full = stabilize_trajectory(traj)
        for k in (1, 7, 15, 30):
            prefix = stabilize_trajectory(Trajectory(traj.poses[:k]))
            for a, b in zip(prefix, full.poses[:k]):
                assert np.array_equal(a.t, b.t)
                assert a.q == b.q

    def test_output_quaternions_unit(self):
        rng = np.random.default_rng(6)
        traj, _ = noisy_circle(rng, n=60)
        for p in stabilize_trajectory(traj):
            assert abs(p.q.norm() - 1.0) < 1e-9

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(7)
        traj, _ = noisy_circle(rng, n=40)
        state = FilterState()
        cfg = OneEuroConfig()
        for raw in traj:
            prev = state.last_t
            state, out = filter_step(state, raw, cfg)
            if prev is not None:
                lo = np.minimum(prev, raw.t) - 1e-12
                hi = np.maximum(prev, raw.t) + 1e-12
                assert np.all(out.t >= lo) and np.all(out.t <= hi)

    def test_reduces_acceleration_jitter(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy, _ = noisy_circle(rng)
            smoothed = stabilize_trajectory(noisy)
            if loss_acc(smoothed) < loss_acc(noisy):
                wins += 1
        assert wins >= 95
