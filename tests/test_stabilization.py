import math

import numpy as np
import pytest

from streamstab import (FilterState, GrayImage, OneEuroConfig, Pose,
                        Quaternion, Trajectory, cutoff_freq, filter_step,
                        loss_acc, quat_normalize, score_terms, slerp,
                        smoothing_alpha, stabilize_trajectory)
from streamstab.errors import InvalidGamma, NonFiniteResult, NonPositiveDt

from conftest import awkward_trajectory, quat_multiply, random_unit_quat


# -- oracle: the filter as it was before its step moved to Python floats ------
# (its slerp and filter_step, verbatim except that `Quaternion.from_array(out)`,
# `as_array()` and `cfg.default_dt` are spelled out and the names end in
# `_oracle`)

def slerp_oracle(a: Quaternion, b: Quaternion, gamma: float) -> Quaternion:
    if not 0.0 <= gamma <= 1.0:
        raise InvalidGamma(f"gamma {gamma} outside [0, 1]")
    av, bv = np.array(a, dtype=float), np.array(b, dtype=float)
    dot = float(np.dot(av, bv))
    if dot < 0.0:
        bv = -bv
        dot = -dot
    dot = min(1.0, dot)
    theta = math.acos(dot)
    sin_theta = math.sin(theta)
    if sin_theta < 1e-6:
        out = (1.0 - gamma) * av + gamma * bv
    else:
        out = (math.sin((1.0 - gamma) * theta) * av
               + math.sin(gamma * theta) * bv) / sin_theta
    out = out / np.linalg.norm(out)
    return Quaternion(float(out[0]), float(out[1]), float(out[2]), float(out[3]))


def filter_step_oracle(state: FilterState, raw: Pose, cfg: OneEuroConfig
                       ) -> tuple[FilterState, Pose]:
    q_raw = quat_normalize(raw.q)
    if not state.initialized:
        out = Pose(raw.t, q_raw, raw.timestamp)
        new_state = FilterState(np.array(raw.t, copy=True), q_raw, raw.timestamp)
        return new_state, out

    dt = raw.timestamp - state.last_timestamp
    if dt <= 0:
        dt = 1.0 / 30.0
    speed = float(np.linalg.norm(raw.t - state.last_t)) / dt
    alpha = smoothing_alpha(cutoff_freq(cfg, speed), dt)

    t_smooth = alpha * raw.t + (1.0 - alpha) * state.last_t
    q_smooth = slerp_oracle(state.last_q, q_raw, alpha)
    out = Pose(t_smooth, q_smooth, raw.timestamp)
    new_state = FilterState(np.array(t_smooth, copy=True), q_smooth, raw.timestamp)
    return new_state, out


def filter_loop_oracle(poses, cfg: OneEuroConfig = OneEuroConfig()):
    """The old filter folded over `poses`: (N, 3) translations, (N, 4)
    quaternions."""
    state, t, q = FilterState(), [], []
    for pose in poses:
        state, smoothed = filter_step_oracle(state, pose, cfg)
        t.append(smoothed.t)
        q.append(np.array(smoothed.q, dtype=float))
    return np.array(t).reshape(-1, 3), np.array(q).reshape(-1, 4)


def assert_rows_close(got, want, rtol=1e-12):
    """Every entry within rtol of the largest magnitude in its row."""
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale)


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

    @pytest.mark.parametrize("f, dt", [(1e308, 10.0), (math.inf, 1.0),
                                       (1.0, math.inf)])
    def test_limit_where_two_pi_f_dt_overflows(self, f, dt):
        # 2 pi f dt overflowed to inf, and inf / inf made alpha NaN
        assert smoothing_alpha(f, dt) == 1.0

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

    @pytest.mark.parametrize("f_min, beta_gain, dt, dist, alpha", [
        (1e308, 0.007, 1.0 / 30.0, 1.0, 1.0),  # 2 pi f overflows
        (1.0, 1e308, 1.0 / 30.0, 1.0, 1.0),  # beta_gain * speed overflows
        (1.0, 0.007, 5e-324, 1.0, 0.042129351494096141),  # the speed does
        (1.0, 0.0, 5e-324, 1.0, 2 * math.pi * 5e-324),  # 0 * inf is NaN
        (1.0, 0.0, 1.0, 1e200, 2 * math.pi / (2 * math.pi + 1)),  # dist is inf
    ], ids=["fmin", "beta-gain", "tiny-dt", "tiny-dt-zero-gain", "huge-step"])
    def test_alpha_where_two_pi_f_dt_overflows(self, f_min, beta_gain, dt,
                                               dist, alpha):
        # 2 pi f dt overflowed to inf and inf / inf made alpha NaN, an
        # InvalidGamma; alpha is x / (x + 1) for x = 2 pi (f_min dt +
        # beta_gain dist), and 1.0 only where x itself overflows
        e = Quaternion.identity()
        cfg = OneEuroConfig(f_min=f_min, beta_gain=beta_gain)
        state, _ = filter_step(FilterState(), Pose(np.zeros(3), e, 0.0), cfg)
        _, out = filter_step(state, Pose(np.array([dist, 0, 0]), e, dt), cfg)
        assert out.t[0] / dist == pytest.approx(alpha, rel=1e-15, abs=0.0)

    def test_alpha_where_dt_overflows_and_fmin_is_zero(self):
        # dt = 1e308 - (-1e308) is inf and f_min * dt was 0 * inf, NaN: an
        # InvalidGamma; with f_min 0, x = 2 pi beta_gain dist = pi
        e = Quaternion.identity()
        cfg = OneEuroConfig(f_min=0.0, beta_gain=0.5)
        state, _ = filter_step(FilterState(), Pose(np.zeros(3), e, -1e308),
                               cfg)
        _, out = filter_step(state, Pose(np.array([1.0, 0, 0]), e, 1e308), cfg)
        assert out.t[0] == pytest.approx(math.pi / (math.pi + 1), rel=1e-15,
                                         abs=0.0)

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
        assert np.array_equal(out.ts, traj.ts)

    def test_causality_prefix_identity(self):
        rng = np.random.default_rng(5)
        traj, _ = noisy_circle(rng, n=30)
        full = stabilize_trajectory(traj)
        for k in (1, 7, 15, 30):
            prefix = stabilize_trajectory(traj[:k])
            for a, b in zip(prefix, full[:k]):
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


def rotation_walk(rng, n, step):
    """Translations and unit quaternions of a random walk whose rotation
    turns by about `step` radians per pose."""
    t = np.cumsum(rng.normal(0.0, 0.05, size=(n, 3)), axis=0)
    q = [random_unit_quat(rng)]
    for _ in range(n - 1):
        axis = rng.standard_normal(3)
        axis *= math.sin(step / 2) / math.sqrt(axis @ axis)
        q.append(quat_normalize(quat_multiply(
            q[-1], Quaternion(math.cos(step / 2), *axis.tolist()))))
    return t, np.array(q, dtype=float)


class TestMatchesOracle:
    def check_fold(self, traj, cfg=OneEuroConfig()):
        out = stabilize_trajectory(traj, cfg)
        want_t, want_q = filter_loop_oracle(traj, cfg)
        assert_rows_close(out.t, want_t)
        assert_rows_close(out.q, want_q)
        assert np.array_equal(out.ts, traj.ts)

    @pytest.mark.parametrize("seed", range(8))
    def test_awkward_trajectory(self, seed, monkeypatch):
        # Where a quaternion is exactly orthogonal to the filter state (the
        # rotations are pi apart), slerp may turn towards either sign. The
        # oracle decided by the sign of its BLAS dot, which here rounds the
        # exact 0 to about -5e-18 (seeds 0 and 5, second pose), so the
        # oracle runs with its dot taken in order, as Quaternion.dot does.
        monkeypatch.setattr(np, "dot",
                            lambda a, b: Quaternion(*a).dot(Quaternion(*b)))
        traj = awkward_trajectory(np.random.default_rng(seed), 300)
        self.check_fold(traj)
        self.check_fold(traj, OneEuroConfig(f_min=0.1, beta_gain=2.0))

    def test_exact_tie_takes_no_flip(self):
        # the in-order dot of q and its orthogonal [-x, w, -z, y] is exactly
        # 0, so slerp keeps b's sign: the exact-arithmetic answer
        rng = np.random.default_rng(15)
        for _ in range(100):
            a = random_unit_quat(rng)
            b = Quaternion(-a.x, a.w, -a.z, a.y)
            assert a.dot(b) == 0.0
            for gamma in (0.25, 0.5, 0.75):
                av, bv = np.array(a, dtype=float), np.array(b, dtype=float)
                want = (math.sin((1 - gamma) * math.pi / 2) * av
                        + math.sin(gamma * math.pi / 2) * bv)
                got = np.array(slerp(a, b, gamma), dtype=float)
                assert np.allclose(got, want / np.linalg.norm(want),
                                   rtol=0, atol=1e-15)

    def test_nlerp_branch(self):
        # turns of 1e-8 rad keep sin(theta) below 1e-6 at every step
        t, q = rotation_walk(np.random.default_rng(11), 200, 1e-8)
        traj = Trajectory.from_arrays(t, q, np.arange(200) / 30.0)
        state = FilterState()
        for raw in traj:
            if state.initialized:
                dot = abs(state.last_q.dot(quat_normalize(raw.q)))
                assert math.sin(math.acos(min(1.0, dot))) < 1e-6
            state, _ = filter_step(state, raw, OneEuroConfig())
        self.check_fold(traj)

    def test_hemisphere_flips(self):
        t, q = rotation_walk(np.random.default_rng(12), 200, 0.05)
        q[1::2] *= -1.0  # every other pose: the same rotation, other sign
        traj = Trajectory.from_arrays(t, q, np.arange(200) / 30.0)
        self.check_fold(traj)
        assert np.all(np.sum(stabilize_trajectory(traj).q[1:] * q[1:], axis=1)
                      * np.where(np.arange(1, 200) % 2, -1, 1) > 0)

    def test_equal_timestamps_use_default_dt(self):
        # a live stream may repeat a timestamp; the step then uses 1/30 s
        rng = np.random.default_rng(13)
        t, q = rotation_walk(rng, 120, 0.05)
        ts = np.repeat(np.arange(40) / 10.0, 3)
        poses = [Pose(t[i], Quaternion(*q[i].tolist()), float(ts[i]))
                 for i in range(120)]
        state, got_t, got_q = FilterState(), [], []
        for raw in poses:
            state, out = filter_step(state, raw, OneEuroConfig())
            got_t.append(out.t)
            got_q.append(np.array(out.q, dtype=float))
        want_t, want_q = filter_loop_oracle(poses)
        assert_rows_close(np.array(got_t), want_t)
        assert_rows_close(np.array(got_q), want_q)


def test_printed_values_make_no_blas_call(monkeypatch):
    """stabilize's poses and score's motion terms are plain float arithmetic:
    they run with numpy.dot and numpy.linalg.norm unavailable."""
    rng = np.random.default_rng(14)
    traj = awkward_trajectory(rng, 50)
    poses = list(traj)
    img = GrayImage(rng.uniform(size=(16, 16)))
    a, b = random_unit_quat(rng), random_unit_quat(rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("BLAS call on a printed value")
    monkeypatch.setattr(np, "dot", forbidden)
    monkeypatch.setattr(np.linalg, "norm", forbidden)

    stabilize_trajectory(traj)
    state = FilterState()
    for raw in poses:
        state, _ = filter_step(state, raw, OneEuroConfig())
    for gamma in (0.0, 0.3, 1.0):
        slerp(a, b, gamma)
        slerp(a, a, gamma)
    score_terms(poses[0], poses[1], img)


def test_filter_step_on_overflowing_norm_is_non_finite_result():
    raw = Pose(np.zeros(3), Quaternion(1e200, 0.0, 0.0, 0.0), 1.0)
    start = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    first, _ = filter_step(FilterState(), start, OneEuroConfig())
    for state in (FilterState(), first):
        with pytest.raises(NonFiniteResult, match="quaternion norm overflows"):
            filter_step(state, raw, OneEuroConfig())


def test_nan_quaternion_is_non_finite_result():
    # a NaN norm passed quat_normalize's zero and overflow checks, so every
    # rotation from the NaN row on was NaN
    raw = Pose(np.zeros(3), Quaternion(1.0, math.nan, 0.0, 0.0), 1.0)
    start = Pose(np.zeros(3), Quaternion.identity(), 0.0)
    first, _ = filter_step(FilterState(), start, OneEuroConfig())
    for state in (FilterState(), first):
        with pytest.raises(NonFiniteResult, match="NaN component"):
            filter_step(state, raw, OneEuroConfig())
    q = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
    q[2, 3] = math.nan
    traj = Trajectory.from_arrays(np.zeros((4, 3)), q, np.arange(4.0))
    with pytest.raises(NonFiniteResult, match="NaN component"):
        stabilize_trajectory(traj)
