import math

import numpy as np
import pytest

from streamstab import (LossWeights, PointSet, Pose, Quaternion, Trajectory,
                        grad_pose_translations, loss_acc, loss_ate, loss_conf,
                        loss_pose, loss_rgb, loss_rpe, loss_total,
                        scale_normalizer)
from streamstab.errors import (EmptyList, EmptyTrajectory, InvalidValue,
                               LengthMismatch, MissingConfidence,
                               NonFiniteResult, ShapeMismatch, TooShort)
from streamstab.losses import hemisphere_align

from conftest import awkward_trajectory, random_trajectory


def straight_line(n, step=1.0, axis=0):
    poses = []
    for i in range(n):
        t = np.zeros(3)
        t[axis] = step * i
        poses.append(Pose(t, Quaternion.identity(), float(i)))
    return Trajectory(poses)


def hemisphere_align_loop_oracle(quats):
    """The per-pair loop: flip each quaternion whose dot with the already
    aligned previous one is negative."""
    out = np.array(quats, dtype=float, copy=True)
    for i in range(1, out.shape[0]):
        if np.dot(out[i], out[i - 1]) < 0:
            out[i] = -out[i]
    return out


def _safe_unit(v):
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.zeros_like(v)
    return v / n


def grad_loop_oracle(pred, gt, w):
    """grad_pose_translations as one loop per loss term, one pose at a time."""
    tp, tg = pred.t, gt.t
    n = len(tp)
    grad = np.zeros_like(tp)
    if w.w_a != 0:
        sp, sg = scale_normalizer(tp), scale_normalizer(tg)
        for t in range(n):
            u = _safe_unit(tp[t] / sp - tg[t] / sg)
            grad[t] += w.w_a * u / (sp * n)
    if w.w_r != 0:
        dtp = np.diff(tp, axis=0)
        dtg = np.diff(tg, axis=0)
        for t in range(n - 1):
            v = _safe_unit(dtp[t] - dtg[t])
            grad[t + 1] += w.w_r * v / (n - 1)
            grad[t] -= w.w_r * v / (n - 1)
    if w.w_s != 0:
        d2 = np.diff(tp, n=2, axis=0)
        for t in range(n - 2):
            u = _safe_unit(d2[t])
            grad[t + 2] += w.w_s * u / (n - 2)
            grad[t + 1] -= 2.0 * w.w_s * u / (n - 2)
            grad[t] += w.w_s * u / (n - 2)
    return grad


def oracle_pairs():
    """(pred, gt) pairs of random and awkward trajectories of several sizes."""
    rng = np.random.default_rng(31)
    for n in (3, 4, 10, 100, 1000):
        for make in (random_trajectory, awkward_trajectory):
            for _ in range(3 if n < 1000 else 1):
                pred = make(rng, n)
                yield pred, make(rng, n)
                yield pred, pred  # every residual 0


def frozen_scale_pose_loss(tp, tg, qp, qg, w, sp, sg):
    """Independent re-evaluation of the pose loss with fixed normalizers,
    used as the finite-difference oracle."""
    n = tp.shape[0]
    ate = np.mean(np.linalg.norm(tp / sp - tg / sg, axis=1)
                  + (1.0 - np.abs(np.sum(qp * qg, axis=1))))
    dtp, dtg = np.diff(tp, axis=0), np.diff(tg, axis=0)
    dqp = np.diff(hemisphere_align(qp), axis=0)
    dqg = np.diff(hemisphere_align(qg), axis=0)
    rpe = np.mean(np.linalg.norm(dtp - dtg, axis=1)
                  + np.linalg.norm(dqp - dqg, axis=1))
    d2t = np.diff(tp, n=2, axis=0)
    d2q = np.diff(hemisphere_align(qp), n=2, axis=0)
    acc = np.mean(np.linalg.norm(d2t, axis=1) + np.linalg.norm(d2q, axis=1))
    return w.w_a * ate + w.w_r * rpe + w.w_s * acc


class TestScaleNormalizer:
    def test_single_unit(self):
        assert scale_normalizer([(1, 0, 0)]) == 1.0

    def test_mean_of_norms(self):
        assert scale_normalizer([(3, 4, 0), (0, 0, 5)]) == 5.0

    def test_zero_floor(self):
        assert scale_normalizer([(0, 0, 0), (0, 0, 0)]) == 1e-8

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            scale_normalizer(np.zeros((0, 3)))


class TestLossConf:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((10, 3))
        pred = PointSet(pts, np.ones(10))
        gt = PointSet(pts)
        assert loss_conf(pred, gt, alpha=0.3) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_scale_cancels(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((10, 3))
        pred = PointSet(2.0 * pts, np.ones(10))
        gt = PointSet(pts)
        assert loss_conf(pred, gt, alpha=0.5) == pytest.approx(0.0, abs=1e-9)

    def test_single_point_value(self):
        # normalized residual norm 0.5, confidence 2, alpha 0.2
        pred = PointSet(np.array([[1.5, 0, 0]]), np.array([2.0]))
        gt = PointSet(np.array([[1.0, 0, 0]]))
        # both normalizers reduce points to unit norm; construct directly:
        # pred/s_pred = (1,0,0), gt/s_gt = (1,0,0) -> 0; instead use explicit
        # residual via mismatched direction
        pred = PointSet(np.array([[0, 1.0, 0]]), np.array([2.0]))
        got = loss_conf(pred, gt, alpha=0.2)
        residual = np.linalg.norm([1.0, -1.0, 0.0])  # unit y minus unit x
        assert got == pytest.approx(2.0 * residual - 0.2 * math.log(2.0))

    def test_missing_confidence(self):
        pts = np.ones((3, 3))
        with pytest.raises(MissingConfidence):
            loss_conf(PointSet(pts), PointSet(pts), 0.2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss_conf(PointSet(np.ones((2, 3)), np.ones(2)),
                      PointSet(np.ones((3, 3))), 0.2)

    def test_overflowing_weighted_residual(self):
        # a residual above 1.8 times a confidence of 1e308 overflows
        pts = np.random.default_rng(38).standard_normal((4, 3))
        with pytest.raises(NonFiniteResult, match="^confidence loss"):
            loss_conf(PointSet(pts, np.full(4, 1e308)), PointSet(-pts))

    @pytest.mark.parametrize("conf", [[1.0, 0.0, -1.0], [1.0, math.nan, 1.0],
                                      [1.0, math.inf, 1.0], [1.0, 1.0, -0.0],
                                      [1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    def test_confidences_are_finite_positive_one_per_point(self, conf):
        # loss_conf gave nan and two RuntimeWarnings for [1, 0, -1]
        with pytest.raises(InvalidValue):
            PointSet(np.ones((3, 3)), np.array(conf))

    def test_smallest_and_largest_confidences_accepted(self):
        conf = np.array([5e-324, 1.7976931348623157e308])
        assert np.array_equal(PointSet(np.ones((2, 3)), conf).confidences, conf)


class TestLossRgb:
    def test_identical(self):
        img = np.random.default_rng(2).uniform(size=(4, 4, 3))
        assert loss_rgb(img, img) == 0.0

    def test_half_pixel(self):
        a = np.zeros((1, 1))
        b = np.full((1, 1), 0.5)
        assert loss_rgb(a, b) == pytest.approx(0.25)

    def test_two_pixels(self):
        a = np.zeros(2)
        b = np.ones(2)
        assert loss_rgb(a, b) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_rgb(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("pred, gt", [([1e200], [-1e200]),
                                          ([math.nan], [0.0])])
    def test_non_finite(self, pred, gt):
        with pytest.raises(NonFiniteResult, match="^RGB loss"):
            loss_rgb(pred, gt)


@pytest.mark.parametrize("func", [loss_ate, loss_rpe, loss_pose,
                                  grad_pose_translations])
def test_trajectories_of_unequal_length(func):
    with pytest.raises(LengthMismatch,
                       match="^trajectories must have equal length$"):
        func(straight_line(4), straight_line(5))


class TestLossAte:
    def test_empty(self):
        with pytest.raises(EmptyTrajectory):
            loss_ate(Trajectory(), Trajectory())

    def test_identical(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng, 5)
        assert loss_ate(traj, traj) == pytest.approx(0.0, abs=1e-12)

    def test_identical_never_negative(self):
        # |q . q| of a unit quaternion can round to 1 + 2e-16
        rng = np.random.default_rng(12)
        for _ in range(100):
            traj = random_trajectory(rng, 6)
            assert loss_ate(traj, traj) >= 0.0

    def test_unit_normalized_offset(self):
        pred = Trajectory([Pose(np.array([0, 1.0, 0]), Quaternion.identity(), 0.0)])
        gt = Trajectory([Pose(np.array([1.0, 0, 0]), Quaternion.identity(), 0.0)])
        # both normalize to unit vectors differing by sqrt(2)... use same axis
        assert loss_ate(pred, gt) == pytest.approx(math.sqrt(2.0))

    def test_orthogonal_quaternion_pair(self):
        e = Quaternion.identity()
        qz = Quaternion(0, 0, 0, 1)
        t = np.array([1.0, 0, 0])
        pred = Trajectory([Pose(t, e, 0.0), Pose(t + 0, qz, 1.0)])
        gt = Trajectory([Pose(t, e, 0.0), Pose(t + 0, e, 1.0)])
        # translations identical; one of two pairs has |q.q| = 0
        assert loss_ate(pred, gt) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pred = random_trajectory(rng, 6)
            gt = random_trajectory(rng, 6)
            base = loss_ate(pred, gt)
            scaled = Trajectory([Pose(7.3 * p.t, p.q, p.timestamp) for p in pred])
            assert loss_ate(scaled, gt) == pytest.approx(base, abs=1e-9)

    def test_nan_quaternion(self):
        # from_arrays does not check quaternions; the loss was nan
        gt = random_trajectory(np.random.default_rng(39), 5)
        q = gt.q.copy()
        q[2, 1] = math.nan
        pred = Trajectory.from_arrays(gt.t, q, gt.ts)
        for pair in ((pred, gt), (gt, pred)):
            with pytest.raises(NonFiniteResult, match="^ATE loss"):
                loss_ate(*pair)


class TestHemisphereAlign:
    def test_matches_loop_oracle(self):
        for pred, gt in oracle_pairs():
            for q in (pred.q, gt.q):
                got, want = hemisphere_align(q), hemisphere_align_loop_oracle(q)
                assert got.tobytes() == want.tobytes()  # signed zeros too

    def test_zero_dot_resets_sign(self):
        e, i = np.eye(4)[0], np.eye(4)[1]
        out = hemisphere_align(np.array([e, -e, i, -i]))
        assert np.array_equal(out, [e, e, i, i])

    def test_short_sequences_unchanged(self):
        for n in (0, 1):
            q = np.ones((n, 4))
            assert np.array_equal(hemisphere_align(q), q)


class TestLossRpe:
    def test_constant_offset_cancels(self):
        rng = np.random.default_rng(5)
        gt = random_trajectory(rng, 8)
        pred = Trajectory([Pose(p.t + np.array([1.0, -2.0, 3.0]), p.q, p.timestamp)
                           for p in gt])
        assert loss_rpe(pred, gt) == pytest.approx(0.0, abs=1e-12)

    def test_identical(self):
        rng = np.random.default_rng(6)
        traj = random_trajectory(rng, 5)
        assert loss_rpe(traj, traj) == 0.0

    def test_single_step_difference(self):
        e = Quaternion.identity()
        gt = Trajectory([Pose(np.zeros(3), e, 0.0), Pose(np.zeros(3), e, 1.0)])
        pred = Trajectory([Pose(np.zeros(3), e, 0.0),
                           Pose(np.array([0.3, 0, 0]), e, 1.0)])
        assert loss_rpe(pred, gt) == pytest.approx(0.3)

    def test_too_short(self):
        traj = straight_line(1)
        with pytest.raises(TooShort):
            loss_rpe(traj, traj)


class TestLossAcc:
    def test_constant_velocity_zero(self):
        assert loss_acc(straight_line(10, step=0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_unit_second_difference(self):
        e = Quaternion.identity()
        traj = Trajectory([Pose(np.array([0.0, 0, 0]), e, 0.0),
                           Pose(np.array([0.0, 0, 0]), e, 1.0),
                           Pose(np.array([1.0, 0, 0]), e, 2.0)])
        assert loss_acc(traj) == pytest.approx(1.0)

    def test_constant_velocity_random_direction(self):
        rng = np.random.default_rng(7)
        direction = rng.standard_normal(3)
        traj = Trajectory([Pose(i * direction, Quaternion.identity(), float(i))
                           for i in range(6)])
        assert loss_acc(traj) == pytest.approx(0.0, abs=1e-12)

    def test_constant_velocity_reparameterization_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            traj = random_trajectory(rng, 7)
            base = loss_acc(traj)
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            shifted = Trajectory([Pose(p.t + a * i + b, p.q, p.timestamp)
                                  for i, p in enumerate(traj)])
            assert loss_acc(shifted) == pytest.approx(base, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            loss_acc(straight_line(2))


class TestLossPose:
    def test_perfect_constant_velocity(self):
        traj = straight_line(5)
        assert loss_pose(traj, traj) == pytest.approx(0.0, abs=1e-12)

    def test_ate_only_weights(self):
        rng = np.random.default_rng(9)
        pred = random_trajectory(rng, 5)
        gt = random_trajectory(rng, 5)
        w = LossWeights(w_a=1.0, w_r=0.0, w_s=0.0)
        assert loss_pose(pred, gt, w) == pytest.approx(loss_ate(pred, gt))

    def test_sum_of_components(self):
        e = Quaternion.identity()
        traj = Trajectory([Pose(np.array([0.0, 0, 0]), e, 0.0),
                           Pose(np.array([0.0, 0, 0]), e, 1.0),
                           Pose(np.array([1.0, 0, 0]), e, 2.0)])
        got = loss_pose(traj, traj, LossWeights(1.0, 1.0, 1.0))
        assert got == pytest.approx(0.0 + 0.0 + 1.0)

    def test_zero_weights(self):
        rng = np.random.default_rng(10)
        pred = random_trajectory(rng, 5)
        gt = random_trajectory(rng, 5)
        assert loss_pose(pred, gt, LossWeights(0.0, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("weights", [(0.0, 0.0, 1e308),
                                         (1e308, 1e308, 0.0),
                                         (-1e308, 0.0, 1e308)])
    def test_overflow_is_an_error(self, weights):
        # a weighted term past float's range made the loss inf or NaN
        rng = np.random.default_rng(11)
        pred, gt = random_trajectory(rng, 5), random_trajectory(rng, 5)
        with pytest.raises(NonFiniteResult, match="pose loss"):
            loss_pose(pred, gt, LossWeights(*weights))


class TestLossTotal:
    def test_zeros(self):
        assert loss_total(0, 0, 0) == 0.0

    def test_unit_sum(self):
        assert loss_total(1, 1, 1, LossWeights()) == 3.0

    def test_weighted(self):
        w = LossWeights(lambda1=0.5, lambda2=1.0, lambda3=2.0)
        assert loss_total(2.0, 0.0, 0.5, w) == pytest.approx(2.0)

    @pytest.mark.parametrize("values", [(1e308, 1e308, 0.0),
                                        (0.0, -1e308, -1e308),
                                        (1e308, 0.0, 1e308)])
    def test_overflow_is_an_error(self, values):
        with pytest.raises(NonFiniteResult, match="total loss"):
            loss_total(*values, LossWeights(lambda1=2.0, lambda2=2.0,
                                            lambda3=2.0))


class TestGradPoseTranslations:
    @pytest.mark.parametrize("n, weights, message", [
        (1, LossWeights(), "RPE term needs at least 2 poses"),
        (2, LossWeights(), "acceleration term needs at least 3 poses"),
        (2, LossWeights(w_r=0.0), "acceleration term needs at least 3 poses"),
    ])
    def test_too_short(self, n, weights, message):
        traj = straight_line(n)
        with pytest.raises(TooShort, match=message):
            grad_pose_translations(traj, traj, weights)

    def test_term_of_weight_zero_needs_no_length(self):
        traj = straight_line(1)
        grad = grad_pose_translations(traj, traj, LossWeights(w_r=0.0, w_s=0.0))
        assert np.array_equal(grad, np.zeros((1, 3)))

    def test_zero_at_minimum(self):
        traj = straight_line(5)
        grad = grad_pose_translations(traj, traj)
        assert np.allclose(grad, 0.0)

    def test_acceleration_pattern(self):
        e = Quaternion.identity()
        traj = Trajectory([Pose(np.array([0.0, 0, 0]), e, 0.0),
                           Pose(np.array([0.0, 0, 0]), e, 1.0),
                           Pose(np.array([1.0, 0, 0]), e, 2.0)])
        grad = grad_pose_translations(traj, traj, LossWeights(0.0, 0.0, 1.0))
        expected = np.array([[1.0, 0, 0], [-2.0, 0, 0], [1.0, 0, 0]])
        assert np.allclose(grad, expected)
        # sanity check against a one-sided finite difference on the first frame
        tp = traj.t
        h = 1e-6
        bumped = tp.copy()
        bumped[0, 0] += h
        base = np.linalg.norm(np.diff(tp, n=2, axis=0))
        after = np.linalg.norm(np.diff(bumped, n=2, axis=0))
        assert (after - base) / h == pytest.approx(grad[0, 0], abs=1e-5)

    def test_matches_finite_differences(self):
        self.check_finite_differences(LossWeights(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("weights", [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                         (1.0, 1.0, -1.0), (-0.3, -2.0, 0.7)])
    def test_negative_weights_match_finite_differences(self, weights):
        # a negative weight scales its term: a term of weight <= 0 was
        # dropped from the gradient while loss_pose kept the ATE term
        self.check_finite_differences(LossWeights(*weights))

    @staticmethod
    def check_finite_differences(w):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(20):
            pred = random_trajectory(rng, 10)
            gt = random_trajectory(rng, 10)
            tp, tg = pred.t, gt.t
            qp, qg = pred.q, gt.q
            sp = scale_normalizer(tp)
            sg = scale_normalizer(tg)
            grad = grad_pose_translations(pred, gt, w)
            for i in range(10):
                for j in range(3):
                    plus = tp.copy()
                    plus[i, j] += h
                    minus = tp.copy()
                    minus[i, j] -= h
                    fd = (frozen_scale_pose_loss(plus, tg, qp, qg, w, sp, sg)
                          - frozen_scale_pose_loss(minus, tg, qp, qg, w, sp, sg)
                          ) / (2 * h)
                    scale = max(abs(fd), abs(grad[i, j]), 1e-8)
                    assert abs(grad[i, j] - fd) / scale < 1e-4

    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0),
                                         (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                         (0.3, 2.0, 0.7), (-1.0, 0.0, 0.0),
                                         (0.0, -1.0, 0.0), (0.0, 0.0, -1.0),
                                         (-0.3, 2.0, -0.7)])
    def test_matches_loop_oracle(self, weights):
        w = LossWeights(*weights)
        for pred, gt in oracle_pairs():
            want = grad_loop_oracle(pred, gt, w)
            got = grad_pose_translations(pred, gt, w)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestOverflow:
    """Translations whose norms or differences overflow are a NonFiniteResult,
    without a RuntimeWarning (warnings are errors here)."""

    def _alternating(self, x: float, n: int = 12) -> Trajectory:
        t = np.zeros((n, 3))
        t[:, 0] = x * (-1.0) ** np.arange(n)
        return Trajectory.from_arrays(t, [[1.0, 0.0, 0.0, 0.0]] * n,
                                      np.arange(n, dtype=float))

    def test_norm_overflow(self):
        pred = self._alternating(1.7e308)
        with pytest.raises(NonFiniteResult, match="scale normalizer"):
            scale_normalizer(pred.t)
        with pytest.raises(NonFiniteResult, match="scale normalizer"):
            loss_pose(pred, straight_line(12))

    def test_difference_overflow(self):
        # each norm is finite, but each step's squared length is not
        pred = self._alternating(1.3e154)
        assert math.isfinite(scale_normalizer(pred.t))
        with pytest.raises(NonFiniteResult, match="RPE loss"):
            loss_rpe(pred, straight_line(12))
        with pytest.raises(NonFiniteResult, match="acceleration loss"):
            loss_acc(pred)

    @staticmethod
    def _huge_quaternion(n: int = 6) -> Trajectory:
        # one component near float's limit, of either sign, so that a first
        # or second difference of the components overflows
        q = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
        q[2, 1], q[3, 1] = 1.7e308, -1.7e308
        return Trajectory.from_arrays(np.zeros((n, 3)), q,
                                      np.arange(n, dtype=float))

    @pytest.mark.filterwarnings("error")
    def test_quaternion_difference_overflow(self):
        # np.diff of the aligned quaternions ran outside the errstate block
        # and warned "overflow encountered in subtract"
        pred = self._huge_quaternion()
        with pytest.raises(NonFiniteResult, match="acceleration loss"):
            loss_acc(pred)
        with pytest.raises(NonFiniteResult, match="RPE loss"):
            loss_rpe(pred, straight_line(6))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [math.nan, 1e200])
    def test_gradient_without_ate_term(self, x):
        # with w_a = 0 no scale normalizer checks the translations: a NaN gave
        # NaN rows, and 1e200 warned and gave zero rows
        t = np.zeros((6, 3))
        t[:, 0] = x * np.arange(6)
        t[0, 0] = 0.0
        pred = Trajectory.from_arrays(t, [[1.0, 0.0, 0.0, 0.0]] * 6,
                                      np.arange(6, dtype=float))
        for w in (LossWeights(w_a=0.0), LossWeights(w_a=0.0, w_r=0.0),
                  LossWeights(w_a=0.0, w_s=0.0)):
            with pytest.raises(NonFiniteResult, match="pose-loss gradient"):
                grad_pose_translations(pred, straight_line(6), w)
