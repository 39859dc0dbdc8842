import math
import tracemalloc

import numpy as np
import pytest

from streamstab import (DepthEvalMode, DepthMap, PointSet, Pose, Quaternion,
                        Trajectory, metric_ate, metric_depth, metric_recon,
                        metric_rpe, umeyama_align)
from streamstab.errors import (DegenerateConfiguration, InvalidValue,
                               LengthMismatch, NoOverlappingValidity,
                               NonFiniteResult, NonUnitQuaternion,
                               ShapeMismatch, ToolkitError, TooFewPoints,
                               TooShort)
from streamstab.geometry import quat_to_matrix
from streamstab.metrics import estimate_normals

from conftest import awkward_trajectory, random_trajectory, random_unit_quat


def polyfit_depth_oracle(pred, gt):
    """metric_depth's scale_and_shift mode with the line from np.polyfit (the
    old fit)."""
    mask = pred.valid & gt.valid
    p, g = pred.depths[mask], gt.depths[mask]
    a, b = np.polyfit(p, g, 1)
    p = a * p + b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(p / g, g / p)
    return (float(np.mean(np.abs(p - g) / g)),
            100.0 * float(np.mean((p > 0) & (ratio < 1.25))))


def rot_z(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0],
                     [math.sin(a), math.cos(a), 0],
                     [0, 0, 1.0]])


def normals_loop_oracle(points, k=16):
    """Dense-argsort, one-SVD-per-point normal estimation (the old kernel)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1)
    normals = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        nb = pts[order[i, :k + 1]]  # includes the point itself
        nb_c = nb - nb.mean(axis=0)
        _, _, vt = np.linalg.svd(nb_c, full_matrices=False)
        normal = vt[-1]
        if np.dot(normal, pts[i]) > 0:  # point toward the origin
            normal = -normal
        normals[i] = normal
    return normals


def _se3_loop(pose):
    m = np.eye(4)
    m[:3, :3] = quat_to_matrix(pose.q)
    m[:3, 3] = pose.t
    return m


def _se3_inv_loop(m):
    out = np.eye(4)
    out[:3, :3] = m[:3, :3].T
    out[:3, 3] = -m[:3, :3].T @ m[:3, 3]
    return out


def rpe_loop_oracle(pred, gt, square=lambda x: x * x):
    """metric_rpe one step at a time, from one 4x4 matrix per pose; every
    square is `square` of a float, a product unless a test passes pow."""
    trans_sq, rot_sq = [], []
    for i in range(1, len(pred)):
        rel_pred = _se3_inv_loop(_se3_loop(pred[i - 1])) @ _se3_loop(pred[i])
        rel_gt = _se3_inv_loop(_se3_loop(gt[i - 1])) @ _se3_loop(gt[i])
        err = _se3_inv_loop(rel_gt) @ rel_pred
        trans_sq.append(sum(map(square, err[:3, 3].tolist())))
        r = err[:3, :3].tolist()
        sin_angle = 0.5 * math.sqrt(square(r[2][1] - r[1][2])
                                    + square(r[0][2] - r[2][0])
                                    + square(r[1][0] - r[0][1]))
        cos_angle = (np.trace(err[:3, :3]) - 1.0) / 2.0
        rot_sq.append(square(math.atan2(sin_angle, cos_angle)))
    return (math.sqrt(float(np.mean(trans_sq))),
            math.degrees(math.sqrt(float(np.mean(rot_sq)))))


def umeyama_eye_diag_oracle(src, dst, with_scale):
    """umeyama_align with the reflection as s = diag(1, 1, -1) in u @ s @ vt
    and the scale as trace(diag(d) @ s) / var (the old form); returns the
    scale, rotation and translation, and whether the reflection was taken."""
    mu_src, mu_dst = src.mean(axis=0), dst.mean(axis=0)
    src_c, dst_c = src - mu_src, dst - mu_dst
    u, d, vt = np.linalg.svd(dst_c.T @ src_c / len(src))
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rotation = u @ s @ vt
    scale = (float(np.trace(np.diag(d) @ s)
                   / np.mean(np.sum(np.square(src_c), axis=1)))
             if with_scale else 1.0)
    return scale, rotation, mu_dst - scale * rotation @ mu_src, s[2, 2] < 0


def brute_force_recon(pred_pts, gt_pts, k_normals=16):
    """Nested-loop nearest-neighbor oracle for acc/comp/nc."""
    def nn(query, ref):
        idx, dist = [], []
        for q in query:
            d2 = np.sum((q[None, :] - ref) ** 2, axis=1)
            j = int(np.argmin(d2))
            idx.append(j)
            dist.append(np.sqrt(d2[j]))
        return np.array(idx), np.array(dist)

    idx_pg, dist_pg = nn(pred_pts, gt_pts)
    _, dist_gp = nn(gt_pts, pred_pts)
    n_pred = normals_loop_oracle(pred_pts, k_normals)
    n_gt = normals_loop_oracle(gt_pts, k_normals)
    nc = float(np.mean(np.abs(np.sum(n_pred * n_gt[idx_pg], axis=1))))
    return float(np.mean(dist_pg)), float(np.mean(dist_gp)), nc


@pytest.mark.parametrize("func", [metric_ate, metric_rpe])
def test_trajectories_of_unequal_length(func):
    rng = np.random.default_rng(30)
    with pytest.raises(LengthMismatch,
                       match="^trajectories must have equal length$"):
        func(random_trajectory(rng, 6), random_trajectory(rng, 5))


class TestUmeyama:
    def test_unequal_lengths(self):
        rng = np.random.default_rng(31)
        with pytest.raises(LengthMismatch, match="point lists"):
            umeyama_align(rng.standard_normal((5, 3)),
                          rng.standard_normal((4, 3)))

    def test_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((10, 3))
        sim = umeyama_align(pts, pts)
        assert sim.scale == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sim.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(sim.translation, 0.0, atol=1e-9)

    def test_recovers_known_similarity(self):
        rng = np.random.default_rng(1)
        src = rng.standard_normal((20, 3))
        rot = rot_z(30.0)
        dst = 2.0 * src @ rot.T + np.array([1.0, 2.0, 3.0])
        sim = umeyama_align(src, dst, with_scale=True)
        assert sim.scale == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(sim.rotation, rot, atol=1e-9)
        assert np.allclose(sim.translation, [1, 2, 3], atol=1e-9)
        assert np.max(np.abs(sim.apply(src) - dst)) < 1e-9

    def test_two_points_degenerate(self):
        with pytest.raises(DegenerateConfiguration):
            umeyama_align(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_degenerate(self):
        src = np.array([[0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(DegenerateConfiguration):
            umeyama_align(src, src)

    def test_optimality_vs_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            src = rng.standard_normal((15, 3))
            dst = rng.standard_normal((15, 3))
            sim = umeyama_align(src, dst, with_scale=True)
            res_aligned = np.sum((sim.apply(src) - dst) ** 2)
            res_identity = np.sum((src - dst) ** 2)
            assert res_aligned <= res_identity + 1e-9

    @pytest.mark.parametrize("with_scale", [False, True])
    def test_matches_eye_diag_oracle_bit_for_bit(self, with_scale):
        # mirrored sets take the reflection branch, random sets either
        rng = np.random.default_rng(35)
        reflected = {False: 0, True: 0}
        for i in range(400):
            src = rng.standard_normal((int(rng.integers(3, 40)), 3))
            mirrored = i % 2 == 1
            dst = (src * [1, 1, -1] + 0.05 * rng.standard_normal(src.shape)
                   if mirrored else rng.standard_normal(src.shape))
            sim = umeyama_align(src, dst, with_scale)
            scale, rotation, translation, flip = umeyama_eye_diag_oracle(
                src, dst, with_scale)
            assert sim.scale == scale
            assert np.array_equal(sim.rotation, rotation)
            assert np.array_equal(sim.translation, translation)
            reflected[mirrored] += flip
        # three points are planar, and a planar set's mirror image is also a
        # rotation of it
        assert reflected[True] > 180 and 0 < reflected[False] < 200


class TestMetricAte:
    def test_identical(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng, 10)
        assert metric_ate(traj, traj) == pytest.approx(0.0, abs=1e-9)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(4)
        gt = random_trajectory(rng, 12)
        rot = quat_to_matrix(random_unit_quat(rng))
        offset = rng.standard_normal(3)
        pred = Trajectory([Pose(rot @ p.t + offset, p.q, p.timestamp) for p in gt])
        assert metric_ate(pred, gt, with_scale=False) == pytest.approx(0.0, abs=1e-9)

    def test_similarity_transform_invariance(self):
        rng = np.random.default_rng(5)
        gt = random_trajectory(rng, 12)
        rot = quat_to_matrix(random_unit_quat(rng))
        pred = Trajectory([Pose(3.0 * rot @ p.t + 1.0, p.q, p.timestamp) for p in gt])
        assert metric_ate(pred, gt, with_scale=True) == pytest.approx(0.0, abs=1e-9)

    def test_single_offset_direct_oracle(self):
        rng = np.random.default_rng(6)
        gt = random_trajectory(rng, 10)
        translations = gt.t.copy()
        translations[4] += np.array([1.0, 0, 0])
        pred = Trajectory([Pose(t, p.q, p.timestamp)
                           for t, p in zip(translations, gt)])
        got = metric_ate(pred, gt)
        sim = umeyama_align(pred.t, gt.t, with_scale=False)
        residuals = [np.sum((sim.apply(t[None, :])[0] - g) ** 2)
                     for t, g in zip(pred.t, gt.t)]
        assert got == pytest.approx(math.sqrt(sum(residuals) / 10), abs=1e-12)


class TestMetricRpe:
    def test_identical(self):
        rng = np.random.default_rng(7)
        traj = random_trajectory(rng, 8)
        rpe_t, rpe_r = metric_rpe(traj, traj)
        assert rpe_t == pytest.approx(0.0, abs=1e-9)
        assert rpe_r == pytest.approx(0.0, abs=1e-6)

    def test_global_transform_invariance(self):
        rng = np.random.default_rng(8)
        gt = random_trajectory(rng, 8)
        rot_q = random_unit_quat(rng)
        rot = quat_to_matrix(rot_q)
        offset = rng.standard_normal(3)
        pred = Trajectory([Pose(rot @ p.t + offset, rot_q.multiply(p.q), p.timestamp)
                           for p in gt])
        rpe_t, rpe_r = metric_rpe(pred, gt)
        assert rpe_t == pytest.approx(0.0, abs=1e-9)
        assert rpe_r == pytest.approx(0.0, abs=1e-5)

    def test_single_corrupted_step(self):
        e = Quaternion.identity()
        gt = Trajectory([Pose(np.array([float(i), 0, 0]), e, float(i))
                         for i in range(11)])
        translations = gt.t.copy()
        translations[5:] += np.array([0.2, 0, 0])  # one step is 0.2 too long
        pred = Trajectory([Pose(t, e, p.timestamp)
                           for t, p in zip(translations, gt)])
        rpe_t, rpe_r = metric_rpe(pred, gt)
        assert rpe_t == pytest.approx(math.sqrt(0.04 / 10), abs=1e-12)
        assert rpe_r == pytest.approx(0.0, abs=1e-9)

    def test_too_short(self):
        traj = Trajectory([Pose(np.zeros(3), Quaternion.identity(), 0.0)])
        with pytest.raises(TooShort):
            metric_rpe(traj, traj)

    def test_matches_loop_oracle_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for n in (2, 3, 10, 100, 2000):
            for make in (random_trajectory, awkward_trajectory):
                gt = make(rng, n)
                near = Trajectory.from_arrays(
                    gt.t + 1e-9 * rng.standard_normal((n, 3)),
                    gt.q, gt.ts)
                for pred in (make(rng, n), gt, near):
                    assert metric_rpe(pred, gt) == rpe_loop_oracle(pred, gt)

    def test_one_step_squared_as_product(self):
        # rpe_rot of this step changes in its last digit when the squares of
        # the rotation's skew terms are Python's x ** 2, libm's pow, instead
        # of x * x: metric_rpe squares by product on every platform
        t = [[-0.852, -0.071, -1.244], [-0.998, 0.361, -0.691],
             [-0.325, -1.922, 1.254], [-0.542, -0.106, 0.765]]
        q = [[-0.08557405492593166, -0.0965450876087434,
              -0.028524684975310553, -0.9912328028920416],
             [-0.028788910599341914, 0.16539511383543493,
              0.9590658648682728, 0.22805333102223793],
             [0.30015500537508927, 0.40615380097957887,
              -0.573023192079716, -0.6454382108590206],
             [0.18651519681632078, -0.7228911975986594,
              0.6290543594488335, -0.21663566338293158]]
        pred = Trajectory.from_arrays(t[:2], q[:2], [0.0, 1.0])
        gt = Trajectory.from_arrays(t[2:], q[2:], [0.0, 1.0])
        assert metric_rpe(pred, gt) == rpe_loop_oracle(pred, gt)
        assert metric_rpe(pred, gt) != rpe_loop_oracle(
            pred, gt, square=lambda x: x ** 2)

    @pytest.mark.parametrize("row, norm", [([1.0, 1.0, 1.0, 1.0], "2.0"),
                                           ([0.0, 0.0, 0.0, 0.0], "0.0"),
                                           ([1.0, math.nan, 0.0, 0.0], "nan"),
                                           ([1e200, 0.0, 0.0, 0.0], "inf")])
    def test_non_unit_quaternion_row(self, row, norm):
        # from_arrays does not normalise: a non-unit row read as a rotation
        # gave a wrong RPE, not an error
        gt = random_trajectory(np.random.default_rng(36), 6)
        q = gt.q.copy()
        q[3] = row
        pred = Trajectory.from_arrays(gt.t, q, gt.ts)
        for pair in ((pred, gt), (gt, pred)):
            with pytest.raises(NonUnitQuaternion,
                               match=f"row 3 has norm {norm}, expected 1"):
                metric_rpe(*pair)

    def test_doubled_quaternions(self):
        # 2q holds the rotations of q, but its matrices are not rotations:
        # the RPE read a nonzero error, not (0, 0)
        gt = random_trajectory(np.random.default_rng(37), 6)
        pred = Trajectory.from_arrays(gt.t, 2.0 * gt.q, gt.ts)
        with pytest.raises(NonUnitQuaternion, match="row 0 has norm"):
            metric_rpe(pred, gt)


class TestMetricDepth:
    def test_identical(self):
        rng = np.random.default_rng(9)
        dm = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        abs_rel, delta = metric_depth(dm, dm)
        assert abs_rel == 0.0
        assert delta == 100.0

    def test_scaled_original_mode(self):
        rng = np.random.default_rng(10)
        gt = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        pred = DepthMap.from_depths(1.3 * gt.depths)
        abs_rel, delta = metric_depth(pred, gt, DepthEvalMode.ORIGINAL)
        assert abs_rel == pytest.approx(0.3, abs=1e-9)
        assert delta == 0.0

    def test_scaled_scale_mode(self):
        rng = np.random.default_rng(11)
        gt = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        pred = DepthMap.from_depths(1.3 * gt.depths)
        abs_rel, delta = metric_depth(pred, gt, DepthEvalMode.SCALE)
        assert abs_rel == pytest.approx(0.0, abs=1e-9)
        assert delta == 100.0

    @pytest.mark.parametrize("count", [1, 2, 3, 100, 101])
    @pytest.mark.parametrize("ties", [False, True])
    def test_scale_mode_scales_by_np_median(self, count, ties):
        # scale mode is original mode on pred times np.median(gt / pred),
        # which it computes by selection; gt holds invalid pixels too
        rng = np.random.default_rng(count)
        for _ in range(20):
            pred = rng.uniform(0.5, 5.0, size=(1, count + 4))
            ratios = rng.uniform(0.5, 2.0, size=pred.shape)
            if ties:
                ratios = rng.choice(ratios[0, :3], size=pred.shape)
            gt = pred * ratios
            gt[0, rng.permutation(count + 4)[:4]] = 0.0
            pm, gm = DepthMap.from_depths(pred), DepthMap.from_depths(gt)
            s = float(np.median(gt[gm.valid] / pred[gm.valid]))
            scaled = DepthMap.from_depths(pred * s)
            assert (metric_depth(pm, gm, DepthEvalMode.SCALE)
                    == metric_depth(scaled, gm))

    def test_affine_scale_and_shift_mode(self):
        rng = np.random.default_rng(12)
        gt = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        pred = DepthMap.from_depths(0.5 * gt.depths + 2.0)
        abs_rel, delta = metric_depth(pred, gt, DepthEvalMode.SCALE_AND_SHIFT)
        assert abs_rel == pytest.approx(0.0, abs=1e-6)
        assert delta == 100.0

    def test_non_positive_aligned_depth_is_outlier(self):
        # the affine fit maps the last pred pixel to a negative depth
        pred = DepthMap.from_depths(np.arange(1.0, 7.0).reshape(2, 3))
        gt = DepthMap.from_depths(np.array([[9.0, 7.0, 5.0], [3.0, 1.0, 0.5]]))
        _, delta = metric_depth(pred, gt, DepthEvalMode.SCALE_AND_SHIFT)
        assert delta == pytest.approx(200.0 / 3.0, abs=1e-9)

    def test_scale_mode_invariant_to_uniform_scaling(self):
        rng = np.random.default_rng(13)
        gt = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        pred = DepthMap.from_depths(rng.uniform(1.0, 5.0, size=(8, 8)))
        base, _ = metric_depth(pred, gt, DepthEvalMode.SCALE)
        scaled = DepthMap.from_depths(4.2 * pred.depths)
        got, _ = metric_depth(scaled, gt, DepthEvalMode.SCALE)
        assert got == pytest.approx(base, abs=1e-9)

    def test_shape_mismatch(self):
        a = DepthMap.from_depths(np.ones((4, 4)))
        b = DepthMap.from_depths(np.ones((5, 5)))
        with pytest.raises(ShapeMismatch):
            metric_depth(a, b)

    def test_scale_and_shift_matches_polyfit(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            shape = tuple(rng.integers(2, 40, size=2))
            gt = rng.uniform(1.0, 5.0, size=shape)
            pred = np.abs(rng.uniform(0.3, 3.0) * gt + rng.uniform(-1.0, 2.0)
                          + rng.normal(0.0, 0.3, size=shape)) + 0.1
            valid = rng.random(shape) < 0.9
            valid.flat[:2] = True
            pred = DepthMap(pred, valid)
            gt = DepthMap.from_depths(gt)
            abs_rel, delta = metric_depth(pred, gt,
                                          DepthEvalMode.SCALE_AND_SHIFT)
            want_abs_rel, want_delta = polyfit_depth_oracle(pred, gt)
            assert abs_rel == pytest.approx(want_abs_rel, rel=1e-12)
            assert delta == want_delta

    @pytest.mark.parametrize("pred", [
        np.full((4, 5), 1.5),  # polyfit: a RankWarning and a number
        1e-300 * np.linspace(1.0, 2.0, 20).reshape(4, 5),  # spread underflows
    ], ids=["constant", "1e-300"])
    def test_pred_without_spread_is_degenerate(self, pred):
        gt = DepthMap.from_depths(np.linspace(1.0, 3.0, 20).reshape(4, 5))
        with pytest.raises(DegenerateConfiguration):
            metric_depth(DepthMap.from_depths(pred), gt,
                         DepthEvalMode.SCALE_AND_SHIFT)
        # the other modes still give a number
        for mode in (DepthEvalMode.ORIGINAL, DepthEvalMode.SCALE):
            assert all(map(math.isfinite, metric_depth(
                DepthMap.from_depths(pred), gt, mode)))

    def test_no_overlap(self):
        d = np.ones((2, 2))
        a = DepthMap(d, np.array([[True, False], [False, False]]))
        b = DepthMap(d, np.array([[False, True], [True, True]]))
        with pytest.raises(NoOverlappingValidity):
            metric_depth(a, b)


class TestMetricRecon:
    def test_identical(self):
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((50, 3))
        acc, comp, nc = metric_recon(PointSet(pts), PointSet(pts))
        assert acc == 0.0
        assert comp == 0.0
        assert nc == pytest.approx(1.0, abs=1e-9)

    def test_parallel_planes(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        base = np.stack([xs.ravel(), ys.ravel(), np.zeros(100)], axis=1)
        offset = base + np.array([0, 0, 0.3])
        acc, comp, nc = metric_recon(PointSet(base), PointSet(offset))
        assert acc == pytest.approx(0.3, abs=1e-9)
        assert comp == pytest.approx(0.3, abs=1e-9)
        assert nc == pytest.approx(1.0, abs=1e-6)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        pred = rng.standard_normal((300, 3))
        gt = rng.standard_normal((300, 3))
        got = metric_recon(PointSet(pred), PointSet(gt))
        oracle = brute_force_recon(pred, gt)
        assert got == oracle

    def test_acc_comp_swap(self):
        rng = np.random.default_rng(16)
        a = PointSet(rng.standard_normal((40, 3)))
        b = PointSet(rng.standard_normal((40, 3)))
        ab = metric_recon(a, b)
        ba = metric_recon(b, a)
        assert ab[0] == ba[1]
        assert ab[1] == ba[0]

    def test_too_few_points(self):
        pts = PointSet(np.random.default_rng(17).standard_normal((5, 3)))
        with pytest.raises(TooFewPoints):
            metric_recon(pts, pts, k_normals=16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_non_finite_point_rejected(self, bad, side):
        pts = np.random.default_rng(18).standard_normal((40, 3))
        broken = pts.copy()
        broken[7, 1] = bad
        pair = {"pred": PointSet(pts), "gt": PointSet(pts)}
        pair[side] = PointSet(broken)
        with pytest.raises(ToolkitError):
            metric_recon(pair["pred"], pair["gt"])

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, k):
        pts = PointSet(np.random.default_rng(19).standard_normal((40, 3)))
        with pytest.raises(ValueError, match="k >= 1"):
            metric_recon(pts, pts, k_normals=k)
        with pytest.raises(ValueError, match="k >= 1"):
            estimate_normals(pts.points, k)

    def test_traced_peak_memory_3000_points(self):
        rng = np.random.default_rng(20)
        pred = PointSet(rng.standard_normal((3000, 3)))
        gt = PointSet(rng.standard_normal((3000, 3)))
        metric_recon(pred, pred)  # the lazy SciPy import is not measured
        tracemalloc.start()
        try:
            metric_recon(pred, gt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def _near_planar_cloud(rng, n):
    """Points on the plane z = 5, turned about z and shifted, 1e-4 thick."""
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.column_stack([uv, 1e-4 * rng.standard_normal(n)])
    return pts @ rot_z(35.0).T + np.array([0.5, -1.0, 5.0])


class TestEstimateNormals:
    @pytest.mark.parametrize("n", [17, 18, 60, 300, 2500])
    @pytest.mark.parametrize("k", [3, 16])
    def test_bit_identical_to_loop(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        pts = rng.standard_normal((n, 3)) + np.array([0.0, 0.0, 2.0])
        assert np.array_equal(estimate_normals(pts, k), normals_loop_oracle(pts, k))

    @pytest.mark.parametrize("k", [3, 16])
    def test_near_planar_bit_identical_to_loop(self, k):
        pts = _near_planar_cloud(np.random.default_rng(21), 600)
        got = estimate_normals(pts, k)
        assert np.array_equal(got, normals_loop_oracle(pts, k))
        # every normal is the plane normal (0, 0, 1) turned toward the origin
        assert np.all(got[:, 2] < -0.99)

    def test_blocks_bit_identical(self, monkeypatch):
        monkeypatch.setattr("streamstab.metrics._NORMALS_BLOCK", 7)
        pts = np.random.default_rng(22).standard_normal((60, 3))
        assert np.array_equal(estimate_normals(pts, 16), normals_loop_oracle(pts, 16))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            estimate_normals(np.zeros((16, 3)), 16)


def _scaled(traj: Trajectory, scale: float) -> Trajectory:
    return Trajectory.from_arrays(traj.t * scale, traj.q, traj.ts)


@pytest.mark.parametrize("k", [0, -1])
def test_non_positive_k_is_invalid_value(k):
    pts = np.random.default_rng(19).standard_normal((40, 3))
    with pytest.raises(InvalidValue, match="k >= 1"):
        estimate_normals(pts, k)


class TestOutOfRange:
    """Coordinates whose products leave float's range are a NonFiniteResult,
    with no RuntimeWarning (warnings are errors here) and no inf, NaN or
    index past the cloud."""

    def test_cross_covariance_overflow(self):
        # NumPy's SVD raised LinAlgError("SVD did not converge") here
        rng = np.random.default_rng(30)
        src, dst = rng.standard_normal((2, 12, 3)) * 1e154
        for with_scale in (False, True):
            with pytest.raises(NonFiniteResult, match="cross-covariance"):
                umeyama_align(src, dst, with_scale=with_scale)

    def test_variance_overflow_is_not_scale_0(self):
        rng = np.random.default_rng(31)
        src, dst = rng.standard_normal((12, 3)) * 1e160, rng.standard_normal((12, 3))
        with pytest.raises(NonFiniteResult, match="alignment variance"):
            umeyama_align(src, dst)
        assert umeyama_align(src, dst, with_scale=False).scale == 1.0

    @pytest.mark.parametrize("align", ["se3", "sim3"])
    def test_huge_pred_against_unit_gt(self, align):
        rng = np.random.default_rng(32)
        pred, gt = _scaled(random_trajectory(rng, 12), 1e160), random_trajectory(rng, 12)
        with pytest.raises(NonFiniteResult):
            metric_ate(pred, gt, with_scale=align == "sim3")
        with pytest.raises(NonFiniteResult, match="RPE"):
            metric_rpe(pred, gt)

    def test_scale_past_range_is_not_nan(self):
        # the variance of a 1e-170 spread underflows to 0, so the scale is inf
        rng = np.random.default_rng(33)
        pred, gt = _scaled(random_trajectory(rng, 12), 1e-170), random_trajectory(rng, 12)
        with pytest.raises(NonFiniteResult, match="alignment translation"):
            umeyama_align(pred.t, gt.t)
        with pytest.raises(NonFiniteResult, match="alignment translation"):
            metric_ate(pred, gt, with_scale=True)
        assert math.isfinite(metric_ate(pred, gt))

    @pytest.mark.parametrize("offset, spread", [(0.0, 1e154), (1e154, 1.0),
                                                (1.7e308, 0.0)])
    def test_recon_extent_or_neighbourhood_sum(self, offset, spread):
        # a squared distance past float's range made cKDTree return index n;
        # 17 coincident points at 1.7e308 overflow their mean
        rng = np.random.default_rng(34)
        pred = rng.standard_normal((40, 3)) * spread + offset
        gt = rng.standard_normal((40, 3)) * spread - offset
        if spread == 0.0:
            gt = pred
        with pytest.raises(NonFiniteResult, match="point cloud extent"):
            metric_recon(PointSet(pred), PointSet(gt))
        with pytest.raises(NonFiniteResult, match="point cloud extent"):
            estimate_normals(np.vstack([pred, gt]))

    def test_coincident_points_within_range(self):
        # 17 * 1e307 is below float's largest value: nothing overflows
        pts = PointSet(np.full((40, 3), 1e307))
        assert metric_recon(pts, pts) == (0.0, 0.0, 1.0)
