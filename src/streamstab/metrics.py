"""Benchmark-style evaluation metrics.

Trajectory metrics with closed-form similarity alignment, depth metrics under
three alignment modes, and point-cloud accuracy / completeness / normal
consistency. These follow the standard benchmark conventions and are distinct
from the training losses in losses.py.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import DepthEvalMode
from .errors import (DegenerateConfiguration, InvalidValue, LengthMismatch,
                     NoOverlappingValidity, NonFiniteResult, ShapeMismatch,
                     TooFewPoints, TooShort)
from .geometry import (DepthMap, PointSet, Trajectory, median, pair_length,
                       quat_to_matrix)

_NORMALS_BLOCK = 4096  # points per batched SVD in _tree_normals
_OUT_OF_RANGE = "the coordinates' scale is outside float's range"


class Similarity3(NamedTuple):
    """Similarity transform p -> scale * rotation @ p + translation."""

    scale: float
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return self.scale * pts @ self.rotation.T + self.translation


def umeyama_align(src, dst, with_scale: bool = True) -> Similarity3:
    """Least-squares similarity transform taking src points onto dst points.

    Closed-form solution via SVD of the cross-covariance; with_scale=False
    fixes the scale at 1 (rigid alignment).
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    if src.shape != dst.shape:
        raise LengthMismatch("point lists must have equal length")
    n = src.shape[0]
    if n < 3:
        raise DegenerateConfiguration("alignment needs at least 3 points")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu_src = src.mean(axis=0)
        mu_dst = dst.mean(axis=0)
        src_c = src - mu_src
        dst_c = dst - mu_dst
        cov = dst_c.T @ src_c / n
        u, d, vt = np.linalg.svd(NonFiniteResult.check(
            cov, "alignment cross-covariance", _OUT_OF_RANGE))
        if d[1] < 1e-12 * max(d[0], 1e-300):
            raise DegenerateConfiguration("points are collinear or coincident")
        if np.linalg.det(u) * np.linalg.det(vt) < 0:  # a reflection
            u[:, 2], d[2] = -u[:, 2], -d[2]
        rotation = u @ vt
        if with_scale:  # an inf variance would make the scale 0
            var_src = NonFiniteResult.check(np.mean(np.sum(
                np.square(src_c), axis=1)), "alignment variance", _OUT_OF_RANGE)
            scale = float(np.sum(d) / var_src)
        else:
            scale = 1.0
        translation = mu_dst - scale * rotation @ mu_src
    return Similarity3(scale, rotation, NonFiniteResult.check(
        translation, "alignment translation", _OUT_OF_RANGE))


def metric_ate(pred: Trajectory, gt: Trajectory, with_scale: bool = False) -> float:
    """RMSE of translation residuals after aligning pred onto gt."""
    pair_length(pred, gt)
    tp, tg = pred.t, gt.t
    transform = umeyama_align(tp, tg, with_scale=with_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = transform.apply(tp) - tg
        return NonFiniteResult.check(float(np.sqrt(np.mean(np.sum(
            np.square(residuals), axis=1)))), "ATE", _OUT_OF_RANGE)


def _relative(ra: np.ndarray, ta: np.ndarray, rb: np.ndarray,
              tb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """inv(a) @ b for stacks of rigid motions a = (ra, ta), b = (rb, tb):
    rotations (N, 3, 3) and translations (N, 3)."""
    rt = ra.transpose(0, 2, 1)
    return rt @ rb, (rt @ tb[:, :, None] - rt @ ta[:, :, None])[:, :, 0]


def metric_rpe(pred: Trajectory, gt: Trajectory) -> tuple[float, float]:
    """RMSE of per-step SE(3) relative-motion error.

    Returns (translational RMSE in scene units, rotational RMSE in degrees).
    """
    n = pair_length(pred, gt)
    if n < 2:
        raise TooShort("RPE needs at least 2 poses")
    with np.errstate(over="ignore", invalid="ignore"):  # checked at the end
        rp, rg = quat_to_matrix(pred.q), quat_to_matrix(gt.q)
        r, t = _relative(*_relative(rg[:-1], gt.t[:-1], rg[1:], gt.t[1:]),
                         *_relative(rp[:-1], pred.t[:-1], rp[1:], pred.t[1:]))
        trans_sq = np.sum(np.square(t), axis=1)
        # atan2 form is well conditioned near the identity, unlike acos
        sin_angle = 0.5 * np.sqrt(np.square(r[:, 2, 1] - r[:, 1, 2])
                                  + np.square(r[:, 0, 2] - r[:, 2, 0])
                                  + np.square(r[:, 1, 0] - r[:, 0, 1]))
        cos_angle = (np.trace(r, axis1=1, axis2=2) - 1.0) / 2.0
        # math.atan2, not np.arctan2: they differ in the last bit on some inputs
        angle = np.array(list(map(math.atan2, sin_angle.tolist(),
                                  cos_angle.tolist())))
        rpe_trans = math.sqrt(float(np.mean(trans_sq)))
        rpe_rot = math.degrees(math.sqrt(float(np.mean(np.square(angle)))))
    return NonFiniteResult.check((rpe_trans, rpe_rot), "RPE", _OUT_OF_RANGE)


def metric_depth(pred: DepthMap, gt: DepthMap,
                 mode: DepthEvalMode = DepthEvalMode.ORIGINAL
                 ) -> tuple[float, float]:
    """Absolute relative error and the delta < 1.25 inlier percentage.

    scale mode multiplies pred by the median gt/pred ratio; scale_and_shift
    fits a * pred + b by least squares from centred sums, without BLAS, and
    raises DegenerateConfiguration if sum((pred - mean(pred))**2) is 0.
    """
    if pred.depths.shape != gt.depths.shape:
        raise ShapeMismatch("depth maps must have the same shape")
    mask = pred.valid & gt.valid
    if not mask.any():
        raise NoOverlappingValidity("no pixel is valid in both maps")
    p = pred.depths[mask]
    g = gt.depths[mask]
    if mode is DepthEvalMode.SCALE:
        p = p * median(g / p)
    elif mode is DepthEvalMode.SCALE_AND_SHIFT:
        pc = p - p.mean()
        spread = np.sum(pc * pc)
        if spread == 0.0:
            raise DegenerateConfiguration("pred depths have no spread")
        p = np.sum(pc * (g - g.mean())) / spread * pc + g.mean()
    abs_rel = float(np.mean(np.abs(p - g) / g))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(p / g, g / p)
    # an aligned depth <= 0 gives a negative or infinite ratio: an outlier
    delta = 100.0 * float(np.mean((p > 0) & (ratio < 1.25)))
    return abs_rel, delta


def _kdtrees(k: int, *clouds: np.ndarray) -> list:
    """A KD-tree over each cloud, a PointSet's finite points. Rejected: a sum
    of k + 1 coordinates (a neighbourhood's mean) past float's range, and an
    inf squared distance between points, at which a query returns index n."""
    lo = np.min([c.min(axis=0) for c in clouds], axis=0)
    hi = np.max([c.max(axis=0) for c in clouds], axis=0)
    with np.errstate(over="ignore"):
        NonFiniteResult.check((np.sum(np.square(hi - lo)), (k + 1) * max(
            hi.max(), -lo.min())), "point cloud extent", _OUT_OF_RANGE)
    from scipy.spatial import cKDTree  # lazy: importing SciPy costs ~0.5 s
    return [cKDTree(c) for c in clouds]


def _tree_normals(tree, k: int, at: np.ndarray) -> np.ndarray:
    """Normals at the points `at` of the cloud in `tree`, which also serves
    that cloud's nearest-neighbour queries; one batched SVD per block of
    points keeps temporaries O(block * k)."""
    if k < 1:
        raise InvalidValue(f"normal estimation needs k >= 1, got {k}")
    pts = tree.data
    normals = np.empty_like(at)
    for start in range(0, at.shape[0], _NORMALS_BLOCK):
        block = at[start:start + _NORMALS_BLOCK]
        nb = pts[tree.query(block, k=k + 1)[1]]  # the point itself included
        nb_c = nb - nb.mean(axis=1, keepdims=True)
        normal = np.linalg.svd(nb_c, full_matrices=False)[2][:, -1, :]
        normal[np.einsum("ij,ij->i", normal, block) > 0] *= -1.0  # to origin
        normals[start:start + _NORMALS_BLOCK] = normal
    return normals


def estimate_normals(points: np.ndarray, k: int = 16) -> np.ndarray:
    """Per-point normals from local PCA over the k nearest neighbors.

    The k+1 nearest points (the point itself included) come from a KD-tree;
    the normal is their smallest-variance direction, the last right-singular
    vector of the centred neighbourhood, oriented toward the origin.
    """
    pts = PointSet(points).points  # a non-finite coordinate raises there
    if pts.shape[0] < k + 1:
        raise TooFewPoints(f"normal estimation needs at least {k + 1} points")
    return _tree_normals(*_kdtrees(k, pts), k, pts)


def metric_recon(pred: PointSet, gt: PointSet, k_normals: int = 16
                 ) -> tuple[float, float, float]:
    """Accuracy, completeness, and normal consistency of a predicted cloud.

    acc: mean pred-to-gt nearest distance; comp: the reverse; nc: mean
    absolute cosine between each pred normal and its matched gt normal.
    Clouds must already be expressed in the same frame.
    """
    p, g = pred.points, gt.points
    if min(p.shape[0], g.shape[0]) < k_normals + 1:
        raise TooFewPoints(f"reconstruction metrics need > {k_normals} points")
    tree_p, tree_g = _kdtrees(k_normals, p, g)
    dist_pg, idx_pg = tree_g.query(p)
    acc = float(np.mean(dist_pg))
    comp = float(np.mean(tree_p.query(g)[0]))
    n_pred = _tree_normals(tree_p, k_normals, p)
    # gt normals are needed only at the gt points some pred point matched
    matched, pair = np.unique(idx_pg, return_inverse=True)
    n_gt = _tree_normals(tree_g, k_normals, g[matched])
    nc = float(np.mean(np.abs(np.sum(n_pred * n_gt[pair], axis=1))))
    return acc, comp, nc
