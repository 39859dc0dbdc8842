"""Benchmark-style evaluation metrics.

Trajectory metrics with closed-form similarity alignment, depth metrics under
three alignment modes, and point-cloud accuracy / completeness / normal
consistency. These follow the standard benchmark conventions and are distinct
from the training losses in losses.py.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateConfiguration, LengthMismatch,
                     NoOverlappingValidity, NonFinitePoints, ShapeMismatch,
                     TooFewPoints, TooShort)
from .geometry import PointSet, Trajectory, quat_to_matrix, squared
from .spatial import DepthMap

_NORMALS_BLOCK = 4096  # points per batched SVD in _tree_normals


class Similarity3(NamedTuple):
    """Similarity transform p -> scale * rotation @ p + translation."""

    scale: float
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return self.scale * pts @ self.rotation.T + self.translation


class DepthEvalMode(Enum):
    ORIGINAL = "original"
    SCALE = "scale"
    SCALE_AND_SHIFT = "scale_and_shift"


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

    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    src_c = src - mu_src
    dst_c = dst - mu_dst
    cov = dst_c.T @ src_c / n
    u, d, vt = np.linalg.svd(cov)
    if d[1] < 1e-12 * max(d[0], 1e-300):
        raise DegenerateConfiguration("points are collinear or coincident")
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rotation = u @ s @ vt
    if with_scale:
        var_src = np.mean(np.sum(src_c ** 2, axis=1))
        scale = float(np.trace(np.diag(d) @ s) / var_src)
    else:
        scale = 1.0
    translation = mu_dst - scale * rotation @ mu_src
    return Similarity3(scale, rotation, translation)


def metric_ate(pred: Trajectory, gt: Trajectory, with_scale: bool = False) -> float:
    """RMSE of translation residuals after aligning pred onto gt."""
    if len(pred) != len(gt):
        raise LengthMismatch("trajectories must have equal length")
    tp, tg = pred.t, gt.t
    transform = umeyama_align(tp, tg, with_scale=with_scale)
    residuals = transform.apply(tp) - tg
    return float(np.sqrt(np.mean(np.sum(residuals ** 2, axis=1))))


def _se3(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(N, 4, 4) rigid transforms of rotations (N, 3, 3), translations (N, 3)."""
    m = np.zeros((len(r), 4, 4))
    m[:, :3, :3], m[:, :3, 3], m[:, 3, 3] = r, t, 1.0
    return m


def _relative(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """inv(a) @ b for stacks of rigid (N, 4, 4) transforms."""
    rt = a[:, :3, :3].transpose(0, 2, 1)
    return _se3(rt, (-rt @ a[:, :3, 3:])[:, :, 0]) @ b


def metric_rpe(pred: Trajectory, gt: Trajectory) -> tuple[float, float]:
    """RMSE of per-step SE(3) relative-motion error.

    Returns (translational RMSE in scene units, rotational RMSE in degrees).
    """
    n = len(pred)
    if n != len(gt):
        raise LengthMismatch("trajectories must have equal length")
    if n < 2:
        raise TooShort("RPE needs at least 2 poses")
    mp, mg = (_se3(quat_to_matrix(x.q), x.t) for x in (pred, gt))
    err = _relative(_relative(mg[:-1], mg[1:]), _relative(mp[:-1], mp[1:]))
    trans_sq = np.sum(err[:, :3, 3] ** 2, axis=1)
    r = err[:, :3, :3]
    # atan2 form is well conditioned near the identity, unlike acos
    sin_angle = 0.5 * np.sqrt(squared(r[:, 2, 1] - r[:, 1, 2])
                              + squared(r[:, 0, 2] - r[:, 2, 0])
                              + squared(r[:, 1, 0] - r[:, 0, 1]))
    cos_angle = (np.trace(r, axis1=1, axis2=2) - 1.0) / 2.0
    # math.atan2, not np.arctan2: the two differ in the last bit on some inputs
    angle = np.array(list(map(math.atan2, sin_angle.tolist(),
                              cos_angle.tolist())))
    rpe_trans = math.sqrt(float(np.mean(trans_sq)))
    rpe_rot = math.degrees(math.sqrt(float(np.mean(squared(angle)))))
    return rpe_trans, rpe_rot


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
        p = p * float(np.median(g / p))
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


def _kdtree(points: np.ndarray):
    """KD-tree over one cloud; a non-finite coordinate is rejected."""
    if not np.isfinite(points).all():
        raise NonFinitePoints("point cloud has a non-finite coordinate")
    from scipy.spatial import cKDTree  # lazy: importing SciPy costs ~0.5 s
    return cKDTree(points)


def _tree_normals(tree, k: int, at: np.ndarray) -> np.ndarray:
    """Normals at the points `at` of the cloud in `tree`, which also serves
    that cloud's nearest-neighbour queries; one batched SVD per block of
    points keeps temporaries O(block * k)."""
    if k < 1:
        raise ValueError(f"normal estimation needs k >= 1, got {k}")
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
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] < k + 1:
        raise TooFewPoints(f"normal estimation needs at least {k + 1} points")
    return _tree_normals(_kdtree(pts), k, pts)


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
    tree_p, tree_g = _kdtree(p), _kdtree(g)
    dist_pg, idx_pg = tree_g.query(p)
    acc = float(np.mean(dist_pg))
    comp = float(np.mean(tree_p.query(g)[0]))
    n_pred = _tree_normals(tree_p, k_normals, p)
    # gt normals are needed only at the gt points some pred point matched
    matched, pair = np.unique(idx_pg, return_inverse=True)
    n_gt = _tree_normals(tree_g, k_normals, g[matched])
    nc = float(np.mean(np.abs(np.sum(n_pred * n_gt[pair], axis=1))))
    return acc, comp, nc
