"""Trajectory-consistent training objectives.

Loss-flavored ATE/RPE/acceleration terms with scale normalization, plus the
confidence-aware point regression and RGB photometric losses and the analytic
translation gradient of the pose loss.

These are the training-objective variants; the benchmark-style metrics with
alignment live in metrics.py.
"""

from __future__ import annotations

import numpy as np

from .config import LossWeights
from .errors import (EmptyList, EmptyTrajectory, LengthMismatch,
                     MissingConfidence, NonFiniteResult, ShapeMismatch,
                     TooShort)
from .geometry import PointSet, Trajectory, pair_length

_OVERFLOW = "a translation's norm or difference overflows"


def scale_normalizer(vectors) -> float:
    """Mean Euclidean norm of a list of 3-vectors, floored at 1e-8."""
    v = np.asarray(vectors, dtype=float).reshape(-1, 3)
    if v.shape[0] == 0:
        raise EmptyList("scale_normalizer needs at least one vector")
    with np.errstate(over="ignore"):
        return NonFiniteResult.check(max(float(np.mean(np.linalg.norm(
            v, axis=1))), 1e-8), "scale normalizer", _OVERFLOW)


def loss_conf(pred: PointSet, gt: PointSet, alpha: float = 0.2) -> float:
    """Confidence-weighted scale-normalized point regression loss."""
    if len(pred) != len(gt):
        raise LengthMismatch("point sets must have equal length")
    if pred.confidences is None:
        raise MissingConfidence("predicted point set must carry confidences")
    s_pred = scale_normalizer(pred.points)
    s_gt = scale_normalizer(gt.points)
    residuals = np.linalg.norm(pred.points / s_pred - gt.points / s_gt, axis=1)
    conf = pred.confidences
    with np.errstate(over="ignore", invalid="ignore"):
        return NonFiniteResult.check(float(np.sum(
            conf * residuals - alpha * np.log(conf))), "confidence loss")


def loss_rgb(pred: np.ndarray, gt: np.ndarray) -> float:
    """Squared L2 photometric error."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ShapeMismatch("rasters must have the same shape")
    with np.errstate(over="ignore", invalid="ignore"):
        return NonFiniteResult.check(float(np.sum(np.square(pred - gt))),
                                     "RGB loss", "a raster value is not finite"
                                     " or its squared difference overflows")


def hemisphere_align(quats: np.ndarray) -> np.ndarray:
    """Flip signs along a quaternion sequence so consecutive dots are >= 0.

    Quaternion i flips when an odd number of the input dots up to i are
    negative since the last dot of 0 or NaN, where the sign resets to +1."""
    out = np.array(quats, dtype=float, copy=True)
    if len(out) < 2:
        return out
    # a stacked matmul has the bits of np.dot, and so the same sign near 0
    dots = (out[1:, None, :] @ out[:-1, :, None])[:, 0, 0]
    negs = np.cumsum(np.r_[False, dots < 0])
    reset = np.r_[True, ~(dots < 0) & ~(dots > 0)]
    since = np.maximum.accumulate(np.where(reset, np.arange(len(out)), 0))
    flip = (negs - negs[since]) % 2 == 1
    out[flip] = -out[flip]
    return out


def loss_ate(pred: Trajectory, gt: Trajectory) -> float:
    """Per-frame absolute error of scale-normalized translations plus a
    quaternion agreement term 1 - |q_pred . q_gt|."""
    n = pair_length(pred, gt)
    if n == 0:
        raise EmptyTrajectory("loss_ate needs at least one pose")
    # finite normalizers bound each |t / s| by n, and the rows of q are unit
    sp, sg = scale_normalizer(pred.t), scale_normalizer(gt.t)
    trans = np.linalg.norm(pred.t / sp - gt.t / sg, axis=1)
    qdots = np.minimum(np.abs(np.sum(pred.q * gt.q, axis=1)), 1.0)
    return float(np.mean(trans + (1.0 - qdots)))


def loss_rpe(pred: Trajectory, gt: Trajectory) -> float:
    """First-difference consistency of translations and quaternion components."""
    n = pair_length(pred, gt)
    if n < 2:
        raise TooShort("loss_rpe needs at least 2 poses")
    with np.errstate(over="ignore", invalid="ignore"):
        dqp = np.diff(hemisphere_align(pred.q), axis=0)
        dqg = np.diff(hemisphere_align(gt.q), axis=0)
        dt = np.diff(pred.t, axis=0) - np.diff(gt.t, axis=0)
        terms = (np.linalg.norm(dt, axis=1)
                 + np.linalg.norm(dqp - dqg, axis=1))
        return NonFiniteResult.check(float(np.mean(terms)), "RPE loss",
                                     _OVERFLOW)


def loss_acc(pred: Trajectory) -> float:
    """Second-difference (acceleration) penalty on one trajectory."""
    n = len(pred)
    if n < 3:
        raise TooShort("loss_acc needs at least 3 poses")
    with np.errstate(over="ignore", invalid="ignore"):
        d2q = np.diff(hemisphere_align(pred.q), n=2, axis=0)
        d2t = np.diff(pred.t, n=2, axis=0)
        terms = np.linalg.norm(d2t, axis=1) + np.linalg.norm(d2q, axis=1)
        return NonFiniteResult.check(float(np.mean(terms)),
                                     "acceleration loss", _OVERFLOW)


def loss_pose(pred: Trajectory, gt: Trajectory, w: LossWeights = LossWeights()) -> float:
    """Weighted sum of the ATE, RPE and acceleration terms; a term of weight
    0 is skipped with the length it needs, any other weight scales it."""
    return _pose_sum(w, loss_ate(pred, gt), w.w_r and loss_rpe(pred, gt),
                     w.w_s and loss_acc(pred))


def _pose_sum(w: LossWeights, ate: float, rpe: float, acc: float) -> float:
    """loss_pose from its three terms; a term of weight 0 is not added."""
    total = w.w_a * ate
    if w.w_r:
        total += w.w_r * rpe
    if w.w_s:
        total += w.w_s * acc
    return NonFiniteResult.check(total, "pose loss")


def loss_total(conf: float, rgb: float, pose: float,
               w: LossWeights = LossWeights()) -> float:
    """Weighted sum of the three top-level loss components."""
    return NonFiniteResult.check(
        w.lambda1 * conf + w.lambda2 * rgb + w.lambda3 * pose, "total loss")


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of v scaled to unit length; a zero row stays zero (subgradient).
    A row whose norm is not finite raises NonFiniteResult."""
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    NonFiniteResult.check(norm, "pose-loss gradient", _OVERFLOW)
    return np.divide(v, norm, out=np.zeros_like(v), where=norm != 0.0)


def grad_pose_translations(pred: Trajectory, gt: Trajectory,
                           w: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic gradient of loss_pose with respect to predicted translations.

    The scale normalizers are treated as constants (stop-gradient), matching
    what a finite-difference check with frozen normalizers verifies.
    """
    n = pair_length(pred, gt)
    if w.w_r and n < 2:
        raise TooShort("RPE term needs at least 2 poses")
    if w.w_s and n < 3:
        raise TooShort("acceleration term needs at least 3 poses")
    tp, tg = pred.t, gt.t
    grad = np.zeros_like(tp)

    if w.w_a:
        sp, sg = scale_normalizer(tp), scale_normalizer(tg)
        grad += w.w_a * _unit_rows(tp / sp - tg / sg) / (sp * n)

    # _unit_rows catches a difference or norm past float's range
    with np.errstate(over="ignore", invalid="ignore"):
        if w.w_r:
            step = np.diff(tp, axis=0) - np.diff(tg, axis=0)
            v = w.w_r * _unit_rows(step) / (n - 1)
            grad[1:] += v
            grad[:-1] -= v

        if w.w_s:
            u = w.w_s * _unit_rows(np.diff(tp, n=2, axis=0)) / (n - 2)
            grad[2:] += u
            grad[1:-1] -= 2.0 * u
            grad[:-2] += u

    return grad
