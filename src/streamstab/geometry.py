"""Value types and primitives shared by every other module.

Quaternions are scalar-first (w, x, y, z) internally; the file I/O layer
converts to/from on-disk conventions. All operations are pure functions on
immutable values.

The process's one worker thread, which the array stages split their work
with, lives here too, so that every module above can reach it.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (EmptyImage, InvalidGamma, InvalidValue, LengthMismatch,
                     NonFinitePoints, NonFiniteResult, NonUnitQuaternion,
                     ShapeMismatch, ZeroQuaternion)

_UNIT_TOL = 1e-6


class Quaternion(NamedTuple):
    """A quaternion is its own row of four floats."""

    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


def median(x: np.ndarray) -> float:
    """np.median of a non-empty 1D float array without NaN, by selection: the
    lower middle, and for an even count its mean with the least value above
    it, as np.median computes it, in a fraction of its time. Reorders x."""
    k = (x.size - 1) // 2
    x.partition(k)
    return float(x[k] if x.size % 2 else (x[k] + x[k + 1:].min()) / 2.0)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of scalar-first unit quaternions (..., 4),
    such as the rows a Trajectory holds."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(np.shape(w) + (3, 3))


@dataclass(frozen=True)
class Pose:
    t: np.ndarray  # 3-vector translation
    q: Quaternion
    timestamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "t", NonFiniteResult.check(np.asarray(
            self.t, dtype=float).reshape(3), "a pose's translation", "NaN or inf"))
        NonFiniteResult.check(self.timestamp, "a pose's timestamp", "NaN or inf")


class Trajectory:
    """Poses held as three read-only arrays: finite translations `t` (N, 3),
    scalar-first unit quaternions `q` (N, 4) and finite, strictly increasing
    timestamps `ts` (N,); other rows raise, none is normalised. Indexing and
    iteration build `Pose` values on demand; a slice is a Trajectory."""

    def __init__(self, poses: Iterable[Pose] = ()):
        poses = list(poses)
        self._hold([p.t for p in poses], [p.q for p in poses],
                   [p.timestamp for p in poses])

    @classmethod
    def from_arrays(cls, t, q, ts) -> "Trajectory":
        traj = cls.__new__(cls)
        traj._hold(t, q, ts)
        return traj

    def _hold(self, t, q, ts):
        self.t = np.array(t, dtype=float).reshape(-1, 3)
        self.q = np.array(q, dtype=float).reshape(-1, 4)
        self.ts = np.array(ts, dtype=float).reshape(-1)
        if not len(self.t) == len(self.q) == len(self.ts):
            raise LengthMismatch("t, q and ts need one row per pose")
        bad = np.flatnonzero(~(self.ts[1:] > self.ts[:-1]))
        if bad.size:
            a, b = self.ts[bad[0]:bad[0] + 2].tolist()
            raise InvalidValue(
                f"timestamps must be strictly increasing ({a} -> {b})")
        NonFiniteResult.check(self.t, "a translation", "NaN or inf")
        NonFiniteResult.check(self.ts, "a timestamp", "NaN or inf")
        # einsum does not warn: an overflowing norm is inf, and fails the test
        norm = np.sqrt(np.einsum("ij,ij->i", self.q, self.q))
        bad = np.flatnonzero(~(np.abs(norm - 1.0) <= _UNIT_TOL))  # NaN too
        if bad.size:
            raise NonUnitQuaternion(
                f"quaternion row {bad[0]} has norm {norm[bad[0]]}, expected 1")
        for a in (self.t, self.q, self.ts):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trajectory.from_arrays(self.t[i], self.q[i], self.ts[i])
        return Pose(self.t[i], Quaternion(*self.q[i].tolist()), float(self.ts[i]))

    def __iter__(self) -> Iterator[Pose]:
        return map(self.__getitem__, range(len(self)))


def pair_length(pred: Trajectory, gt: Trajectory) -> int:
    """The length of a pred/gt pair compared pose by pose; else LengthMismatch."""
    if len(pred) != len(gt):
        raise LengthMismatch("trajectories must have equal length")
    return len(pred)


@dataclass(frozen=True)
class PointSet:
    """Point cloud of finite coordinates, with optional positive confidences."""

    points: np.ndarray  # (n, 3) finite; NaN or ±inf raises NonFinitePoints
    confidences: np.ndarray | None = None  # (n,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise NonFinitePoints("point cloud has a non-finite coordinate")
        object.__setattr__(self, "points", pts)
        if self.confidences is not None:
            conf = np.asarray(self.confidences, dtype=float).reshape(-1)
            ok = (conf > 0) & (conf < math.inf)
            if conf.shape != (len(pts),) or not ok.all():
                raise InvalidValue(
                    "confidences must be one finite positive value per point")
            object.__setattr__(self, "confidences", conf)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GrayImage:
    """H x W grayscale raster of finite values, nominally in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.size == 0:
            raise EmptyImage("grayscale image must be a nonempty 2D raster")
        if not np.isfinite(px).all():
            raise InvalidValue("grayscale pixels must be finite")
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class DepthMap:
    depths: np.ndarray  # (H, W) scene units; finite and > 0 where valid
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        v = np.asarray(self.valid, dtype=bool)
        if d.shape != v.shape or d.ndim != 2:
            raise ShapeMismatch("depths and valid must be matching 2D arrays")
        if (v > ((d > 0) & (d < math.inf))).any():  # NaN fails both tests
            raise InvalidValue("valid depths must be finite and positive")
        object.__setattr__(self, "depths", d)
        object.__setattr__(self, "valid", v)

    @staticmethod
    def from_depths(depths) -> "DepthMap":
        d = np.asarray(depths, dtype=float)
        return DepthMap(d, np.isfinite(d) & (d > 0))


def quat_normalize(q: Quaternion) -> Quaternion:
    n = q.norm()
    if n < 1e-12:
        raise ZeroQuaternion("cannot normalize a zero quaternion")
    if not n < math.inf:  # NaN fails too
        raise NonFiniteResult("quaternion norm overflows" if n == math.inf
                              else "quaternion has a NaN component")
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def quat_geodesic_angle(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle in [0, pi] between two unit quaternions.

    Uses |a.b| so q and -q (same rotation) give angle 0.
    """
    for name, q in (("a", a), ("b", b)):
        if not abs(q.norm() - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise NonUnitQuaternion(f"{name} has norm {q.norm()}, expected 1")
    return 2.0 * math.acos(min(1.0, abs(a.dot(b))))


def slerp(a: Quaternion, b: Quaternion, gamma: float) -> Quaternion:
    """Spherical linear interpolation from a to b at fraction gamma.

    b is hemisphere-aligned to a first; near-parallel inputs fall back to
    normalized linear interpolation.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidGamma(f"gamma {gamma} outside [0, 1]")
    dot = a.dot(b)
    if dot < 0.0:
        b, dot = -b, -dot
    theta = math.acos(min(1.0, dot))
    sin_theta = math.sin(theta)
    if sin_theta < 1e-6:
        wa, wb, sin_theta = 1.0 - gamma, gamma, 1.0
    else:
        wa, wb = math.sin((1.0 - gamma) * theta), math.sin(gamma * theta)
    return quat_normalize(Quaternion(
        *((wa * u + wb * v) / sin_theta for u, v in zip(a, b))))


def relative_pose(prev: Pose, cur: Pose) -> tuple[np.ndarray, float]:
    """Translation difference and geodesic rotation angle between two poses."""
    delta_t = cur.t - prev.t
    delta_angle = quat_geodesic_angle(prev.q, cur.q)
    return delta_t, delta_angle


# -- the worker thread ------------------------------------------------------

# a split runs both halves in the caller below this many rows, where handing
# one half to the worker costs more than it saves
_SPLIT_ROWS = 64
# threads a split may use: the caller's and at most one worker's, within the
# CPUs this process may run on (sched_getaffinity is Linux-only)
_THREADS = min(2, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# (pid, thread id, job queue) of the worker, started on first use
_worker = (None, None, None)
_worker_start = threading.Lock()


def _serve(jobs) -> None:
    while True:
        context, job, done = jobs.get()
        context.run(job)
        # drop the finished job, and the buffers its closure holds, before
        # its caller goes on
        del context, job
        done.release()


def _in_parallel(upper, lower) -> None:
    """Run `lower` on the process's one worker thread, in a copy of the
    caller's context (so np.errstate holds there too), while the caller runs
    `upper`; an exception of the worker is raised again in the caller once
    both have finished. Each call waits on its own lock, so concurrent
    callers queue their jobs. The worker starts on first use, and again in a
    forked child; a call made on the worker runs both in the caller."""
    global _worker
    if _worker[0] != os.getpid():
        with _worker_start:
            if _worker[0] != os.getpid():
                jobs = queue.SimpleQueue()
                thread = threading.Thread(target=_serve, args=(jobs,),
                                          name="streamstab-worker", daemon=True)
                thread.start()
                _worker = (os.getpid(), thread.ident, jobs)
    _, ident, jobs = _worker
    if threading.get_ident() == ident:
        upper()
        lower()
        return
    errors = []

    def job():
        try:
            lower()
        except BaseException as exc:
            errors.append(exc)

    done = threading.Lock()
    done.acquire()
    jobs.put((contextvars.copy_context(), job, done))
    try:
        upper()
    finally:
        done.acquire()
    if errors:
        raise errors[0]


def _split(first, second, rows: int) -> None:
    """first() in the caller while the worker runs second(), for an array of
    `rows` rows on two CPUs; else both in the caller, in that order."""
    if rows < _SPLIT_ROWS or _THREADS < 2:
        first()
        second()
    else:
        _in_parallel(first, second)


def _halves(run, n: int, rows: int) -> None:
    """run(0, n // 2) and run(n // 2, n), split as _split splits them; each
    half writes only its own part of buffers the caller allocated."""
    m = n // 2
    _split(lambda: run(0, m), lambda: run(m, n), rows)
