"""Quaternion and pose primitives shared by every other module.

Quaternions are scalar-first (w, x, y, z) internally; the file I/O layer
converts to/from on-disk conventions. All operations are pure functions on
immutable values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (InvalidGamma, InvalidValue, NonUnitQuaternion,
                     ZeroQuaternion)

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
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def multiply(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )


def squared(a) -> np.ndarray:
    """Elementwise a ** 2 through C pow, as Python's float ** 2 computes it;
    a * a differs from it in the last bit on about 0.1% of inputs."""
    return np.float_power(a, 2.0)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of scalar-first unit quaternions (..., 4)."""
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
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))


class Trajectory:
    """Poses held as three read-only arrays: translations `t` (N, 3),
    scalar-first quaternions `q` (N, 4) and strictly increasing timestamps
    `ts` (N,). Indexing and iteration build `Pose` values on demand; a slice
    is a Trajectory."""

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
            raise ValueError("t, q and ts need one row per pose")
        bad = np.flatnonzero(~(self.ts[1:] > self.ts[:-1]))
        if bad.size:
            a, b = self.ts[bad[0]:bad[0] + 2].tolist()
            raise ValueError(
                f"timestamps must be strictly increasing ({a} -> {b})")
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


@dataclass(frozen=True)
class PointSet:
    """Point cloud with optional per-point positive confidences."""

    points: np.ndarray  # (n, 3)
    confidences: np.ndarray | None = None  # (n,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
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


def quat_normalize(q: Quaternion) -> Quaternion:
    n = q.norm()
    if n < 1e-12:
        raise ZeroQuaternion("cannot normalize a zero quaternion")
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def _require_unit(q: Quaternion, name: str = "quaternion"):
    if abs(q.norm() - 1.0) > _UNIT_TOL:
        raise NonUnitQuaternion(f"{name} has norm {q.norm()}, expected 1")


def quat_geodesic_angle(a: Quaternion, b: Quaternion) -> float:
    """Rotation angle in [0, pi] between two unit quaternions.

    Uses |a.b| so q and -q (same rotation) give angle 0.
    """
    _require_unit(a, "a")
    _require_unit(b, "b")
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
