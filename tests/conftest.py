import math
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis.configuration import set_hypothesis_home_dir

from streamstab import Pose, Quaternion, Trajectory, quat_normalize

# Hypothesis caches Unicode tables and source constants under ./.hypothesis
# even with database=None; a temporary home, removed when the session ends,
# keeps the checkout clean
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_sessionfinish(session, exitstatus):
    _HYPOTHESIS_HOME.cleanup()


# Subprocess tests run `python -m streamstab` from a temporary cwd, where a
# relative PYTHONPATH entry such as `src` no longer resolves.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH")]))


def random_unit_quat(rng) -> Quaternion:
    return quat_normalize(Quaternion(*rng.standard_normal(4)))


def quat_conjugate(q: Quaternion) -> Quaternion:
    """Oracle: the inverse rotation of a unit quaternion."""
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Oracle: the Hamilton product a b, the rotation b then a."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def quat_power(q: Quaternion, gamma: float) -> Quaternion:
    """Oracle: q**gamma for a unit quaternion via axis-angle."""
    w = min(1.0, max(-1.0, q.w))
    half = math.acos(w)
    axis = np.array([q.x, q.y, q.z])
    n = np.linalg.norm(axis)
    if n < 1e-12:
        return Quaternion(1.0, 0.0, 0.0, 0.0)
    axis = axis / n
    half_g = gamma * half
    s = math.sin(half_g)
    return Quaternion(math.cos(half_g), *(s * axis))


def random_trajectory(rng, n: int, dt: float = 1.0 / 30.0) -> Trajectory:
    poses = []
    for i in range(n):
        poses.append(Pose(rng.standard_normal(3), random_unit_quat(rng), i * dt))
    return Trajectory(poses)


def awkward_trajectory(rng, n: int) -> Trajectory:
    """Random trajectory whose steps mix fresh random poses with repeated
    poses, sign-flipped quaternions, near-identity steps, basis quaternions
    (whose dot with each other is exactly 0) and quaternions orthogonal to
    the previous one, whose computed dot is 0 up to rounding."""
    t = rng.standard_normal((n, 3))
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    basis = np.vstack([np.eye(4), -np.eye(4)])
    for i in range(1, n):
        kind = rng.integers(6)
        if kind == 1:  # the same pose again
            t[i], q[i] = t[i - 1], q[i - 1]
        elif kind == 2:  # the same rotation, other sign
            q[i] = -q[i - 1]
        elif kind == 3:  # a step of about 1e-9
            t[i] = t[i - 1] + 1e-9 * t[i]
            q[i] = q[i - 1] + 1e-9 * q[i]
            q[i] /= np.linalg.norm(q[i])
        elif kind == 4:
            q[i] = basis[rng.integers(8)]
        elif kind == 5:
            w, x, y, z = q[i - 1]
            q[i] = [-x, w, -z, y]
    ts = np.cumsum(rng.uniform(0.01, 0.1, size=n))
    return Trajectory.from_arrays(t, q, ts)
