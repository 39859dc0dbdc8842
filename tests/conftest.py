import math
import os
from pathlib import Path

import numpy as np

from streamstab import Pose, Quaternion, Trajectory, quat_normalize

# Subprocess tests run `python -m streamstab` from a temporary cwd, where a
# relative PYTHONPATH entry such as `src` no longer resolves.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH")]))


def random_unit_quat(rng) -> Quaternion:
    return quat_normalize(Quaternion(*rng.standard_normal(4)))


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
