"""Online temporal trajectory stabilization.

Adaptive low-pass filtering of translations (cutoff frequency grows with
speed) and Slerp smoothing of rotations with the same per-step factor.
Strictly causal: each output pose depends only on inputs up to that frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDt
from .geometry import Pose, Quaternion, Trajectory, quat_normalize, slerp


@dataclass(frozen=True)
class OneEuroConfig:
    f_min: float = 1.0        # minimum cutoff frequency, Hz
    beta_gain: float = 0.007  # cutoff gain per unit speed
    default_dt: float = 1.0 / 30.0  # fallback frame interval, seconds


@dataclass(frozen=True)
class FilterState:
    last_t: np.ndarray | None = None
    last_q: Quaternion | None = None
    last_timestamp: float = 0.0

    @property
    def initialized(self) -> bool:
        return self.last_t is not None


def smoothing_alpha(f: float, dt: float) -> float:
    """First-order low-pass smoothing factor for cutoff f over interval dt."""
    if dt <= 0:
        raise NonPositiveDt(f"dt must be positive, got {dt}")
    x = 2.0 * math.pi * f * dt
    return x / (x + 1.0)


def cutoff_freq(cfg: OneEuroConfig, speed: float) -> float:
    """Speed-adaptive cutoff frequency."""
    return cfg.f_min + cfg.beta_gain * abs(speed)


def filter_step(state: FilterState, raw: Pose, cfg: OneEuroConfig
                ) -> tuple[FilterState, Pose]:
    """Advance the filter by one frame."""
    q_raw = quat_normalize(raw.q)
    if not state.initialized:
        out = Pose(raw.t, q_raw, raw.timestamp)
        new_state = FilterState(np.array(raw.t, copy=True), q_raw, raw.timestamp)
        return new_state, out

    dt = raw.timestamp - state.last_timestamp
    if dt <= 0:
        dt = cfg.default_dt
    speed = float(np.linalg.norm(raw.t - state.last_t)) / dt
    alpha = smoothing_alpha(cutoff_freq(cfg, speed), dt)

    t_smooth = alpha * raw.t + (1.0 - alpha) * state.last_t
    q_smooth = slerp(state.last_q, q_raw, alpha)
    out = Pose(t_smooth, q_smooth, raw.timestamp)
    new_state = FilterState(np.array(t_smooth, copy=True), q_smooth, raw.timestamp)
    return new_state, out


def stabilize_trajectory(raw: Trajectory, cfg: OneEuroConfig = OneEuroConfig()) -> Trajectory:
    """Streaming fold of filter_step over a whole trajectory."""
    state = FilterState()
    t, q = [], []
    for pose in raw:
        state, smoothed = filter_step(state, pose, cfg)
        t.append(smoothed.t)
        q.append(smoothed.q.as_array())
    return Trajectory.from_arrays(t, q, raw.timestamps())
