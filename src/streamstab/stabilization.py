"""Online temporal trajectory stabilization.

Adaptive low-pass filtering of translations (cutoff frequency grows with
speed) and Slerp smoothing of rotations with the same per-step factor.
Strictly causal: each output pose depends only on inputs up to that frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import OneEuroConfig
from .errors import NonPositiveDt
from .geometry import Pose, Quaternion, Trajectory, quat_normalize, slerp

_DEFAULT_DT = 1.0 / 30.0  # frame interval, seconds, when ts does not increase


class FilterState(NamedTuple):
    last_t: tuple[float, float, float] | None = None
    last_q: Quaternion | None = None
    last_timestamp: float = 0.0

    @property
    def initialized(self) -> bool:
        return self.last_t is not None


def smoothing_alpha(f: float, dt: float) -> float:
    """First-order low-pass smoothing factor for cutoff f over interval dt;
    1.0, its limit, where 2 pi f dt overflows."""
    if dt <= 0:
        raise NonPositiveDt(f"dt must be positive, got {dt}")
    return _alpha(2.0 * math.pi * f * dt)


def _alpha(x: float) -> float:
    """x / (x + 1), or its limit 1.0 where x is inf."""
    return 1.0 if x == math.inf else x / (x + 1.0)


def cutoff_freq(cfg: OneEuroConfig, speed: float) -> float:
    """Speed-adaptive cutoff frequency."""
    return cfg.f_min + cfg.beta_gain * abs(speed)


def _step(state: FilterState, t, q: Quaternion, ts: float,
          cfg: OneEuroConfig) -> FilterState:
    """One filter step on floats: translation t as three floats, rotation q,
    timestamp ts. The new state holds the smoothed pose."""
    q = quat_normalize(q)
    if not state.initialized:
        return FilterState(tuple(t), q, ts)
    dt = ts - state.last_timestamp
    if dt <= 0:
        dt = _DEFAULT_DT
    dx, dy, dz = (u - v for u, v in zip(t, state.last_t))
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    x = 2.0 * math.pi * cutoff_freq(cfg, dist / dt) * dt  # as smoothing_alpha
    if not x < math.inf:  # inf, or NaN from 0 * inf in cutoff_freq
        # the same x as 2 pi (f_min dt + beta_gain dist), in which the speed
        # dist / dt does not overflow; a zero factor gives 0, not 0 * inf
        x = 2.0 * math.pi * ((cfg.f_min * dt if cfg.f_min else 0.0)
                             + (cfg.beta_gain * dist if cfg.beta_gain else 0.0))
    alpha = _alpha(x)
    t = tuple(alpha * u + (1.0 - alpha) * v for u, v in zip(t, state.last_t))
    return FilterState(t, slerp(state.last_q, q, alpha), ts)


def filter_step(state: FilterState, raw: Pose, cfg: OneEuroConfig
                ) -> tuple[FilterState, Pose]:
    """Advance the filter by one frame."""
    state = _step(state, raw.t.tolist(), raw.q, raw.timestamp, cfg)
    return state, Pose(state.last_t, state.last_q, raw.timestamp)


def stabilize_trajectory(raw: Trajectory, cfg: OneEuroConfig = OneEuroConfig()) -> Trajectory:
    """Streaming fold of the filter step over a whole trajectory."""
    state, t, q = FilterState(), [], []
    for row_t, row_q, ts in zip(raw.t.tolist(), raw.q.tolist(), raw.ts.tolist()):
        state = _step(state, row_t, Quaternion(*row_q), ts, cfg)
        t.append(state.last_t)
        q.append(state.last_q)
    return Trajectory.from_arrays(t, q, raw.ts)
