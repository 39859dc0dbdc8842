"""Fast-weight memory state updated once per frame.

The state is an n x c linear associative memory written with delta-rule
gradient steps; the per-frame learning rate comes from frame_scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptySet
from .frame_scoring import GrayImage, ScoreConfig, score_frame
from .geometry import Pose


@dataclass(frozen=True)
class MemoryState:
    values: np.ndarray  # (n, c)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch("state must be a 2D matrix")
        object.__setattr__(self, "values", v)

    @staticmethod
    def zeros(n: int, c: int) -> "MemoryState":
        return MemoryState(np.zeros((n, c)))


class Observation(NamedTuple):
    key: np.ndarray  # (c,) floats
    value: np.ndarray  # (n,) floats, stored under the key


def associative_gradient(state: MemoryState, obs: Observation) -> np.ndarray:
    """Gradient of 0.5 * ||S k - v||^2 with respect to S (delta rule)."""
    n, c = state.values.shape
    if obs.key.shape[0] != c or obs.value.shape[0] != n:
        raise DimensionMismatch(
            f"observation ({obs.value.shape[0]}, {obs.key.shape[0]}) does not "
            f"match state ({n}, {c})")
    residual = state.values @ obs.key - obs.value
    return np.outer(residual, obs.key)


def apply_update(state: MemoryState, gradient: np.ndarray, beta: float) -> MemoryState:
    """One gradient step S' = S - beta * G."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != state.values.shape:
        raise DimensionMismatch("gradient shape does not match state")
    return MemoryState(state.values - beta * gradient)


def stream_step(state: MemoryState, prev: Pose | None, cur: Pose, img: GrayImage,
                obs: Observation, cfg: ScoreConfig = ScoreConfig()
                ) -> tuple[MemoryState, float]:
    """Score the frame and write the observation with the resulting weight."""
    beta = score_frame(prev, cur, img, cfg)
    new_state = apply_update(state, associative_gradient(state, obs), beta)
    return new_state, beta


def recall_error(state: MemoryState, observations: list[Observation]) -> float:
    """Mean relative recall residual over a set of stored pairs."""
    if not observations:
        raise EmptySet("recall_error needs at least one observation")
    errs = []
    for obs in observations:
        residual = np.linalg.norm(state.values @ obs.key - obs.value)
        errs.append(residual / max(np.linalg.norm(obs.value), 1e-12))
    return float(np.mean(errs))
