"""The stream pipeline: score a frame, then write the memory with that weight.

stream_step is one such step. simulate_stream drives the fast-weight state
with random unit keys and random values along a seeded random-walk
trajectory, so forgetting and the adaptive learning-rate weight can be
inspected without any real data.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteResult
from .frame_scoring import ScoreConfig, score_frame
from .geometry import GrayImage, Pose, Quaternion, quat_normalize
from .state_update import (MemoryState, Observation, apply_update,
                           associative_gradient, recall_error)


def stream_step(state: MemoryState, prev: Pose | None, cur: Pose, img: GrayImage,
                obs: Observation, cfg: ScoreConfig = ScoreConfig()
                ) -> tuple[MemoryState, float]:
    """Score the frame and write the observation with the resulting weight."""
    beta = score_frame(prev, cur, img, cfg)
    new_state = apply_update(state, associative_gradient(state, obs), beta)
    return new_state, beta


def simulate_stream(frames: int, state_dim: int, seed: int,
                    constant_beta: float | None = None
                    ) -> list[tuple[int, float, float, float]]:
    """Run a seeded synthetic stream and return per-step rows
    (step, beta, recall_first, recall_latest). Every write uses
    `constant_beta` if given, else the adaptive frame score."""
    rng = np.random.default_rng(seed)
    state = MemoryState.zeros(state_dim, state_dim)
    first_obs = None
    prev_pose = None
    position = np.zeros(3)
    rows = []
    for step in range(frames):
        key = rng.standard_normal(state_dim)
        key /= np.linalg.norm(key)
        value = rng.standard_normal(state_dim)
        obs = Observation(key, value)
        if first_obs is None:
            first_obs = obs

        position = position + rng.normal(0.0, 0.1, size=3)
        q = quat_normalize(Quaternion(1.0, *rng.normal(0.0, 0.05, size=3)))
        pose = Pose(position, q, step / 30.0)  # position is rebound, not mutated

        if constant_beta is not None:
            beta = constant_beta
        else:
            img = GrayImage(rng.uniform(size=(16, 16)))
            beta = score_frame(prev_pose, pose, img)
        # the first step whose state or recall is not finite ends the stream
        try:
            state = apply_update(state, associative_gradient(state, obs), beta)
            row = (step, beta, recall_error(state, [first_obs]),
                   recall_error(state, [obs]))
        except NonFiniteResult:
            raise NonFiniteResult(f"memory state diverges at step {step} with "
                                  f"beta {beta}: a value or recall is not "
                                  f"finite") from None
        prev_pose = pose
        rows.append(row)
    return rows
