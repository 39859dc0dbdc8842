"""Fast-weight memory state updated once per frame.

The state is an n x c linear associative memory written with delta-rule
gradient steps of any learning rate; simulate.stream_step takes it from the
frame score. A rate far from (0, 2) makes the state grow without bound: a
gradient, state or recall error that is not finite is a NonFiniteResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptySet, NonFiniteResult


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


def _residual(state: MemoryState, obs: Observation) -> np.ndarray:
    """S k - v, the recall residual of one stored pair."""
    n, c = state.values.shape
    if obs.key.shape[0] != c or obs.value.shape[0] != n:
        raise DimensionMismatch(
            f"observation ({obs.value.shape[0]}, {obs.key.shape[0]}) does not "
            f"match state ({n}, {c})")
    return state.values @ obs.key - obs.value


def associative_gradient(state: MemoryState, obs: Observation) -> np.ndarray:
    """Gradient of 0.5 * ||S k - v||^2 with respect to S (delta rule)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return NonFiniteResult.check(np.outer(_residual(state, obs), obs.key),
                                     "memory gradient", "it diverges")


def apply_update(state: MemoryState, gradient: np.ndarray, beta: float) -> MemoryState:
    """One gradient step S' = S - beta * G."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != state.values.shape:
        raise DimensionMismatch("gradient shape does not match state")
    with np.errstate(over="ignore", invalid="ignore"):
        return MemoryState(NonFiniteResult.check(
            state.values - beta * gradient, "memory state", "it diverges"))


def recall_error(state: MemoryState, observations: list[Observation]) -> float:
    """Mean relative recall residual over a set of stored pairs."""
    if not observations:
        raise EmptySet("recall_error needs at least one observation")
    errs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for obs in observations:
            residual = np.linalg.norm(_residual(state, obs))
            errs.append(residual / max(np.linalg.norm(obs.value), 1e-12))
        return float(NonFiniteResult.check(np.mean(errs), "memory recall error",
                                           "it diverges"))
