"""The algorithms' settings and their defaults, without NumPy, so that the CLI
builds its parser without loading NumPy or an algorithm module. Each
algorithm module imports (and so re-exports) its own."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidValue, NoValidPixels


@dataclass(frozen=True)
class ScoreConfig:
    w1: float = 1.0
    w2: float = 1.0
    radius: float | None = None  # None -> floor(min(H, W) / 8) at use time
    epsilon: float = 1e-8
    clip_max: float = 1.0
    initial_weight: float = 1.0  # weight for the first frame of a stream

    def effective_radius(self, height: int, width: int) -> float:
        if self.radius is not None:
            return self.radius
        return float(min(height, width) // 8)


@dataclass(frozen=True)
class OneEuroConfig:
    f_min: float = 1.0        # minimum cutoff frequency, Hz
    beta_gain: float = 0.007  # cutoff gain per unit speed


@dataclass(frozen=True)
class BilateralConfig:
    window: int = 2          # half-width; neighborhood is (2w+1)^2
    sigma_s: float = 2.0     # spatial sigma, pixels
    sigma_r: float | None = None  # None -> adaptive: 0.05 * median valid depth

    def __post_init__(self):
        if self.window < 0:
            raise InvalidValue(f"window must be at least 0, got {self.window}")
        if not (math.isfinite(self.sigma_s) and self.sigma_s > 0):
            raise InvalidValue(f"sigma_s must be finite and positive, "
                               f"got {self.sigma_s}")
        if self.sigma_r is not None and not (math.isfinite(self.sigma_r)
                                             and self.sigma_r > 0):
            raise InvalidValue(f"sigma_r must be finite and positive, "
                               f"got {self.sigma_r}")

    def effective_sigma_r(self, depth_map) -> float:
        """sigma_r, or 0.05 x the median valid depth of the DepthMap."""
        if self.sigma_r is not None:
            return self.sigma_r
        from .geometry import median
        x = depth_map.depths[depth_map.valid]  # a copy, which median reorders
        if not x.size:
            raise NoValidPixels("depth map has no valid pixels")
        return 0.05 * median(x)


@dataclass(frozen=True)
class LossWeights:
    w_a: float = 1.0  # ATE term
    w_r: float = 1.0  # RPE term
    w_s: float = 1.0  # acceleration term
    lambda1: float = 1.0  # confidence regression loss
    lambda2: float = 1.0  # RGB loss
    lambda3: float = 1.0  # pose loss


class DepthEvalMode(Enum):
    ORIGINAL = "original"
    SCALE = "scale"
    SCALE_AND_SHIFT = "scale_and_shift"
