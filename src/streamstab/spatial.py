"""Edge-preserving bilateral refinement of depth maps.

Filters each valid pixel by a Gaussian-weighted average over a square window,
with weights combining pixel distance and depth similarity, then optionally
back-projects to a point cloud through pinhole intrinsics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoValidPixels
from .geometry import PointSet


@dataclass(frozen=True)
class DepthMap:
    depths: np.ndarray  # (H, W) scene units
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        v = np.asarray(self.valid, dtype=bool)
        if d.shape != v.shape or d.ndim != 2:
            raise ValueError("depths and valid must be matching 2D arrays")
        object.__setattr__(self, "depths", d)
        object.__setattr__(self, "valid", v)

    @property
    def height(self) -> int:
        return self.depths.shape[0]

    @property
    def width(self) -> int:
        return self.depths.shape[1]

    @staticmethod
    def from_depths(depths) -> "DepthMap":
        d = np.asarray(depths, dtype=float)
        return DepthMap(d, np.isfinite(d) & (d > 0))


@dataclass(frozen=True)
class BilateralConfig:
    window: int = 2          # half-width; neighborhood is (2w+1)^2
    sigma_s: float = 2.0     # spatial sigma, pixels
    sigma_r: float | None = None  # None -> adaptive: 0.05 * median valid depth

    def effective_sigma_r(self, depth_map: DepthMap) -> float:
        if self.sigma_r is not None:
            return self.sigma_r
        return 0.05 * float(np.median(depth_map.depths[depth_map.valid]))


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


def bilateral_depth(depth_map: DepthMap, cfg: BilateralConfig = BilateralConfig()) -> DepthMap:
    """Bilateral filter over valid pixels; invalid pixels pass through."""
    if not depth_map.valid.any():
        raise NoValidPixels("depth map has no valid pixels")
    d = depth_map.depths
    valid = depth_map.valid
    sigma_r = cfg.effective_sigma_r(depth_map)
    w = cfg.window
    h, wid = d.shape

    weight_sum = np.zeros_like(d)
    value_sum = np.zeros_like(d)
    for dy in range(-w, w + 1):
        for dx in range(-w, w + 1):
            # shifted neighbor views; out-of-bounds neighbors contribute nothing
            y0, y1 = max(0, -dy), min(h, h - dy)
            x0, x1 = max(0, -dx), min(wid, wid - dx)
            if y0 >= y1 or x0 >= x1:
                continue
            nd = d[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
            nv = valid[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
            cd = d[y0:y1, x0:x1]
            spatial = np.exp(-(dy * dy + dx * dx) / (2.0 * cfg.sigma_s ** 2))
            rng = np.exp(-((cd - nd) ** 2) / (2.0 * sigma_r ** 2))
            wgt = np.where(nv, spatial * rng, 0.0)
            weight_sum[y0:y1, x0:x1] += wgt
            value_sum[y0:y1, x0:x1] += wgt * nd

    out = np.array(d, copy=True)
    ok = valid & (weight_sum >= 1e-300)
    out[ok] = value_sum[ok] / weight_sum[ok]
    return DepthMap(out, np.array(valid, copy=True))


def depth_to_points(depth_map: DepthMap, intrinsics: Intrinsics) -> PointSet:
    """Back-project valid pixels through a pinhole model, row-major order."""
    vs, us = np.nonzero(depth_map.valid)
    z = depth_map.depths[vs, us]
    x = (us - intrinsics.cx) * z / intrinsics.fx
    y = (vs - intrinsics.cy) * z / intrinsics.fy
    return PointSet(np.stack([x, y, z], axis=1))


def refine_cloud(depth_map: DepthMap, intrinsics: Intrinsics,
                 cfg: BilateralConfig = BilateralConfig()) -> PointSet:
    """Bilateral-filter the depth map, then back-project it."""
    return depth_to_points(bilateral_depth(depth_map, cfg), intrinsics)
