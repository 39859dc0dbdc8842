"""Edge-preserving bilateral refinement of depth maps.

Filters each valid pixel by a Gaussian-weighted average over a square window,
with weights combining pixel distance and depth similarity, then optionally
back-projects to a point cloud through pinhole intrinsics.

The filter is evaluated in padded strips. The map is padded by the window
half-width into a flat depth copy (0.0 at invalid and padding pixels) and a
flat mask of those pixels, so each window offset is one flat shift and a
missing neighbour gets weight 0.0 whatever its stored depth. Rows are taken
in strips of a few dozen, so every temporary fits in L2 and is reused from
strip to strip. The range weight of offset o, shifted, is the weight of -o.
Each pixel still sums its offsets in the same order with the same arithmetic
as a plain per-offset loop, so the output is bit-identical to that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoValidPixels
from .geometry import PointSet

_STRIP_ROWS = 32  # rows per strip: each strip temporary stays in L2
# cap on the range weights kept for reuse by the negated offset, about three
# float64 frames at 640x480; the kept weights would grow as window**3 * width,
# so past the cap the remaining offsets are evaluated once per sign instead
_REUSE_BYTES = 8 << 20


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

    @staticmethod
    def from_depths(depths) -> "DepthMap":
        d = np.asarray(depths, dtype=float)
        return DepthMap(d, np.isfinite(d) & (d > 0))


@dataclass(frozen=True)
class BilateralConfig:
    window: int = 2          # half-width; neighborhood is (2w+1)^2
    sigma_s: float = 2.0     # spatial sigma, pixels
    sigma_r: float | None = None  # None -> adaptive: 0.05 * median valid depth

    def __post_init__(self):
        if self.window < 0:
            raise ValueError(f"window must be at least 0, got {self.window}")
        if not (math.isfinite(self.sigma_s) and self.sigma_s > 0):
            raise ValueError(f"sigma_s must be finite and positive, "
                             f"got {self.sigma_s}")
        if self.sigma_r is not None and not (math.isfinite(self.sigma_r)
                                             and self.sigma_r > 0):
            raise ValueError(f"sigma_r must be finite and positive, "
                             f"got {self.sigma_r}")

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
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


def bilateral_depth(depth_map: DepthMap, cfg: BilateralConfig = BilateralConfig()) -> DepthMap:
    """Bilateral filter over valid pixels; invalid pixels pass through.

    An invalid pixel gets weight 0.0 as a neighbour, whatever depth it stores
    (NaN, +-inf, 0 or negative).
    """
    if not depth_map.valid.any():
        raise NoValidPixels("depth map has no valid pixels")
    d = depth_map.depths
    valid = depth_map.valid
    sigma_r = cfg.effective_sigma_r(depth_map)
    w = cfg.window
    h, wid = d.shape
    pw = wid + 2 * w  # padded row length

    # padded flat copies: depths with 0.0 at invalid and padding pixels, and a
    # mask that is True there; offset (dy, dx) is a flat shift of dy*pw + dx
    values = np.zeros((h + 2 * w, pw))
    np.copyto(values[w:w + h, w:w + wid], d, where=valid)
    missing = np.ones((h + 2 * w, pw), dtype=bool)
    np.logical_not(valid, out=missing[w:w + h, w:w + wid])
    values = values.ravel()
    missing = missing.ravel()

    offsets = [(dy, dx) for dy in range(-w, w + 1) for dx in range(-w, w + 1)]
    last = len(offsets) - 1
    centre = last // 2
    reach = w * pw + w  # largest |shift|
    spatials = [np.exp(-(dy * dy + dx * dx) / (2.0 * cfg.sigma_s ** 2))
                for dy, dx in offsets]
    neg_two_var = -(2.0 * sigma_r ** 2)

    rows = min(_STRIP_ROWS, h)
    n_max = (rows - 1) * pw + wid
    weight_sum = np.empty(rows * pw)
    value_sum = np.empty(rows * pw)
    term = np.empty(n_max)
    pair_missing = np.empty(n_max + reach, dtype=bool)
    # offsets[last - k] == -offsets[k], and the weight of -o at p equals the
    # weight of o at p - shift(o). So the first n_stored offsets are evaluated
    # `reach` pixels past the strip and kept for their negations; any other
    # offset is evaluated over the strip alone, into row n_stored
    n_stored = min(centre, _REUSE_BYTES // (8 * (n_max + reach)))
    weights = np.empty((n_stored + 1, n_max + reach))

    out = np.array(d, copy=True)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        n = (r1 - r0 - 1) * pw + wid  # first to last real pixel of the strip
        start = (r0 + w) * pw + w
        ws = weight_sum[:n]
        vs = value_sum[:n]
        ws.fill(0.0)
        vs.fill(0.0)
        for k, (dy, dx) in enumerate(offsets):
            shift = dy * pw + dx
            if last - k < n_stored:
                wgt = weights[last - k, shift:shift + n]
            else:
                m = n - shift if k < n_stored else n
                wgt = weights[min(k, n_stored), :m]
                np.subtract(values[start:start + m],
                            values[start + shift:start + shift + m], out=wgt)
                np.square(wgt, out=wgt)
                np.divide(wgt, neg_two_var, out=wgt)
                np.exp(wgt, out=wgt)
                np.multiply(wgt, spatials[k], out=wgt)
                pm = pair_missing[:m]
                np.logical_or(missing[start:start + m],
                              missing[start + shift:start + shift + m], out=pm)
                np.copyto(wgt, 0.0, where=pm)
                wgt = wgt[:n]
            ws += wgt
            np.multiply(wgt, values[start + shift:start + shift + n],
                        out=term[:n])
            vs += term[:n]
        ws = weight_sum[:(r1 - r0) * pw].reshape(r1 - r0, pw)[:, :wid]
        vs = value_sum[:(r1 - r0) * pw].reshape(r1 - r0, pw)[:, :wid]
        np.divide(vs, ws, out=out[r0:r1], where=valid[r0:r1] & (ws >= 1e-300))
    return DepthMap(out, np.array(valid, copy=True))


def depth_to_points(depth_map: DepthMap, intrinsics: Intrinsics) -> PointSet:
    """Back-project valid pixels through a pinhole model, row-major order."""
    valid = depth_map.valid
    h, w = valid.shape
    points = np.empty((np.count_nonzero(valid), 3))
    x, y, z = points.T  # filled in place: (u - cx) * z / fx, (v - cy) * z / fy
    z[:] = depth_map.depths[valid]
    x[:] = np.broadcast_to(np.arange(w) - intrinsics.cx, (h, w))[valid]
    x *= z
    x /= intrinsics.fx
    y[:] = np.broadcast_to((np.arange(h) - intrinsics.cy)[:, None], (h, w))[valid]
    y *= z
    y /= intrinsics.fy
    return PointSet(points)


def refine_cloud(depth_map: DepthMap, intrinsics: Intrinsics,
                 cfg: BilateralConfig = BilateralConfig()) -> PointSet:
    """Bilateral-filter the depth map, then back-project it."""
    return depth_to_points(bilateral_depth(depth_map, cfg), intrinsics)
