"""Edge-preserving bilateral refinement of depth maps.

Filters each valid pixel by a Gaussian-weighted average over a square window,
with weights combining pixel distance and depth similarity, then optionally
back-projects to a point cloud through pinhole intrinsics.

The filter is evaluated in padded strips. The map is padded by the window
half-width into a flat depth copy (0.0 at invalid and padding pixels) and a
flat mask of the valid pixels, so each window offset is one flat shift and a
missing neighbour gets weight 0.0 whatever its stored depth. Rows are taken
in strips of a few dozen, and every buffer is reused from strip to strip.

Within a strip the offsets of one dy row have consecutive shifts, so their
range weights are one (offsets, pixels) block: each step (difference,
square, scale, floor, exp, spatial weight, mask) is one NumPy call over the
block instead of one per offset. The range weight of offset o, shifted, is
the weight of -o, so the blocks before the centre are kept and read again,
shifted, for the offsets after it.

The strips are cut into two bands of rows at a strip boundary: the lower
band runs on one worker thread while the caller runs the upper one, so a
frame uses up to two CPUs. The worker count is min(2, the CPUs this process
may run on, the strips); nothing sets it. The caller allocates both bands'
buffers, and a fault in the worker (an exception, a floating-point error
under the caller's np.errstate) is raised in the caller.

Each pixel still sums its offsets in the same order with the same arithmetic
as a plain per-offset loop, whatever the grouping into calls, strips and
bands: only the caller or only the worker writes a pixel's sums. So the
output is bit-identical to that loop, and does not depend on the number of
bands.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, NoValidPixels
from .geometry import PointSet

_STRIP_ROWS = 32  # rows per strip
# cap on the range weights that each band keeps for reuse by the negated
# offsets, about three float64 frames at 640x480; the kept weights would grow
# as window**3 * width, so past the cap the remaining groups are evaluated
# once per sign instead
_REUSE_BYTES = 8 << 20
# row bands, one per thread: the caller's and at most one worker's, within
# the CPUs this process may run on (sched_getaffinity is Linux-only)
_MAX_BANDS = min(2, len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(frozen=True)
class DepthMap:
    depths: np.ndarray  # (H, W) scene units; finite and > 0 where valid
    valid: np.ndarray   # (H, W) bool

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        v = np.asarray(self.valid, dtype=bool)
        if d.shape != v.shape or d.ndim != 2:
            raise ValueError("depths and valid must be matching 2D arrays")
        if (v > ((d > 0) & (d < math.inf))).any():  # NaN fails both tests
            raise InvalidValue("valid depths must be finite and positive")
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
        # np.median by selection on the copy the mask index makes: the lower
        # middle, and for an even count its mean with the least value above
        # it, as np.median computes it
        x = depth_map.depths[depth_map.valid]
        if not x.size:
            raise NoValidPixels("depth map has no valid pixels")
        k = (x.size - 1) // 2
        x.partition(k)
        median = x[k] if x.size % 2 else (x[k] + x[k + 1:].min()) / 2.0
        return 0.05 * float(median)


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
    (NaN, +-inf, 0 or negative). A weight below e**-700 (about 1e-304) is
    raised to about that: the range exponent is floored at -700 minus the
    log of the spatial weight before exp, so that no weight is subnormal
    (those run about 12x slower). The raised weight is then absorbed by the
    centre term, whose weight is 1.0, unless a valid depth is more than about
    1e280 times smaller than a neighbour's: a float32 PFM depth cannot be.
    """
    if not depth_map.valid.any():
        raise NoValidPixels("depth map has no valid pixels")
    d = depth_map.depths
    valid = depth_map.valid
    sigma_r = cfg.effective_sigma_r(depth_map)
    h, wid = d.shape
    # an offset past the map adds exactly 0.0 to both sums, so clamping the
    # window keeps the bits and bounds the padding
    w = min(cfg.window, max(h, wid) - 1)
    pw = wid + 2 * w  # padded row length

    # padded flat copies: depths with 0.0 at invalid and padding pixels, and
    # a mask of the valid pixels; offset (dy, dx) is a flat shift of dy*pw + dx
    values = np.zeros((h + 2 * w, pw))
    np.copyto(values[w:w + h, w:w + wid], d, where=valid)
    present = np.zeros((h + 2 * w, pw), dtype=bool)
    np.copyto(present[w:w + h, w:w + wid], valid)
    values = values.ravel()
    present = present.ravel()

    # the offsets in row-major order, in groups of consecutive shifts: each
    # dy < 0 row, the dx < 0 half of the dy = 0 row, the centre (None), then
    # the rest, so that group last - i holds the negations of group i in
    # reverse
    half = [(dy, -w, 2 * w + 1) for dy in range(-w, 0)] + ([(0, -w, w)] if w else [])
    mirrored = [(-dy, -(dx0 + g - 1), g) for dy, dx0, g in reversed(half)]

    def group(dy, dx0, g):
        # the first shift, and columns of the spatial weights s and of the
        # range exponent floors: exp(floor) * s is about e**-700, a normal
        # float, unless s is below that itself
        spatial = [np.exp(-(dy * dy + dx * dx) / (2.0 * cfg.sigma_s ** 2))
                   for dx in range(dx0, dx0 + g)]
        floor = [min(0.0, -700.0 - math.log(s)) if s else 0.0 for s in spatial]
        return dy * pw + dx0, np.array(spatial)[:, None], np.array(floor)[:, None]

    groups = [group(dy, dx0, g) for dy, dx0, g in half + mirrored]
    groups.insert(len(half), None)
    last = len(groups) - 1
    neg_two_var = -(2.0 * sigma_r ** 2)

    rows = min(_STRIP_ROWS, h)
    n_max = (rows - 1) * pw + wid
    # the weight of -o at p is the weight of o at p - shift(o): the same
    # difference, squared. So the first n_kept groups are evaluated past the
    # strip by their largest |shift| and kept for their negations; any other
    # group is evaluated over the strip alone, in the scratch slot
    sizes = [len(spatial) * (n_max - s0) for s0, spatial, _ in groups[:len(half)]]
    slots = np.cumsum([0] + sizes).tolist()
    n_kept = sum(8 * end <= _REUSE_BYTES for end in slots[1:])
    scratch = 0 if n_kept == len(half) else (2 * w + 1) * n_max

    reach = w * pw + w  # largest |shift|

    def evaluate(blk, start, s0, spatial, floor, mask):
        # the range weights of shifts s0 .. s0 + g - 1 at the m pixels from
        # start, one call per step over the (g, m) block. mask[reach + k] is
        # 1.0 if pixel start + k is valid, else 0.0; multiplying by it is
        # exact, as the weights are finite, and faster than a masked copy
        g, m = blk.shape
        np.subtract(values[start:start + m],
                    _rows(values, start + s0, g, m), out=blk)
        np.square(blk, out=blk)
        np.divide(blk, neg_two_var, out=blk)
        np.maximum(blk, floor, out=blk)
        np.exp(blk, out=blk)
        np.multiply(blk, spatial, out=blk)
        np.multiply(blk, mask[reach:reach + m], out=blk)
        np.multiply(blk, _rows(mask, reach + s0, g, m), out=blk)

    def band(strips, weight_sum, value_sum, term, store, mask):
        for r0 in strips:
            r1 = min(r0 + rows, h)
            n = (r1 - r0 - 1) * pw + wid  # first to last real pixel of the strip
            start = (r0 + w) * pw + w
            ws = weight_sum[:n]
            vs = value_sum[:n]
            ws.fill(0.0)
            vs.fill(0.0)
            np.copyto(mask[:n + 2 * reach],
                      present[start - reach:start + n + reach])
            kept = []
            for i, group in enumerate(groups):
                if group is None:
                    # weight exp(0) * 1.0 = 1.0 at a valid pixel, so its term
                    # is its value; sums at a missing pixel are never read,
                    # and its value is 0.0
                    ws += 1.0
                    vs += values[start:start + n]
                    continue
                s0, spatial, floor = group
                g = len(spatial)
                if last - i < n_kept:
                    # shift s0 + j here negates shift t0 + k, k = g - 1 - j,
                    # of a kept block, whose row k has that weight at pixel
                    # x - s0 - j = x + t0 + k, where it is the centre. So
                    # once the weights are summed, the block times the
                    # centre values gives the terms, in place
                    blk, t0 = kept[last - i]
                    wgts = [blk[k, -t0 - k:n - t0 - k]
                            for k in range(g - 1, -1, -1)]
                    for wgt in wgts:
                        ws += wgt
                    np.multiply(blk, values[start:start + n - t0], out=blk)
                    for wgt in wgts:  # now the terms
                        vs += wgt
                    continue
                m = n - s0 if i < n_kept else n
                slot = slots[min(i, n_kept)]
                blk = store[slot:slot + g * m].reshape(g, m)
                evaluate(blk, start, s0, spatial, floor, mask)
                if i < n_kept:
                    kept.append((blk, s0))
                for j, wgt in enumerate(blk[:, :n]):
                    a = start + s0 + j
                    ws += wgt
                    np.multiply(wgt, values[a:a + n], out=term[:n])
                    vs += term[:n]
            # the centre weight makes ws >= 1 at every valid pixel
            ws = weight_sum[:(r1 - r0) * pw].reshape(r1 - r0, pw)[:, :wid]
            vs = value_sum[:(r1 - r0) * pw].reshape(r1 - r0, pw)[:, :wid]
            np.divide(vs, ws, out=out[r0:r1], where=valid[r0:r1])

    out = np.array(d, copy=True)
    strips = range(0, h, rows)
    # the caller allocates every band's buffers (a worker's allocations would
    # go to another malloc arena); the lower band runs on a worker thread
    # while the caller runs the upper one. Each pixel's sums are made in one
    # band, so the output does not depend on the number of bands
    bands = min(_MAX_BANDS, len(strips))
    bufs = [(np.empty(rows * pw), np.empty(rows * pw), np.empty(n_max),
             np.empty(slots[n_kept] + scratch), np.empty(n_max + 2 * reach))
            for _ in range(bands)]
    if bands == 1:
        band(strips, *bufs[0])
    else:
        cut = (len(strips) + 1) // 2
        _in_parallel(lambda: band(strips[:cut], *bufs[0]),
                     lambda: band(strips[cut:], *bufs[1]))
    return DepthMap(out, np.array(valid, copy=True))


def _rows(flat: np.ndarray, a: int, g: int, m: int) -> np.ndarray:
    """The (g, m) view of a flat array whose row j is flat[a + j:a + j + m]."""
    return np.ndarray((g, m), flat.dtype, flat, a * flat.itemsize,
                      (flat.itemsize, flat.itemsize))


def _in_parallel(upper, lower) -> None:
    """Run `lower` on a worker thread in a copy of the caller's context (so
    np.errstate holds there too) while the caller runs `upper`; an exception
    of the worker is raised again in the caller after the join."""
    errors = []

    def work():
        try:
            lower()
        except BaseException as exc:
            errors.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run,
                              args=(work,))
    worker.start()
    try:
        upper()
    finally:
        worker.join()
    if errors:
        raise errors[0]


def depth_to_points(depth_map: DepthMap, intrinsics: Intrinsics) -> PointSet:
    """Back-project valid pixels through a pinhole model, row-major order."""
    valid = depth_map.valid
    h, w = valid.shape
    points = np.empty((np.count_nonzero(valid), 3))
    # (u - cx) * z / fx and (v - cy) * z / fy: each product on its contiguous
    # gathered copy, each quotient straight into its strided column; x goes
    # before y is gathered, so the two copies can share one block
    z = depth_map.depths[valid]
    points[:, 2] = z
    x = np.broadcast_to(np.arange(w, dtype=float) - intrinsics.cx, (h, w))[valid]
    x *= z
    np.divide(x, intrinsics.fx, out=points[:, 0])
    del x
    y = np.broadcast_to((np.arange(h, dtype=float) - intrinsics.cy)[:, None],
                        (h, w))[valid]
    y *= z
    np.divide(y, intrinsics.fy, out=points[:, 1])
    return PointSet(points)


def refine_cloud(depth_map: DepthMap, intrinsics: Intrinsics,
                 cfg: BilateralConfig = BilateralConfig()) -> PointSet:
    """Bilateral-filter the depth map, then back-project it."""
    return depth_to_points(bilateral_depth(depth_map, cfg), intrinsics)
