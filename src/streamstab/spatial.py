"""Edge-preserving bilateral refinement of depth maps.

Filters each valid pixel by a Gaussian-weighted average over a square window,
with weights combining pixel distance and depth similarity, then optionally
back-projects to a point cloud through pinhole intrinsics.

The filter is evaluated in strips of a few dozen rows of a flat copy of the
map, padded by the window half-width and 0.0 at invalid and padding pixels,
so each window offset is one flat shift. A valid depth is > 0, so a strip's
0/1 validity mask is that copy > 0, and a missing neighbour gets weight 0.0
whatever depth it stores. Every buffer is reused from strip to strip.

The offsets come in pairs (o, -o), one for each offset o before the centre
in row-major order. The weight of o at pixel q is that of -o at q + o, so
each pair's range weights are evaluated once, as one row over the strip and
the pair's reach past it, each step (difference, square, scale, floor, exp,
spatial weight, masks) one NumPy call; the row is then added to the sums of
both pixels while it is still in cache. Each pixel starts from its centre
(weight sum W = 1.0, term sum S = 0.0) and adds weight * (neighbour - depth)
to S, and a valid depth v becomes v + S / W.

The strips are cut into two bands of rows at a strip boundary: the lower
band runs on the process's one worker thread (geometry._in_parallel) while
the caller runs the upper one, so a frame uses up to two CPUs. That worker
is shared by every call and every split stage: read_pfm, depth_to_points
and the spectrum behind score_frame split their rows or columns in halves
with it too. The band count is min(2, the CPUs this process may run on, the
strips); nothing sets it, so a map of at most _STRIP_ROWS rows stays on the
caller. The caller allocates both bands' buffers, and a fault in the worker
(an exception, a floating-point error under the caller's np.errstate) is
raised in the caller. Every output is byte-identical whatever the number of
threads.

Each pixel sums its centre first, then o and -o for each pair in order, with
the same arithmetic as a plain per-offset loop in that order, whatever the
strips and bands: only the caller or only the worker writes a pixel's sums.
So the output is bit-identical to that loop in the v + S / W form, and does
not depend on the number of strips or bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import BilateralConfig
from .errors import (DegenerateConfiguration, InvalidValue, NonFiniteResult,
                     NoValidPixels)
from .geometry import _THREADS, DepthMap, PointSet, _in_parallel, _split

_STRIP_ROWS = 64  # rows per strip
_MAX_BANDS = _THREADS  # row bands, one per thread


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise InvalidValue("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidValue("focal lengths must be positive")


def bilateral_depth(depth_map: DepthMap, cfg: BilateralConfig = BilateralConfig()) -> DepthMap:
    """Bilateral filter over valid pixels; invalid pixels pass through.

    An invalid pixel gets weight 0.0 as a neighbour, whatever depth it stores
    (NaN, +-inf, 0 or negative). A weight below e**-700 (about 1e-304), or
    for sigma_r < 6e-6 below about 6e-310 / sigma_r, is raised to about
    that, so that neither a weight nor its term at a difference of 37
    sigma_r, about the least it is raised at, is subnormal (those run about
    12x slower): the range exponent is floored at that log minus the log of
    the spatial weight before exp. The weight sum starts at the centre's
    1.0, which absorbs the raised weights, and their terms weight *
    (neighbour - depth) are absorbed by the depth, unless a valid depth is
    more than about 1e280 times (2e293 sigma_r for sigma_r < 6e-6) smaller
    than a neighbour's: a float32 PFM depth cannot be.

    A sigma whose square overflows (above about 1.34e154) gives each weight
    of its kind the limit 1.0; a sigma_s whose square underflows to 0
    (below about 1.6e-162) gives each spatial weight the limit 0.0.
    """
    if not depth_map.valid.any():
        raise NoValidPixels("depth map has no valid pixels")
    d = depth_map.depths
    valid = depth_map.valid
    sigma_r = cfg.effective_sigma_r(depth_map)
    neg_two_var = -2.0 * (sigma_r * sigma_r)
    if not neg_two_var:  # a zero difference over it would be 0 / -0, NaN
        raise DegenerateConfiguration(
            f"sigma_r {sigma_r!r} is too small: 2 * sigma_r**2 underflows to 0")
    h, wid = d.shape
    # an offset past the map adds exactly 0.0 to both sums, so clamping the
    # window keeps the bits and bounds the padding
    w = min(cfg.window, max(h, wid) - 1)
    pw = wid + 2 * w  # padded row length

    # a padded flat copy of the depths, 0.0 at invalid and padding pixels;
    # offset (dy, dx) is a flat shift of dy*pw + dx
    values = np.zeros((h + 2 * w, pw))
    np.copyto(values[w:w + h, w:w + wid], d, where=valid)
    values = values.ravel()

    # the least weight e**least, as the docstring gives it; e**0 where
    # 2 sigma_r**2 overflows, so that each range weight is its limit 1.0
    least = (max(-700.0, -712.0 - math.log(sigma_r))
             if neg_two_var > -math.inf else 0.0)
    # the offsets o before the centre in row-major order, each with its shift
    # (< 0), spatial weight s and range exponent floor: exp(floor) * s is
    # about e**least, unless s is below that itself
    pairs = []
    two_var_s = 2.0 * (cfg.sigma_s * cfg.sigma_s)  # 0.0: each s is its limit
    for dy in range(-w, 1):
        for dx in range(-w, w + 1 if dy else 0):
            s = np.exp(-(dy * dy + dx * dx) / two_var_s) if two_var_s else 0.0
            pairs.append((dy * pw + dx, s,
                          min(0.0, least - math.log(s)) if s else 0.0))
    rows = min(_STRIP_ROWS, h)
    n_max = (rows - 1) * pw + wid
    reach = w * pw + w  # largest |shift|

    def band(strips, weight_sum, value_sum, t, diff, mask):
        for r0 in strips:
            r1 = min(r0 + rows, h)
            n = (r1 - r0 - 1) * pw + wid  # first to last real pixel of the strip
            start = (r0 + w) * pw + w
            ws = weight_sum.ravel()[:n]  # views: the buffers are contiguous
            vs = value_sum.ravel()[:n]
            ws.fill(1.0)  # the centre: weight exp(0) * 1.0, term 0.0
            vs.fill(0.0)
            # mask[reach + k] is 1.0 if pixel start + k is valid, else 0.0: a
            # valid depth is > 0, and values holds 0.0 at every other pixel
            np.greater(values[start - reach:start + n + reach], 0.0,
                       out=mask[:n + 2 * reach])
            for sh, spatial, floor in pairs:
                # t[k] weighs pixel q = start + k and its neighbour q + sh,
                # for q from the strip's first pixel to its last - sh: the
                # weight of o at the centre q, and of -o at the centre q + sh.
                # Multiplying by the masks is exact, as the weights are finite
                m = n - sh
                tm, dm = t[:m], diff[:m]
                np.subtract(values[start + sh:start + sh + m],
                            values[start:start + m], out=dm)
                np.square(dm, out=tm)
                # to -inf, which the floor raises; fmax floors a NaN too,
                # inf / -inf where both squares overflow, to 0 there
                with np.errstate(over="ignore", invalid="ignore"):
                    np.divide(tm, neg_two_var, out=tm)
                np.fmax(tm, floor, out=tm)
                np.exp(tm, out=tm)
                np.multiply(tm, spatial, out=tm)
                np.multiply(tm, mask[reach:reach + m], out=tm)
                np.multiply(tm, mask[reach + sh:reach + sh + m], out=tm)
                # each pixel adds o, then -o; the term of o is
                # t * (neighbour - centre) and that of -o its negation
                ws += tm[:n]
                ws += tm[-sh:]
                np.multiply(tm, dm, out=dm)
                vs += dm[:n]
                vs -= dm[-sh:]
            # ws >= 1 at every valid pixel; sums at a missing pixel are never read
            shift = value_sum[:r1 - r0, :wid]
            np.divide(shift, weight_sum[:r1 - r0, :wid], out=shift)
            np.add(d[r0:r1], shift, out=out[r0:r1], where=valid[r0:r1])

    out = np.array(d, copy=True)
    strips = range(0, h, rows)
    # the caller allocates every band's buffers (a worker's allocations would
    # go to another malloc arena); the lower band runs on a worker thread
    # while the caller runs the upper one. Each pixel's sums are made in one
    # band, so the output does not depend on the number of bands
    bands = min(_MAX_BANDS, len(strips))
    bufs = [(np.empty((rows, pw)), np.empty((rows, pw)), np.empty(n_max + reach),
             np.empty(n_max + reach), np.empty(n_max + 2 * reach))
            for _ in range(bands)]
    if bands == 1:
        band(strips, *bufs[0])
    else:
        cut = (len(strips) + 1) // 2
        _in_parallel(lambda: band(strips[:cut], *bufs[0]),
                     lambda: band(strips[cut:], *bufs[1]))
    return DepthMap(out, np.array(valid, copy=True))


def depth_to_points(depth_map: DepthMap, intrinsics: Intrinsics) -> PointSet:
    """Back-project valid pixels through a pinhole model, row-major order."""
    valid = depth_map.valid
    h, w = valid.shape
    # z, u - cx and v - cy at every pixel
    grids = (depth_map.depths,
             np.broadcast_to(np.arange(w, dtype=float) - intrinsics.cx, (h, w)),
             np.broadcast_to((np.arange(h, dtype=float)
                              - intrinsics.cy)[:, None], (h, w)))
    # the rows in two halves, the lower half's points after the upper's. The
    # caller makes every gathered copy (a gather allocates, and the worker
    # allocates nothing): the lower half's before the split, its own in it
    mid = h // 2
    m = np.count_nonzero(valid[:mid])
    points = np.empty((m + np.count_nonzero(valid[mid:]), 3))
    z, x, y = (g[mid:][valid[mid:]] for g in grids)

    def column(p, c, depth, coord, f):
        # (u - cx) * z / fx or (v - cy) * z / fy: the product on its
        # contiguous gathered copy, the quotient straight into its strided
        # column
        coord *= depth
        np.divide(coord, f, out=p[:, c])

    def lower():
        p = points[m:]
        p[:, 2] = z
        column(p, 0, z, x, intrinsics.fx)
        column(p, 1, z, y, intrinsics.fy)

    def upper():
        # x goes before y is gathered, so the two copies can share one block
        p, keep = points[:m], valid[:mid]
        zu = grids[0][:mid][keep]
        p[:, 2] = zu
        column(p, 0, zu, grids[1][:mid][keep], intrinsics.fx)
        column(p, 1, zu, grids[2][:mid][keep], intrinsics.fy)

    try:  # a point past float's range: an overflow flag, which costs no pass
        with np.errstate(over="raise"):
            _split(upper, lower, h)
    except FloatingPointError:
        raise NonFiniteResult("a back-projected point is past float's range: "
                              "the intrinsics are out of scale with the depths")
    return PointSet(points)


def refine_cloud(depth_map: DepthMap, intrinsics: Intrinsics,
                 cfg: BilateralConfig = BilateralConfig()) -> PointSet:
    """Bilateral-filter the depth map, then back-project it."""
    return depth_to_points(bilateral_depth(depth_map, cfg), intrinsics)
