"""Pose-adaptive per-frame update weighting.

Combines a linear motion score (translation + rotation magnitudes) with a
frequency-domain image quality score into a clipped learning-rate weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateConfiguration, EmptyImage, NegativeMagnitude,
                     NonFiniteResult)
from .geometry import GrayImage, Pose, relative_pose


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


def to_grayscale(rgb: np.ndarray) -> GrayImage:
    """BT.601 luma conversion of an H x W x 3 raster in [0, 1]."""
    rgb = np.asarray(rgb, dtype=float)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.size == 0:
        raise EmptyImage("expected a nonempty H x W x 3 raster")
    gray = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    return GrayImage(gray)


def dft2_magnitude_centered(img: GrayImage) -> np.ndarray:
    """Magnitude of the 2D DFT, zero frequency shifted to the center
    (DC sits at (H//2, W//2)).

    Built from the half spectrum of `rfft2`: the columns left of centre are
    mirrored from it by Hermitian symmetry, |X[r, -k]| = |X[-r, k]|.
    """
    h, w = img.pixels.shape
    half = np.abs(np.fft.rfft2(img.pixels))  # columns k = 0 .. w // 2
    r0, c = h // 2, w // 2  # centred row and column of DC
    full = np.empty((h, w))
    # k >= 0: rows rolled by r0, as fftshift does
    full[r0:, c:] = half[:h - r0, :w - c]
    full[:r0, c:] = half[h - r0:, :w - c]
    # k = -1 .. -c, read right to left from the centre: row i holds
    # frequency i - r0, so its mirror is row -(i - r0) of the half spectrum
    left = full[:, :c][:, ::-1]
    left[:r0 + 1] = half[r0::-1, 1:c + 1]
    left[r0 + 1:] = half[:r0:-1, 1:c + 1]
    return full


@functools.lru_cache(maxsize=8)
def _outside_disk(h: int, w: int, radius: float) -> np.ndarray:
    """Read-only mask of the centred (h, w) bins farther than `radius` from
    DC, built once per shape and radius."""
    v = np.arange(h)[:, None] - h // 2
    u = np.arange(w)[None, :] - w // 2
    mask = (u * u + v * v) > radius * radius
    mask.flags.writeable = False
    return mask


def highfreq_ratio(mags: np.ndarray, radius: float,
                   epsilon: float = ScoreConfig.epsilon) -> float:
    """Fraction of centered spectral magnitude outside the disk of `radius`."""
    mask = _outside_disk(*mags.shape, radius)
    total = float(mags.sum())
    try:
        return float(mags[mask].sum()) / (total + epsilon)
    except ZeroDivisionError:
        raise DegenerateConfiguration("spectrum and epsilon sum to 0") from None


def quality_score(ratio: float) -> float:
    """Sigmoid image-quality score of the high-frequency ratio: gain 20,
    midpoint 0.1; 0.0, its limit, below about -35.4, where exp overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-20.0 * (ratio - 0.1)))
    except OverflowError:
        return 0.0


def motion_score(delta_x: float, delta_q: float, w1: float, w2: float) -> float:
    """Weighted sum of translation and rotation magnitudes."""
    if delta_x < 0 or delta_q < 0:
        raise NegativeMagnitude("motion magnitudes must be nonnegative")
    return NonFiniteResult.check(w1 * delta_x + w2 * delta_q, "motion score")


def adaptive_update_weight(s1: float, s2: float,
                           clip_max: float = ScoreConfig.clip_max) -> float:
    """Clipped product of motion and quality scores; the learning-rate weight."""
    return min(s1 * s2, clip_max)


class ScoreTerms(NamedTuple):
    """Every intermediate of one frame's score, ending in its weight."""

    delta_x: float
    delta_q: float
    s1: float
    ratio: float
    s2: float
    weight: float


def score_terms(prev: Pose | None, cur: Pose, img: GrayImage,
                cfg: ScoreConfig = ScoreConfig()) -> ScoreTerms:
    """Full scoring pipeline for one frame of a stream.

    The first frame (prev is None) has zero motion terms and weight
    cfg.initial_weight, so the first observation can fully initialize the
    state; its ratio and s2 are still computed.
    """
    ratio = highfreq_ratio(dft2_magnitude_centered(img),
                           cfg.effective_radius(*img.pixels.shape), cfg.epsilon)
    s2 = quality_score(ratio)
    if prev is None:
        return ScoreTerms(0.0, 0.0, 0.0, ratio, s2, cfg.initial_weight)
    delta_t, delta_q = relative_pose(prev, cur)
    dx, dy, dz = delta_t.tolist()
    delta_x = math.sqrt(dx * dx + dy * dy + dz * dz)
    s1 = motion_score(delta_x, delta_q, cfg.w1, cfg.w2)
    return ScoreTerms(delta_x, delta_q, s1, ratio, s2,
                      adaptive_update_weight(s1, s2, cfg.clip_max))


def score_frame(prev: Pose | None, cur: Pose, img: GrayImage,
                cfg: ScoreConfig = ScoreConfig()) -> float:
    """The frame's update weight; the first frame skips the spectrum."""
    if prev is None:
        return cfg.initial_weight
    return score_terms(prev, cur, img, cfg).weight
