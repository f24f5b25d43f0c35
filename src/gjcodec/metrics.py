"""Rate / distortion / robustness metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sources import ImageGrid

PEAK = 255.0


@dataclass
class MetricsRow:
    bpp: float
    bandwidth_ratio: float
    mse: float
    psnr: float


def psnr_from_mse(mse: float) -> float:
    if mse < 0:
        raise ParameterError(f"mse must be non-negative, got {mse}")
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def compute_metrics(original: ImageGrid, reconstruction: ImageGrid,
                    total_bits: int, channel_symbols: int) -> MetricsRow:
    """Compare a reconstruction against its original.

    total_bits is the byte-exact size of everything that was entropy coded /
    transmitted digitally; channel_symbols counts channel uses (for analog
    transmission or an OFDM resource budget).  Both are normalized per pixel.
    """
    if original.samples.shape != reconstruction.samples.shape:
        raise ParameterError(
            f"shape mismatch: {original.samples.shape} vs {reconstruction.samples.shape}")
    if total_bits < 0 or channel_symbols < 0:
        raise ParameterError("bit and symbol counts must be non-negative")
    n = original.pixels
    diff = original.samples.astype(np.float64) - reconstruction.samples.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return MetricsRow(
        bpp=total_bits / n,
        bandwidth_ratio=channel_symbols / n,
        mse=mse,
        psnr=psnr_from_mse(mse),
    )


def detect_cliff(points: list[tuple[float, float]]) -> float:
    """Largest PSNR drop between adjacent conditions of a sweep.

    `points` is a list of (condition, psnr) ordered from best to worst
    condition; conditions must be strictly monotone (descending SNR or
    ascending loss rate both qualify).  Returns max over adjacent pairs of
    psnr[i] - psnr[i+1]; a large value marks a cliff, values near zero mark
    graceful degradation.
    """
    if len(points) < 2:
        raise ParameterError("detect_cliff needs at least two sweep points")
    conds = [c for c, _ in points]
    diffs = [b - a for a, b in zip(conds, conds[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ParameterError("sweep conditions must be strictly ordered")
    psnrs = [p for _, p in points]
    return max(a - b for a, b in zip(psnrs, psnrs[1:]))
