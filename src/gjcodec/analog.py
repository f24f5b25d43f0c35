"""Analog joint source-channel image coding.

Blocks are transformed with an 8x8 DCT; the per-position coefficient
variances (fitted offline on training images) rank the positions, and the
m highest-variance positions per block are transmitted directly as real
symbols after power normalisation.  The receiver applies the linear MMSE
(Wiener) gain per position, so quality degrades gracefully with channel
noise instead of collapsing at a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sources import ImageGrid
from .transform import BLOCK, block_coefficients, block_pixels


def jscc_fit(images: list[ImageGrid]) -> np.ndarray:
    """Per-zigzag-position coefficient variances over all 8x8 blocks."""
    if not images:
        raise ParameterError("jscc_fit needs at least one training image")
    all_coeffs = np.concatenate(
        [block_coefficients(img.samples.astype(np.float64)) for img in images],
        axis=0)
    return np.var(all_coeffs, axis=0)


@dataclass
class AnalogCode:
    """Everything the receiver needs besides the fitted variances."""

    height: int
    width: int
    positions: np.ndarray   # zigzag ranks transmitted per block, ascending
    scale: float            # power-normalisation multiplier applied at TX
    mean_offset: float      # per-image mean removed before the transform
    symbols: np.ndarray     # (num_blocks, m) channel symbols, unit mean power
    budget: int             # symbol budget the encoder was given


def jscc_encode(image: ImageGrid, bandwidth_ratio: float,
                variances: np.ndarray) -> AnalogCode:
    """Select and power-normalise the top-variance coefficients.

    budget = floor(bandwidth_ratio * pixels) symbols; with B blocks the
    encoder keeps m = budget // B positions per block (m >= 1 required),
    transmitting m*B <= budget symbols.
    """
    variances = np.asarray(variances, dtype=np.float64)
    if variances.shape != (BLOCK * BLOCK,):
        raise ParameterError("variances must have one entry per 8x8 position")
    if bandwidth_ratio <= 0:
        raise ParameterError(f"bandwidth_ratio must be positive, got {bandwidth_ratio}")
    budget = int(math.floor(bandwidth_ratio * image.pixels))
    pix = image.samples.astype(np.float64)
    mean_offset = float(pix.mean())
    coeffs = block_coefficients(pix - mean_offset)
    m = budget // len(coeffs)
    if m < 1:
        raise ParameterError(
            f"symbol budget {budget} cannot cover one position for each of "
            f"{len(coeffs)} blocks")
    m = min(m, BLOCK * BLOCK)

    # Highest variance first; ties broken toward the lower zigzag rank.
    order = np.lexsort((np.arange(variances.size), -variances))
    positions = np.sort(order[:m])
    selected = coeffs[:, positions]

    energy = float(np.mean(selected * selected))
    if energy == 0.0:
        scale = 1.0
        symbols = np.zeros_like(selected)
    else:
        scale = 1.0 / math.sqrt(energy)
        symbols = selected * scale
    return AnalogCode(height=image.height, width=image.width,
                      positions=positions, scale=scale,
                      mean_offset=mean_offset, symbols=symbols, budget=budget)


def jscc_decode(code: AnalogCode, snr_db: float,
                variances: np.ndarray) -> ImageGrid:
    """Wiener-filter the received symbols and invert the transform.

    Positions that were never transmitted are reconstructed as zero, i.e.
    their prior mean after the per-image mean shift.
    """
    variances = np.asarray(variances, dtype=np.float64)
    if variances.shape != (BLOCK * BLOCK,):
        raise ParameterError("variances must have one entry per 8x8 position")
    if code.symbols.ndim != 2 or code.symbols.shape[1] != len(code.positions):
        raise ParameterError("symbol array does not match the position list")

    noise_var = 10.0 ** (-snr_db / 10.0)  # unit transmit power by construction
    received = code.symbols / code.scale
    prior = variances[code.positions]
    eff_noise = noise_var / (code.scale * code.scale)
    gains = np.where(prior + eff_noise > 0.0, prior / (prior + eff_noise),
                     np.where(prior > 0.0, 1.0, 0.0))
    estimates = received * gains

    num_blocks = (code.height // BLOCK) * (code.width // BLOCK)
    ranked = np.zeros((num_blocks, BLOCK * BLOCK), dtype=np.float64)
    ranked[:, code.positions] = estimates
    pix = block_pixels(ranked, code.height, code.width) + code.mean_offset
    return ImageGrid.from_float(pix)

