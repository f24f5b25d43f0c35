"""Fixed orthonormal 8x8 block transform and scalar quantization."""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .kernels import load_kernel

BLOCK = 8
# The quantizer step range: a DCT coefficient of an 8-bit block (at most
# 1,024 in magnitude) over MIN_STEP fits an int64 many times over, and a
# folded value (at most 32,768) times MAX_STEP stays finite.
MIN_STEP, MAX_STEP = 1e-4, 1e4


def _zigzag_order(n: int = BLOCK) -> np.ndarray:
    """Flat indices of an n x n block in zigzag (anti-diagonal) scan order."""
    order = sorted(
        ((i + j, (j if (i + j) % 2 else i), i, j)
         for i in range(n) for j in range(n)))
    return np.array([i * n + j for _, _, i, j in order], dtype=np.int64)

ZIGZAG = _zigzag_order()
# inverse permutation: UNZIGZAG[flat index] = zigzag rank
UNZIGZAG = np.argsort(ZIGZAG)


def split_blocks(samples: np.ndarray, size: int = BLOCK) -> np.ndarray:
    """(H, W) -> (H//size * W//size, size, size) in block raster order."""
    h, w = samples.shape
    if h % size or w % size:
        raise ParameterError(f"image dimensions {w}x{h} are not multiples of {size}")
    a = samples.reshape(h // size, size, w // size, size)
    return a.transpose(0, 2, 1, 3).reshape(-1, size, size)


def merge_blocks(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`split_blocks`: (N, s, s) -> (height, width)."""
    size = blocks.shape[-1]
    a = blocks.reshape(height // size, width // size, size, size)
    return a.transpose(0, 2, 1, 3).reshape(height, width)


# The calls scipy.fft.dctn and idctn make for norm="ortho": pocketfft's
# dct(a, type, axes, inorm 1, out, nthreads), the inverse of type 2 being
# type 3.  A seventh argument (ortho, scipy >= 1.11) keeps its default,
# which orthogonalizes at inorm 1, as scipy 1.10 always did.
def _dct(kernel, a, kind: int) -> np.ndarray:
    return kernel.dct(np.asarray(a, dtype=np.float64), kind, (-2, -1), 1,
                      None, 1)


def _dct_probe(kernel) -> tuple[np.ndarray, list[float]]:
    """The DCT-II of a fixed 8x8 block, and C @ block @ C.T in row order,
    with C the orthonormal DCT-II matrix (in Python floats: numpy
    functions the program does not call would add their pages to its
    memory)."""
    n = BLOCK
    c = [[math.sqrt((2 - (k == 0)) / n)
          * math.cos(math.pi * (2 * j + 1) * k / (2 * n)) for j in range(n)]
         for k in range(n)]
    block = [[(i * n + j) * 37 % 64 for j in range(n)] for i in range(n)]
    cb = [[sum(c[k][i] * block[i][j] for i in range(n)) for j in range(n)]
          for k in range(n)]
    return _dct(kernel, block, 2), [sum(x * y for x, y in zip(row, c[l]))
                                    for row in cb for l in range(n)]


_pocketfft = load_kernel("fft._pocketfft.pypocketfft", _dct_probe)


def dct2(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the trailing two axes."""
    return _dct(_pocketfft, blocks, 2)


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (orthonormal DCT-III)."""
    return _dct(_pocketfft, coeffs, 3)


def zigzag_scan(block_coeffs: np.ndarray) -> np.ndarray:
    """(..., 8, 8) coefficients -> (..., 64) in zigzag rank order."""
    flat = block_coeffs.reshape(*block_coeffs.shape[:-2], BLOCK * BLOCK)
    return flat[..., ZIGZAG]

def zigzag_unscan(ranked: np.ndarray) -> np.ndarray:
    flat = ranked[..., UNZIGZAG]
    return flat.reshape(*ranked.shape[:-1], BLOCK, BLOCK)


def block_coefficients(samples: np.ndarray) -> np.ndarray:
    """(H, W) -> (H//8 * W//8, 64): each block's DCT in zigzag rank order."""
    return zigzag_scan(dct2(split_blocks(samples)))


def block_pixels(ranked: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`block_coefficients`."""
    return merge_blocks(idct2(zigzag_unscan(ranked)), height, width)


def _check_step(step: float) -> None:
    if not MIN_STEP <= step <= MAX_STEP:
        raise ParameterError(f"step must be a number in [{MIN_STEP:g}, "
                             f"{MAX_STEP:g}], got {step}")


def sq_quantize(values: np.ndarray, step: float) -> np.ndarray:
    """Uniform scalar quantizer: round(v / step), halves away from zero."""
    _check_step(step)
    scaled = np.asarray(values, dtype=np.float64) / step
    # np.rint rounds halves to even; the contract wants half-away-from-zero.
    return np.where(scaled >= 0, np.floor(scaled + 0.5),
                    np.ceil(scaled - 0.5)).astype(np.int64)


def sq_dequantize(indices: np.ndarray, step: float) -> np.ndarray:
    _check_step(step)
    return np.asarray(indices, dtype=np.float64) * step


def signed_to_symbol(values: np.ndarray, alphabet: int) -> np.ndarray:
    """Fold signed integers onto [0, alphabet): 0,-1,1,-2,2,... -> 0,1,2,3,4...

    Values outside the representable range saturate at the extremes, which
    keeps encode and decode consistent (the decoder sees the same clamped
    value the encoder coded).
    """
    v = np.asarray(values, dtype=np.int64)
    lo, hi = symbol_value_range(alphabet)
    v = np.clip(v, lo, hi)
    return np.where(v >= 0, 2 * v, -2 * v - 1)


def symbol_to_signed(symbols: np.ndarray) -> np.ndarray:
    s = np.asarray(symbols, dtype=np.int64)
    return np.where(s % 2 == 0, s // 2, -(s + 1) // 2)


def symbol_value_range(alphabet: int) -> tuple[int, int]:
    """Signed range representable by the fold above: [-ceil(A/2), floor((A-1)/2)]."""
    if alphabet < 2:
        raise ParameterError(f"alphabet must be >= 2, got {alphabet}")
    return -(alphabet // 2), (alphabet - 1) // 2
