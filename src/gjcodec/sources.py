"""Test sources and image containers.

Provides a separable AR(1) image texture generator used by the bundled
scenarios, and binary PGM (P5) image I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError

# The largest image side the program reads, builds or decodes.  A
# 4096x4096 image is 128 MiB of float64, and a decoder bounded by it walks
# at most 4096**2 symbols.
MAX_SIDE = 4096


def ar1_field(rows: int, cols: int, rho: float, seed: int) -> np.ndarray:
    """Zero-mean, unit-variance field with separable AR(1) correlation.

    corr(x[i,j], x[i+di, j+dj]) ~= rho^(|di| + |dj|).  White noise is run
    through a first-order recursion along rows and then columns; a margin is
    generated and cropped so the interior is effectively stationary.
    """
    if not (0.0 <= rho < 1.0):
        raise ParameterError(f"rho must be in [0, 1), got {rho}")
    if rows <= 0 or cols <= 0:
        raise ParameterError("field dimensions must be positive")
    rng = np.random.default_rng(seed)
    pad = 64
    w = rng.normal(0.0, 1.0, size=(rows + pad, cols + pad))
    gain = np.sqrt(1.0 - rho * rho)  # unit marginal variance per axis
    f = _ar1_filter(w, gain, rho, axis=0)
    f = _ar1_filter(f, gain, rho, axis=1)
    return f[pad:, pad:]


def _ar1_filter(x: np.ndarray, gain: float, rho: float, axis: int) -> np.ndarray:
    """y[i] = gain*x[i] + rho*y[i-1] along `axis`, from rest (y[-1] = 0).

    One vectorized step per index of `axis`; the result keeps the layout of
    `x`, and every element is rounded exactly as a direct-form IIR filter
    rounds it.
    """
    y = gain * x
    yv = np.moveaxis(y, axis, 0)  # a view: the steps write into y
    for i in range(1, yv.shape[0]):
        yv[i] += rho * yv[i - 1]
    return y


@dataclass
class ImageGrid:
    """An 8-bit grayscale image stored row-major."""

    samples: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self):
        a = np.asarray(self.samples)
        if a.ndim != 2 or a.size == 0:
            raise ParameterError("image must be a non-empty 2-D array")
        if a.dtype != np.uint8:
            raise ParameterError(f"image samples must be uint8, got {a.dtype}")
        self.samples = a

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def pixels(self) -> int:
        return self.samples.size

    @classmethod
    def from_float(cls, values: np.ndarray) -> "ImageGrid":
        """Round to nearest and clamp into the 8-bit range."""
        v = np.rint(np.asarray(values, dtype=np.float64))
        return cls(np.clip(v, 0, 255).astype(np.uint8))


def _read_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines, then read one token.
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("pgm: truncated header")
    return data[start:pos], pos


def load_pgm(path) -> ImageGrid:
    """Read a binary PGM (P5) file with maxval 255.  A side above MAX_SIDE
    is a usage error, raised from the header."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FormatError(f"pgm: bad magic {data[:2]!r}, expected P5")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _read_pgm_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"pgm: field {name} is not an integer: {tok!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise FormatError(f"pgm: bad dimensions {width}x{height}")
    if max(width, height) > MAX_SIDE:
        raise ParameterError(f"pgm: image size {height}x{width}: a side "
                             f"above {MAX_SIDE} is not supported")
    if maxval != 255:
        raise FormatError(f"pgm: maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:pos + width * height]
    if len(payload) != width * height:
        raise FormatError(
            f"pgm: payload holds {len(payload)} bytes, expected {width * height}")
    samples = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return ImageGrid(samples.copy())


def save_pgm(image: ImageGrid, path) -> None:
    """Write a binary PGM (P5) file with maxval 255."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.samples.tobytes())
