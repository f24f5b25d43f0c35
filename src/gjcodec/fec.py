"""Systematic Reed-Solomon style erasure coding over GF(256).

A block of k equal-length data packets is extended with r parity packets;
any k of the k+r packets recover the data.  The generator matrix is built
from a Vandermonde matrix V (evaluation points 0..k+r-1) normalised so the
top k rows are the identity: M = V @ inv(V[:k]).  Every k-row submatrix of
M is then invertible, which is exactly the any-k recovery property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FecDecodeError, ParameterError

_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
# The most packets, data plus parity, in one block.
MAX_BLOCK = 255

_GF_EXP = np.zeros(510, dtype=np.uint8)
_GF_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _POLY
_GF_EXP[255:510] = _GF_EXP[:255]
del _x, _i

# Full 256 x 256 product table (64 KiB): _GF_MUL[a, b] = a * b, zero rows
# and columns included, so multiplying needs one lookup and no masking.
_GF_MUL = _GF_EXP[_GF_LOG[:, None] + _GF_LOG[None, :]]
_GF_MUL[0, :] = 0
_GF_MUL[:, 0] = 0


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("gf_inv(0)")
    return int(_GF_EXP[255 - int(_GF_LOG[a])])


def _gf_pow(base: int, exp: int) -> int:
    if exp == 0:
        return 1
    if base == 0:
        return 0
    return int(_GF_EXP[(int(_GF_LOG[base]) * exp) % 255])


# Column chunks of _gf_mul_mat keep its (rows, inner, chunk) product
# temporary near this many bytes, whatever the packet length.
_MUL_MAT_BYTES = 1 << 20


def _gf_mul_mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256) via the product table; a and b are uint8."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.uint8)
    step = max(1, _MUL_MAT_BYTES // max(1, a.size))
    for s in range(0, b.shape[1], step):
        prod = _GF_MUL[a[:, :, None], b[None, :, s:s + step]]
        out[:, s:s + step] = np.bitwise_xor.reduce(prod, axis=1)
    return out


def _gf_mat_inv(m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inversion over GF(256); m is a uint8 square matrix."""
    k = len(m)
    a = np.concatenate([m.astype(np.uint8), np.eye(k, dtype=np.uint8)], axis=1)
    for col in range(k):
        nz = np.nonzero(a[col:, col])[0]
        if nz.size == 0:
            raise FecDecodeError("singular recovery matrix")
        pivot = col + int(nz[0])
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
        a[col] = _GF_MUL[gf_inv(int(a[col, col]))][a[col]]
        factors = a[:, col].copy()
        factors[col] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            a[rows] ^= _GF_MUL[factors[rows, None], a[col][None, :]]
    return a[:, k:]


@lru_cache(maxsize=32)
def _parity_matrix(k: int) -> np.ndarray:
    """Rows k..MAX_BLOCK-1 of the systematic generator matrix,
    (MAX_BLOCK - k, k) uint8.

    Row i of V @ inv(V[:k]) depends on k and i only, so every block size
    k + r <= MAX_BLOCK with the same k uses a prefix of these rows.
    """
    vand = np.array([[_gf_pow(i, j) for j in range(k)]
                     for i in range(MAX_BLOCK)], dtype=np.uint8)
    top_inv = _gf_mat_inv(vand[:k])
    return _gf_mul_mat(vand[k:], top_inv)


@lru_cache(maxsize=128)
def _recovery_matrix(k: int, use: tuple) -> np.ndarray:
    """Inverse of the coding rows of the k received packets `use` (sorted
    block indices), read-only; erasure patterns repeat across a sweep."""
    rows = np.concatenate((np.eye(k, dtype=np.uint8), _parity_matrix(k)))
    inv = _gf_mat_inv(rows[list(use)])
    inv.setflags(write=False)
    return inv


@dataclass
class Packet:
    """One transmitted unit: block-local index (k and above for parity)
    and payload."""

    index: int
    payload: bytes


def _validate_block(k: int, r: int) -> None:
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    if k + r > MAX_BLOCK:
        raise ParameterError(f"k + r must be <= {MAX_BLOCK}, got {k + r}")


def fec_encode(data: list[bytes], r: int) -> list[Packet]:
    """Extend k equal-length payloads with r parity packets."""
    k = len(data)
    _validate_block(k, r)
    if k and any(len(p) != len(data[0]) for p in data):
        raise ParameterError("all data payloads must have equal length")
    packets = [Packet(i, bytes(p)) for i, p in enumerate(data)]
    if r == 0:
        return packets
    block = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(k, -1)
    parity = _gf_mul_mat(_parity_matrix(k)[:r], block)
    packets.extend(Packet(k + i, row.tobytes())
                   for i, row in enumerate(parity))
    return packets


def fec_decode(received: list[Packet], k: int, total: int) -> list[bytes]:
    """Recover the k data payloads from any k received packets.

    Raises FecDecodeError when fewer than k packets survive; callers treat
    that as a decode failure signal, not a crash.
    """
    _validate_block(k, total - k)
    seen: dict[int, bytes] = {}
    for p in received:
        if not 0 <= p.index < total:
            raise ParameterError(f"packet index {p.index} outside block 0..{total - 1}")
        if p.index in seen:
            raise ParameterError(f"duplicate packet index {p.index}")
        seen[p.index] = p.payload
    if len(seen) < k:
        raise FecDecodeError(
            f"unrecoverable block: {len(seen)} of {total} packets received, need {k}")
    lengths = {len(v) for v in seen.values()}
    if len(lengths) > 1:
        raise ParameterError("received payloads must have equal length")

    if all(i in seen for i in range(k)):
        return [seen[i] for i in range(k)]

    use = tuple(sorted(seen)[:k])
    rec = np.frombuffer(b"".join(seen[i] for i in use), dtype=np.uint8)
    data = _gf_mul_mat(_recovery_matrix(k, use), rec.reshape(k, -1))
    return [row.tobytes() for row in data]
