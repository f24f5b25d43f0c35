"""Systematic erasure coding over GF(256) with a Cauchy generator.

A block of k equal-length data packets is extended with r parity packets;
any k of the k+r packets recover the data.  Parity row i (k <= i < 255)
holds the Cauchy entries C[i, j] = 1 / (i xor j) over data columns
j < k.  Every square submatrix of a Cauchy matrix is invertible, so every
k rows of the generator [I; C] are too: with e data packets lost, the k
received rows reduce to the e x e submatrix C[P, E] of e parity rows P
and the lost columns E.  That is the any-k recovery property, and it is
also the decoder: subtract the known data's share from the e parity
payloads and multiply by inv(C[P, E]).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Gauss-Jordan inversion over GF(256) of a square Cauchy matrix m
    (uint8).  Its leading principal minors are Cauchy determinants, never
    zero, so every pivot is already in place."""
    k = len(m)
    a = np.concatenate([m.astype(np.uint8), np.eye(k, dtype=np.uint8)], axis=1)
    for col in range(k):
        a[col] = _GF_MUL[gf_inv(int(a[col, col]))][a[col]]
        factors = a[:, col].copy()
        factors[col] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            a[rows] ^= _GF_MUL[factors[rows, None], a[col][None, :]]
    return a[:, k:]


def _cauchy(rows, cols) -> np.ndarray:
    """The generator entries C[i, j] = 1 / (i xor j) for parity rows i and
    data columns j, as a (len(rows), len(cols)) uint8 block."""
    i = np.asarray(rows, dtype=np.intp)[:, None]
    j = np.asarray(cols, dtype=np.intp)[None, :]
    return _GF_EXP[255 - _GF_LOG[i ^ j]]


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
    block = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(k, -1)
    parity = _gf_mul_mat(_cauchy(range(k, k + r), range(k)), block)
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

    lost = [i for i in range(k) if i not in seen]
    parity = sorted(i for i in seen if i >= k)[:len(lost)]
    known = [i for i in range(k) if i in seen]
    width = lengths.pop()

    def block(idx) -> np.ndarray:
        return np.frombuffer(b"".join(seen[i] for i in idx),
                             dtype=np.uint8).reshape(len(idx), width)

    syndrome = block(parity) ^ _gf_mul_mat(_cauchy(parity, known), block(known))
    found = _gf_mul_mat(_gf_mat_inv(_cauchy(parity, lost)), syndrome)
    seen.update(zip(lost, (row.tobytes() for row in found)))
    return [seen[i] for i in range(k)]
