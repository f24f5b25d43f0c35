import itertools

import numpy as np
import pytest

from gjcodec.errors import FecDecodeError, ParameterError
from gjcodec.fec import Packet, fec_decode, fec_encode, gf_inv, gf_mul


def _slow_gf_mul(a, b):
    """Reference shift-and-add multiply over GF(256), poly 0x11D."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return acc


@pytest.mark.parametrize("seed", range(3))
def test_gf_mul_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        assert gf_mul(a, b) == _slow_gf_mul(a, b)


def test_product_table_matches_reference_exhaustively():
    from gjcodec.fec import _GF_MUL
    ref = np.array([[_slow_gf_mul(a, b) for b in range(256)]
                    for a in range(256)], dtype=np.uint8)
    np.testing.assert_array_equal(_GF_MUL, ref)


def test_gf_inverse():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def _payloads(rng, k, length=11):
    return [bytes(rng.integers(0, 256, length, dtype=np.uint8).tobytes())
            for _ in range(k)]


def test_r_zero_is_passthrough(rng):
    data = _payloads(rng, 3)
    packets = fec_encode(data, 0)
    assert [p.payload for p in packets] == data


def test_parity_packets_share_payload_length(rng):
    packets = fec_encode(_payloads(rng, 4), 2)
    assert len({len(p.payload) for p in packets}) == 1
    assert len(packets) == 6


def test_all_double_losses_recover(rng):
    """k=4, r=2: every C(6,2) erasure pattern is correctable."""
    data = _payloads(rng, 4)
    packets = fec_encode(data, 2)
    for gone in itertools.combinations(range(6), 2):
        received = [p for p in packets if p.index not in gone]
        assert fec_decode(received, 4, 6) == data


def test_systematic_identity_path(rng):
    data = _payloads(rng, 5)
    packets = fec_encode(data, 3)
    assert fec_decode(packets[:5], 5, 8) == data


def test_loss_beyond_parity_fails(rng):
    packets = fec_encode(_payloads(rng, 4), 2)
    with pytest.raises(FecDecodeError):
        fec_decode(packets[3:], 4, 6)  # 3 losses, r=2


def test_k6_r3_boundary(rng):
    data = _payloads(rng, 6)
    packets = fec_encode(data, 3)
    for gone in itertools.combinations(range(9), 3):
        kept = [p for p in packets if p.index not in gone]
        assert fec_decode(kept, 6, 9) == data
    for gone in itertools.combinations(range(9), 4):
        kept = [p for p in packets if p.index not in gone]
        with pytest.raises(FecDecodeError):
            fec_decode(kept, 6, 9)


def test_single_byte_payloads(rng):
    data = [bytes([b]) for b in (7, 200, 0)]
    packets = fec_encode(data, 2)
    kept = [p for p in packets if p.index not in (0, 2)]
    assert fec_decode(kept, 3, 5) == data


def test_unequal_payloads_rejected():
    with pytest.raises(ParameterError):
        fec_encode([b"ab", b"c"], 1)


def test_duplicate_packet_indices_rejected(rng):
    packets = fec_encode(_payloads(rng, 3), 1)
    bad = [packets[0], packets[0], packets[1]]
    with pytest.raises((FecDecodeError, ParameterError)):
        fec_decode(bad, 3, 4)


def _reference_generator_rows(k, total):
    """Rows k..total-1 of V @ inv(V[:k]) for the (k, total) block alone,
    with the shift-and-add multiply and a plain Gauss-Jordan inverse."""
    def power(x, e):
        out = 1
        for _ in range(e):
            out = _slow_gf_mul(out, x)
        return out

    vand = [[power(i, j) for j in range(k)] for i in range(total)]
    a = [row[:] + [int(i == r) for i in range(k)] for r, row in enumerate(vand[:k])]
    for col in range(k):
        pivot = next(r for r in range(col, k) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = gf_inv(a[col][col])
        a[col] = [_slow_gf_mul(inv, x) for x in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x ^ _slow_gf_mul(f, y) for x, y in zip(a[r], a[col])]
    top_inv = [row[k:] for row in a]
    rows = []
    for row in vand[k:]:
        out = [0] * k
        for j in range(k):
            for t in range(k):
                out[j] ^= _slow_gf_mul(row[t], top_inv[t][j])
        rows.append(out)
    return np.array(rows, dtype=np.uint8).reshape(total - k, k)


@pytest.mark.parametrize("k, totals", [(1, (2, 9, 255)), (4, (5, 6, 40)),
                                       (12, (13, 20, 60)), (50, (55, 100))])
def test_parity_rows_are_a_prefix_of_one_matrix_per_k(k, totals):
    from gjcodec.fec import _parity_matrix
    _parity_matrix.cache_clear()
    for total in totals:
        np.testing.assert_array_equal(_parity_matrix(k)[:total - k],
                                      _reference_generator_rows(k, total))
    info = _parity_matrix.cache_info()
    assert (info.misses, info.hits) == (1, len(totals) - 1)


def test_repeated_erasure_pattern_reuses_the_recovery_inverse(rng):
    """The inverse is cached per (k, received indices): a repeat decodes to
    the same bytes without inverting again, and the cached inverse is
    read-only."""
    from gjcodec.fec import _recovery_matrix
    _recovery_matrix.cache_clear()
    data = _payloads(rng, 6)
    packets = fec_encode(data, 3)
    kept = [p for p in packets if p.index not in (1, 4)]
    other = _payloads(rng, 6)
    first = fec_decode(kept, 6, 9)
    assert fec_decode(fec_encode(other, 3)[2:], 6, 9) == other
    again = fec_decode(kept, 6, 9)
    assert first == again == data
    info = _recovery_matrix.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    assert not _recovery_matrix(6, (0, 2, 3, 5, 6, 7)).flags.writeable
