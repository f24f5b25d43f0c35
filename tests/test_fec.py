import functools
import itertools

import numpy as np
import pytest

from gjcodec.errors import FecDecodeError, ParameterError
from gjcodec.fec import Packet, fec_decode, fec_encode, gf_inv


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


def test_product_table_matches_reference_exhaustively():
    from gjcodec.fec import _GF_MUL
    ref = np.array([[_slow_gf_mul(a, b) for b in range(256)]
                    for a in range(256)], dtype=np.uint8)
    np.testing.assert_array_equal(_GF_MUL, ref)


def test_gf_inverse():
    for a in range(1, 256):
        assert _slow_gf_mul(a, gf_inv(a)) == 1
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
    """Rows k..total-1 of the Cauchy generator for the (k, total) block
    alone: entry (i, j) is 1 / (i xor j)."""
    return np.array([[gf_inv(i ^ j) for j in range(k)]
                     for i in range(k, total)], dtype=np.uint8).reshape(total - k, k)


@pytest.mark.parametrize("k, totals", [(1, (2, 9, 255)), (4, (5, 6, 40)),
                                       (12, (13, 20, 60)), (50, (55, 100))])
def test_parity_rows_are_a_prefix_of_one_matrix_per_k(k, totals):
    from gjcodec.fec import _cauchy
    for total in totals:
        np.testing.assert_array_equal(_cauchy(range(k, total), range(k)),
                                      _reference_generator_rows(k, total))


# A frozen copy of the Vandermonde-generator codec that the Cauchy code
# replaced: generator V @ inv(V[:k]) over the evaluation points 0..254,
# and a k x k inverse of the first k received rows per decode.  Parity bytes
# differ between the two codes, but the data each decodes must not.
def _old_inv(m):
    from gjcodec.fec import _GF_MUL
    k = len(m)
    a = np.concatenate([m, np.eye(k, dtype=np.uint8)], axis=1)
    for col in range(k):
        nz = np.nonzero(a[col:, col])[0]
        if nz.size == 0:
            raise FecDecodeError("singular recovery matrix")
        pivot = col + int(nz[0])
        a[[col, pivot]] = a[[pivot, col]]
        a[col] = _GF_MUL[gf_inv(int(a[col, col]))][a[col]]
        for row in range(k):
            if row != col and a[row, col]:
                a[row] ^= _GF_MUL[a[row, col]][a[col]]
    return a[:, k:]


def _old_mul(a, b):
    from gjcodec.fec import _GF_MUL
    return np.bitwise_xor.reduce(_GF_MUL[a[:, :, None], b[None, :, :]], axis=1)


@functools.lru_cache(maxsize=None)
def _old_generator(k):
    from gjcodec.fec import _GF_EXP, _GF_LOG
    vand = np.array([[1 if j == 0 else 0 if i == 0 else
                      _GF_EXP[(int(_GF_LOG[i]) * j) % 255] for j in range(k)]
                     for i in range(255)], dtype=np.uint8)
    return _old_mul(vand, _old_inv(vand[:k]))


def _old_encode(data, r):
    k = len(data)
    block = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(k, -1)
    parity = _old_mul(_old_generator(k)[k:k + r], block)
    return [Packet(i, p) for i, p in enumerate(data)] + [
        Packet(k + i, row.tobytes()) for i, row in enumerate(parity)]


def _old_decode(received, k, total):
    seen = {p.index: p.payload for p in received}
    if len(seen) < k:
        raise FecDecodeError("unrecoverable block")
    if all(i in seen for i in range(k)):
        return [seen[i] for i in range(k)]
    use = sorted(seen)[:k]
    rec = np.frombuffer(b"".join(seen[i] for i in use), dtype=np.uint8)
    inv = _old_inv(_old_generator(k)[use])
    return [row.tobytes() for row in _old_mul(inv, rec.reshape(k, -1))]


def _agree_with_old_codec(rng, data, r, keep_sets):
    """Each keep-set, given in shuffled order, decodes to the same payloads
    under both codecs, or fails under both."""
    k = len(data)
    new, old = fec_encode(data, r), _old_encode(data, r)
    for keep in keep_sets:
        order = rng.permutation(sorted(keep))
        outcomes = []
        for packets, decode in ((new, fec_decode), (old, _old_decode)):
            try:
                outcomes.append(decode([packets[i] for i in order], k, k + r))
            except FecDecodeError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1], (k, r, sorted(keep))
        assert outcomes[0] in (None, data)


def test_small_blocks_agree_with_the_vandermonde_codec_on_every_keep_set(rng):
    for k in range(1, 7):
        for r in range(5):
            total = k + r
            keep_sets = [[i for i in range(total) if mask >> i & 1]
                         for mask in range(1 << total)]
            _agree_with_old_codec(rng, _payloads(rng, k, 5), r, keep_sets)


@pytest.mark.parametrize("r", [50, 200, 205])
def test_k50_agrees_with_the_vandermonde_codec_on_seeded_keep_sets(rng, r):
    k, total = 50, 50 + r
    keep_sets = [list(range(k, total)),        # every data packet lost
                 list(range(k)),               # only parity lost
                 list(range(1, total)),        # one data packet lost
                 list(range(k - 1)) + [total - 1],
                 list(range(1, k))]            # one packet short
    for _ in range(40):
        size = int(rng.integers(k - 2, total + 1))
        keep_sets.append(rng.choice(total, size=size, replace=False).tolist())
    _agree_with_old_codec(rng, _payloads(rng, k, 16), r, keep_sets)
