import numpy as np
import pytest

from gjcodec.transform import (BLOCK, dct2, idct2, merge_blocks,
                               signed_to_symbol, split_blocks, sq_dequantize,
                               sq_quantize, symbol_to_signed,
                               symbol_value_range, zigzag_scan, zigzag_unscan)


def test_constant_block_dc_gain():
    """An all-100 block has DC 800 (orthonormal gain 8) and zero ACs."""
    block = np.full((1, 8, 8), 100.0)
    coeffs = dct2(block)[0]
    assert coeffs[0, 0] == pytest.approx(800.0, abs=1e-9)
    assert np.abs(coeffs.ravel()[1:]).max() < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_round_trip(seed):
    rng = np.random.default_rng(seed)
    blocks = rng.uniform(-128, 127, (12, 8, 8))
    assert np.abs(idct2(dct2(blocks)) - blocks).max() < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_parseval(seed):
    rng = np.random.default_rng(100 + seed)
    blocks = rng.normal(0, 40, (6, 8, 8))
    a = np.sum(blocks ** 2)
    b = np.sum(dct2(blocks) ** 2)
    assert abs(a - b) / a < 1e-6


def test_zigzag_is_permutation():
    coeffs = np.arange(64, dtype=np.float64).reshape(1, 8, 8)
    ranked = zigzag_scan(coeffs)
    assert ranked.shape == (1, 64)
    assert sorted(ranked[0].tolist()) == list(range(64))
    np.testing.assert_array_equal(zigzag_unscan(ranked), coeffs)


def test_zigzag_starts_at_dc_then_first_acs():
    ranked = zigzag_scan(np.arange(64, dtype=np.float64).reshape(1, 8, 8))[0]
    # rank 0 is the DC slot, ranks 1-2 the first antidiagonal
    assert ranked[0] == 0
    assert set(ranked[1:3].tolist()) == {1, 8}


def test_split_merge_round_trip(rng):
    img = rng.uniform(0, 255, (32, 48))
    blocks = split_blocks(img)
    assert blocks.shape == (24, BLOCK, BLOCK)
    np.testing.assert_array_equal(merge_blocks(blocks, 32, 48), img)


@pytest.mark.parametrize("value,step,expected", [
    (2.4, 1.0, 2),
    (-2.5, 1.0, -3),
    (3.6, 0.5, 7),
])
def test_quantizer_rounding(value, step, expected):
    assert sq_quantize(np.array([value]), step)[0] == expected


def test_quantizer_error_bound():
    idx = sq_quantize(np.array([3.6]), 0.5)
    deq = sq_dequantize(idx, 0.5)
    assert deq[0] == pytest.approx(3.5)
    assert abs(deq[0] - 3.6) <= 0.25


def test_quantizer_step_domain():
    from gjcodec.errors import ParameterError
    with pytest.raises(ParameterError):
        sq_quantize(np.array([1.0]), 0.0)


@pytest.mark.parametrize("alphabet", [4, 16, 256])
def test_fold_unfold_round_trip(alphabet, rng):
    lo, hi = symbol_value_range(alphabet)
    vals = rng.integers(lo, hi + 1, 500)
    syms = signed_to_symbol(vals, alphabet)
    assert syms.min() >= 0 and syms.max() < alphabet
    np.testing.assert_array_equal(symbol_to_signed(syms), vals)


def test_fold_clips_out_of_range():
    lo, hi = symbol_value_range(8)
    syms = signed_to_symbol(np.array([lo - 10, hi + 10]), 8)
    np.testing.assert_array_equal(symbol_to_signed(syms), [lo, hi])


def test_fold_order_puts_small_magnitudes_first():
    # 0, -1, +1, -2 ... so low symbols mean low magnitude
    np.testing.assert_array_equal(
        signed_to_symbol(np.array([0, -1, 1, -2]), 8), [0, 1, 2, 3])


def _dct_inputs():
    """Seeded inputs of every shape a caller hands dct2/idct2: a batch of
    each size block_coefficients can make (one block per 8x8 tile, so any
    count from 1 up), a bare block, a batch of batches, and views that are
    strided, transposed or Fortran-ordered, of float, float32 and integer
    dtype."""
    rng = np.random.default_rng(29)
    for n in list(range(1, 41)) + [63, 64, 65, 400, 1024]:
        yield rng.uniform(-1024, 1024, (n, BLOCK, BLOCK))
    yield rng.normal(0, 100, (BLOCK, BLOCK))
    yield rng.normal(0, 100, (3, 5, BLOCK, BLOCK))
    big = rng.normal(0, 100, (20, 2 * BLOCK, 2 * BLOCK))
    yield big[::3, ::2, 1::2]
    yield big[:, 3:3 + BLOCK, 5:5 + BLOCK]
    yield big[:7, :BLOCK, :BLOCK].swapaxes(-2, -1)
    yield np.asfortranarray(big[:9, :BLOCK, :BLOCK])
    yield big[:6, :BLOCK, :BLOCK].astype(np.float32)
    yield rng.integers(0, 256, (11, BLOCK, BLOCK), dtype=np.uint8)
    yield split_blocks(rng.uniform(0, 255, (24, 40)))


def test_dct2_and_idct2_give_scipy_fft_bytes():
    """dct2/idct2 call pocketfft without scipy.fft's wrappers; they must
    give the bytes of the public dctn/idctn, on every input shape."""
    from scipy.fft import dctn, idctn
    for x in _dct_inputs():
        ref = np.asarray(x, dtype=np.float64)
        for ours, theirs in ((dct2, dctn), (idct2, idctn)):
            want = theirs(ref, type=2, norm="ortho", axes=(-2, -1))
            got = ours(x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (ours.__name__, x.shape)
