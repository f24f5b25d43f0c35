import numpy as np
import pytest

from gjcodec.analog import AnalogCode, jscc_decode, jscc_encode, jscc_fit
from gjcodec.errors import ParameterError
from gjcodec.sources import ar1_image
from gjcodec.sources import ImageGrid
from gjcodec.transform import dct2, split_blocks, zigzag_scan


def _ar1_images(count, seed0=400, size=64, rho=0.9, sigma=30.0):
    return [ar1_image(size, size, {"rho": rho, "sigma": sigma,
                                   "mean": 128.0}, seed0 + i)
            for i in range(count)]


def test_fit_constant_images():
    """Constant images put all energy into DC: var(DC) = 64 * var(mean)."""
    levels = [40, 90, 160, 220]
    images = [ImageGrid(np.full((16, 16), v, dtype=np.uint8)) for v in levels]
    var = jscc_fit(images)
    assert var.shape == (64,)
    # DC coefficient of a constant block is 8 * level
    expected_dc = np.var([8.0 * v for v in levels])
    assert var[0] == pytest.approx(expected_dc, rel=1e-9)
    assert np.abs(var[1:]).max() == pytest.approx(0.0, abs=1e-9)
    assert expected_dc == pytest.approx(64 * np.var(levels), rel=1e-9)


def test_fit_spectrum_decays_along_zigzag():
    var = jscc_fit(_ar1_images(6))
    # AR(1) energy is concentrated at low frequency: on average the
    # variance profile decreases along the zigzag ranking
    diffs = np.diff(var)
    assert var[0] > var[8]
    assert diffs.mean() < 0
    assert var[:8].mean() > var[-8:].mean()


def test_fit_single_image_allowed():
    var = jscc_fit(_ar1_images(1))
    assert var.shape == (64,) and (var >= 0).all()


def test_encode_budget_example():
    img = ImageGrid(np.zeros((512, 768), dtype=np.uint8))
    code = jscc_encode(img, 0.02, np.ones(64))
    budget = int(0.02 * img.pixels)
    assert budget == 7864  # floor(0.02 * 393216)
    # uniform per-block selection transmits m = budget // blocks positions
    assert code.symbols.size == 6144
    assert code.symbols.size <= budget


def test_encode_unit_power(rng):
    img = _ar1_images(1, seed0=77)[0]
    code = jscc_encode(img, 0.05, jscc_fit([img]))
    assert abs(float(np.mean(code.symbols ** 2)) - 1.0) < 1e-6


def test_encode_budget_below_block_count_rejected():
    img = ImageGrid(np.zeros((64, 64), dtype=np.uint8))  # 64 blocks
    with pytest.raises(ParameterError):
        jscc_encode(img, 0.0001, np.ones(64))


def test_full_ratio_clean_channel_is_identity():
    img = _ar1_images(1, seed0=12)[0]
    code = jscc_encode(img, 1.0, jscc_fit([img]))
    rec = jscc_decode(code, 100.0, jscc_fit([img]))
    mse = np.mean((rec.samples.astype(float) - img.samples.astype(float)) ** 2)
    assert mse < 1.0


def test_truncation_only_error_at_high_snr():
    """At snr 100 the only distortion is the unsent coefficients."""
    img = _ar1_images(1, seed0=13)[0]
    fitted = jscc_fit([img])
    code = jscc_encode(img, 0.02, fitted)
    rec = jscc_decode(code, 100.0, fitted)
    mse = np.mean((rec.samples.astype(float) - img.samples.astype(float)) ** 2)

    # independent truncation oracle: zero out unsent positions in the
    # mean-removed coefficient field and apply Parseval
    shifted = img.samples.astype(np.float64) - float(img.samples.mean())
    ranked = zigzag_scan(dct2(split_blocks(shifted)))
    dropped = np.delete(ranked, code.positions, axis=1)
    truncation_mse = float(np.sum(dropped ** 2) / img.pixels)
    assert mse == pytest.approx(truncation_mse, rel=0.01)


def test_deep_fade_bounded_by_prior_variance():
    images = _ar1_images(4, seed0=500)
    fitted = jscc_fit(images)
    for img in images:
        code = jscc_encode(img, 0.02, fitted)
        rec = jscc_decode(code, -4.0, fitted)
        mse = np.mean((rec.samples.astype(float)
                       - img.samples.astype(float)) ** 2)
        assert mse <= 1.05 * np.var(img.samples.astype(float))


def test_wiener_shrinkage_per_position_sanity():
    """Transmitted-position MSE stays under min(prior, noise) * 1.05.

    The Wiener estimate has expected error prior*noise/(prior+noise), so
    neither the prior variance nor the effective channel noise can be
    beaten; averaged over many blocks the realized error must respect
    that envelope (small absolute slack covers channel-estimate noise).
    """
    from dataclasses import replace
    from gjcodec.channel import awgn

    images = _ar1_images(24, seed0=60)
    fitted = jscc_fit(images)
    snr_db = 2.0
    noise_var = 10 ** (-snr_db / 10)
    err_sum = np.zeros(64)
    bound_sum = np.zeros(64)
    blocks_seen = 0
    positions = None
    for i, img in enumerate(images):
        code = jscc_encode(img, 0.05, fitted)
        positions = code.positions
        noisy = replace(code, symbols=awgn(
            code.symbols, snr_db, np.random.default_rng(9000 + i)))
        # coefficient-domain estimate straight from the Wiener stage
        prior = fitted[code.positions]
        eff_noise = noise_var / code.scale ** 2
        est = (noisy.symbols / code.scale) * (prior / (prior + eff_noise))
        truth = zigzag_scan(dct2(split_blocks(
            img.samples.astype(np.float64) - code.mean_offset)))
        err = (est - truth[:, code.positions]) ** 2
        err_sum[code.positions] += err.sum(axis=0)
        bound_sum[code.positions] += len(err) * np.minimum(prior, eff_noise)
        blocks_seen += len(err)
    sel = bound_sum > 0
    assert blocks_seen >= 1000  # enough samples for a stable estimate
    assert (err_sum[sel] <= bound_sum[sel] * 1.05 + 1e-9).all()


def test_decode_rejects_wrong_variance_length():
    img = _ar1_images(1)[0]
    code = jscc_encode(img, 0.05, jscc_fit([img]))
    with pytest.raises(ParameterError):
        jscc_decode(code, 10.0, np.ones(10))
