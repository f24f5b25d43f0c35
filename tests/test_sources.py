import numpy as np
import pytest

from gjcodec.errors import FormatError, ParameterError
from gjcodec.sources import (ImageGrid, ar1_field, gen_ar1, load_pgm,
                             save_pgm)


def test_ar1_rho_zero_is_standard_normal():
    x = gen_ar1(1_000_000, rho=0.0, sigma=1.0, seed=7)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02


def test_ar1_lag1_autocorrelation():
    """Empirical lag-1 correlation must match the generating rho."""
    x = gen_ar1(1_000_000, rho=0.9, sigma=1.0, seed=11)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r - 0.9) < 0.01


def test_ar1_deterministic():
    a = gen_ar1(5000, rho=0.5, sigma=2.0, seed=42)
    b = gen_ar1(5000, rho=0.5, sigma=2.0, seed=42)
    np.testing.assert_array_equal(a, b)


def test_ar1_unit_variance_marginal():
    # stationary marginal variance is sigma^2 regardless of rho
    for rho in (0.0, 0.5, 0.95):
        x = gen_ar1(500_000, rho=rho, sigma=3.0, seed=1)
        assert abs(x.var() / 9.0 - 1.0) < 0.05


@pytest.mark.parametrize("rho", [0.0, 0.9])
def test_ar1_field_shape_and_scale(rho):
    f = ar1_field(40, 56, rho, seed=3)
    assert f.shape == (40, 56)
    assert abs(f.var() - 1.0) < 0.15


def test_ar1_rejects_bad_rho():
    with pytest.raises(ParameterError):
        gen_ar1(10, rho=1.0, sigma=1.0, seed=0)


def test_image_grid_from_float_rounds_and_clips():
    g = ImageGrid.from_float(np.array([[-3.0, 0.4, 254.6, 300.0]]))
    np.testing.assert_array_equal(g.samples, [[0, 0, 255, 255]])
    assert g.samples.dtype == np.uint8
    assert g.pixels == 4


def test_load_pgm_hand_crafted(tmp_path):
    p = tmp_path / "tiny.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
    g = load_pgm(p)
    np.testing.assert_array_equal(g.samples, [[0, 128], [255, 7]])


def test_load_pgm_with_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([9, 200]))
    np.testing.assert_array_equal(load_pgm(p).samples, [[9, 200]])


def test_load_pgm_rejects_color(tmp_path):
    p = tmp_path / "rgb.ppm"
    p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        load_pgm(p)


def test_pgm_round_trip(tmp_path, rng):
    g = ImageGrid(rng.integers(0, 256, (64, 64), dtype=np.uint8))
    path = tmp_path / "rt.pgm"
    save_pgm(g, path)
    np.testing.assert_array_equal(load_pgm(path).samples, g.samples)


def _lfilter_ar1_field(rows, cols, rho, seed):
    """Reference: the direct-form IIR filter that ar1_field's recursion
    replaces."""
    from scipy.signal import lfilter
    rng = np.random.default_rng(seed)
    pad = 64
    w = rng.normal(0.0, 1.0, size=(rows + pad, cols + pad))
    gain = np.sqrt(1.0 - rho * rho)
    f = lfilter([gain], [1.0, -rho], w, axis=0)
    f = lfilter([gain], [1.0, -rho], f, axis=1)
    return f[pad:, pad:]


def _lfilter_gen_ar1(n, rho, sigma, seed):
    from scipy.signal import lfilter
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, sigma)
    if n == 1:
        return np.array([x0])
    w = rng.normal(0.0, sigma * np.sqrt(1.0 - rho * rho), size=n - 1)
    rest, _ = lfilter([1.0], [1.0, -rho], w, zi=np.array([rho * x0]))
    return np.concatenate(([x0], rest))


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.999])
def test_ar1_field_matches_lfilter_bit_for_bit(rho):
    for seed in range(6):
        for rows, cols in ((1, 1), (8, 8), (16, 40), (33, 7)):
            got = ar1_field(rows, cols, rho, seed)
            ref = _lfilter_ar1_field(rows, cols, rho, seed)
            assert got.tobytes() == ref.tobytes()
            assert got.strides == ref.strides


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.999])
def test_gen_ar1_matches_lfilter_bit_for_bit(rho):
    for seed in range(6):
        for n in (1, 2, 7, 5000):
            got = gen_ar1(n, rho, 1.7, seed)
            assert got.tobytes() == _lfilter_gen_ar1(n, rho, 1.7, seed).tobytes()


def test_cli_import_does_not_load_scipy_signal():
    import subprocess
    import sys
    code = ("import sys, gjcodec.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.signal' or m.startswith('scipy.signal.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
