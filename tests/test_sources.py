import numpy as np
import pytest

from gjcodec.errors import FormatError, ParameterError
from gjcodec.sources import ImageGrid, ar1_field, load_pgm, save_pgm


def test_ar1_rho_zero_is_standard_normal():
    x = ar1_field(1000, 1000, rho=0.0, seed=7)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02


def test_ar1_lag1_autocorrelation():
    """Empirical lag-1 correlation along each axis must match rho."""
    x = ar1_field(1000, 1000, rho=0.9, seed=11)
    for a, b in ((x[:, :-1], x[:, 1:]), (x[:-1], x[1:])):
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r - 0.9) < 0.01


def test_ar1_deterministic():
    a = ar1_field(50, 100, rho=0.5, seed=42)
    b = ar1_field(50, 100, rho=0.5, seed=42)
    np.testing.assert_array_equal(a, b)


def test_ar1_unit_variance_marginal():
    # stationary marginal variance is 1 regardless of rho
    for rho in (0.0, 0.5, 0.95):
        x = ar1_field(500, 1000, rho=rho, seed=1)
        assert abs(x.var() - 1.0) < 0.05


@pytest.mark.parametrize("rho", [0.0, 0.9])
def test_ar1_field_shape_and_scale(rho):
    f = ar1_field(40, 56, rho, seed=3)
    assert f.shape == (40, 56)
    assert abs(f.var() - 1.0) < 0.15


def test_ar1_rejects_bad_rho():
    with pytest.raises(ParameterError):
        ar1_field(10, 10, rho=1.0, seed=0)


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


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.999])
def test_ar1_field_matches_lfilter_bit_for_bit(rho):
    for seed in range(6):
        for rows, cols in ((1, 1), (8, 8), (16, 40), (33, 7)):
            got = ar1_field(rows, cols, rho, seed)
            ref = _lfilter_ar1_field(rows, cols, rho, seed)
            assert got.tobytes() == ref.tobytes()
            assert got.strides == ref.strides


def test_cli_import_does_not_load_scipy_signal():
    import subprocess
    import sys
    code = ("import sys, gjcodec.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.signal' or m.startswith('scipy.signal.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


_KERNEL_CHILD = """
import contextlib, io, sys
import numpy as np
import gjcodec.cli

def heavy():
    # every scipy name but the two kernel modules gjcodec loads itself
    return sorted(m for m in sys.modules
                  if (m.split(".")[0] == "scipy"
                      and m not in ("scipy.fft._pocketfft.pypocketfft",
                                    "scipy.ndimage._nd_image"))
                  or m.split(".")[:2] in (["numpy", "f2py"], ["numpy", "ma"],
                                          ["numpy", "testing"]))

def sweep():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        gjcodec.cli.main(["sweep", "--scenario", "fig5", "--set",
                          "num_seeds=3", "--set", "train.images=2"])
    return out.getvalue()

print(heavy())
csv = sweep()
print(heavy())
import scipy.fft, scipy.ndimage
from gjcodec.pipelines import _ar1_layer
from gjcodec.sources import ar1_field
from gjcodec.transform import dct2, idct2
x = np.random.default_rng(5).normal(0, 100, (30, 8, 8))
assert dct2(x).tobytes() == scipy.fft.dctn(x, norm="ortho", axes=(-2, -1)).tobytes()
assert idct2(x).tobytes() == scipy.fft.idctn(x, norm="ortho", axes=(-2, -1)).tobytes()
want = scipy.ndimage.zoom(ar1_field(10, 10, 0.9, 3), 16, order=1,
                          mode="nearest", grid_mode=True)
assert _ar1_layer(160, 160, 0.9, 16, 3).tobytes() == want.tobytes()
assert sweep() == csv
print("ok")
"""


def test_cli_and_sweep_load_scipy_kernels_without_scipy_packages():
    """gjcodec loads pocketfft's DCT and ndimage's zoom from their files:
    neither importing the CLI nor a fig5 sweep (whose AR sources are
    upsampled) imports a scipy package, numpy.f2py or numpy.testing.  A
    later import of scipy.fft and scipy.ndimage in the same process still
    works, and both sides give the same bytes."""
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-W", "error", "-c", _KERNEL_CHILD],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["[]", "[]", "ok", ""]


def test_missing_kernel_file_names_the_file():
    from gjcodec.kernels import load_kernel
    with pytest.raises(ImportError, match=r"scipy \S+ has no extension file "
                       r"\S*scipy\S*fft\S*no_such_kernel\{"):
        load_kernel("fft.no_such_kernel")
