import math

import numpy as np
import pytest

from gjcodec.errors import ParameterError
from gjcodec.metrics import compute_metrics, detect_cliff, psnr_from_mse
from gjcodec.sources import ImageGrid


def _flat(value, shape=(8, 8)):
    return ImageGrid(np.full(shape, value, dtype=np.uint8))


def test_identical_images():
    m = compute_metrics(_flat(33), _flat(33), 0, 0)
    assert m.mse == 0.0
    assert math.isinf(m.psnr)


def test_bandwidth_ratio_definition():
    # channel symbols divided by pixel count
    img = ImageGrid(np.zeros((512, 768), dtype=np.uint8))
    m = compute_metrics(img, img, 0, 7864)
    assert m.bandwidth_ratio == pytest.approx(7864 / 393216)
    assert m.bandwidth_ratio <= 0.02


def test_maximal_error():
    m = compute_metrics(_flat(0), _flat(255), 0, 0)
    assert m.mse == 65025.0
    assert m.psnr == 0.0


def test_bpp_normalization():
    img = _flat(5, (16, 16))
    assert compute_metrics(img, img, 512, 0).bpp == 2.0


def test_shape_mismatch_rejected():
    with pytest.raises(ParameterError):
        compute_metrics(_flat(0, (8, 8)), _flat(0, (8, 16)), 0, 0)


def test_psnr_from_mse_domain():
    with pytest.raises(ParameterError):
        psnr_from_mse(-1.0)


@pytest.mark.parametrize("points,expected", [
    ([(6, 30.0), (4, 30.0), (2, 30.0)], 0.0),
    ([(6, 30.0), (4, 29.0), (2, 8.0)], 21.0),
])
def test_detect_cliff_examples(points, expected):
    assert detect_cliff(points) == pytest.approx(expected)


def test_detect_cliff_gentle_sweep():
    pts = [(6, 30.0), (4, 28.9), (2, 27.5), (0, 26.2)]
    assert detect_cliff(pts) <= 1.5
