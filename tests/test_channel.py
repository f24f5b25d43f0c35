import numpy as np
import pytest

from gjcodec.channel import awgn, gilbert_elliott, interval_loss_rate
from gjcodec.errors import ParameterError


def test_awgn_high_snr_is_nearly_transparent(rng):
    x = rng.normal(0, 1, 10_000)
    y = awgn(x, 100.0, np.random.default_rng(1))
    assert np.sqrt(np.mean((y - x) ** 2)) < 1e-4


def test_awgn_noise_variance_at_0db():
    rng = np.random.default_rng(5)
    x = rng.choice([-1.0, 1.0], 1_000_000)  # exactly unit power
    y = awgn(x, 0.0, np.random.default_rng(6))
    noise_var = np.var(y - x)
    assert abs(noise_var - 1.0) < 0.01


def test_awgn_deterministic_under_seeded_rng(rng):
    x = rng.normal(0, 1, 1000)
    a = awgn(x, 10.0, np.random.default_rng(3))
    b = awgn(x, 10.0, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("snr_db", [-4.0, 0.0, 6.0, 20.0])
def test_awgn_realized_snr(snr_db, rng):
    x = rng.normal(0, 2.0, 200_000)
    y = awgn(x, snr_db, np.random.default_rng(int(snr_db) + 50))
    realized = 10 * np.log10(np.mean(x ** 2) / np.mean((y - x) ** 2))
    assert abs(realized - snr_db) < 0.1


def test_gilbert_elliott_stationary_loss_rate():
    """Loss rate converges to pi_B = p_gb / (p_gb + p_bg) for loss_b=1."""
    tr = gilbert_elliott(1_000_000, 0.1, 0.5, 0.0, 1.0,
                         np.random.default_rng(2))
    assert abs(tr.loss_rate() - 1 / 6) < 0.005


def test_gilbert_elliott_all_clear_and_all_lost():
    rng = np.random.default_rng(0)
    clear = gilbert_elliott(5000, 0.2, 0.5, 0.0, 0.0, rng)
    assert not clear.lost.any()
    lost = gilbert_elliott(5000, 0.2, 0.5, 1.0, 1.0, np.random.default_rng(1))
    assert lost.lost.all()


def test_gilbert_elliott_mean_burst_length():
    p_bg = 0.5
    tr = gilbert_elliott(1_000_000, 0.05, p_bg, 0.0, 1.0,
                         np.random.default_rng(8))
    m = np.concatenate([[0], tr.lost.astype(np.int8), [0]])
    starts = np.sum((m[1:] == 1) & (m[:-1] == 0))
    bursts = tr.lost.sum() / starts
    assert abs(bursts - 1 / p_bg) / (1 / p_bg) < 0.05


def test_gilbert_elliott_probability_domain():
    with pytest.raises(ParameterError):
        gilbert_elliott(10, 1.5, 0.5, 0.0, 1.0, np.random.default_rng(0))


def test_interval_loss_rate_direct_count():
    lost = np.zeros(10, dtype=bool)
    lost[0] = lost[7] = True
    assert interval_loss_rate(lost, 5) == [0.2, 0.2]


def test_interval_loss_rate_all_clear():
    assert interval_loss_rate(np.zeros(20, dtype=bool), 4) == [0.0] * 5


def test_interval_loss_rate_whole_trace():
    lost = np.array([True, False, True, False])
    assert interval_loss_rate(lost, 4) == [0.5]

